"""Exact piecewise-linear functions on [0, 1] with rational breakpoints.

Used for per-edge distance envelopes (the "tent" functions): pointwise
min/max insert the exact crossing breakpoints, so extrema and level sets
come out as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by breakpoints and values.

    xs is strictly increasing with xs[0] == 0 and xs[-1] == 1; the function
    is linear between consecutive breakpoints.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.xs) == len(self.ys) >= 2
        assert self.xs[0] == ZERO and self.xs[-1] == ONE

    @staticmethod
    def line(y0: Fraction, y1: Fraction) -> "PiecewiseLinear":
        """The linear function with value y0 at 0 and y1 at 1."""
        return PiecewiseLinear((ZERO, ONE), (Fraction(y0), Fraction(y1)))

    @staticmethod
    def identity() -> "PiecewiseLinear":
        return PiecewiseLinear.line(ZERO, ONE)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        xs, ys = self.xs, self.ys
        if not ZERO <= x <= ONE:
            raise ValueError(f"argument {x} outside [0,1]")
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid] <= x:
                lo = mid
            else:
                hi = mid
        x0, x1 = xs[lo], xs[hi]
        y0, y1 = ys[lo], ys[hi]
        if x == x0:
            return y0
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def __add__(self, other):
        if isinstance(other, PiecewiseLinear):
            return combine(self, other, lambda a, b: a + b, crossings=False)
        c = Fraction(other)
        return PiecewiseLinear(self.xs, tuple(y + c for y in self.ys))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, PiecewiseLinear) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __neg__(self):
        return PiecewiseLinear(self.xs, tuple(-y for y in self.ys))

    def __mul__(self, scalar):
        c = Fraction(scalar)
        return PiecewiseLinear(self.xs, tuple(y * c for y in self.ys))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (ONE / Fraction(scalar))

    def min_value(self) -> Fraction:
        return min(self.ys)

    def max_value(self) -> Fraction:
        return max(self.ys)

    def level_intervals(self, value: Fraction) -> list[tuple[Fraction, Fraction]]:
        """Maximal closed intervals where f == value (points as [a, a]).

        Exact on attained extrema: between breakpoints the function is linear,
        so the level set per piece is empty, a point, or the whole piece.
        """
        value = Fraction(value)
        raw: list[tuple[Fraction, Fraction]] = []
        xs, ys = self.xs, self.ys
        for i in range(len(xs) - 1):
            x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
            if y0 == value and y1 == value:
                raw.append((x0, x1))
            elif y0 == value:
                raw.append((x0, x0))
            elif y1 == value:
                raw.append((x1, x1))
            elif (y0 < value < y1) or (y1 < value < y0):
                x = x0 + (value - y0) * (x1 - x0) / (y1 - y0)
                raw.append((x, x))
        return merge_intervals(raw)


def merge_intervals(
    intervals: Iterable[tuple[Fraction, Fraction]],
) -> list[tuple[Fraction, Fraction]]:
    """Canonical form of a union of closed intervals: sorted, disjoint, merged."""
    items = sorted(intervals)
    out: list[tuple[Fraction, Fraction]] = []
    for a, b in items:
        if b < a:
            continue
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def combine(
    f: PiecewiseLinear,
    g: PiecewiseLinear,
    op: Callable[[Fraction, Fraction], Fraction],
    crossings: bool = True,
) -> PiecewiseLinear:
    """Apply op pointwise; with crossings=True, insert the exact breakpoints
    where f - g changes sign (needed for min/max to stay piecewise linear)."""
    xs = sorted(set(f.xs) | set(g.xs))
    if crossings:
        extra = []
        for i in range(len(xs) - 1):
            x0, x1 = xs[i], xs[i + 1]
            d0 = f(x0) - g(x0)
            d1 = f(x1) - g(x1)
            if (d0 < 0 < d1) or (d1 < 0 < d0):
                x = x0 + (ZERO - d0) * (x1 - x0) / (d1 - d0)
                extra.append(x)
        xs = sorted(set(xs) | set(extra))
    ys = tuple(op(f(x), g(x)) for x in xs)
    return PiecewiseLinear(tuple(xs), ys)


def pl_min(*fs: PiecewiseLinear) -> PiecewiseLinear:
    result = fs[0]
    for f in fs[1:]:
        result = combine(result, f, min)
    return result


def pl_max(*fs: PiecewiseLinear) -> PiecewiseLinear:
    result = fs[0]
    for f in fs[1:]:
        result = combine(result, f, max)
    return result


def pl_max_all(fs: Sequence[PiecewiseLinear]) -> PiecewiseLinear:
    result = fs[0]
    for f in fs[1:]:
        result = combine(result, f, max)
    return result
