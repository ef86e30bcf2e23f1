"""Radius evolution: fingerprints along the critical grid, critical times,
and the robustness radius of the embedding property.

The fingerprint of the level at radius r is constant on each open interval
between consecutive quarter-integer radii, so sampling at the grid points
and at interval midpoints captures the whole evolution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .graph import MetricGraph
from .mergetree import _merge_sweep
from .quotient import Fingerprint, _cells, fingerprint, is_injective, project

QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)


def candidate_grid(g: MetricGraph) -> list[Fraction]:
    """Quarter-integer radii from 1/4 up to the diameter (inclusive)."""
    d = g.diameter()
    n = (d * 4).__ceil__()
    return [Fraction(k, 4) for k in range(1, n + 1)]


@dataclass(frozen=True)
class TimelineEntry:
    radius: Fraction
    on_grid: bool
    fingerprint: Fingerprint
    injective: bool


@dataclass(frozen=True)
class Timeline:
    entries: tuple[TimelineEntry, ...]
    critical_times: tuple[Fraction, ...]
    left_sided_times: tuple[Fraction, ...]  # type changes approaching from the left
    right_sided_times: tuple[Fraction, ...]  # flagged only by a change to the right

    @property
    def distinct_type_count(self) -> int:
        return len({e.fingerprint.canonical_code for e in self.entries})

    def summary_runs(self) -> list[tuple[Fraction, Fraction, Fingerprint]]:
        """Maximal runs of consecutive loci sharing a canonical code, as
        (first radius, last radius, fingerprint) triples."""
        runs = []
        for e in self.entries:
            if runs and runs[-1][2].canonical_code == e.fingerprint.canonical_code:
                runs[-1] = (runs[-1][0], e.radius, runs[-1][2])
            else:
                runs.append((e.radius, e.radius, e.fingerprint))
        return runs


def timeline_loci(g: MetricGraph) -> list[tuple[Fraction, bool]]:
    """Grid points and interval midpoints covering (0, diameter]."""
    grid = candidate_grid(g)
    d = g.diameter()
    loci: list[tuple[Fraction, bool]] = [(EIGHTH, False)]
    for r in grid:
        loci.append((r, True))
        if r + EIGHTH <= d:
            loci.append((r + EIGHTH, False))
    return loci


def timeline(g: MetricGraph) -> Timeline:
    loci = timeline_loci(g)
    entries = []
    for r, on_grid in loci:
        q = project(g, r)
        entries.append(
            TimelineEntry(
                radius=r,
                on_grid=on_grid,
                fingerprint=fingerprint(q),
                injective=q.injective,
            )
        )
    critical = []
    left_sided = []
    right_sided = []
    for i, e in enumerate(entries):
        if not e.on_grid:
            continue
        code = e.fingerprint.canonical_code
        left = entries[i - 1].fingerprint.canonical_code
        right = entries[i + 1].fingerprint.canonical_code if i + 1 < len(entries) else code
        if code != left or left != right:
            critical.append(e.radius)
            if code != left:
                left_sided.append(e.radius)
            else:
                right_sided.append(e.radius)
    return Timeline(tuple(entries), tuple(critical), tuple(left_sided), tuple(right_sided))


def distinct_types(g: MetricGraph) -> list[Fingerprint]:
    """One fingerprint per homeomorphism type appearing along the evolution,
    in order of first appearance."""
    seen = set()
    out = []
    for e in timeline(g).entries:
        code = e.fingerprint.canonical_code
        if code not in seen:
            seen.add(code)
            out.append(e.fingerprint)
    return out


@dataclass(frozen=True)
class RobustnessResult:
    r_star: Fraction  # largest grid value with embedding at every sampled locus below it
    lower: Fraction  # largest sampled radius at which the level still embeds
    upper: Fraction  # smallest sampled radius at which it does not
    exact: Fraction | None  # refined failure radius, when requested


def robustness_radius(g: MetricGraph, exact: bool = False) -> RobustnessResult:
    """Largest grid radius below which the projection embeds at every
    sampled locus, with a one-interval bracket of the true supremum.

    The last injective sampled locus and the first failing one bracket the
    supremum of embedding radii.  With ``exact`` the failure radius is
    refined to the minimum pairwise merge radius over the subdivision
    representatives at the bracketing radius.
    """
    loci = timeline_loci(g)
    prev = Fraction(0)
    fail = None
    for r, _on_grid in loci:
        if not is_injective(g, r):
            fail = r
            break
        prev = r
    if fail is None:
        # diameter-radius balls cover X from any center, so this cannot happen
        raise ValidationError("no failure radius found below the diameter")
    r_star = Fraction((fail * 4).__floor__(), 4)
    result = RobustnessResult(r_star=r_star, lower=prev, upper=fail, exact=None)
    if not exact:
        return result
    return RobustnessResult(
        r_star=r_star, lower=prev, upper=fail, exact=_exact_failure(g, fail)
    )


def _exact_failure(g: MetricGraph, fail: Fraction) -> Fraction:
    """Minimum pairwise merge radius over the subdivision-vertex and
    segment-midpoint representatives at the failing radius: the first
    radius at which the merge sweep joins two of them.  The level's cell
    rows give each point once: a vertex by one incident end."""
    c = _cells(g, fail)
    r, _ = next(_merge_sweep(g, c.representatives(), c.S))
    return r
