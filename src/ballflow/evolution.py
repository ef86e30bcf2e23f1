"""Radius evolution: fingerprints along the critical grid, critical times,
and the robustness radius of the embedding property.

The level at radius r, and so its fingerprint, is constant on each open
interval between consecutive quarter-integer radii (the theorem of
`quotient`), so sampling at the grid points and at interval midpoints
captures the whole evolution exactly.  A timeline keys its levels one
layout at a time, numbers and smooths them in chunks of a layout's levels,
and fingerprints them all in one `quotient.fingerprints` batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError
from .graph import MetricGraph
from .mergetree import _merge_sweep
from .quotient import Fingerprint, _cells, _classes, _grid, _injective, _layout, _level, _levels, fingerprints

CHUNK_CELLS = 12288  # cells of one layout's levels numbered and smoothed together


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


def timeline_loci(g: MetricGraph) -> list[tuple[Fraction, bool]]:
    """Grid points and interval midpoints covering (0, diameter]: the eighths
    j/8 for j <= 2 * ceil(4 * diameter), odd j only while j/8 <= diameter.

    Each locus r is its own rho(r) (the theorem of `quotient`), so its level
    is keyed at r itself: r <= ceil(4 * diameter) / 4 < diameter + 1/4, so
    2 * (r - diameter) < 1/2 and no half is shifted off; and when 4r = j/2
    is not whole, j is odd and floor(4r) / 4 + 1/8 = (j - 1) / 8 + 1/8 = r."""
    d = g.diameter()
    return [
        (Fraction(j, 8), j % 2 == 0)
        for j in range(1, 2 * (4 * d).__ceil__() + 1)
        if j % 2 == 0 or Fraction(j, 8) <= d
    ]


def timeline(g: MetricGraph) -> Timeline:
    """Each locus's level, keyed at r = rho(r) on the layout of r's grid S:
    the loci of one layout in turn, with one of the three alive at a time, by
    descending r, so that a level keys only the cells that shared a class at
    the one before and the new ones (`quotient._Layout`).  Each chunk of at
    most CHUNK_CELLS cells of a layout's levels is numbered in one pass, and
    the class arrays stream into one `fingerprints` batch."""
    groups: dict[int, list[tuple[Fraction, bool]]] = {}
    for r, on_grid in timeline_loci(g):
        groups.setdefault(_grid(r), []).append((r, on_grid))
    loci = []  # (r, on_grid, injective), in the order of the levels

    def chunks():
        for group in groups.values():
            group.sort(reverse=True)
            layout, shared = _layout(g, group[0][0]), ()
            step = max(1, CHUNK_CELLS // (len(layout.cells.vertex) + len(layout.cells.edge)))
            for i in range(0, len(group), step):
                chunk = group[i : i + step]
                *keyed, shared = _levels(g, [r for r, _ in chunk], layout, shared)
                V, q_edges, counts, n0, injective = _classes(layout.cells, *keyed)[:5]
                del keyed  # so that the next chunk's walk holds none of this one's arrays
                loci.extend((r, on_grid, inj) for (r, on_grid), inj in zip(chunk, injective))
                yield V, q_edges, counts, n0
            del layout

    found = fingerprints(chunks())
    entries = [TimelineEntry(r, on_grid, f, injective) for (r, on_grid, injective), f in zip(loci, found)]
    entries.sort(key=lambda e: e.radius)
    codes = [e.fingerprint.canonical_code for e in entries]
    critical, left_sided, right_sided = [], [], []
    for i, e in enumerate(entries):
        code, left, right = codes[i], codes[i - 1], codes[min(i + 1, len(codes) - 1)]
        if e.on_grid and (code != left or left != right):
            critical.append(e.radius)
            (left_sided if code != left else right_sided).append(e.radius)
    return Timeline(tuple(entries), tuple(critical), tuple(left_sided), tuple(right_sided))


@dataclass(frozen=True)
class RobustnessResult:
    r_star: Fraction  # supremum of the radii at which the level embeds
    lower: Fraction  # largest sampled radius at which the level still embeds
    upper: Fraction  # smallest sampled radius at which it does not
    exact: Fraction | None  # least merge radius of the failing level's representatives, when requested


def robustness_radius(g: MetricGraph, exact: bool = False) -> RobustnessResult:
    """The supremum r_star of the radii at which the projection embeds,
    between the last injective timeline locus and the first failing one.

    Equal balls stay equal as r grows, and by the theorem of `quotient`
    injectivity is constant on each open quarter interval, so the first
    failing locus gives r_star = floor(4 * upper) / 4.  With ``exact``,
    `exact` is the minimum pairwise merge radius over the representatives
    of the failing level (vertex cells and segment midpoints).  It can be
    larger than r_star: on `builtin:path`, r_star = 1 and exact = 17/16,
    yet the level at 1001/1000 does not embed.
    """
    layouts: dict = {}  # by grid S, built the first time a locus needs one
    prev = Fraction(0)
    fail = None
    for r, _on_grid in timeline_loci(g):
        S = _grid(r)
        layout = layouts.get(S) or layouts.setdefault(S, _layout(g, r))
        if not _injective(_level(g, r, layout)[0]):
            fail = r
            break
        prev = r
    if fail is None:
        # diameter-radius balls cover X from any center, so this cannot happen
        raise InternalConsistencyError(f"{g.name}: no failure radius found below the diameter")
    r_star = Fraction((fail * 4).__floor__(), 4)
    return RobustnessResult(r_star=r_star, lower=prev, upper=fail, exact=_exact_failure(g, fail) if exact else None)


def _exact_failure(g: MetricGraph, fail: Fraction) -> Fraction:
    """Minimum pairwise merge radius over the subdivision-vertex and
    segment-midpoint representatives at the failing radius: the first
    radius at which the merge sweep joins two of them.  The level's cell
    rows give each point once: a vertex by one incident end."""
    c = _cells(g, fail)
    r, _ = next(_merge_sweep(g, c.representatives(), c.S))
    return r
