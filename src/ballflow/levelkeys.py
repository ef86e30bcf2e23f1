"""Bulk ball-equality keys at a fixed radius, on a scaled-integer grid.

All offsets at one radius share a common denominator S, so coverage
endpoints are integers times 1/S and a ball is determined by the pair
(reach-from-tail, reach-from-head) per edge plus one within-edge interval
on the center's edge.  The encoding below is injective on set values, so
two keys are equal iff the balls are equal as subsets.  Arithmetic is
integer throughout, hence exact: numpy int64 while an exact-range guard
holds, otherwise the same code on object arrays of Python integers.  Keys
are the raw int64 bytes of a row, or the row as a tuple of Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .graph import GraphPoint, MetricGraph

INT64_SAFE = 1 << 60


def ball_keys(g: MetricGraph, r: Fraction, points: list[GraphPoint]):
    """Keys for closed balls of radius r about the given (canonical) points.

    Returns (keys, full_key): equal keys iff equal balls; full_key is the key
    of the whole graph.
    """
    r = Fraction(r)
    S = lcm(r.denominator, *[p.t.denominator for p in points]) if points else r.denominator
    R = int(r * S)
    E = g.num_edges
    tails = np.fromiter((u for u, _ in g.edges), dtype=np.int64, count=E)
    heads = np.fromiter((v for _, v in g.edges), dtype=np.int64, count=E)
    D = g.vertex_distance_matrix()
    bound = S * (int(D.max()) + 2) + R
    if bound < INT64_SAFE:
        dtype, encode = np.int64, np.ndarray.tobytes
    else:
        dtype, encode = object, lambda row: tuple(row.ravel().tolist())
        D = D.astype(object)

    P = len(points)
    t = np.fromiter((int(p.t * S) for p in points), dtype=dtype, count=P)
    pe = np.fromiter((p.edge for p in points), dtype=np.int64, count=P)
    SD = S * D
    # distance from each point to each vertex, scaled by S
    dp = np.minimum(t[:, None] + SD[tails[pe]], (S - t)[:, None] + SD[heads[pe]])
    H = R - dp[:, tails]  # covered [0, H] where H >= 0
    L = (S - R) + dp[:, heads]  # covered [L, S] where L <= S
    enc_h = np.where(H < 0, -1, np.minimum(H, S))
    enc_l = np.where(L > S, S + 1, np.maximum(L, 0))
    full = (enc_h >= enc_l) | (enc_h == S) | (enc_l == 0)
    enc_h = np.where(full, S, enc_h)
    enc_l = np.where(full, 0, enc_l)

    rows = np.stack([enc_h, enc_l], axis=2)  # (P, E, 2)
    keys = []
    full_row = np.empty((E, 2), dtype=dtype)
    full_row[:, 0] = S
    full_row[:, 1] = 0
    full_key = (encode(full_row), None)
    for i, p in enumerate(points):
        extra = None
        if 0 < t[i] < S:
            e = p.edge
            enc, extra = _center_edge_encoding(
                S, int(H[i, e]), int(L[i, e]), int(t[i]), R
            )
            rows[i, e, 0] = enc[0]
            rows[i, e, 1] = enc[1]
            if extra is not None:
                extra = (e, extra)
        keys.append((encode(rows[i]), extra))
    return keys, full_key


def _center_edge_encoding(S: int, H: int, L: int, t: int, R: int):
    """Canonical encoding of [0,H] u [L,S] u [t-R, t+R] on the center's edge."""
    ivs = []
    if H >= 0:
        ivs.append((0, min(H, S)))
    ivs.append((max(t - R, 0), min(t + R, S)))
    if L <= S:
        ivs.append((max(L, 0), S))
    ivs.sort()
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    if merged == [(0, S)]:
        return (S, 0), None
    if len(merged) == 1:
        a, b = merged[0]
        if a == 0:
            return (b, S + 1), None
        if b == S:
            return (-1, a), None
    if len(merged) == 2 and merged[0][0] == 0 and merged[1][1] == S:
        return (merged[0][1], merged[1][0]), None
    # a middle component exists; pinned encoding cannot express it
    return (-2, -2), tuple(merged)
