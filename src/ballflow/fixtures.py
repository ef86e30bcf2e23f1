"""Built-in example graphs."""

from __future__ import annotations

from fractions import Fraction

from .graph import MetricGraph, load_graph


def path() -> MetricGraph:
    return load_graph(
        {
            "name": "path",
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "length": 1},
                {"u": "b", "v": "c", "length": 1},
            ],
        }
    )


def cycle(n: int, name: str | None = None) -> MetricGraph:
    vs = [f"v{i}" for i in range(n)]
    return load_graph(
        {
            "name": name or f"c{n}",
            "vertices": vs,
            "edges": [
                {"u": vs[i], "v": vs[(i + 1) % n], "length": 1} for i in range(n)
            ],
        }
    )


def c4() -> MetricGraph:
    return cycle(4)


def c6() -> MetricGraph:
    return cycle(6)


def theta() -> MetricGraph:
    """Two parallel unit edges plus a three-edge path between the same pair."""
    return load_graph(
        {
            "name": "theta",
            "vertices": ["u", "v", "w1", "w2"],
            "edges": [
                {"u": "u", "v": "v", "length": 1},
                {"u": "u", "v": "v", "length": 1},
                {"u": "u", "v": "w1", "length": 1},
                {"u": "w1", "v": "w2", "length": 1},
                {"u": "w2", "v": "v", "length": 1},
            ],
        }
    )


def comb(n_teeth: int = 5) -> MetricGraph:
    """Base segment of length 1 with teeth of height 2^-n attached at
    abscissa 2^-n, for n = 0 .. n_teeth-1."""
    if n_teeth < 1:
        raise ValueError("need at least one tooth")
    abscissas = sorted({Fraction(1, 2**n) for n in range(n_teeth)} | {Fraction(0)})
    vertices = ["base0"] + [f"base@{a}" for a in abscissas[1:]]
    edges = []
    prev = "base0"
    prev_a = Fraction(0)
    for a in abscissas[1:]:
        cur = f"base@{a}"
        edges.append({"u": prev, "v": cur, "length": str(a - prev_a)})
        prev, prev_a = cur, a
    for n in range(n_teeth):
        a = Fraction(1, 2**n)
        vertices.append(f"tip{n}")
        edges.append({"u": f"base@{a}", "v": f"tip{n}", "length": str(Fraction(1, 2**n))})
    return load_graph({"name": f"comb{n_teeth}", "vertices": vertices, "edges": edges})


BUILTIN = {
    "path": path,
    "c4": c4,
    "c6": c6,
    "theta": theta,
    "comb": comb,
}


def builtin(name: str) -> MetricGraph:
    if name not in BUILTIN:
        raise KeyError(name)
    return BUILTIN[name]()
