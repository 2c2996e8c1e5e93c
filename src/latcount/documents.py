"""Lattice documents: the JSON interchange schema and the DOT drawing that
``enumerate`` prints.

{"n": int, "covers": [[lo, hi], ...], "red": [int], "nullity": int,
 "fbb": "F1|F2|F3|F4|M2" or null} with covers sorted ascending.
"""

from __future__ import annotations

from .canon import _height_depth, _neighbours
from .poset import CoverDigraph, Lattice, _cover_rows, _reducibles, as_lattice
from .poset import build_poset, nullity
from .reduction import FbbClass, classify_fbb


def lattice_document(p: CoverDigraph, fbb: FbbClass | None = None) -> dict:
    """The document of the lattice with cover digraph ``p``.  ``fbb`` is its
    fundamental basic block class when the caller knows it already; only
    otherwise is ``p`` checked as a lattice, to derive the class.  Either
    way a label outside ``0..n-1``, a self-loop or a cover listed twice
    raises as in ``poset.nullity``.  With ``fbb`` given, the covers of ``p``
    are otherwise read as given, so ``p`` must be a lattice's cover
    relation, as a decoded certificate is.

    A finite poset with one minimal element is connected, so then the
    nullity is read off the sizes; any other digraph goes to ``nullity``."""
    up, down = _cover_rows(p)
    red = _reducibles(up, down)
    if fbb is None and len(red) in (2, 3):
        fbb = classify_fbb(as_lattice(p))
    return {
        "n": p.n,
        "covers": [[a, b] for a, b in sorted(p.covers)],
        "red": red,
        "nullity": len(p.covers) - p.n + 1 if down.count(0) == 1 else nullity(p),
        "fbb": None if fbb is None else fbb.value,
    }


def document_json(doc: dict) -> str:
    import json  # only the json format pays for it

    return json.dumps(doc)


def document_to_lattice(doc: dict) -> Lattice:
    return as_lattice(build_poset(doc["n"], doc["covers"]))


def dot_digraph(p: CoverDigraph, name: str) -> str:
    """A DOT digraph of the cover digraph ``p`` whose ranks follow element
    height, covers drawn upward."""
    height = _height_depth(p.n, *_neighbours(p.up_adjacency()))[0]
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for h in range(max(height) + 1 if p.n else 0):
        level = [str(v) for v in range(p.n) if height[v] == h]
        if level:
            lines.append("  { rank=same; " + "; ".join(level) + "; }")
    for a, b in sorted(p.covers):
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)
