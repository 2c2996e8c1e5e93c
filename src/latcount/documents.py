"""Lattice documents: the JSON interchange schema and the DOT drawing that
``enumerate`` prints.

{"n": int, "covers": [[lo, hi], ...], "red": [int], "nullity": int,
 "fbb": "F1|F2|F3|F4|M2" or null} with covers sorted ascending.
"""

from __future__ import annotations

import json

from .canon import _longest_paths, _neighbours
from .poset import Lattice, as_lattice, build_poset, classify_elements, nullity
from .reduction import FbbClass, classify_fbb


def lattice_document(l: Lattice, fbb: FbbClass | None = None) -> dict:
    """The document of ``l``.  ``fbb`` is its fundamental basic block class
    when the caller knows it already; otherwise it is derived from ``l``."""
    cls = classify_elements(l)
    if fbb is None and len(cls.red) in (2, 3):
        fbb = classify_fbb(l)
    return {
        "n": l.n,
        "covers": [list(c) for c in sorted(l.covers)],
        "red": sorted(cls.red),
        "nullity": nullity(l.digraph),
        "fbb": None if fbb is None else fbb.value,
    }


def document_json(doc: dict) -> str:
    return json.dumps(doc)


def document_to_lattice(doc: dict) -> Lattice:
    return as_lattice(
        build_poset(doc["n"], [(int(a), int(b)) for a, b in doc["covers"]])
    )


def dot_digraph(l: Lattice, name: str) -> str:
    """A DOT digraph whose ranks follow element height, covers drawn upward."""
    height = _longest_paths(l.n, *_neighbours(l.digraph.up_adjacency()))
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for h in range(max(height) + 1 if l.n else 0):
        level = [str(v) for v in range(l.n) if height[v] == h]
        if level:
            lines.append("  { rank=same; " + "; ".join(level) + "; }")
    for a, b in sorted(l.covers):
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)
