"""Exact counting and exhaustive enumeration of finite lattices classified
by their number of reducible elements.

The public names load their home module on first access (PEP 562), so a
caller pays only for the layers it uses: ``series`` and the CLI's count
commands load no lattice code, and ``census`` loads the exhaustive search
alone, not the constructive path or the formulas.
"""

from importlib import import_module

# home module -> the public names it defines
_HOMES = {
    "adjunct": (
        "AdjunctPair",
        "AdjunctRep",
        "IncomparableReducibles",
        "NotDismantlable",
        "PairIsCover",
        "PairNotComparable",
        "adjunct_sum",
        "decompose",
        "direct_sum",
        "pair_multiplicity",
        "realize",
    ),
    "canon": ("Certificate", "canonical_certificate", "canonical_labeling"),
    "errors": ("LatticeError", "SizeLimitExceeded"),
    "formulas": (
        "b1_blocks",
        "b2_blocks",
        "b3_blocks",
        "b4_blocks",
        "l1_lattices",
        "l2_lattices",
        "l3_lattices",
        "l4_lattices",
        "three_reducible_lattices",
        "two_reducible_blocks",
        "two_reducible_lattices",
    ),
    "oracle": ("VerifyRecord", "enumerate_by_reducible", "verify"),
    "partitions": ("enumerate_partitions", "partition_count"),
    "poset": (
        "CoverDigraph",
        "CycleDetected",
        "ElementClassification",
        "LabelOutOfRange",
        "Lattice",
        "NotALattice",
        "NotComparable",
        "RedundantCover",
        "as_lattice",
        "build_poset",
        "chain",
        "classify_elements",
        "contains_crown",
        "dual",
        "is_dismantlable",
        "maximal_chains_in_interval",
        "meet_join",
        "nullity",
        "relabel",
    ),
    "reduction": (
        "FbbClass",
        "NotDoublyIrreducible",
        "UnexpectedClass",
        "basic_block_of",
        "basic_retract",
        "classify_fbb",
        "fundamental_basic_block_of",
        "is_retractible",
    ),
    "search": ("OracleCensus", "census", "enumerate_all_lattices"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

# The lattice modules are public as well; ``errors`` and ``search`` are not.
__all__ = sorted([*_HOME, *(m for m in _HOMES if m not in ("errors", "search"))])


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in __all__:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
