"""Exact counting and exhaustive enumeration of finite lattices classified
by their number of reducible elements."""

from .adjunct import (
    AdjunctPair,
    AdjunctRep,
    IncomparableReducibles,
    NotDismantlable,
    PairIsCover,
    PairNotComparable,
    adjunct_sum,
    decompose,
    direct_sum,
    pair_multiplicity,
    realize,
)
from .canon import Certificate, canonical_certificate, canonical_labeling
from .formulas import (
    b1_blocks,
    b2_blocks,
    b3_blocks,
    b4_blocks,
    l1_lattices,
    l2_lattices,
    l3_lattices,
    l4_lattices,
    three_reducible_lattices,
    two_reducible_blocks,
    two_reducible_lattices,
)
from .oracle import (
    OracleCensus,
    SizeLimitExceeded,
    VerifyRecord,
    census,
    enumerate_all_lattices,
    enumerate_by_reducible,
    verify,
)
from .partitions import enumerate_partitions, partition_count
from .poset import (
    CoverDigraph,
    CycleDetected,
    ElementClassification,
    LabelOutOfRange,
    Lattice,
    LatticeError,
    NotALattice,
    NotComparable,
    RedundantCover,
    as_lattice,
    build_poset,
    chain,
    classify_elements,
    contains_crown,
    dual,
    is_dismantlable,
    maximal_chains_in_interval,
    meet_join,
    nullity,
    relabel,
)
from .reduction import (
    FbbClass,
    NotDoublyIrreducible,
    UnexpectedClass,
    basic_block_of,
    basic_retract,
    classify_fbb,
    fundamental_basic_block_of,
    is_retractible,
)

__all__ = [name for name in dir() if not name.startswith("_")]
