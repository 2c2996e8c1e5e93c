"""What each entry point loads, and the package surface that lazy loading
must keep: ``count``, ``table`` and ``blocks`` read ``series`` alone, so a
cold call must not pay for the search, the canonizer or a process pool, and
``census`` reads the exhaustive search alone, not the constructive path or
the formulas it is checked against."""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path
from types import ModuleType

import pytest

import latcount
from latcount import canon, documents, errors, oracle, poset, search, series
from latcount.cli import main

SRC = Path(latcount.__file__).resolve().parents[1]

# Modules that none of the series commands may load.
LATTICE_LAYERS = {
    *(
        f"latcount.{name}"
        for name in (
            "oracle", "search", "canon", "poset", "adjunct", "reduction",
            "formulas", "partitions", "documents",
        )
    ),
    "multiprocessing",
    "dataclasses",
}

# A fresh interpreter imports the package and the CLI, runs argv[1] with
# stdout captured, and prints the modules loaded since it started.
CHILD = """
import contextlib, io, sys
before = set(sys.modules)
import latcount, latcount.cli
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(sorted(set(sys.modules) - before))
"""

# latcount.__all__ at the commit before the public names loaded lazily, less
# ``NotDismantlable``, which nothing can raise: a lattice whose reducibles
# form a chain, all that ``decompose`` takes, is dismantlable.
PUBLIC_NAMES = [
    "AdjunctPair", "AdjunctRep", "Certificate", "CoverDigraph", "CycleDetected",
    "ElementClassification", "FbbClass", "IncomparableReducibles",
    "LabelOutOfRange", "Lattice", "LatticeError", "NotALattice", "NotComparable",
    "NotDoublyIrreducible", "OracleCensus", "PairIsCover",
    "PairNotComparable", "RedundantCover", "SizeLimitExceeded", "UnexpectedClass",
    "VerifyRecord", "adjunct", "adjunct_sum", "as_lattice", "b1_blocks",
    "b2_blocks", "b3_blocks", "b4_blocks", "basic_block_of", "basic_retract",
    "build_poset", "canon", "canonical_certificate", "canonical_labeling",
    "census", "chain", "classify_elements", "classify_fbb", "contains_crown",
    "decompose", "direct_sum", "dual", "enumerate_all_lattices",
    "enumerate_by_reducible", "enumerate_partitions", "formulas",
    "fundamental_basic_block_of", "is_dismantlable", "is_retractible",
    "l1_lattices", "l2_lattices", "l3_lattices", "l4_lattices",
    "maximal_chains_in_interval", "meet_join", "nullity", "oracle",
    "pair_multiplicity", "partition_count", "partitions", "poset", "realize",
    "reduction", "relabel", "three_reducible_lattices", "two_reducible_blocks",
    "two_reducible_lattices", "verify",
]


@cache
def loaded_by(code: str) -> frozenset[str]:
    """The modules a fresh interpreter loads to import latcount and its CLI
    and run ``code``; each distinct ``code`` runs once per session."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return frozenset(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert {m for m in loaded_by("pass") if m.startswith("latcount")} == {
        "latcount", "latcount.cli", "latcount.errors",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--reducible", "3", "--n", "40"],
        ["table", "--reducible", "2", "--n-from", "1", "--n-to", "30"],
        ["table", "--reducible", "3", "--n-from", "1", "--n-to", "30", "--format", "json"],
        ["blocks", "--m-from", "6", "--m-to", "30"],
        ["blocks", "--m-from", "6", "--m-to", "30", "--k", "4"],
        ["count", "--reducible", "2", "--n", str(series.LIMIT + 1)],
    ],
)
def test_series_commands_load_no_lattice_layer(argv):
    loaded = loaded_by(f"latcount.cli.main({argv!r})")
    assert "latcount.series" in loaded
    assert loaded & LATTICE_LAYERS == set()


VERIFY_6 = "latcount.cli.main(['verify', '--n-max', '6', '--workers', '1'])"
CENSUS_6 = "latcount.census(6)"
LATTICE_RUNS = [
    VERIFY_6,
    "latcount.cli.main(['enumerate', '--n', '7', '--reducible', '3'])",
    CENSUS_6,
]
# The module each lattice run reads its enumeration from.
ORACLE_MODULE = dict(zip(LATTICE_RUNS, ["oracle", "oracle", "search"]))

# sha256 of the ``verify --n-max 6 --json`` report.
REPORT_6_SHA256 = "d77d7bd8669d76c7331fb506192b68c54b5c74a07a169c6edfebdf663d3caa30"


@pytest.mark.parametrize("code", LATTICE_RUNS)
def test_single_process_runs_load_no_pool(code):
    loaded = loaded_by(code)
    assert f"latcount.{ORACLE_MODULE[code]}" in loaded
    assert "multiprocessing" not in loaded


# ``enumerate --n 10 --reducible 3 --workers 2`` with two CPUs visible; it
# must fork one block table worker, or the interpreter fails.
FORKING_ENUMERATE_10 = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
latcount.cli.main(['enumerate', '--n', '10', '--reducible', '3', '--workers', '2'])
assert forks == [1], forks
"""


def test_forking_run_loads_no_pool():
    """A run that splits its block tables over a forked worker loads no
    ``multiprocessing`` either."""
    loaded = loaded_by(FORKING_ENUMERATE_10)
    assert "latcount.oracle" in loaded
    assert "multiprocessing" not in loaded


def test_census_loads_the_search_alone():
    """The search oracle is independent of what it checks: a cold census
    loads neither the constructive path nor the recipes, partitions and
    formulas that path and the closed forms share, nor the count series or
    the document formats."""
    loaded = loaded_by(CENSUS_6)
    assert "latcount.search" in loaded
    assert loaded & {
        f"latcount.{name}"
        for name in ("oracle", "adjunct", "partitions", "formulas", "series", "documents")
    } == set()


def test_oracle_loads_every_module_the_tracer_reads():
    """perfbench/tracer.py imports ``latcount.oracle`` and then takes each
    module it wraps from ``sys.modules``; a module that ``oracle`` stopped
    loading would make every traced run fail.  It also rewraps each traced
    function in every loaded module that binds it, so ``search`` must be
    loaded for a traced census to be timed."""
    tracer = ast.parse((SRC.parent / "perfbench" / "tracer.py").read_text())
    read = {
        node.value
        for node in ast.walk(tracer)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("latcount.")
        and node.value.removeprefix("latcount.").isidentifier()
    }
    assert {"latcount.adjunct", "latcount.partitions"} <= read
    assert read | {"latcount.search"} <= loaded_by("import latcount.oracle")


@pytest.mark.parametrize("code", LATTICE_RUNS)
def test_lattice_runs_load_no_dataclasses(code):
    """The value types are NamedTuples, so no layer pays for
    ``dataclasses`` and the ``inspect`` it pulls in."""
    assert loaded_by(code) & {"dataclasses", "inspect"} == set()


def test_enumerate_edges_loads_no_documents():
    """``--format edges`` prints the decoded covers itself; only the
    ``json`` and ``dot`` formats load the document layer."""
    edges = "latcount.cli.main(['enumerate', '--n', '7', '--reducible', '3', '--format', 'edges'])"
    assert loaded_by(edges) & {"latcount.documents", "json"} == set()
    assert {"latcount.documents", "json"} <= loaded_by(LATTICE_RUNS[1])


def test_enumerate_dot_loads_no_json():
    """``--format dot`` draws from the document layer, but only
    ``document_json`` needs ``json``."""
    dot = "latcount.cli.main(['enumerate', '--n', '7', '--reducible', '3', '--format', 'dot'])"
    loaded = loaded_by(dot)
    assert "latcount.documents" in loaded
    assert "json" not in loaded


def test_verify_loads_json_only_for_its_report(tmp_path):
    assert "json" not in loaded_by(VERIFY_6)
    target = tmp_path / "report.json"
    report = (
        "latcount.cli.main(['verify', '--n-max', '6', '--workers', '1',"
        f" '--json', {str(target)!r}])"
    )
    assert "json" in loaded_by(report)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == REPORT_6_SHA256


# -- the public surface --------------------------------------------------------


def test_all_is_unchanged():
    assert latcount.__all__ == PUBLIC_NAMES


def test_names_are_the_objects_their_modules_bind():
    """Each public name is the object every package module binds under it
    (its home module and the modules that import it from there)."""
    modules = [
        importlib.import_module(f"latcount.{name}")
        for name in (
            "adjunct", "canon", "errors", "formulas", "oracle",
            "partitions", "poset", "reduction", "search",
        )
    ]
    for name in latcount.__all__:
        value = getattr(latcount, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"latcount.{name}"], name
            continue
        bound = [vars(m)[name] for m in modules if name in vars(m)]
        assert bound and all(b is value for b in bound), name


def test_dir_lists_every_public_name():
    assert set(latcount.__all__) <= set(dir(latcount))


def test_star_and_named_imports():
    namespace: dict = {}
    exec("from latcount import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(latcount.__all__)
    exec("from latcount import OracleCensus", namespace)
    assert namespace["OracleCensus"] is search.OracleCensus


def test_lazy_attributes_resolve_or_raise_attribute_error():
    assert latcount.cli.canonical_digraph is canon.canonical_digraph
    assert latcount.cli.lattice_document is documents.lattice_document
    with pytest.raises(AttributeError, match="no_such_name"):
        latcount.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        latcount.cli.no_such_name
    with pytest.raises(ImportError):
        exec("from latcount import no_such_name", {})


# -- one exception hierarchy ---------------------------------------------------


def test_size_guard_is_one_class():
    assert series.SizeLimitExceeded is oracle.SizeLimitExceeded
    assert series.SizeLimitExceeded is errors.SizeLimitExceeded
    assert poset.LatticeError is errors.LatticeError
    assert issubclass(oracle.SizeLimitExceeded, poset.LatticeError)
    assert latcount.SizeLimitExceeded is oracle.SizeLimitExceeded
    assert latcount.LatticeError is poset.LatticeError


OVER = str(series.LIMIT + 1)
UNDER = str(-series.LIMIT - 1)
SERIES_CAP = f"error: series capped at {series.LIMIT} elements\n"
RANGE_CAP = f"error: ranges start at -{series.LIMIT} or above\n"
CLASS_CAP = "error: class search capped at 12 elements\n"
VERIFY_CAP = "error: verification capped at 12 elements\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["count", "--reducible", "3", "--n", OVER], SERIES_CAP),
        (["table", "--reducible", "2", "--n-from", "1", "--n-to", OVER], SERIES_CAP),
        (["blocks", "--m-from", "6", "--m-to", OVER], SERIES_CAP),
        (["blocks", "--m-from", "6", "--m-to", OVER, "--k", "2"], SERIES_CAP),
        (["table", "--reducible", "3", "--n-from", UNDER, "--n-to", "3"], RANGE_CAP),
        (["blocks", "--m-from", UNDER, "--m-to", "3"], RANGE_CAP),
        (["enumerate", "--n", "13", "--reducible", "3"], CLASS_CAP),
        (["verify", "--n-max", "13"], VERIFY_CAP),
    ],
)
def test_size_guards_exit_3_with_their_message(argv, err, capsys):
    assert main(argv) == 3
    assert capsys.readouterr() == ("", err)


# -- no dead code ---------------------------------------------------------------

MODULES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted((SRC / "latcount").glob("*.py"))
}


def referenced(tree: ast.AST) -> set[str]:
    """Every name read in ``tree``, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def listed(tree: ast.Module) -> set[str]:
    """The string literals of a module's ``__all__`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return set()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    """Each name a package module imports, at any depth, is read in that
    module or listed in its ``__all__``, except the names it binds for
    perfbench/tracer.py alone."""
    tree = MODULES[name]
    used = referenced(tree) | listed(tree)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    unread = [f"{name}.{bound}" for bound in imported if bound not in used]
    assert sorted(unread) == sorted(n for n in TRACER_ONLY_IMPORTS if n.startswith(f"{name}."))


def named(node: ast.expr) -> str | None:
    """The name an expression reads, bare or as an attribute."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def called(node: ast.Call) -> str | None:
    """The name a call reads its function from, bare or as an attribute."""
    return named(node.func)


def test_build_poset_feeds_as_lattice_only_for_documents():
    """``as_lattice`` checks every cover digraph it is given, so a module
    passes it ``build_poset(...)``, which checks the same covers, only to
    normalize outside input: a JSON document's covers."""
    sites = [
        f"{name}.{func.name}"
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and called(node) == "as_lattice"
        and any(isinstance(a, ast.Call) and called(a) == "build_poset" for a in node.args)
    ]
    assert sites == ["documents.document_to_lattice"]


def defined(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level by a ``def``, a ``class``
    or an assignment, imports aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                t.id for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name)
            ]
    return names


def read(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: a loaded bare name, an attribute or a name
    imported from a module.  Docstrings and assignment targets read none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_name_is_read():
    """Each private module-level name, a function, a class or a value, is
    read somewhere in the package: no helper is kept that nothing calls.
    Tests and perfbench/ do not count as readers."""
    everywhere = set().union(*map(read, MODULES.values()))
    orphans = [
        f"{name}.{bound}"
        for name, tree in MODULES.items()
        for bound in defined(tree)
        if bound.startswith("_")
        and not bound.startswith("__")
        and bound not in everywhere
    ]
    assert orphans == []


def test_every_lattice_error_is_raised():
    """Each subclass of ``LatticeError`` that the package defines, at any
    depth, appears in a ``raise`` somewhere in the package: no exception
    class is kept that nothing raises."""
    classes = [node for tree in MODULES.values() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    family = {"LatticeError"}
    for _ in classes:  # each pass adds a level; none is deeper than this
        family |= {c.name for c in classes if any(named(b) in family for b in c.bases)}
    raised = {
        named(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert {"NotALattice", "SizeLimitExceeded", "UnexpectedClass"} <= family
    assert sorted(family - raised - {"LatticeError"}) == []


# Public functions that nothing in the package reads and ``latcount`` does
# not export, each kept for a reader outside the package.
UNREAD_PUBLIC_FUNCTIONS = {
    # perfbench/tracer.py wraps these by name until the package has its own
    # stats layer (ROADMAP item 6)
    "canon.canonical_rank",
    "canon.canonical_digraph",
    "poset.induced_subposet",
    # the README's JSON round trip: lattice_document(document_to_lattice(doc))
    "documents.document_to_lattice",
}

# Names a package module imports and never reads.  perfbench/tracer.py
# times the census and counts the search's states through ``oracle``, as
# it did while the search lived there, until the package has its own stats
# layer (ROADMAP item 6).
TRACER_ONLY_IMPORTS = {"oracle.census", "oracle._LEVELS"}


def test_every_public_function_is_exported_or_referenced():
    """Each public module-level function is a public name of ``latcount``,
    is read somewhere in the package, or is kept for a reader outside it."""
    everywhere = set().union(*map(referenced, MODULES.values()))
    orphans = {
        f"{name}.{node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in latcount.__all__
        and node.name not in everywhere
    }
    assert orphans == UNREAD_PUBLIC_FUNCTIONS


def test_every_class_is_referenced_or_public():
    """Each module-level class is read somewhere in the package outside its
    own body, or is a public name of ``latcount``."""
    statements = [node for tree in MODULES.values() for node in tree.body]
    orphans = [
        f"{name}.{node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name not in latcount.__all__
        and not any(
            node.name in referenced(other) for other in statements if other is not node
        )
    ]
    assert orphans == []
