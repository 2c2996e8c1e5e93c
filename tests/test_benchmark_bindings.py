"""The benchmark in ``perfbench/`` reaches into the package by name; this
test fails when a refactor removes a name it binds."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from latcount import OracleCensus

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_binds_resolve():
    tracer = load_tracer()
    assert tracer.SPANS
    for _, module, attr in tracer.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    partitions = importlib.import_module("latcount.partitions")
    assert callable(partitions.partition_count)
    # the tracer counts partition calls through every module-level binding;
    # without this alias `partitions.calls` would read 0 on `verify`
    assert importlib.import_module("latcount.formulas").P is partitions.partition_count
    oracle = importlib.import_module("latcount.oracle")
    assert isinstance(oracle._LEVELS, dict)
    # perfbench/child.py summarizes a census through these
    assert callable(OracleCensus.total)
    fields = {f.name for f in dataclasses.fields(OracleCensus)}
    assert {"classes", "fbb_fibers"} <= fields
