"""The benchmark's tracer, installed as ``perfbench/child.py`` installs it,
still attributes the work of a census and an enumeration to its layers:
each traced function is wrapped in every module that binds it, wherever
it is defined."""

import json
import os
import subprocess
import sys
from pathlib import Path

import latcount

SRC = Path(latcount.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

# A fresh interpreter imports the package and the CLI, installs the tracer,
# runs a census and an enumeration with their output captured, and prints
# the tracer's report.
CHILD = """
import contextlib, io, json
import latcount, latcount.cli
import tracer
traced = tracer.install()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    latcount.census(6)
    latcount.cli.main(["enumerate", "--n", "7", "--reducible", "3"])
print(json.dumps(traced.report()))
"""

# The work counts of this run, recorded while the search lived in ``oracle``.
WORK = {
    "canon.calls": 41,
    "canon.vertices": 246,
    "canon.rank_calls": 0,
    "poset.as_lattice.calls": 15,
    "adjunct.realize.calls": 13,
    "reduction.classify_fbb.calls": 15,
    "oracle.states.1": 1,
    "oracle.states.2": 1,
    "oracle.states.3": 2,
    "oracle.states.4": 5,
    "oracle.states.5": 15,  # A006966 at 6
    "oracle.states.6": 0,
    "oracle.members": 15,
    "partitions.calls": 0,
}


def test_traced_census_and_enumerate_are_attributed():
    path = os.pathsep.join(filter(None, [str(SRC), str(PERFBENCH), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        # no bytecode cache is written next to perfbench/tracer.py
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["oracle.census.s"] > 0
    assert report["oracle.reducible_class.s"] > 0
    assert {name: report[name] for name in WORK} == WORK
