"""The four benchmark workloads, their exact inputs and their output checks.

Every input is fixed; nothing here is random.  A check takes the outputs of
one sample, one ``Output`` per call in the order the workload lists them,
and returns the problems it found (empty when the sample is correct).  The
expected values were captured at the seed commit and are independent of the
code under test: digests, literature constants and the README anchor rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Call:
    """One cold process: ``cli`` runs the latcount command line with ``args``,
    ``census`` calls ``latcount.census(int(args[0]))`` and prints a summary."""

    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Output:
    returncode: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    check: Callable[[list[Output], Output | None], list[str]]
    # Variant for the traced run, where forked pool workers could not
    # report their spans back.
    traced_calls: tuple[Call, ...] | None = None
    # Run once per benchmark run, untimed; its output is handed to the check.
    reference: Call | None = None

    def calls_for(self, traced: bool) -> tuple[Call, ...]:
        return self.traced_calls if traced and self.traced_calls else self.calls


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _exit_problems(outs: list[Output]) -> list[str]:
    return [
        f"call {i} exited with code {o.returncode}"
        for i, o in enumerate(outs)
        if o.returncode != 0
    ]


# -- verify ------------------------------------------------------------------

VERIFY_N_MAX = 9
VERIFY_SEED_LINES = (EXPECTED / f"verify-n{VERIFY_N_MAX}.txt").read_text().splitlines()


def check_verify(outs: list[Output], reference: Output | None = None) -> list[str]:
    (out,) = outs
    problems = _exit_problems(outs)
    lines = out.stdout.splitlines()
    if not lines or lines[-1] != "verify: all cells agree":
        problems.append("last line is not 'verify: all cells agree'")
    # Every cell of the seed commit must be present with its value; cells
    # added later (further search cells, say) are allowed.
    present = set(lines)
    missing = [line for line in VERIFY_SEED_LINES if line not in present]
    if missing:
        problems.append(f"{len(missing)} seed cell lines missing or changed, first: {missing[0]!r}")
    return problems


# -- enumerate ---------------------------------------------------------------

ENUMERATE_N = 10
ENUMERATE_MEMBERS = 600
ENUMERATE_BYTES = 98256
ENUMERATE_SHA256 = "b0d2c21fb06b277b17005ebe2f30c741886ffcab367e61cbb03a42492d6079cb"


def check_enumerate(outs: list[Output], reference: Output | None) -> list[str]:
    (out,) = outs
    problems = _exit_problems(outs)
    if len(out.stdout.encode()) != ENUMERATE_BYTES or _sha256(out.stdout) != ENUMERATE_SHA256:
        problems.append("stdout differs from the seed commit's documents")
    members = len(out.stdout.splitlines())
    if members != ENUMERATE_MEMBERS:
        problems.append(f"{members} documents, expected {ENUMERATE_MEMBERS}")
    if out.stderr.strip() != str(members):
        problems.append(f"stderr {out.stderr.strip()!r} is not the document count {members}")
    if reference is None or reference.stdout.strip() != str(members):
        problems.append("document count differs from 'count --reducible 3 --n %d'" % ENUMERATE_N)
    return problems


# -- count -------------------------------------------------------------------

COUNT_DIGESTS = (
    "98e2375668b78514be84f4e56cb55403089b955cc3055cc979ba6dee9554b5ab",
    "dac8db94ee375729dd06a8ea6fe7a8c615cebb8e820733db90e2e040264e77b7",
    "1b9bd1321d9973c5ab5a59918a37138ad3b9dd8ef504ba519dc42d2283e0c92a",
)
# README rows of the three-reducible table, and the n = 10 total.
COUNT_ANCHORS = {6: 2, 7: 15, 8: 65, 10: 600}


def check_count(outs: list[Output], reference: Output | None = None) -> list[str]:
    problems = _exit_problems(outs)
    for i, (out, digest) in enumerate(zip(outs, COUNT_DIGESTS)):
        if _sha256(out.stdout) != digest:
            problems.append(f"call {i} stdout differs from the seed commit")
    try:
        rows = list(csv.DictReader(io.StringIO(outs[0].stdout)))
        totals = {int(r["n"]): int(r["total"]) for r in rows}
        unbalanced = [
            r["n"] for r in rows
            if sum(int(r[c]) for c in ("l1", "l2", "l3", "l4")) != int(r["total"])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"three-reducible table does not parse: {exc!r}"]
    for n, total in COUNT_ANCHORS.items():
        if totals.get(n) != total:
            problems.append(f"n={n} total is {totals.get(n)}, expected {total}")
    if unbalanced:
        problems.append(f"l1+l2+l3+l4 != total at n={unbalanced[0]}")
    return problems


# -- census ------------------------------------------------------------------

CENSUS_N = 8
CENSUS_EXPECTED = {
    "total": 222,  # OEIS A006966 at n = 8
    "classes": {"0": 1, "2": 47, "3": 65, "4": 75, "5": 29, "6": 4, "8": 1},
    "fibers": {"F1": 29, "F2": 29, "F3": 6, "F4": 1},
}


def check_census(outs: list[Output], reference: Output | None = None) -> list[str]:
    (out,) = outs
    problems = _exit_problems(outs)
    try:
        summary = json.loads(out.stdout)
    except ValueError:
        return problems + ["census summary is not JSON"]
    for key, expected in CENSUS_EXPECTED.items():
        if summary.get(key) != expected:
            problems.append(f"census {key} is {summary.get(key)}, expected {expected}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        # Each workload loads some layers and bypasses others; README.md
        # maps every per-layer metric to the workloads it should move.
        # verify: every formula cell against both oracles; canon dominates.
        Workload(
            "verify",
            (Call("cli", ("verify", "--n-max", str(VERIFY_N_MAX))),),
            check_verify,
        ),
        # enumerate: the process pool and the per-member document path.
        Workload(
            "enumerate",
            (Call("cli", ("enumerate", "--n", str(ENUMERATE_N), "--reducible", "3", "--workers", "2")),),
            check_enumerate,
            traced_calls=(Call("cli", ("enumerate", "--n", str(ENUMERATE_N), "--reducible", "3", "--workers", "1")),),
            reference=Call("cli", ("count", "--reducible", "3", "--n", str(ENUMERATE_N))),
        ),
        # count: lattice totals and block cells; formulas and partitions only.
        Workload(
            "count",
            (
                Call("cli", ("table", "--reducible", "3", "--n-from", "1", "--n-to", "50")),
                Call("cli", ("table", "--reducible", "2", "--n-from", "1", "--n-to", "60")),
                Call("cli", ("blocks", "--m-from", "6", "--m-to", "50")),
            ),
            check_count,
        ),
        # census: the exhaustive extension search with state canonicalization.
        Workload(
            "census",
            (Call("census", (str(CENSUS_N),)),),
            check_census,
        ),
    )
}


def mutate_digit(outs: list[Output], rng: random.Random) -> list[Output]:
    """The same outputs with one stdout digit changed, at a seeded position."""
    positions = [
        (i, j)
        for i, out in enumerate(outs)
        for j, ch in enumerate(out.stdout)
        if ch.isdigit()
    ]
    i, j = rng.choice(positions)
    text = outs[i].stdout
    changed = text[:j] + str((int(text[j]) + 1) % 10) + text[j + 1 :]
    return [
        Output(o.returncode, changed, o.stderr) if k == i else o
        for k, o in enumerate(outs)
    ]
