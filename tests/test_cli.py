import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latcount import canon, cli, formulas, oracle, series
from latcount.canon import canonical_certificate
from latcount.cli import main
from latcount.documents import (
    document_json,
    document_to_lattice,
    dot_digraph,
    lattice_document,
)
from latcount.poset import (
    CoverDigraph,
    as_lattice,
    build_poset,
    nullity,
    poset_classification,
)
from latcount.reduction import classify_fbb, f3, m2

VERIFY_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-n9.txt"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
OVER_LIMIT = str(series.LIMIT + 1)
UNDER_LIMIT = str(-series.LIMIT - 1)


def child_env() -> dict:
    """The environment of a command run in a new interpreter: this one's,
    with the ``latcount`` under test first on ``PYTHONPATH``."""
    src = str(Path(series.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestCount:
    def test_two_reducible(self, capsys):
        assert main(["count", "--reducible", "2", "--n", "5"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_three_reducible(self, capsys):
        assert main(["count", "--reducible", "3", "--n", "7"]) == 0
        assert capsys.readouterr().out == "15\n"

    def test_below_threshold(self, capsys):
        assert main(["count", "--reducible", "3", "--n", "4"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_thakare_form(self, capsys):
        """The two published two-reducible sums agree (``verify`` checks
        both against the oracle), so ``count`` has no ``--form``."""
        with pytest.raises(SystemExit) as exc:
            main(["count", "--reducible", "2", "--n", "9", "--form", "thakare"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["count", "--reducible", "2", "--n", "9"]) == 0
        assert capsys.readouterr().out == "84\n"

    @pytest.mark.parametrize("r", ["2", "3"])
    def test_count_is_the_table_total(self, r, capsys):
        for n in ("-400", "-1", "0", "3", "4", "9", "60", "330"):
            assert main(["count", "--reducible", r, "--n", n]) == 0
            count = capsys.readouterr().out
            code = main(
                ["table", "--reducible", r, "--n-from", n, "--n-to", n, "--format", "json"]
            )
            table = capsys.readouterr().out
            if int(n) < -series.LIMIT:
                # a table range starts at -LIMIT or above; no size below 0 has members
                assert (code, table, count) == (3, "", "0\n")
            else:
                assert code == 0
                assert count == f"{json.loads(table)[0]['total']}\n", (r, n)

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--reducible", "5", "--n", "4"])
        assert exc.value.code == 2

    def test_form_with_three_reducible_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--reducible", "3", "--n", "7", "--form", "thakare"])
        assert exc.value.code == 2


class TestTable:
    def test_csv(self, capsys):
        assert main(["table", "--reducible", "3", "--n-from", "6", "--n-to", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,l1,l2,l3,l4,total"
        assert lines[1] == "6,1,1,0,0,2"
        assert lines[2] == "7,7,7,1,0,15"

    def test_two_reducible_totals(self, capsys):
        assert main(["table", "--reducible", "2", "--n-from", "4", "--n-to", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["n,total", "4,1", "5,4", "6,11"]

    def test_json_keys(self, capsys):
        assert (
            main(
                [
                    "table", "--reducible", "3",
                    "--n-from", "6", "--n-to", "7",
                    "--format", "json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert [list(r) for r in rows] == [["n", "l1", "l2", "l3", "l4", "total"]] * 2
        assert rows[1] == {"n": 7, "l1": 7, "l2": 7, "l3": 1, "l4": 0, "total": 15}

    def test_edge_rows(self, capsys):
        assert main(["table", "--reducible", "3", "--n-from", "-2", "--n-to", "7"]) == 0
        assert capsys.readouterr().out == (
            "n,l1,l2,l3,l4,total\n"
            "-2,0,0,0,0,0\n"
            "-1,0,0,0,0,0\n"
            "0,0,0,0,0,0\n"
            "1,0,0,0,0,0\n"
            "2,0,0,0,0,0\n"
            "3,0,0,0,0,0\n"
            "4,0,0,0,0,0\n"
            "5,0,0,0,0,0\n"
            "6,1,1,0,0,2\n"
            "7,7,7,1,0,15\n"
        )


class TestBlocks:
    def test_totals(self, capsys):
        assert main(["blocks", "--m-from", "6", "--m-to", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,two_reducible,b1,b2,b3,b4"
        assert lines[1] == "6,4,1,1,0,0"
        assert lines[2] == "7,6,5,5,1,0"

    def test_single_stratum(self, capsys):
        assert main(["blocks", "--m-from", "8", "--m-to", "8", "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        b1 = formulas.b1_blocks(8, 2)
        assert lines[1] == f"8,{formulas.two_reducible_blocks(8, 2)},{b1},{b1},{formulas.b3_blocks(8, 2)},1"

    def test_stratum_edge_rows(self, capsys):
        assert main(["blocks", "--m-from", "0", "--m-to", "8", "--k", "2"]) == 0
        assert capsys.readouterr().out == (
            "m,two_reducible,b1,b2,b3,b4\n"
            "0,0,0,0,0,0\n"
            "1,0,0,0,0,0\n"
            "2,0,0,0,0,0\n"
            "3,0,0,0,0,0\n"
            "4,0,0,0,0,0\n"
            "5,0,0,0,0,0\n"
            "6,1,0,0,0,0\n"
            "7,1,2,2,0,0\n"
            "8,2,6,6,2,1\n"
        )

    def test_edge_rows(self, capsys):
        """Sizes below zero print zero rows, in CSV and in JSON."""
        assert main(["blocks", "--m-from", "-2", "--m-to", "0"]) == 0
        assert capsys.readouterr().out == (
            "m,two_reducible,b1,b2,b3,b4\n"
            "-2,0,0,0,0,0\n"
            "-1,0,0,0,0,0\n"
            "0,0,0,0,0,0\n"
        )
        argv = ["blocks", "--m-from", "-2", "--m-to", "-1", "--format", "json"]
        assert main(argv) == 0
        zeros = dict.fromkeys(["two_reducible", "b1", "b2", "b3", "b4"], 0)
        assert json.loads(capsys.readouterr().out) == [
            {"m": -2, **zeros},
            {"m": -1, **zeros},
        ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["table", "--reducible", "2", "--n-from", "8", "--n-to", "4"],
            "--n-from must not exceed --n-to",
        ),
        (["blocks", "--m-from", "9", "--m-to", "3"], "--m-from must not exceed --m-to"),
    ],
    ids=["table", "blocks"],
)
def test_bad_range_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"latcount: error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--reducible", "2", "--n", OVER_LIMIT],
        ["count", "--reducible", "3", "--n", OVER_LIMIT],
        ["table", "--reducible", "2", "--n-from", "1", "--n-to", OVER_LIMIT],
        ["table", "--reducible", "3", "--n-from", "1", "--n-to", OVER_LIMIT],
        ["blocks", "--m-from", "6", "--m-to", OVER_LIMIT],
        ["blocks", "--m-from", "6", "--m-to", OVER_LIMIT, "--k", "2"],
        ["table", "--reducible", "2", "--n-from", UNDER_LIMIT, "--n-to", "0"],
        ["table", "--reducible", "3", "--n-from", UNDER_LIMIT, "--n-to", "0"],
        ["blocks", "--m-from", UNDER_LIMIT, "--m-to", "0"],
        ["blocks", "--m-from", UNDER_LIMIT, "--m-to", "0", "--k", "2"],
    ],
)
def test_series_size_limit_exit_3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "8"],
        ["count", "--reducible", "3", "--n", "40"],
        # 30 kB of rows: the pipe breaks inside a print, not at the last flush
        ["table", "--reducible", "3", "--n-from", "1", "--n-to", "300"],
        # documents are written one at a time: the pipe breaks inside the loop
        ["enumerate", "--n", "9", "--reducible", "3"],
        # with two CPUs the tables are first split over a forked child
        ["enumerate", "--n", "10", "--reducible", "3", "--workers", "2", "--format", "dot"],
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv, tmp_path):
    """A reader that closes stdout early (``verify ... | head -1``) is not a
    verification mismatch: the command exits 141, as a shell reports a
    process killed by SIGPIPE, prints no traceback and leaves no process
    behind.  The command and every process it forks hold the write end of
    ``alive``, so it reads end of file once the command has exited only if
    none of them still runs."""
    read, write = os.pipe()
    os.close(read)
    alive, held = os.pipe()
    err = tmp_path / "stderr"
    try:
        with err.open("w") as sink:
            done = subprocess.run(
                [sys.executable, "-m", "latcount.cli", *argv],
                stdout=write,
                stderr=sink,
                pass_fds=(held,),
                env=child_env(),
            )
    finally:
        os.close(write)
        os.close(held)
    os.set_blocking(alive, False)
    try:
        os.read(alive, 1)
    except BlockingIOError:
        pytest.fail("a process the command forked still runs after it exited")
    finally:
        os.close(alive)
    stderr = err.read_text()
    assert done.returncode == 141, stderr
    assert "Traceback" not in stderr


def test_ranges_may_start_at_minus_limit(capsys):
    lowest = str(-series.LIMIT)
    assert main(["table", "--reducible", "2", "--n-from", lowest, "--n-to", lowest]) == 0
    assert main(["blocks", "--m-from", lowest, "--m-to", lowest]) == 0
    assert capsys.readouterr().out == (
        f"n,total\n{lowest},0\nm,two_reducible,b1,b2,b3,b4\n{lowest},0,0,0,0,0\n"
    )


def test_count_workload_digests(capsys):
    """The benchmark's ``count`` commands print the outputs whose digests
    ``perfbench/workloads.py`` records."""
    workloads = load_workloads()
    calls = workloads.WORKLOADS["count"].calls
    assert len(calls) == len(workloads.COUNT_DIGESTS)
    for call, digest in zip(calls, workloads.COUNT_DIGESTS):
        assert call.kind == "cli"
        assert main(list(call.args)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, call.args


def test_enumerate_workload_digest(capsys):
    """The benchmark's ``enumerate`` command, with one worker, prints the
    documents whose digest ``perfbench/workloads.py`` records."""
    workloads = load_workloads()
    (call,) = workloads.WORKLOADS["enumerate"].traced_calls
    assert call.kind == "cli"
    assert main(list(call.args)) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == workloads.ENUMERATE_BYTES
    assert hashlib.sha256(out).hexdigest() == workloads.ENUMERATE_SHA256


def test_enumerate_workload_canonicalizations(capsys, monkeypatch, fresh_tables):
    """From empty tables, the benchmark's ``enumerate`` command canonicalizes
    each of its 385 blocks once and nothing else: the blocks are tagged
    without canonicalizing their fundamental basic blocks."""
    calls = [0]
    canonical = canon._canonical

    def counted(*args):
        calls[0] += 1
        return canonical(*args)

    monkeypatch.setattr(canon, "_canonical", counted)
    (call,) = load_workloads().WORKLOADS["enumerate"].traced_calls
    assert main(list(call.args)) == 0
    capsys.readouterr()
    assert calls == [385]


# sha256 and length of the stdout of `enumerate`, recorded before members
# were derived from their blocks' certificates
ENUMERATE_PINS = {
    ("9", "3", "edges"): ("04f2d582383c8f956cb678482cf93241fcc4dc5404ddac6561aaf01661fb1427", 9514),
    ("9", "3", "dot"): ("6f940185d43388249f1f9dd7b1bdb8044cc3aa0e6fdc01eb6e129ccfec0e7e2f", 58528),
    ("10", "2", "json"): ("eb07570d3ce5068f52fcc83bb7d07d0d27e2980e93c6b84b0627409895b8c695", 21920),
}


@pytest.mark.parametrize("n, r, fmt", ENUMERATE_PINS)
def test_enumerate_stdout_is_pinned(n, r, fmt, capsys):
    assert main(["enumerate", "--n", n, "--reducible", r, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    digest, size = ENUMERATE_PINS[(n, r, fmt)]
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size)


class RecordedWrites:
    """A text stream that keeps every string written to it and hands each
    write and everything else on to ``stream``."""

    def __init__(self, stream):
        self.stream = stream
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.stream.__exit__(*exc)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("n, r, fmt", ENUMERATE_PINS)
def test_enumerate_writes_one_document_at_a_time(
    n, r, fmt, to_file, tmp_path, capsys, monkeypatch
):
    """``enumerate`` writes its documents one at a time, to stdout or to
    ``--out``: a separator only ever ends a write, so no write carries more
    than one document and its separator, and the writes add up to the
    pinned output."""
    argv = ["enumerate", "--n", n, "--reducible", r, "--format", fmt]
    streams = []
    if to_file:
        target = tmp_path / "class"
        argv += ["--out", str(target)]
        opened = cli._output_file

        def recorded(path):
            streams.append(RecordedWrites(opened(path)))
            return streams[-1]

        monkeypatch.setattr(cli, "_output_file", recorded)
    else:
        streams.append(RecordedWrites(io.StringIO()))
        monkeypatch.setattr(sys, "stdout", streams[0])
    assert main(argv) == 0
    (stream,) = streams
    separator = "\n" if fmt == "json" else "\n\n"
    for text in stream.writes:
        assert text.find(separator) in (-1, len(text) - len(separator)), text[:80]
    out = "".join(stream.writes)
    if to_file:
        assert target.read_text() == out
    digest, size = ENUMERATE_PINS[(n, r, fmt)]
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == (digest, size)


# Full sha256 of the stdout of the commands that ROADMAP's standing rules
# name as gates, recorded before documents were streamed.  Each holds with
# one worker and with two.
GATE_SHA256 = {
    "verify --n-max 10": "27004e94205dd79353471bdec442fd0c7d5cbb3003e1d95a277209be4e5372e0",
    "verify --n-max 12": "ae6e49c9e6f2be674cf3ff24bb9dc9345d3974dc777ae8b670a0913dc5e12e10",
    "enumerate --n 11 --reducible 3": "09b07bdb2f6d978ca1c7b71d9c3b2f5c6b59bc907683eb64d9e8fa63ea478bbe",
    "enumerate --n 12 --reducible 3": "63630614d4881063371450c53476f13247629457f1ee53a69bc2d649c96198fd",
}


@pytest.mark.parametrize(
    "command",
    [
        "verify --n-max 10",
        *(
            pytest.param(command, marks=pytest.mark.slow)
            for command in (
                "verify --n-max 12",
                "verify --n-max 12 --workers 2",
                "enumerate --n 11 --reducible 3",
                "enumerate --n 11 --reducible 3 --workers 2",
            )
        ),
    ],
)
def test_gate_stdout_is_pinned(command, capsys, fresh_tables, two_cpus):
    """From empty tables, each gate prints what it printed when its digest
    was recorded; with two workers it splits its tables over a fork.
    ``enumerate --n 12`` is pinned in ``test_pool_at_full_size``."""
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    digest = GATE_SHA256[command.removesuffix(" --workers 2")]
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.slow
def test_enumerate_memory_does_not_grow_with_the_class(tmp_path):
    """``enumerate`` holds one document at a time, so the peak resident
    set (VmHWM, as the benchmark's ``perfbench/child.py`` reads it) of a
    cold ``enumerate --n 12 --reducible 3``, 3,405 documents, stays within
    3 MiB of that of ``--n 8``, 65.  Holding every document before writing
    the first put it 6.95 MiB above."""

    def peak_kib(n: int) -> int:
        stamps = tmp_path / f"n{n}.json"
        subprocess.run(
            [
                sys.executable, str(CHILD), str(stamps), "0",
                "cli", "enumerate", "--n", str(n), "--reducible", "3",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            check=True,
        )
        return json.loads(stamps.read_text())["peak_rss_kib"]

    growth = peak_kib(12) - peak_kib(8)
    assert growth < 3 * 1024, f"{growth} KiB"


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


class TestEnumerate:
    def test_diamond_edges(self, capsys):
        assert main(["enumerate", "--n", "4", "--reducible", "2", "--format", "edges"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0 1\n0 2\n1 3\n2 3\n"
        assert captured.err.strip() == "1"

    def test_count_on_stderr(self, capsys):
        assert main(["enumerate", "--n", "6", "--reducible", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err.strip() == "2"
        assert len(captured.out.splitlines()) == 2

    def test_empty_class(self, capsys):
        for n in ("5", "0"):
            assert main(["enumerate", "--n", n, "--reducible", "3"]) == 0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == "0"

    def test_documents_round_trip(self, capsys):
        assert main(["enumerate", "--n", "7", "--reducible", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 15
        for line in lines:
            doc = json.loads(line)
            rebuilt = lattice_document(document_to_lattice(doc).digraph)
            assert document_json(rebuilt) == line

    def test_deterministic_order(self, capsys, monkeypatch, fresh_tables, eager_split):
        """From empty tables each time, a split over two processes prints
        what one process prints."""
        main(["enumerate", "--n", "7", "--reducible", "2"])
        first = capsys.readouterr().out
        monkeypatch.setattr(oracle, "_BLOCKS", {})
        main(["enumerate", "--n", "7", "--reducible", "2", "--workers", "2"])
        assert capsys.readouterr().out == first

    @pytest.mark.slow
    def test_pool_at_full_size(
        self, capsys, monkeypatch, fresh_tables, two_cpus, split_keys
    ):
        """At n = 12 the largest table reaches the break-even: from empty
        tables each time, two workers fork one worker, split every table of
        the run, and print what one process prints."""
        forks = []
        fork = oracle.os.fork
        monkeypatch.setattr(oracle.os, "fork", lambda: forks.append(1) or fork())
        args = ["enumerate", "--n", "12", "--reducible", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert forks == []
        assert split_keys == []
        monkeypatch.setattr(oracle, "_BLOCKS", {})
        assert main([*args, "--workers", "2"]) == 0
        assert capsys.readouterr().out == first
        assert hashlib.sha256(first.encode()).hexdigest() == GATE_SHA256[" ".join(args)]
        assert forks == [1]
        assert split_keys == [(m, 3) for m in range(12, 0, -1)]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "class.jsonl"
        assert (
            main(
                [
                    "enumerate", "--n", "6", "--reducible", "3",
                    "--out", str(target),
                ]
            )
            == 0
        )
        assert len(target.read_text().splitlines()) == 2
        assert capsys.readouterr().err.strip() == "2"

    def test_dot_output(self, capsys):
        assert main(["enumerate", "--n", "4", "--reducible", "2", "--format", "dot"]) == 0
        assert capsys.readouterr().out == (
            "digraph lattice_0 {\n"
            "  rankdir=BT;\n"
            "  { rank=same; 0; }\n"
            "  { rank=same; 1; 2; }\n"
            "  { rank=same; 3; }\n"
            "  0 -> 1;\n"
            "  0 -> 2;\n"
            "  1 -> 3;\n"
            "  2 -> 3;\n"
            "}\n"
        )

    def test_scale_guard_exit_3(self, capsys):
        assert main(["enumerate", "--n", "13", "--reducible", "2"]) == 3

    def test_scale_guard_keeps_existing_out(self, tmp_path, capsys):
        """A refused run leaves an existing ``--out`` file as it was; the
        next run that passes the guard replaces its contents."""
        target = tmp_path / "class.jsonl"
        target.write_text("kept\n" * 50)
        argv = ["enumerate", "--reducible", "3", "--out", str(target)]
        assert main([*argv, "--n", "13"]) == 3
        assert target.read_text() == "kept\n" * 50
        assert main([*argv, "--n", "6"]) == 0
        assert [json.loads(line)["n"] for line in target.read_text().splitlines()] == [6, 6]

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "reducible_class", _no_work)
        target = tmp_path / "missing" / "class.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "6", "--reducible", "3", "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err and "error" in captured.err

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_bad_workers_exit_2(self, workers):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "6", "--reducible", "3", "--workers", workers])
        assert exc.value.code == 2


class TestVerify:
    def test_agreement_exit_0(self, capsys):
        assert main(["verify", "--n-max", "5"]) == 0
        out = capsys.readouterr().out
        assert "verify: all cells agree" in out
        assert "n=5 two_reducible: formula=4 oracle=4 OK" in out

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["verify", "--n-max", "4", "--json", str(target)]) == 0
        records = json.loads(target.read_text())
        fields = {"n", "name", "formula", "oracle", "ok", "witness"}
        assert all(set(r) == fields for r in records)
        two = next(r for r in records if r["n"] == 4 and r["name"] == "two_reducible")
        assert two == {
            "n": 4, "name": "two_reducible", "formula": 1, "oracle": 1,
            "ok": True, "witness": None,
        }
        total = next(r for r in records if r["n"] == 4 and r["name"] == "total")
        assert total["ok"] is None and total["oracle"] == 2

    def test_injected_fault_exit_1(self, capsys, monkeypatch):
        healthy = formulas.three_reducible_lattices
        monkeypatch.setattr(
            formulas,
            "three_reducible_lattices",
            lambda n: healthy(n) + (1 if n == 6 else 0),
        )
        assert main(["verify", "--n-max", "6"]) == 1
        out = capsys.readouterr().out
        assert "n=6 three_reducible: formula=3 oracle=2 MISMATCH" in out
        assert "witness covers:" in out

    def test_scale_guard_exit_3(self, capsys):
        assert main(["verify", "--n-max", "13"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_scale_guard_keeps_existing_json(self, tmp_path, capsys):
        """A refused run leaves an existing ``--json`` report as it was; the
        next run that passes the guard replaces its contents."""
        target = tmp_path / "report.json"
        target.write_text("kept\n" * 50)
        assert main(["verify", "--n-max", "13", "--json", str(target)]) == 3
        assert target.read_text() == "kept\n" * 50
        assert main(["verify", "--n-max", "4", "--json", str(target)]) == 0
        assert {r["n"] for r in json.loads(target.read_text())} == {1, 2, 3, 4}

    def test_unwritable_json_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "verify", _no_work)
        target = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "4", "--json", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--json" in captured.err and "error" in captured.err

    def test_bad_workers_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "4", "--workers", "0"])
        assert exc.value.code == 2

    def test_stdout_matches_recorded_lines(self, capsys):
        expected = [
            line
            for line in VERIFY_EXPECTED.read_text().splitlines()
            if line.startswith("n=") and int(line[2:].split(" ", 1)[0]) <= 7
        ]
        assert main(["verify", "--n-max", "7"]) == 0
        assert capsys.readouterr().out == "\n".join(
            expected + ["verify: all cells agree"]
        ) + "\n"


def reference_document(p, fbb=None) -> dict:
    """``lattice_document`` as it read the reducible elements and the
    nullity off ``poset_classification`` and ``nullity``, and sorted the
    covers."""
    cls = poset_classification(p)
    if fbb is None and len(cls.red) in (2, 3):
        fbb = classify_fbb(as_lattice(p))
    return {
        "n": p.n,
        "covers": [list(c) for c in sorted(p.covers)],
        "red": sorted(cls.red),
        "nullity": nullity(p),
        "fbb": None if fbb is None else fbb.value,
    }


class TestDocuments:
    @pytest.mark.parametrize("r", [2, 3])
    def test_members_match_reference(self, r):
        """Every member of the class on n <= 10 elements, with its carried
        tag as ``enumerate`` passes it, and without one for n <= 8."""
        checked = 0
        for n in range(1, 11):
            for cert, fbb in oracle.reducible_class(n, r).items():
                p = canon.decode_certificate(cert)
                assert lattice_document(p, fbb) == reference_document(p, fbb)
                if n <= 8:
                    assert lattice_document(p) == reference_document(p)
                checked += 1
        assert checked == {2: 313, 3: 897}[r]

    @pytest.mark.parametrize(
        "p",
        [
            CoverDigraph(4, ((0, 1), (2, 3))),  # two disjoint 2-chains
            build_poset(5, []),  # an antichain
            CoverDigraph(3, ((0, 2), (1, 2))),  # two minimal elements, joined
            CoverDigraph(4, ((0, 1), (0, 2), (0, 3))),  # a bottom and no top
            CoverDigraph(4, ((2, 3), (0, 2), (1, 3), (0, 1))),  # M2, unsorted
        ],
    )
    def test_hand_built_digraphs_match_reference(self, p):
        assert lattice_document(p) == reference_document(p)

    def test_schema_fields(self):
        doc = lattice_document(m2().digraph)
        assert doc == {
            "n": 4,
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
            "red": [0, 3],
            "nullity": 1,
            "fbb": "M2",
        }

    def test_fbb_null_for_other_classes(self):
        from latcount.poset import chain

        assert lattice_document(chain(3).digraph)["fbb"] is None

    def test_round_trip_is_byte_identical(self):
        doc = lattice_document(f3().digraph)
        text = document_json(doc)
        again = document_json(
            lattice_document(document_to_lattice(json.loads(text)).digraph)
        )
        assert again == text

    def test_dot_mentions_every_cover(self):
        out = dot_digraph(f3().digraph, "g")
        for a, b in f3().covers:
            assert f"{a} -> {b};" in out


def test_enumerate_members_export_canonical_labels(capsys):
    main(["enumerate", "--n", "6", "--reducible", "3"])
    for line in capsys.readouterr().out.splitlines():
        doc = json.loads(line)
        lat = document_to_lattice(doc)
        assert canonical_certificate(lat.digraph).data
        assert all(a < b for a, b in lat.covers)
