"""latcount benchmark: cold-process workloads against the CLI and the library.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is taken from ``src``.
Each sample starts a fresh interpreter (``child.py``), because ``formulas``'
cached helpers, ``partitions._TABLE`` and ``oracle._LEVELS`` stay warm for
the life of a process and a CLI user pays for them on every invocation.
Samples repeat in rounds until ``--seconds`` per workload are spent (at
least ``MIN_ROUNDS`` rounds), and every metric is the median over samples.

``--trace 0`` reports the end-to-end metrics of each workload.  Times are
rescaled to a reference host speed: the fixed job of ``calibrate.py`` runs
before every sample and after the last, and each sample's times are
multiplied by ``REFERENCE_CALIBRATION_S`` over the mean of the two
calibrations around it.  The raw times are in the record.

  wall_s       s    process start to exit, summed over the sample's calls
  cpu_s        s    user + system CPU of the processes and their pool workers
  setup_s      s    process start until ``latcount`` is imported and ready,
                    the median over every call and import-only probe of
                    the run, times the number of calls in a sample
  peak_rss_mb  MiB  largest resident set of any process of the sample

and prints ``fail_rate``, failed over attempted samples.  ``--trace 1``
runs traced and untraced samples of the same command in back-to-back pairs,
with one worker, and reports the per-layer metrics of ``tracer.py`` plus
``trace.overhead_s``, the median over pairs of traced minus untraced wall
time; it also fails the run unless every traced sample repeats the same work
counts, which shows that no cache carries from one process into the next.

Every sample's output is checked (``workloads.py``), and every run confirms
that its checks reject a copy of a real output with one digit changed.  The
seed orders the workloads, the calls within a sample and traced versus
untraced samples, and picks the changed digit; the inputs are fixed.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the run's record: interpreter, CPU count, revision,
seed, and load average and CPU steal around each sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Call, Output, Workload, mutate_digit

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
# Host speed the reported times are rescaled to: the calibration job takes
# this long.  It took 0.42 to 0.8 s on the 2-vCPU host the benchmark was
# built on.
REFERENCE_CALIBRATION_S = 0.5
MIN_ROUNDS = {False: 3, True: 2}
# Import-only probes per untraced sample.  One set-up time per call would be
# a short, jittery figure; the probes give each run many more of them.
PROBES_PER_SAMPLE = 3
PROBE = Call("probe", ())
CALL_TIMEOUT_S = 120.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics that are not additive over a sample's calls.
MAX_OVER_CALLS = ("oracle.slice.max_share", "oracle.states.")


@dataclass
class CallResult:
    kind: str
    output: Output
    wall_s: float
    cpu_s: float
    setup_s: float
    peak_rss_mb: float
    trace: dict | None
    problem: str | None  # the process itself misbehaved


class Runner:
    """Spawns samples in a private work directory inside the checkout."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def call(self, call: Call, traced: bool) -> CallResult:
        stamps = self.workdir / "stamps.json"
        stamps.unlink(missing_ok=True)
        with open(self.workdir / "stdout", "w+b") as out, open(self.workdir / "stderr", "w+b") as err:
            argv = [sys.executable, str(CHILD), str(stamps), "1" if traced else "0", call.kind, *call.args]
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err, start_new_session=True
            )
            status, usage, timed_out = _wait(proc, CALL_TIMEOUT_S)
            wall = time.monotonic() - start
            out.seek(0)
            err.seek(0)
            output = Output(status, out.read().decode(errors="replace"), err.read().decode(errors="replace"))
        problem = f"timed out after {CALL_TIMEOUT_S:.0f} s" if timed_out else None
        ready, peak_kib, trace = start, 0, None
        try:
            record = json.loads(stamps.read_text())
            ready, peak_kib, trace = record["ready"], record["peak_rss_kib"], record.get("trace")
        except (OSError, ValueError, KeyError):
            problem = problem or f"no stamps (exit {status}): {output.stderr.strip()[-300:]}"
        return CallResult(
            call.kind,
            output,
            wall,
            usage.ru_utime + usage.ru_stime,
            ready - start,
            peak_kib / 1024.0,
            trace,
            problem,
        )


    def calibrate(self) -> float:
        """Seconds the calibration job takes now, in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, str(CALIBRATE)], cwd=ROOT, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True,
        )
        return float(proc.stdout)


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` with wait4, so its CPU time covers the children it
    reaped (pool workers).  On timeout or interruption, kill its whole
    process group, pool workers included."""
    timed_out = False
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            os.killpg(proc.pid, signal.SIGKILL)
            timed_out = True
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


@dataclass
class Sample:
    workload: str
    traced: bool
    results: list[CallResult]
    probe_setups: list[float]
    problems: list[str]
    load_before: str
    load_after: str
    steal_s: float
    # Factor to the reference host speed; 1 in a traced run.
    scale: float = 1.0

    @property
    def outputs(self) -> list[Output]:
        return [r.output for r in self.results]

    def metric(self, name: str) -> float:
        values = [getattr(r, name) for r in self.results]
        return max(values) if name == "peak_rss_mb" else sum(values)

    def layers(self) -> dict:
        out: dict[str, float] = {}
        for r in self.results:
            for key, value in (r.trace or {}).items():
                if key.startswith(MAX_OVER_CALLS):
                    out[key] = max(out.get(key, value), value)
                else:
                    out[key] = out.get(key, 0) + value
        out["cli.output_bytes"] = sum(
            len(r.output.stdout.encode()) for r in self.results if r.kind == "cli"
        )
        return out


def _loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def _steal_ticks() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def run_sample(
    runner: Runner, workload: Workload, traced_run: bool, traced: bool, rng: random.Random, reference: Output | None
) -> Sample:
    """One sample.  In a traced run the untraced partner runs the traced
    command too, so the pair differs only in the tracing."""
    calls = workload.calls_for(traced_run)
    order = rng.sample(range(len(calls)), len(calls))
    load_before, steal_before = _loadavg(), _steal_ticks()
    probes = [runner.call(PROBE, False) for _ in range(0 if traced_run else PROBES_PER_SAMPLE)]
    by_index = {i: runner.call(calls[i], traced) for i in order}
    steal_s = (_steal_ticks() - steal_before) / os.sysconf("SC_CLK_TCK")
    results = [by_index[i] for i in range(len(calls))]
    problems = [r.problem for r in results + probes if r.problem]
    problems += workload.check([r.output for r in results], reference)
    probe_setups = [p.setup_s for p in probes]
    return Sample(workload.name, traced, results, probe_setups, problems, load_before, _loadavg(), steal_s)


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def preflight(runner: Runner) -> str | None:
    """Why the checkout cannot be benchmarked, or None.  The import probe
    also leaves the bytecode cache warm, as an installed package has it."""
    if not (ROOT / "src" / "latcount" / "__init__.py").is_file():
        return f"no latcount package under {ROOT / 'src'}"
    probe = runner.call(PROBE, traced=False)
    if probe.problem or probe.output.returncode != 0:
        return f"cannot import latcount: {probe.problem or probe.output.stderr.strip()}"
    return None


def check_self_test(workload: Workload, samples: list[Sample], rng: random.Random, reference: Output | None) -> str | None:
    """Confirm the check rejects a real output with one digit changed."""
    good = next((s for s in samples if not s.problems), None)
    if good is None:
        return None  # nothing correct to mutate; the failures already count
    if not workload.check(mutate_digit(good.outputs, rng), reference):
        return f"{workload.name}: check accepted an output with one digit changed"
    return None


def cold_start_problem(workload: str, traced: list[Sample]) -> str | None:
    """Work counts must repeat exactly across traced samples."""
    counts = [
        {k: v for k, v in s.layers().items() if isinstance(v, int)} for s in traced
    ]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
        return f"{workload}: work counts differ between cold traced samples: {diff}"
    return None


def summarize(workload: Workload, samples: list[Sample], traced_run: bool) -> dict[str, float]:
    """Medians over a workload's samples, which a traced run appends in
    back-to-back pairs."""
    if not traced_run:
        out = {name: statistics.median(s.metric(name) * s.scale for s in samples) for name in ("wall_s", "cpu_s")}
        out["peak_rss_mb"] = statistics.median(s.metric("peak_rss_mb") for s in samples)
        setups = [t * s.scale for s in samples for t in [r.setup_s for r in s.results] + s.probe_setups]
        out["setup_s"] = statistics.median(setups) * len(workload.calls)
        return out
    traced = [s for s in samples if s.traced]
    layers = [s.layers() for s in traced]
    out = {}
    for key, value in layers[0].items():
        out[key] = value if isinstance(value, int) else statistics.median(l[key] for l in layers)
    pairs = zip(samples[0::2], samples[1::2])
    out["trace.overhead_s"] = statistics.median(
        (a.metric("wall_s") - b.metric("wall_s")) * (1 if a.traced else -1) for a, b in pairs
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a termination request unwind, so samples are killed and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    traced_run = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        reason = preflight(runner)
        if reason:
            print(f"perfbench: {reason}", file=sys.stderr)
            return 2
        references = {
            name: runner.call(WORKLOADS[name].reference, traced=False).output
            for name in names
            if WORKLOADS[name].reference
        }
        samples: list[Sample] = []
        budget = args.seconds * len(names)
        start = time.monotonic()
        rounds = 0
        calibration = None if traced_run else runner.calibrate()
        while True:
            for name in rng.sample(names, len(names)):
                for traced in rng.sample((False, True), 2) if traced_run else (False,):
                    sample = run_sample(runner, WORKLOADS[name], traced_run, traced, rng, references.get(name))
                    if calibration is not None:
                        after = runner.calibrate()
                        sample.scale = 2 * REFERENCE_CALIBRATION_S / (calibration + after)
                        calibration = after
                    samples.append(sample)
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= MIN_ROUNDS[traced_run] and elapsed * (rounds + 1) / rounds > budget:
                break

    problems = [f"{s.workload}: {p}" for s in samples for p in s.problems]
    metrics: dict[str, dict] = {}
    for name in names:
        mine = [s for s in samples if s.workload == name]
        for extra in (
            check_self_test(WORKLOADS[name], mine, rng, references.get(name)),
            cold_start_problem(name, [s for s in mine if s.traced]) if traced_run else None,
        ):
            if extra:
                problems.append(extra)
        summary = summarize(WORKLOADS[name], mine, traced_run)
        units = {key: END_TO_END.get(key) or _layer_unit(key) for key in summary}
        failed = sum(1 for s in mine if s.problems)
        print(
            f"{name}: {len(mine)} samples, fail_rate {failed}/{len(mine)} = {failed / len(mine):.3f} ratio; "
            + ", ".join(f"{k} {v if isinstance(v, int) else f'{v:.6g}'} {units[k]}" for k, v in summary.items())
        )
        for key, value in summary.items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": units[key]}
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    failed = sum(1 for s in samples if s.problems)
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": git_revision(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": [
            {
                "workload": s.workload,
                "traced": s.traced,
                **{name: round(s.metric(name), 6) for name in END_TO_END},
                "scale": round(s.scale, 6),
                "loadavg": [s.load_before, s.load_after],
                "steal_s": round(s.steal_s, 3),
                "problems": s.problems,
            }
            for s in samples
        ],
        "problems": problems,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(samples),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("max_share"):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
