"""Repeatability of the benchmark: two sets of runs over ten seeds.

    python3 perfbench/stability.py

Each set runs ``run.py`` once per seed on every workload (untraced, workloads
in a seeded order per seed) and twice per workload traced.  For every
end-to-end metric it reports the median of the runs and the spread, the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, and compares that spread with the bound in
``BENCHMARK.json``.  It compares the second set's median with the first
set's, and it requires every per-layer work count to be identical in all
traced runs.  The report goes to ``results/<revision>.json``; the exit code
is 0 only if every check holds.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import git_revision
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
DECLARED = {
    trace: {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    for trace in (0, 1)
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != DECLARED[trace]:
        raise SystemExit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: {reported}")
    samples = json.loads(lines[-2])["record"]["samples"]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "sample_wall_s": [s["wall_s"] for s in samples if not s["traced"]],
        "loadavg": samples[0]["loadavg"][0],
        "steal_s": round(sum(s["steal_s"] for s in samples), 3),
    }


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_set(index: int, seeds: list[int], workloads: list[str], seconds: int) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in random.Random(seed).sample(workloads, len(workloads)):
            result = run_once(w, seed, seconds, 0)
            runs[w].append(result)
            print(f"set {index} seed {seed} {w}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4f}" for k, v in result["metrics"].items()), flush=True)
    traced = {w: [run_once(w, seeds[i], seconds, 1) for i in range(2)] for w in workloads}
    out: dict = {"seeds": seeds, "workloads": {}}
    for w in workloads:
        metrics = {}
        for name in BOUNDS:
            values = [r["metrics"][name] for r in runs[w]]
            stats = spread(values)
            stats["values"] = values
            stats["within_bound"] = stats["spread"] <= BOUNDS[name]["bound"]
            stats["within_third"] = stats["spread"] <= BOUNDS[name]["bound"] / 3
            metrics[name] = stats
        out["workloads"][w] = {
            "end_to_end": metrics,
            "all_correct": all(r["correct"] for r in runs[w] + traced[w]),
            "failed": sum(r["failed"] for r in runs[w] + traced[w]),
            "attempted": sum(r["attempted"] for r in runs[w] + traced[w]),
            "per_layer": [r["metrics"] for r in traced[w]],
            "runs": runs[w],
        }
    return out


def counts_identical(sets: list[dict], workload: str) -> bool:
    runs = [r for s in sets for r in s["workloads"][workload]["per_layer"]]
    counts = [{k: v for k, v in r.items() if isinstance(v, int)} for r in runs]
    return all(c == counts[0] for c in counts)


def main() -> int:
    workloads = list(WORKLOADS)
    seconds = BENCH["run_seconds"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    sets = [
        run_set(i, [i * 100 + s for s in range(1, SEEDS + 1)], workloads, seconds)
        for i in range(SETS)
    ]
    verdict: dict = {}
    for w in workloads:
        first = sets[0]["workloads"][w]["end_to_end"]
        second = sets[1]["workloads"][w]["end_to_end"]
        drift = {name: (second[name]["median"] - first[name]["median"]) / first[name]["median"] for name in BOUNDS}
        verdict[w] = {
            "spreads_within_bounds": all(
                all(s["workloads"][w]["end_to_end"][n]["within_bound"] for n in BOUNDS) for s in sets
            ),
            "drift": drift,
            "drift_within_bounds": all(drift[n] <= BOUNDS[n]["bound"] for n in BOUNDS),
            "per_layer_counts_identical": counts_identical(sets, w),
            "all_correct": all(s["workloads"][w]["all_correct"] for s in sets),
        }
    report = {
        "revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sets": sets,
        "verdict": verdict,
    }
    out = HERE / "results" / f"{report['revision'][:7]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    for w in workloads:
        for i, s in enumerate(sets):
            e2e = s["workloads"][w]["end_to_end"]
            print(f"{w} set {i}: " + ", ".join(
                f"{n} {e2e[n]['median']:.4g} (spread {e2e[n]['spread']:.3f}/{BOUNDS[n]['bound']})" for n in BOUNDS))
        print(f"{w} verdict: {json.dumps(verdict[w])}")
    ok = all(all(v[k] for k in v if k != "drift") for v in verdict.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
