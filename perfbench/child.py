"""One cold benchmark sample: a fresh interpreter that imports latcount and
runs one CLI invocation or one library call.

Usage (run from the checkout root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py STAMPS TRACE KIND [ARG ...]

KIND is ``cli`` (ARGs are the ``latcount`` command line), ``census`` (ARG is
n for ``latcount.census(n)``) or ``probe`` (import only).  TRACE is 0 or 1.
After the work the child writes STAMPS, a JSON object with the monotonic
time at which ``latcount`` was imported and ready, its peak resident set
and, when TRACE is 1, the per-layer trace.  Its exit code is the command's
exit code.
"""

import json
import resource
import sys
import time

# Importing the package is the set-up a user of the CLI pays on every call;
# it includes the reference canonicalizations ``reduction`` runs at import.
import latcount
import latcount.cli

READY = time.monotonic()


def peak_rss_kib() -> int:
    """The largest resident set of this process and of the children it
    reaped (pool workers).  It reads VmHWM rather than the exit rusage: a
    child started by vfork inherits its parent's high-water mark at exec,
    so ``ru_maxrss`` would report the benchmark runner's memory instead."""
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    stamps_path, trace, kind, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    if kind == "cli":
        rc = latcount.cli.main(args)
    elif kind == "census":
        report = latcount.census(int(args[0]))
        print(
            json.dumps(
                {
                    "total": report.total(),
                    "classes": {r: len(v) for r, v in report.classes.items()},
                    "fibers": {t.value: len(v) for t, v in report.fbb_fibers.items()},
                },
                sort_keys=True,
            )
        )
        rc = 0
    elif kind == "probe":
        rc = 0
    else:
        print(f"unknown sample kind {kind!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    record = {"ready": READY, "peak_rss_kib": peak_rss_kib()}
    if tracer is not None:
        record["trace"] = tracer.report()
    with open(stamps_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
