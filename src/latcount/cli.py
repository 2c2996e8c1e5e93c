"""Command-line front end: count tables, class enumeration, verification.

Exit codes: 0 success (and verification agreement), 1 verification mismatch,
2 usage error, 3 size guard tripped, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import nullcontext
from importlib import import_module

from .errors import SizeLimitExceeded

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SCALE = 3
EXIT_PIPE = 141  # what a shell reports for a process killed by SIGPIPE

# Every layer loads inside the commands that use it: ``count``, ``table``
# and ``blocks`` load ``series`` alone, ``enumerate`` and ``verify`` load
# the lattice layers and not ``series``, ``enumerate`` loads ``documents``
# only for ``--format json`` and ``dot``, and ``verify`` loads ``json`` only
# when it writes a ``--json`` report.  perfbench/tracer.py
# wraps ``cli.canonical_digraph`` (which has no caller here) and
# ``cli.lattice_document`` by name, so both still resolve as attributes of
# ``cli``, on first access.
_LAZY = {"canonical_digraph": "canon", "lattice_document": "documents"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __package__), name)


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------


def _cmd_count(args, parser) -> int:
    from . import series

    totals = series.lattice_counts(args.reducible, args.n)["total"]
    print(totals[args.n] if args.n >= 0 else 0)
    return EXIT_OK


def _cmd_table(args, parser) -> int:
    return _print_range(
        parser, "n", args.n_from, args.n_to, args.format,
        lambda series: series.lattice_counts(args.reducible, args.n_to),
    )


def _cmd_blocks(args, parser) -> int:
    return _print_range(
        parser, "m", args.m_from, args.m_to, args.format,
        lambda series: series.block_counts(args.m_to, args.k),
    )


def _print_range(parser, key: str, lo: int, hi: int, fmt: str, read) -> int:
    """Print one row per size ``lo..hi``, headed ``key``, of the columns that
    ``read(series)`` returns indexed by size, as CSV or JSON.  Sizes below
    zero have no members; a range may start no lower than ``-series.LIMIT``,
    and ``series`` checks its upper end."""
    if lo > hi:
        parser.error(f"--{key}-from must not exceed --{key}-to")
    from . import series

    if lo < -series.LIMIT:
        raise SizeLimitExceeded(f"ranges start at -{series.LIMIT} or above")
    columns = read(series)
    rows = [
        {key: n, **{name: (values[n] if n >= 0 else 0) for name, values in columns.items()}}
        for n in range(lo, hi + 1)
    ]
    if fmt == "json":
        import json

        print(json.dumps(rows))
    else:
        print(",".join([key, *columns]))
        for row in rows:
            print(",".join(map(str, row.values())))
    return EXIT_OK


def _cmd_enumerate(args, parser) -> int:
    from . import oracle
    from .canon import decode_certificate

    with args.out or nullcontext(sys.stdout) as sink:
        members = oracle.reducible_class(args.n, args.reducible, workers=args.workers)
        # Documents are rendered lazily, one member at a time, so the output
        # holds one document whatever the class size.  Each key is its
        # member's certificate: the canonical form, encoded.
        certs = sorted(members)
        if args.format == "json":
            from .documents import document_json, lattice_document

            docs = (
                document_json(lattice_document(decode_certificate(cert), members[cert]))
                for cert in certs
            )
        elif args.format == "dot":
            from .documents import dot_digraph

            docs = (
                dot_digraph(decode_certificate(cert), f"lattice_{i}")
                for i, cert in enumerate(certs)
            )
        else:  # edges: one "lo hi" line per cover, blank line between lattices
            docs = (
                "\n".join(f"{a} {b}" for a, b in decode_certificate(cert).covers)
                for cert in certs
            )
        separator = "\n" if args.format == "json" else "\n\n"
        if args.out:
            _empty(args.out)
        last = len(certs) - 1
        for i, doc in enumerate(docs):
            sink.write(doc + (separator if i < last else "\n"))
    print(len(members), file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    from . import oracle

    with args.json or nullcontext() as report:
        records = oracle.verify(args.n_max, workers=args.workers)
        mismatched = 0
        for rec in records:
            if rec.ok is None:  # recorded only, no closed form to compare
                continue
            f_val = "-" if rec.formula is None else rec.formula
            o_val = "-" if rec.oracle is None else rec.oracle
            status = "OK" if rec.ok else "MISMATCH"
            print(f"n={rec.n} {rec.name}: formula={f_val} oracle={o_val} {status}")
            if not rec.ok:
                mismatched += 1
                if rec.witness:
                    print(f"  witness covers: {rec.witness}")
        ok = mismatched == 0
        print(f"verify: {'all cells agree' if ok else f'{mismatched} cells disagree'}")
        if report:
            import json

            _empty(report)
            json.dump([r._asdict() for r in records], report)
    return EXIT_OK if ok else EXIT_MISMATCH


def _worker_count(text: str) -> int:
    """``--workers`` value: an integer of at least 1 (else a usage error)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _output_file(path: str):
    """``--out`` and ``--json`` value: the file, opened for appending before
    any work starts (a path that cannot be written is a usage error).  The
    command empties it only once it has passed its size guard, so a refused
    run leaves an existing file as it was."""
    try:
        return open(path, "a")
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {path}: {exc.strerror}")


def _empty(file) -> None:
    """Drop the old contents of an output file opened for appending, once
    its command has passed its size guard.  Like opening for writing, this
    leaves a device or a pipe as it is: only a regular file has contents."""
    if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
        file.truncate(0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcount",
        description="Exact counts and exhaustive enumeration of finite "
        "lattices with exactly 2 or 3 reducible elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one exact class count")
    count.add_argument("--reducible", type=int, choices=(2, 3), required=True)
    count.add_argument("--n", type=int, required=True)
    count.set_defaults(func=_cmd_count)

    table = sub.add_parser("table", help="per-n count table")
    table.add_argument("--reducible", type=int, choices=(2, 3), required=True)
    table.add_argument("--n-from", type=int, required=True)
    table.add_argument("--n-to", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.set_defaults(func=_cmd_table)

    blocks = sub.add_parser("blocks", help="per-family maximal block counts")
    blocks.add_argument("--m-from", type=int, required=True)
    blocks.add_argument("--m-to", type=int, required=True)
    blocks.add_argument(
        "--k", type=int, default=None, help="restrict to one edge-surplus stratum"
    )
    blocks.add_argument("--format", choices=("csv", "json"), default="csv")
    blocks.set_defaults(func=_cmd_blocks)

    enum = sub.add_parser("enumerate", help="emit every lattice of a class")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--reducible", type=int, choices=(2, 3), required=True)
    enum.add_argument("--format", choices=("json", "dot", "edges"), default="json")
    enum.add_argument("--out", type=_output_file, help="write documents to a file")
    enum.add_argument("--workers", type=_worker_count, default=1)
    enum.set_defaults(func=_cmd_enumerate)

    verify = sub.add_parser("verify", help="check every formula against the oracle")
    verify.add_argument("--n-max", type=int, required=True)
    verify.add_argument("--json", type=_output_file, help="also write a JSON report")
    verify.add_argument("--workers", type=_worker_count, default=1)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone (``latcount verify ... | head -1``):
        # send what is still buffered to devnull, so that the interpreter's
        # final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
