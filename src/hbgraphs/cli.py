"""Command-line front end.

Subcommands: eval, graph, decompose, iso, verify, table.
Exit codes: 0 success, 1 domain/usage error, 2 size-limit or budget
abort, 3 verification counterexample, 4 internal error (any other
exception, reported as one line on stderr without a traceback).
Machine-readable output goes to stdout; diagnostics go to stderr.  When
the reader of stdout closes it early (``hbgraphs table --max 100000 |
head -1``), the command stops quietly and exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from . import graphs, iso, stern
from .graphs import DEFAULT_LIMIT, DIGITS_PER_VERTEX, SizeLimitError
from .iso import DEFAULT_BUDGET, BudgetExceeded
from .words import decompose, minimal_expansion, render

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_LIMIT = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_INTERNAL = 4

_B_ALGOS = {
    "rec": stern.b_recursive,
    "mat": stern.b_matrix,
    "matblk": stern.b_matrix_blocks,
    "alg1": lambda n: stern.b_algorithm1(n)[0],
    "blockfold": stern.b_block_formula,
}
_FNS = {"c": stern.c, "v": stern.v, "a": stern.a}  # and "b", by --algo
_LIMIT_HELP = ("most vertices of A(n); n is also refused when b(n) times its bit length"
               f" (the longest word) exceeds {DIGITS_PER_VERTEX} * limit digits")


#: longest decimal input, Python's default int-string limit: it bounds the work of ``eval``
MAX_DECIMAL_DIGITS = 4300


def nonneg_int(text: str) -> int:
    """Nonnegative arbitrary-precision integer, decimal or 0b-prefixed binary."""
    binary = text.startswith(("0b", "0B"))
    if not binary and len(text) > MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"decimal input is limited to {MAX_DECIMAL_DIGITS} digits; give larger ones as 0b...")
    try:
        n = int(text[2:], 2) if binary else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hbgraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate a counting function")
    p.add_argument("--fn", choices=["b", *_FNS], required=True)
    p.add_argument("--n", type=nonneg_int, required=True)
    p.add_argument("--algo", choices=sorted(_B_ALGOS), default="rec",
                   help="algorithm for --fn b (ignored otherwise)")

    p = sub.add_parser("graph", help="export A(n)")
    p.add_argument("--n", type=nonneg_int, required=True)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--limit", type=nonneg_int, default=DEFAULT_LIMIT, help=_LIMIT_HELP)

    p = sub.add_parser("decompose", help="block decomposition of the minimal expansion")
    p.add_argument("--n", type=nonneg_int, required=True)

    p = sub.add_parser("iso", help="test whether A(m) and A(n) are isomorphic")
    p.add_argument("--m", type=nonneg_int, required=True)
    p.add_argument("--n", type=nonneg_int, required=True)
    p.add_argument("--structural", action="store_true",
                   help="run the backtracking search and print the witness")
    p.add_argument("--limit", type=nonneg_int, default=DEFAULT_LIMIT,
                   help=f"{_LIMIT_HELP}, per graph built by --structural")
    p.add_argument("--budget", type=nonneg_int, default=DEFAULT_BUDGET,
                   help="most search nodes expanded by --structural")

    p = sub.add_parser("verify", help="cross-check all algorithms up to a bound")
    p.add_argument("--max", type=nonneg_int, default=2048)
    p.add_argument("--workers", type=nonneg_int, default=1)

    p = sub.add_parser("table", help="CSV table of n,b,a,v")
    p.add_argument("--max", type=nonneg_int, required=True)

    return parser


def _cmd_eval(args, out) -> int:
    fn = _B_ALGOS[args.algo] if args.fn == "b" else _FNS[args.fn]
    print(fn(args.n), file=out)
    return EXIT_OK


def _cmd_graph(args, out) -> int:
    """Write ``export_dot(g)``, or ``export_json(g)`` and a newline, 4096 arcs per write."""
    g = graphs.build_graph(args.n, args.limit)
    out.writelines(graphs.export_chunks(g, args.format, size=4096))
    out.write("\n" if args.format == "json" else "")
    return EXIT_OK


def _cmd_decompose(args, out) -> int:
    blocks, ones = decompose(minimal_expansion(args.n))
    for b in blocks:
        print(f"T1 t={len(b) - 1}" if b[0] == "1" else f"T2 t={len(b)}", file=out)
    print(f"tail=1^{ones}", file=out)
    return EXIT_OK


def _cmd_iso(args, out) -> int:
    if args.structural:
        g1 = graphs.build_graph(args.m, args.limit)
        g2 = graphs.build_graph(args.n, args.limit)
        witness = iso.labeled_iso(g1, g2, budget=args.budget)
        print("isomorphic" if witness else "not isomorphic", file=out)
        pairs = zip(g1.vertices, map(g2.vertices.__getitem__, witness.mapping if witness else ()))
        while text := "".join(f"{render(v)} -> {render(w)}\n" for v, w in islice(pairs, 4096)):
            out.write(text)
    else:
        print("isomorphic" if iso.iso_closed_form(args.m, args.n) else "not isomorphic",
              file=out)
    return EXIT_OK


def check_range(lo: int, hi: int) -> str | None:
    """First counterexample to algorithm agreement in [lo, hi], or None."""
    for n in range(lo, hi + 1):
        results = {name: fn(n) for name, fn in _B_ALGOS.items()}
        expected = results["rec"]
        # the enumeration counts the admissible tuples of block states, the product
        # count of the structure theorem; up to 512 the graph built from them is checked too
        g = graphs.build_graph(n) if n <= 512 else None
        results["enumeration"] = len(g.vertices if g else graphs.enumerate_expansions(n))
        bad = sorted(name for name, got in results.items() if got != expected)
        if bad:
            return f"n={n} b disagreement: rec={expected} " + " ".join(
                f"{name}={results[name]}" for name in bad)
        if g:
            b, arcs = stern.b_and_a(n)
            _, a_count, v_count = graphs.counts(g)
            if (a_count, v_count) != (arcs, arcs - b + 1):
                return (f"n={n} structural disagreement: graph (a={a_count}, v={v_count})"
                        f" vs recursion (a={arcs}, v={arcs - b + 1})")
    return None


def plan_verify(max_n: int, workers: int, cpus: int) -> tuple[list[tuple[int, int]], int]:
    """Spans of [0, max_n] for ``workers`` workers, and the pool size to run them.

    The pool never exceeds the CPU count or the number of spans; a pool of
    one means run the spans in this process.
    """
    workers = max(workers, 1)
    chunk = max(1, (max_n + workers) // workers)
    spans = [(lo, min(lo + chunk - 1, max_n)) for lo in range(0, max_n + 1, chunk)]
    return spans, min(workers, cpus, len(spans))


def _cmd_verify(args, out) -> int:
    spans, pool_size = plan_verify(args.max, args.workers, os.cpu_count() or 1)
    bounds = zip(*spans)
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(check_range, *bounds))
    else:
        results = map(check_range, *bounds)
    failure = next((r for r in results if r is not None), None)
    if failure:
        print(failure, file=out)
        return EXIT_COUNTEREXAMPLE
    print(f"OK {args.max}", file=out)
    return EXIT_OK


def _cmd_table(args, out) -> int:
    out.write("n,b,a,v\n")
    rows = zip(range(args.max + 1), stern.b_and_a_rows())  # --max may pass sys.maxsize
    while text := "".join(f"{n},{b},{arcs},{arcs - b + 1}\n"
                          for n, (b, arcs, _) in islice(rows, 4096)):
        out.write(text)
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "graph": _cmd_graph,
    "decompose": _cmd_decompose,
    "iso": _cmd_iso,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10 builds before 3.10.7 lack it
        sys.set_int_max_str_digits(0)  # answers such as b(n) may exceed 4300 digits
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except (SizeLimitError, BudgetExceeded) as exc:
        print(f"aborted: {exc}", file=err)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DOMAIN
    except BrokenPipeError:
        raise  # main() handles a closed stdout
    except Exception as exc:
        print(f"internal error: {exc!r}", file=err)
        return EXIT_INTERNAL


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_OK
    raise SystemExit(status)


if __name__ == "__main__":
    main()
