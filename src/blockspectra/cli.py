"""Command-line front end.

Subcommands: gen (build a family graph), spectrum (spectral radius and Perron
vector of one of four matrices), verify (run a theorem check, emit a report),
enumerate (stream small families). Exit codes: 0 success, 1 usage or input
error, 2 theorem violation found.
"""

from __future__ import annotations

import argparse
import re
import sys

from .families import (
    enumerate_clique_trees,
    enumerate_connected_graphs,
    enumerate_trees,
    parse_family_spec,
)
from .graphs import GraphError, format_edge_list, parse_edge_list
from .spectral import DEFAULT_TOL, SPECTRAL_KINDS, SpectralError, spectral_radius
from .verify import PARAMS, run_check

__all__ = ["main"]

# --matrix names: c for the complement's matrices
_MATRIX_KINDS = {kind.replace("complement_", "c"): kind for kind in SPECTRAL_KINDS}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved here for theorem
    # violations, so usage errors are rerouted to exit 1.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-10" and "-inf" for option names unless they match
        # this pattern, so `--tol -1e-10` would miss its value
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|nan)$", re.IGNORECASE
        )

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _fmt(x):
    return format(float(x), "#.12g")


def _emit(text, out):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_graph(path):
    """The edge list in a file, or on stdin for "-", as UTF-8 whatever the locale."""
    if path in (None, "-"):
        name, data = "stdin", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            name, data = path, fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{name} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_edge_list(text)


def _cmd_gen(args):
    g = parse_family_spec(args.family)
    _emit(format_edge_list(g), args.out)
    return 0


def _cmd_spectrum(args):
    g = _read_graph(args.infile)
    pair = spectral_radius(g, _MATRIX_KINDS[args.matrix], tol=args.tol)
    lines = [_fmt(pair.value), " ".join(_fmt(v) for v in pair.vector)]
    if args.verbose:
        lines.append(
            f"method {pair.method} iterations {pair.iterations} residual {_fmt(pair.residual)}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args):
    given = {name: getattr(args, name) for name in PARAMS}
    report = run_check(args.theorem, jobs=args.jobs, **given)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    return 0 if report.passed else 2


def _cmd_enumerate(args):
    if args.s is not None and args.family != "cliquetrees":
        raise _UsageError("blockspectra enumerate: error: --s only applies to cliquetrees")
    n = args.n
    if args.family == "trees":
        gs = list(enumerate_trees(n))
    elif args.family == "connected":
        gs = list(enumerate_connected_graphs(n))
    else:
        gs = list(enumerate_clique_trees(n, args.s))
    if args.count_only:
        sys.stdout.write(f"{len(gs)}\n")
    else:
        sys.stdout.write("\n".join(format_edge_list(g) for g in gs))
    return 0


def _build_parser():
    parser = _Parser(prog="blockspectra", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="write a family graph as an edge list")
    p_gen.add_argument(
        "family",
        help="family spec: path:n, complete:n, broom:n, cliquepath:n1,n2,..., "
        "cliquestar:e1,...;bridge;last",
    )
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_spec = sub.add_parser("spectrum", help="spectral radius and Perron vector")
    p_spec.add_argument(
        "infile", nargs="?", default="-", help="edge-list path, or - for stdin"
    )
    p_spec.add_argument(
        "--matrix",
        choices=sorted(_MATRIX_KINDS),
        default="adjacency",
        help="matrix to analyze (c* = of the complement)",
    )
    p_spec.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_spec.add_argument(
        "--verbose",
        action="store_true",
        help="add a line with the solver method, iteration count and residual",
    )
    p_spec.set_defaults(func=_cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run one theorem check")
    p_ver.add_argument("theorem", help="claim id, e.g. L4.1, T2.4, T5.2")
    for name in PARAMS:
        p_ver.add_argument(f"--{name}", type=int, default=None)
    p_ver.add_argument("--format", choices=["json", "csv"], default="json")
    p_ver.add_argument("--out", default=None, help="report path (default stdout)")
    p_ver.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, each checking a contiguous share of the family; "
        "output bytes do not depend on this",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream a family up to isomorphism")
    p_enum.add_argument("family", choices=["trees", "cliquetrees", "connected"])
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--s", type=int, default=None, help="block count (cliquetrees)")
    p_enum.add_argument("--count-only", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (GraphError, SpectralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
