"""Command-line front end.

Subcommands: ``shift`` (exterior shift of a hypergraph or complex by a
permutation cell or an explicit matrix), ``psg`` (shift graphs and their
contractions), ``betti`` (Betti numbers), ``scan`` (monotonicity and
acyclicity probes of the open conjectures), and ``reproduce`` (recompute
the embedded golden data).

Exit codes: 0 success, 1 reproduction mismatch, 2 malformed input,
3 violated mathematical precondition.  The environment variable
SHIFTLAB_SEED overrides any --seed flag.  Identical inputs and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .combstruct import (
    UniformHypergraph,
    _require_json_ints,
    complex_to_json,
    faces_to_text,
    hypergraph_to_json,
    read_family,
)
from .errors import InputFormatError, MathPreconditionError, ShiftlabError
from .field import Characteristic, FieldContext, MultiPoly, make_field_context
from .reproduce import TARGETS, available_targets, run_targets
from .shiftcore import (
    GenericMatrix,
    exterior_shift,
    generic_matrix,
    generic_unipotent,
    matrix_from_entries,
    partial_shift,
    vandermonde_matrix,
)
from .shiftgraph import (
    DEFAULT_NODE_CAP,
    build_shift_graph,
    build_shift_graph_from,
    contract,
    export_dot,
    export_json,
)
from .symgroup import parse_permutation
from .topology import (
    BettiVector,
    betti_numbers,
    betti_via_full_shift,
    conjecture_scan,
    near_cone_betti,
    random_complexes,
    shift_complex,
    shift_complex_by_matrix,
)

__all__ = ["main"]


# --------------------------------------------------------------- plumbing


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _parse_epsilon(text: str) -> Fraction:
    t = text.strip()
    try:
        m = re.fullmatch(r"2\^(-?\d+)", t)
        if m:
            return Fraction(2) ** int(m.group(1))
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad epsilon {text!r}: {exc}") from exc


def _seed_of(args) -> int:
    env = os.environ.get("SHIFTLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputFormatError(f"bad SHIFTLAB_SEED {env!r}") from exc
    return args.seed


def _context_of(args) -> FieldContext:
    return make_field_context(
        args.char,
        args.backend,
        seed=_seed_of(args),
        epsilon=_parse_epsilon(args.epsilon),
    )


_NAMED_MATRIX = re.compile(r"(vandermonde|generic|unipotent)(\d+)")
_VARIABLE_ENTRY = re.compile(r"x([1-9]\d*),([1-9]\d*)")


def _matrix_from_spec(spec: str, expected_n: int) -> GenericMatrix:
    """A named matrix family ("vandermonde6") or a JSON matrix file."""
    named = _NAMED_MATRIX.fullmatch(spec.strip().lower())
    if named:
        kind, n = named.group(1), int(named.group(2))
        if n != expected_n:
            raise InputFormatError(
                f"matrix {spec!r} has size {n}, input needs {expected_n}"
            )
        builder = {
            "vandermonde": vandermonde_matrix,
            "generic": generic_matrix,
            "unipotent": generic_unipotent,
        }[kind]
        return builder(n)
    text = _read_text(spec)
    try:  # ValueError also covers integers past Python's digit limit
        payload = json.loads(text)
        n, entries = payload["n"], payload["entries"]
    except (ValueError, KeyError, TypeError) as exc:
        raise InputFormatError(f"bad matrix file {spec!r}: {exc}") from exc
    _require_json_ints("matrix", (), n=n)
    if n != expected_n:
        raise InputFormatError(
            f"matrix file has n={n}, input needs n={expected_n}"
        )
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(row, list) or len(row) != n for row in entries)
    ):
        raise InputFormatError(f"matrix entries must form an {n}x{n} grid")
    rows = []
    for row in entries:
        out = []
        for e in row:
            if isinstance(e, str):
                var = _VARIABLE_ENTRY.fullmatch(e.strip())
                if not var:
                    raise InputFormatError(
                        f"bad matrix entry {e!r}: use an integer or \"xi,j\" "
                        "with positive i, j"
                    )
                out.append(MultiPoly.variable(int(var.group(1)), int(var.group(2))))
            elif type(e) is int:  # JSON true and false are not entries
                out.append(MultiPoly.const(e))
            else:
                raise InputFormatError(f"bad matrix entry {e!r}")
        rows.append(out)
    return matrix_from_entries(rows)


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------ subcommands


def _cmd_shift(args) -> int:
    ctx = _context_of(args)
    obj = read_family(_read_text(args.input), args.n, args.as_kind)
    hypergraph = isinstance(obj, UniformHypergraph)
    if args.perm is not None:
        w = parse_permutation(args.perm, obj.n)
        if hypergraph:
            result = partial_shift(obj, w, ctx)
        else:
            result = shift_complex(obj, w, ctx)
    else:
        mat = _matrix_from_spec(args.matrix, obj.n)
        if hypergraph:
            result = exterior_shift(mat, obj, ctx)
        else:
            result = shift_complex_by_matrix(obj, mat, ctx)
    if args.format == "text":
        faces = (
            result.edge_lists()
            if hypergraph
            else [list(f) for f in result.facets_as_tuples()]
        )
        _emit(args, faces_to_text(faces))
    else:
        writer = hypergraph_to_json if hypergraph else complex_to_json
        _emit(args, writer(result))
    return 0


def _cmd_psg(args) -> int:
    ctx = _context_of(args)
    if args.from_path is not None:
        start = read_family(_read_text(args.from_path), args.n, "hypergraph")
        graph = build_shift_graph_from(start, ctx, parallelism=args.parallelism)
    else:
        if None in (args.n, args.k, args.m):
            raise InputFormatError("psg needs either --from FILE or all of -n, -k, -m")
        graph = build_shift_graph(
            args.n,
            args.k,
            args.m,
            ctx,
            max_nodes=args.max_nodes,
            parallelism=args.parallelism,
        )
    if args.contract:
        graph = contract(graph, ctx)
    _emit(args, export_dot(graph) if args.format == "dot" else export_json(graph))
    return 0


def _cmd_betti(args) -> int:
    Characteristic(args.char)
    K = read_family(_read_text(args.input), args.n, "complex")
    if args.method == "near-cone":
        vector = near_cone_betti(K)
        if args.char != vector.characteristic:
            # valid relabeling: near-cone Betti numbers are field independent
            vector = BettiVector(args.char, vector.values)
    elif args.method == "full-shift":
        vector = betti_via_full_shift(K, _context_of(args))
    else:
        vector = betti_numbers(K, args.char)
    if args.format == "text":
        _emit(args, ",".join(str(v) for v in vector.values))
    else:
        _emit(args, vector.to_json())
    return 0


def _cmd_scan(args) -> int:
    ctx = _context_of(args)
    complexes = [read_family(_read_text(path), kind="complex") for path in args.inputs]
    if args.random:
        complexes.extend(
            random_complexes(
                args.random, n=args.random_n, dim=args.random_dim, seed=_seed_of(args)
            )
        )
    triples = []
    for spec in args.graph or []:
        try:
            n, k, m = (int(part) for part in spec.split(","))
        except ValueError as exc:
            raise InputFormatError(f"bad --graph triple {spec!r}: use n,k,m") from exc
        triples.append((n, k, m))
    report = conjecture_scan(complexes, ctx, graph_params=triples)
    _emit(args, report.to_json())
    return 0


def _cmd_reproduce(args) -> int:
    if args.list:
        width = max(len(name) for name in TARGETS)
        for name, (_, description) in TARGETS.items():
            sys.stdout.write(f"{name:<{width}}  {description}\n")
        return 0
    if not args.names:
        raise InputFormatError(
            "give target names or 'all'; available: " + ", ".join(available_targets())
        )
    results = run_targets(args.names, seed=_seed_of(args))
    for result in results:
        sys.stdout.write(result.line() + "\n")
        sys.stderr.write(f"{result.name}: {result.seconds:.2f}s\n")
    return 0 if all(r.ok for r in results) else 1


# ----------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--char",
        type=int,
        default=0,
        metavar="P",
        help="coefficient characteristic: 0 or a prime (default 0)",
    )
    parser.add_argument(
        "--backend",
        choices=("symbolic", "randomized"),
        default="randomized",
        help="exact symbolic elimination, or seeded randomized evaluation "
        "with error bound epsilon (default randomized)",
    )
    parser.add_argument(
        "--epsilon",
        default="2^-30",
        metavar="E",
        help="randomized-backend error bound in (0,1); accepts 2^-K, "
        "fractions like 1/1024, and decimals (default 2^-30)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="randomized-backend seed (SHIFTLAB_SEED overrides; default 0)",
    )
    parser.add_argument(
        "--output",
        "-o",
        metavar="FILE",
        help="write output here instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Exterior algebraic shifting of uniform hypergraphs and "
        "simplicial complexes.",
    )
    parser.add_argument("--version", action="version", version=f"shiftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "shift",
        help="shift a hypergraph or complex by a permutation cell or a matrix",
    )
    p.add_argument("--input", "-i", required=True, metavar="FILE", help="input file or -")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--perm",
        metavar="W",
        help='permutation: one-line "2,3,1", word "s1 s2", or e / w0 / cN',
    )
    group.add_argument(
        "--matrix",
        metavar="M",
        help='named family ("vandermonde6", "generic4", "unipotent5") or a '
        'JSON file {"n": N, "entries": [[int or "xi,j", ...], ...]}',
    )
    p.add_argument(
        "--as",
        dest="as_kind",
        choices=("auto", "hypergraph", "complex"),
        default="auto",
        help="read the input as this kind; complex takes the complex that "
        "hypergraph input generates (default auto)",
    )
    p.add_argument("--n", type=int, metavar="N", help="vertex count for text input")
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("psg", help="build a (possibly contracted) shift graph")
    p.add_argument("-n", type=int, metavar="N", help="vertex count")
    p.add_argument("-k", type=int, metavar="K", help="edge size")
    p.add_argument("-m", type=int, metavar="M", help="edge count per node")
    p.add_argument(
        "--from",
        dest="from_path",
        metavar="FILE",
        help="build only the part reachable from this hypergraph",
    )
    p.add_argument(
        "--contract",
        action="store_true",
        help="quotient nodes by equality of their full shifts",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=DEFAULT_NODE_CAP,
        metavar="CAP",
        help=f"refuse graphs with more nodes than CAP (default {DEFAULT_NODE_CAP})",
    )
    p.add_argument(
        "--parallelism",
        type=int,
        default=1,
        metavar="P",
        help="fan node computations out over P worker processes; output is "
        "identical for every P (default 1)",
    )
    p.add_argument("--format", choices=("json", "dot"), default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_psg)

    p = sub.add_parser("betti", help="Betti numbers of a simplicial complex")
    p.add_argument("input", metavar="FILE", help="complex file or -")
    p.add_argument(
        "--method",
        choices=("ranks", "near-cone", "full-shift"),
        default="ranks",
        help="boundary-matrix ranks (default), the near-cone face count, or "
        "the full-shift face count",
    )
    p.add_argument("--n", type=int, metavar="N", help="vertex count for text input")
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser(
        "scan",
        help="probe Betti monotonicity and contracted-graph acyclicity "
        "(reports findings, asserts nothing)",
    )
    p.add_argument("inputs", nargs="*", metavar="FILE", help="complex files")
    p.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="COUNT",
        help="append COUNT seeded pseudorandom complexes",
    )
    p.add_argument("--random-n", type=int, default=5, metavar="N")
    p.add_argument("--random-dim", type=int, default=2, metavar="D")
    p.add_argument(
        "--graph",
        action="append",
        metavar="n,k,m",
        help="also scan the contracted shift graph on these parameters "
        "(repeatable)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "reproduce",
        help="recompute embedded golden data; exits 1 on any mismatch",
    )
    p.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="target names, or 'all' (see --list)",
    )
    p.add_argument("--list", action="store_true", help="list available targets")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="randomized-backend seed (SHIFTLAB_SEED overrides; default 0)",
    )
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"shiftlab: error: {exc}", file=sys.stderr)
        return 2
    except MathPreconditionError as exc:
        print(f"shiftlab: error: {exc}", file=sys.stderr)
        return 3
    except ShiftlabError as exc:  # internal invariant failures stay loud
        raise
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
