"""Command-line driver: verify, maps, r-map, check-ybe, enumerate.

Exit codes: 0 on success, 1 on a mathematical failure (an identity or the
Yang-Baxter equation fails, with witnesses reported), 2 on input or parse
errors. All file output is byte-identical across runs; timing goes to
stderr only.

`main(argv)` may be called repeatedly in one process: the argparse parser is
built once, on the first call, and reused; parsing keeps no state in it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .braces import (
    IDENTITY_SUITE,
    BraceError,
    NotABraceError,
    Row,
    SkewBrace,
    parse_brace_tables_json,
    parse_brace_tables_text,
    sigma_perm,
    tau_perm,
)
from .groups import (
    GroupTable,
    _cut_int,
    _decimal,
    _decode_json,
    _differing,
    _indented_array,
    _is_decimal,
    _quote,
    _witnesses,
)
from .search import (
    _brace_counts,
    catalog_to_json,
    deduplicate_catalog,
    enumerate_braces,
    oracle_enumerate,
)
from .ybe import (
    YbeMap,
    build_r,
    check_bijective,
    check_nondegenerate,
    parse_rmap_json,
    rmap_to_csv,
    rmap_to_json,
    ybe_violations,
)


def _read(path: str) -> str:
    return Path(path).read_text()


def _is_json(text: str) -> bool:
    """Whether a file is JSON: "{" or "[" first after whitespace, or a leading
    byte-order mark, which the decoder then reports; text starts with a digit."""
    return text.startswith("\ufeff") or text.lstrip().startswith(("{", "["))


def _load_brace_tables(path: str) -> tuple[GroupTable, GroupTable]:
    text = _read(path)
    if _is_json(text):
        return parse_brace_tables_json(text)
    return parse_brace_tables_text(text)


def _load_brace(path: str) -> SkewBrace:
    return SkewBrace(*_load_brace_tables(path))


def _load_rmap(path: str) -> YbeMap:
    """Accept an R-map JSON file or a brace file (R is then built from it)."""
    text = _read(path)
    if not _is_json(text):
        return build_r(SkewBrace(*parse_brace_tables_text(text)))
    obj = _decode_json(text, ValueError)
    if isinstance(obj, dict) and "r" in obj and {"dot", "circ"} & set(obj):
        raise ValueError('ambiguous JSON: both an "r" field and "dot"/"circ" fields')
    if isinstance(obj, dict) and "r" in obj:
        return parse_rmap_json(obj)
    if isinstance(obj, dict) and {"dot", "circ"} & set(obj):
        return build_r(SkewBrace(*parse_brace_tables_json(obj)))
    raise ValueError('expected JSON with an "r" field or "dot"/"circ" fields')


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


@functools.lru_cache(maxsize=2)
def _line_tails(n: int, arity: int) -> tuple[list[str], list[str]]:
    """The numerals 0..n-1 and the witness line tails of a row in `arity`
    variables: "y, z)\n" for each cell of a row in three variables, "b)\n"
    for each cell of one in two. Built once per (n, arity) and shared by
    every identity _print_rows reports on that carrier, so callers must not
    modify them."""
    s = [str(v) for v in range(n)]
    tails = [f"{y}, {z})\n" for y in s for z in s] if arity == 3 else [f"{b})\n" for b in s]
    return s, tails


def _print_rows(name: str, n: int, arity: int, rows: Iterable[Row]) -> None:
    """Print "<name>: FAIL witness=(x, ...)" for every failing cell of every
    row (x, lhs, rhs) of an identity in `arity` variables, one write per row.
    A cell may be one value or, in a Yang-Baxter row, a triple.

    compress picks the line tails (_line_tails) of the cells that
    groups._differing marks as failing, and the row's head, put before each,
    joins them into one string: a write holds at most n^2 lines."""
    s, tails = _line_tails(n, arity)
    write = sys.stdout.write
    for x, lhs, rhs in rows:
        head = f"{name}: FAIL witness=({s[x]}, "
        lines = head.join(chain(("",), compress(tails, _differing(lhs, rhs))))
        if lines:
            write(lines)


def _report(name: str, n: int, rows: Iterator[Row], all_witnesses: bool) -> bool:
    """Print "<name>: PASS" if there is no failing row, else the first
    witness or, with all_witnesses, every witness (_print_rows); True on a
    pass."""
    first = next(rows, None)
    if first is None:
        print(f"{name}: PASS")
        return True
    if all_witnesses:
        _print_rows(name, n, 3 if len(first[1]) > n else 2, chain((first,), rows))
    else:
        print(f"{name}: FAIL witness={next(_witnesses(n, [first]))}")
    return False


def cmd_verify(args: argparse.Namespace) -> int:
    dot, circ = _load_brace_tables(args.brace_file)
    passed = [
        _report(name, dot.n, violations(dot, circ), args.all_witnesses)
        for name, violations in IDENTITY_SUITE
    ]
    return 0 if all(passed) else 1


def _maps_json(n: int, maps: list[tuple[int, tuple[int, ...], tuple[int, ...]]]) -> str:
    """json.dumps({"n": n, "maps": [{"element": x, "sigma": [...], "tau": [...]},
    ...]}, indent=1), written out directly (groups._indented_array)."""
    s = [str(v) for v in range(n)]
    entries = [
        f'{{\n   "element": {x},\n   "sigma": {_indented_array([s[v] for v in sigma], 3)},'
        f'\n   "tau": {_indented_array([s[v] for v in tau], 3)}\n  }}'
        for x, sigma, tau in maps
    ]
    return f'{{\n "n": {n},\n "maps": {_indented_array(entries, 1)}\n}}'


def cmd_maps(args: argparse.Namespace) -> int:
    brace = _load_brace(args.brace_file)
    if args.element is not None and not 0 <= args.element < brace.n:
        raise BraceError(f"element {_cut_int(args.element)} is outside 0..{brace.n - 1}")
    elements = range(brace.n) if args.element is None else [args.element]
    maps = [(x, sigma_perm(brace, x).image, tau_perm(brace, x).image) for x in elements]
    if args.format == "json":
        _emit(_maps_json(brace.n, maps) + "\n", args.output)
    else:
        lines = []
        for x, s, t in maps:
            lines.append(f"sigma[{x}] = " + " ".join(map(str, s)))
            lines.append(f"tau[{x}] = " + " ".join(map(str, t)))
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_rmap(args: argparse.Namespace) -> int:
    brace = _load_brace(args.brace_file)
    rmap = build_r(brace)
    if args.format == "csv":
        _emit(rmap_to_csv(rmap), args.output)
    else:
        _emit(rmap_to_json(rmap) + "\n", args.output)
    return 0


def cmd_check_ybe(args: argparse.Namespace) -> int:
    rmap = _load_rmap(args.input_file)
    if not _report("yang-baxter", rmap.n, ybe_violations(rmap), args.all_witnesses):
        return 1
    print(f"nondegenerate: {'yes' if check_nondegenerate(rmap) else 'no'}")
    print(f"bijective: {'yes' if check_bijective(rmap) else 'no'}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.oracle:
        raw = oracle_enumerate(args.order)
        iso = deduplicate_catalog(raw, pairwise=True)
        chosen = iso if args.up_to_iso else raw
        count_raw, count_iso = len(raw.braces), len(iso.braces)
    else:
        chosen = enumerate_braces(args.order, up_to_iso=args.up_to_iso)
        count_raw, count_iso = _brace_counts(args.order)
    text = catalog_to_json(chosen, count_raw=count_raw, count_up_to_iso=count_iso)
    _emit(text + "\n", args.output)
    elapsed = time.perf_counter() - started
    print(
        f"order={args.order} raw={count_raw} iso={count_iso} elapsed={elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0


def _integer(text: str) -> int:
    """The argparse type of the integer options: an optional "-" and ASCII
    digits, read as the text formats read them; "+", "_", spaces and other
    scripts' digits are refused, and a long value is cut in the message."""
    digits = text[1:] if text.startswith("-") else text
    value = _decimal(digits) if _is_decimal(digits) else None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}")
    return -value if text.startswith("-") else value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared by
    every `main` call in the process; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Verify skew brace identities, extract sigma/tau/R maps, "
        "check the Yang-Baxter equation, and enumerate braces of small order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity suite on a brace file")
    p.add_argument("brace_file")
    p.add_argument(
        "--all-witnesses",
        action="store_true",
        help="stream every failing tuple per identity, not just the first",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("maps", help="print sigma/tau permutations of a brace")
    p.add_argument("brace_file")
    p.add_argument("--element", type=_integer, default=None, help="restrict to one element")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("r-map", help="export the Yang-Baxter map of a brace")
    p.add_argument("brace_file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_rmap)

    p = sub.add_parser(
        "check-ybe", help="check the Yang-Baxter equation on an R-map or brace file"
    )
    p.add_argument("input_file")
    p.add_argument("--all-witnesses", action="store_true")
    p.set_defaults(func=cmd_check_ybe)

    p = sub.add_parser("enumerate", help="enumerate all braces of one order")
    p.add_argument("--order", type=_integer, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use the naive cross-validation enumerator (order <= 5)",
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotABraceError as exc:
        print(f"not a brace: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
