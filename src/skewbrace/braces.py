"""Skew left braces: two group structures on one carrier tied together.

A skew left brace is a carrier with a "dot" group and a "circ" group sharing
identity 0 and satisfying, for all x, y, z:

    x o (y . z) = (x o y) . x^-1 . (x o z)          (compatibility)

where x^-1 is the dot-inverse. From the two tables the package derives the
maps

    sigma_x(y) = x^-1 . (x o y)
    tau_y(x)   = circ_inverse(sigma_x(y)) o x o y

which feed the Yang-Baxter map R(a, b) = (sigma_a(b), tau_b(a)) in
:mod:`skewbrace.ybe`.

Every identity checked here is swept exhaustively; witnesses are the
lexicographically first failing tuple, with components ordered as the
identity's variables read. The sweeps that involve sigma or tau read them
from R's two output tables S[x][y] = sigma_x(y) and U[x][y] = tau_y(x), built
row by row (row x of U from row x of S) in O(n^2) time and memory once per
(dot, circ) pair: _sigma_tau_tables is an lru_cache of one entry keyed by the
pair's value, so the five sweeps of one verify and ybe.build_r on an equal
pair share a single build. sigma_perm and tau_perm build their one
permutation alone in O(n).

The unit of every sweep is the failing row. For each x, both sides over all
cells of x, (y, z) row-major for the five n^3 identities and b for the two
n^2 ones, are built whole by row gathers in C, as byte strings on carriers
of at most 256 elements and as tuples above (groups._row_form), and the
sweep yields (x, lhs, rhs) whenever they differ. Six of the paper's laws
have one of two row shapes: x -> act[x] carrying one product to another
(groups._action_rows: associativity, the sigma homomorphism of Proposition 1
and the tau anti-homomorphism of Proposition 2) or a homomorphism twisted on
its right-hand side (_twisted_rows: compatibility, sigma automorphism and the
twisted product). No cell is visited in Python: groups._differing masks a
failing row's differing cells (one XOR of the two sides read as integers
when they are byte strings), and from that mask groups._witnesses turns the
row back into witness tuples with compress (_first reads the first, for
every check here and in ybe), and the CLI formats its witness lines the same
way.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import getitem
from typing import Any, Callable, Iterable, Iterator, Sequence

import json

from .groups import (
    GroupTable,
    PermMap,
    _action_rows,
    _compose,
    _load_table_fields,
    _parse_table_lines,
    _Record,
    _row_form,
    _table_lines,
    _witnesses,
    group_to_text,
)


class BraceError(ValueError):
    """A pair of tables cannot form a skew brace."""


class CarrierMismatchError(BraceError):
    """The two tables live on carriers of different sizes."""


class NotABraceError(BraceError):
    """Compatibility fails; carries the first witness triple."""

    def __init__(self, witness: tuple[int, int, int]):
        x, y, z = witness
        super().__init__(f"compatibility fails at (x, y, z) = ({x}, {y}, {z})")
        self.witness = witness


class CheckResult(_Record):
    """Outcome of an exhaustive identity sweep."""

    ok: bool
    witness: tuple[int, ...] | None = None
    _fields = ("ok", "witness")

    def __bool__(self) -> bool:
        return self.ok


def _require_compatible_carriers(a: Any, b: Any) -> None:
    """Raise CarrierMismatchError unless a and b (tables, braces or R-maps)
    have carriers of one size."""
    if a.n != b.n:
        raise CarrierMismatchError(f"carrier sizes differ: {a.n} vs {b.n}")


#: A failing row (x, lhs, rhs): both sides of an identity over every cell of
#: x, in lexicographic order, as a byte string (n <= 256) or a tuple. Its
#: readers (groups._witnesses, cli._print_rows) take the sides' length and
#: the mask of differing cells that groups._differing makes of them, so the
#: Yang-Baxter rows of ybe, whose cells are triples (groups._Triples), are
#: read the same way.
Row = tuple[int, Sequence[int], Sequence[int]]
_Table = tuple[tuple[int, ...], ...]


def _twisted_rows(
    act: _Table, op: _Table, twists: Iterable[Sequence[int]], shifts: Iterable[Sequence[int]]
) -> Iterator[Row]:
    """Yield every row x where act[x][op[y][z]] != op[f[y]][act[g[y]][z]]
    for some (y, z), f and g being row x of twists and of shifts: act[x] is
    a homomorphism of op twisted on its right, as compatibility (circ, dot,
    y -> (x o y) . x^-1, constant x), sigma_x in Aut(B, .) (S, dot, S,
    constant x) and the twisted product (S, circ, S, U) say. Row y of the
    sides is row x of act after row y of op, and row f[y] of op after row
    g[y] of act."""
    _, table, apply, join = _row_form(len(act))
    flat, _, opmaps = table(op)
    _, lines, maps = table(act)
    for x, (f, g) in enumerate(zip(twists, shifts)):
        lhs = apply(flat, maps[x])
        rhs = join(map(apply, _compose(lines, g), _compose(opmaps, f)))
        if lhs != rhs:
            yield x, lhs, rhs


def _constant_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The shifts g[y] = x: row x is x repeated n times."""
    return ((x,) * n for x in range(n))


def compatibility_violations(dot: GroupTable, circ: GroupTable) -> Iterator[Row]:
    """Yield every row x where x o (y.z) != (x o y) . x^-1 . (x o z) for
    some (y, z)."""
    _require_compatible_carriers(dot, circ)
    n, dinv, c = dot.n, dot.inv, circ.table
    columns = tuple(zip(*dot.table))
    # Entry y of twist x is (x o y) . x^-1: column x^-1 of dot after x o -.
    twists = (_compose(columns[dinv[x]], c[x]) for x in range(n))
    yield from _twisted_rows(c, dot.table, twists, _constant_rows(n))


def check_compatibility(dot: GroupTable, circ: GroupTable) -> CheckResult:
    """Exhaustively test the compatibility condition over all n^3 triples."""
    return _first(dot.n, compatibility_violations(dot, circ))


def _first(n: int, rows: Iterable[Row]) -> CheckResult:
    """The first witness of a row sweep on n elements, as a CheckResult."""
    witness = next(_witnesses(n, rows), None)
    return CheckResult(witness is None, witness)


class SkewBrace(_Record):
    """A validated skew left brace.

    Construction checks that both tables share the carrier (every GroupTable
    has identity 0) and that compatibility holds for all triples, so any
    SkewBrace in existence satisfies the brace axioms.
    """

    dot: GroupTable
    circ: GroupTable
    _fields = ("dot", "circ")

    def __post_init__(self) -> None:
        result = check_compatibility(self.dot, self.circ)
        if not result:
            raise NotABraceError(result.witness)

    @property
    def n(self) -> int:
        return self.dot.n


def trivial_brace(group: GroupTable) -> SkewBrace:
    """The brace with circ = dot."""
    return SkewBrace(group, group)


def opposite_brace(group: GroupTable) -> SkewBrace:
    """The brace with x o y = y . x (the transposed table as circ)."""
    return SkewBrace(group, GroupTable(group.n, tuple(zip(*group.table))))


def sigma(brace: SkewBrace, x: int, y: int) -> int:
    """sigma_x(y) = x^-1 . (x o y)."""
    dot = brace.dot
    dot._check_element(x)
    dot._check_element(y)
    return dot.table[dot.inv[x]][brace.circ.table[x][y]]


def tau(brace: SkewBrace, y: int, x: int) -> int:
    """tau_y(x) = circ_inverse(sigma_x(y)) o x o y, products left to right."""
    circ = brace.circ
    circ._check_element(x)
    circ._check_element(y)
    c = circ.table
    return c[c[circ.inv[sigma(brace, x, y)]][x]][y]


@lru_cache(maxsize=1)
def _sigma_tau_tables(dot: GroupTable, circ: GroupTable) -> tuple[_Table, _Table]:
    """R's output tables S[x][y] = sigma_x(y) and U[x][y] = tau_y(x) of a pair.

    The last result is kept and served again to an equal pair: a GroupTable
    is immutable and hashes by value, and S and U are tuples of tuples, so
    no caller can change the shared result.
    """
    d, dinv, c, cinv = dot.table, dot.inv, circ.table, circ.inv
    # Row x of S is row x^-1 of dot after row x of circ; entry y of row x of
    # U is tau_y(x) = sigma_x(y)^-1 o x o y, read off entry y of row x of S.
    S = tuple([_compose(d[dinv[x]], c[x]) for x in range(dot.n)])
    U = tuple([tuple([c[c[cinv[s]][x]][y] for y, s in enumerate(S[x])]) for x in range(dot.n)])
    return S, U


def _perm(n: int, image: tuple[int, ...], name: str) -> PermMap:
    try:
        return PermMap(n, image)
    except ValueError:
        raise AssertionError(f"{name} is not a bijection: {image!r}") from None


def sigma_perm(brace: SkewBrace, x: int) -> PermMap:
    """The full permutation y -> sigma_x(y), row x of S, built alone in O(n)
    (row x^-1 of dot after row x of circ); bijectivity is asserted."""
    dot = brace.dot
    dot._check_element(x)
    return _perm(brace.n, _compose(dot.table[dot.inv[x]], brace.circ.table[x]), f"sigma_{x}")


def tau_perm(brace: SkewBrace, y: int) -> PermMap:
    """The full permutation x -> tau_y(x), column y of U, built alone in
    O(n); bijectivity is asserted."""
    dot, circ = brace.dot, brace.circ
    circ._check_element(y)
    d, dinv, c, cinv = dot.table, dot.inv, circ.table, circ.inv
    image = tuple([c[c[cinv[d[dinv[x]][c[x][y]]]][x]][y] for x in range(brace.n)])
    return _perm(brace.n, image, f"tau_{y}")


# --- the identity suite -----------------------------------------------------
#
# All checks below are defined on a raw (dot, circ) pair of validated group
# tables, not on SkewBrace, so the CLI can report which identities fail on a
# pair that is not a brace at all.


def inverse_product_violations(dot: GroupTable, circ: GroupTable) -> Iterator[Row]:
    """Yield every row a where a^-1 . (a o b^-1) . a^-1 != (a o b)^-1 for
    some b."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    d, dinv, c = dot.table, dot.inv, circ.table
    _, table, apply, _ = _row_form(n)
    _, clines, cmaps = table(c)
    _, _, dmaps = table(d)
    # Map u of the columns sends v to v . u; inv is b -> b^-1 as a line and
    # as a map.
    _, _, colmaps = table(tuple(zip(*d)))
    _, (inv,), (invmap,) = table((dinv,))
    for a in range(n):
        ai = dinv[a]
        lhs = apply(apply(apply(inv, cmaps[a]), dmaps[ai]), colmaps[ai])
        rhs = apply(clines[a], invmap)
        if lhs != rhs:
            yield a, lhs, rhs


def sigma_homomorphism_violations(dot: GroupTable, circ: GroupTable) -> Iterator[Row]:
    """Yield every row x where sigma_{x o y}(z) != sigma_x(sigma_y(z)) for
    some (y, z)."""
    _require_compatible_carriers(dot, circ)
    S, _ = _sigma_tau_tables(dot, circ)
    yield from _action_rows(S, circ.table, S)


def tau_antihomomorphism_violations(dot: GroupTable, circ: GroupTable) -> Iterator[Row]:
    """Yield every row x where tau_{y o z}(x) != tau_z(tau_y(x)) for some
    (y, z)."""
    _require_compatible_carriers(dot, circ)
    _, U = _sigma_tau_tables(dot, circ)
    # The shape's sides are tau_z(tau_y(x)) = U[U[x][y]][z] and
    # tau_{y o z}(x) = U[x][circ[y][z]]; the law reads them the other way.
    yield from ((x, lhs, rhs) for x, rhs, lhs in _action_rows(U, U, circ.table))


def sigma_twisted_product_violations(dot: GroupTable, circ: GroupTable) -> Iterator[Row]:
    """Yield every row x where sigma_x(y o z) != sigma_x(y) o
    sigma_{tau_y(x)}(z) for some (y, z)."""
    _require_compatible_carriers(dot, circ)
    S, U = _sigma_tau_tables(dot, circ)
    yield from _twisted_rows(S, circ.table, S, U)


def product_preservation_violations(dot: GroupTable, circ: GroupTable) -> Iterator[Row]:
    """Yield every row x where sigma_x(y) o tau_y(x) != x o y for some y.

    On a pair of group tables this checks a definition: tau_y(x) is
    sigma_x(y)^-1 o x o y, so sigma_x(y) o tau_y(x) = x o y is the
    associativity of circ, and no row fails. The sweep keeps its line in the
    report; ybe.check_product_preservation checks the same law on an R-map
    that was not built from the pair."""
    _require_compatible_carriers(dot, circ)
    yield from _product_rows(circ, *_sigma_tau_tables(dot, circ))


def _product_rows(circ: GroupTable, first: _Table, second: _Table) -> Iterator[Row]:
    """Yield every row x where first[x][y] o second[x][y] != x o y for some
    y: the product-preservation law of R's output tables, (S, U) of a pair
    or the components of an R-map."""
    line, table, _, _ = _row_form(circ.n)
    _, clines, _ = table(circ.table)
    for x, (f, s) in enumerate(zip(first, second)):
        # Entry y of the left side: entry s[y] of row f[y] of circ.
        lhs = line(map(getitem, _compose(clines, f), s))
        if lhs != clines[x]:
            yield x, lhs, clines[x]


def sigma_automorphism_violations(dot: GroupTable, circ: GroupTable) -> Iterator[Row]:
    """Yield every row x where sigma_x(y . z) != sigma_x(y) . sigma_x(z) for
    some (y, z)."""
    _require_compatible_carriers(dot, circ)
    S, _ = _sigma_tau_tables(dot, circ)
    yield from _twisted_rows(S, dot.table, S, _constant_rows(dot.n))


class IdentityReport(_Record):
    name: str
    result: CheckResult
    _fields = ("name", "result")


#: The identity suite, in report order. Each entry is (label, generator of
#: failing rows).
IDENTITY_SUITE: tuple[tuple[str, Callable[[GroupTable, GroupTable], Iterator[Row]]], ...] = (
    ("compatibility", compatibility_violations),
    ("inverse product (Lemma 1)", inverse_product_violations),
    ("sigma homomorphism (Proposition 1)", sigma_homomorphism_violations),
    ("tau anti-homomorphism (Proposition 2)", tau_antihomomorphism_violations),
    ("sigma twisted product", sigma_twisted_product_violations),
    ("product preservation", product_preservation_violations),
    ("sigma automorphism", sigma_automorphism_violations),
)


def brace_identity_suite(dot: GroupTable, circ: GroupTable) -> list[IdentityReport]:
    """Run every identity check on a pair of group tables.

    The pair does not have to be a brace; failing identities report their
    first witness.
    """
    return [
        IdentityReport(name, _first(dot.n, sweep(dot, circ))) for name, sweep in IDENTITY_SUITE
    ]


class EquivalenceResult(_Record):
    """Joint outcome of the two brace criteria on one table pair."""

    compatibility: CheckResult
    homomorphism: CheckResult
    _fields = ("compatibility", "homomorphism")

    @property
    def consistent(self) -> bool:
        return self.compatibility.ok == self.homomorphism.ok


def check_compatibility_equivalence(dot: GroupTable, circ: GroupTable) -> EquivalenceResult:
    """Test that compatibility holds exactly when sigma is a circ-homomorphism.

    The two sweeps are independent; ``consistent`` is True when they agree
    (both pass or both fail), which is expected for every pair of group
    tables sharing identity 0.
    """
    return EquivalenceResult(
        check_compatibility(dot, circ),
        _first(dot.n, sigma_homomorphism_violations(dot, circ)),
    )


# --- brace file formats -----------------------------------------------------
#
# JSON: {"n": <int>, "dot": <n x n array>, "circ": <n x n array>}.
# Text: two Cayley-table blocks (dot first), separated by one or more blank
# lines (a line holding only spaces or tabs, groups._table_lines); each block
# is the text format of skewbrace.groups.
#
# The *_tables variants validate the two group tables but not compatibility,
# so a caller can run the identity suite on a pair that is not a brace.


def parse_brace_tables_json(source: str | dict) -> tuple[GroupTable, GroupTable]:
    """Parse brace JSON, given as text or as the object decoded from it."""
    obj = _load_table_fields(source, ("dot", "circ"), BraceError)
    return GroupTable(obj["n"], obj["dot"]), GroupTable(obj["n"], obj["circ"])


def parse_brace_tables_text(text: str) -> tuple[GroupTable, GroupTable]:
    blocks = [
        list(lines)
        for blank, lines in groupby(_table_lines(text), key=lambda line: not line[1])
        if not blank
    ]
    if len(blocks) != 2:
        raise BraceError(
            f"expected two table blocks separated by a blank line, got {len(blocks)}"
        )
    return _parse_table_lines(blocks[0]), _parse_table_lines(blocks[1])


def parse_brace_json(text: str) -> SkewBrace:
    dot, circ = parse_brace_tables_json(text)
    return SkewBrace(dot, circ)


def parse_brace_text(text: str) -> SkewBrace:
    dot, circ = parse_brace_tables_text(text)
    return SkewBrace(dot, circ)


def brace_to_json_dict(brace: SkewBrace) -> dict:
    return {
        "n": brace.n,
        "dot": [list(row) for row in brace.dot.table],
        "circ": [list(row) for row in brace.circ.table],
    }


def brace_to_json(brace: SkewBrace) -> str:
    return json.dumps(brace_to_json_dict(brace))


def brace_to_text(brace: SkewBrace) -> str:
    return group_to_text(brace.dot) + "\n" + group_to_text(brace.circ)
