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
from tables S[x][y] = sigma_x(y) and T[y][x] = tau_y(x), built once per
sweep in O(n^2) time and memory.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Iterator

import json

from .groups import GroupTable, PermMap, _load_table_fields, _Record, validate_table


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
    witness: tuple[int, ...] | None
    _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple[int, ...] | None = None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def _require_compatible_carriers(dot: GroupTable, circ: GroupTable) -> None:
    if dot.n != circ.n:
        raise CarrierMismatchError(f"carrier sizes differ: {dot.n} vs {circ.n}")


def compatibility_violations(dot: GroupTable, circ: GroupTable) -> Iterator[tuple[int, int, int]]:
    """Yield every (x, y, z) where x o (y.z) != (x o y) . x^-1 . (x o z)."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    d = dot.table
    dinv = dot.inv
    c = circ.table
    for x in range(n):
        cx = c[x]
        xi = dinv[x]
        for y in range(n):
            left = d[d[cx[y]][xi]]
            dy = d[y]
            for z in range(n):
                if cx[dy[z]] != left[cx[z]]:
                    yield (x, y, z)


def check_compatibility(dot: GroupTable, circ: GroupTable) -> CheckResult:
    """Exhaustively test the compatibility condition over all n^3 triples."""
    return _first(compatibility_violations(dot, circ))


def _first(violations: Iterator[tuple[int, ...]]) -> CheckResult:
    witness = next(violations, None)
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

    def __init__(self, dot: GroupTable, circ: GroupTable) -> None:
        object.__setattr__(self, "dot", dot)
        object.__setattr__(self, "circ", circ)
        self.__post_init__()

    def __post_init__(self) -> None:
        witness = next(compatibility_violations(self.dot, self.circ), None)
        if witness is not None:
            raise NotABraceError(witness)

    @property
    def n(self) -> int:
        return self.dot.n


def trivial_brace(group: GroupTable) -> SkewBrace:
    """The brace with circ = dot."""
    return SkewBrace(group, group)


def opposite_brace(group: GroupTable) -> SkewBrace:
    """The brace with x o y = y . x (the transposed table as circ)."""
    n = group.n
    transposed = tuple(tuple(group.table[b][a] for b in range(n)) for a in range(n))
    return SkewBrace(group, GroupTable(n, transposed))


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


def _sigma_tau_tables(dot: GroupTable, circ: GroupTable) -> tuple[list[list[int]], list[list[int]]]:
    """The tables S[x][y] = sigma_x(y) and T[y][x] = tau_y(x) of a pair."""
    n = dot.n
    d, dinv, c, cinv = dot.table, dot.inv, circ.table, circ.inv
    S = [[d[dinv[x]][v] for v in c[x]] for x in range(n)]
    T = [[c[c[cinv[S[x][y]]][x]][y] for x in range(n)] for y in range(n)]
    return S, T


def sigma_perm(brace: SkewBrace, x: int) -> PermMap:
    """The full permutation y -> sigma_x(y); bijectivity is asserted."""
    image = tuple(sigma(brace, x, y) for y in range(brace.n))
    try:
        return PermMap(brace.n, image)
    except ValueError:
        raise AssertionError(f"sigma_{x} is not a bijection: {image!r}") from None


def tau_perm(brace: SkewBrace, y: int) -> PermMap:
    """The full permutation x -> tau_y(x); bijectivity is asserted."""
    image = tuple(tau(brace, y, x) for x in range(brace.n))
    try:
        return PermMap(brace.n, image)
    except ValueError:
        raise AssertionError(f"tau_{y} is not a bijection: {image!r}") from None


# --- the identity suite -----------------------------------------------------
#
# All checks below are defined on a raw (dot, circ) pair of validated group
# tables, not on SkewBrace, so the CLI can report which identities fail on a
# pair that is not a brace at all.


def inverse_product_violations(dot: GroupTable, circ: GroupTable) -> Iterator[tuple[int, int]]:
    """Yield every (a, b) where a^-1 . (a o b^-1) . a^-1 != (a o b)^-1."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    d, dinv, c = dot.table, dot.inv, circ.table
    for a in range(n):
        ai = dinv[a]
        for b in range(n):
            lhs = d[d[ai][c[a][dinv[b]]]][ai]
            if lhs != dinv[c[a][b]]:
                yield (a, b)


def sigma_homomorphism_violations(dot: GroupTable, circ: GroupTable) -> Iterator[tuple[int, int, int]]:
    """Yield every (x, y, z) where sigma_{x o y}(z) != sigma_x(sigma_y(z))."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    c = circ.table
    S, _ = _sigma_tau_tables(dot, circ)
    for x in range(n):
        sx, cx = S[x], c[x]
        for y in range(n):
            sxy, sy = S[cx[y]], S[y]
            for z in range(n):
                if sxy[z] != sx[sy[z]]:
                    yield (x, y, z)


def tau_antihomomorphism_violations(dot: GroupTable, circ: GroupTable) -> Iterator[tuple[int, int, int]]:
    """Yield every (x, y, z) where tau_{y o z}(x) != tau_z(tau_y(x))."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    c = circ.table
    _, T = _sigma_tau_tables(dot, circ)
    for x in range(n):
        tx = [T[w][x] for w in range(n)]
        for y in range(n):
            cy, tyx = c[y], tx[y]
            for z in range(n):
                if tx[cy[z]] != T[z][tyx]:
                    yield (x, y, z)


def sigma_twisted_product_violations(dot: GroupTable, circ: GroupTable) -> Iterator[tuple[int, int, int]]:
    """Yield every (x, y, z) where sigma_x(y o z) != sigma_x(y) o sigma_{tau_y(x)}(z)."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    c = circ.table
    S, T = _sigma_tau_tables(dot, circ)
    for x in range(n):
        sx = S[x]
        for y in range(n):
            cy, csxy, st = c[y], c[sx[y]], S[T[y][x]]
            for z in range(n):
                if sx[cy[z]] != csxy[st[z]]:
                    yield (x, y, z)


def product_preservation_violations(dot: GroupTable, circ: GroupTable) -> Iterator[tuple[int, int]]:
    """Yield every (x, y) where sigma_x(y) o tau_y(x) != x o y."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    c = circ.table
    S, T = _sigma_tau_tables(dot, circ)
    for x in range(n):
        sx, cx = S[x], c[x]
        for y in range(n):
            if c[sx[y]][T[y][x]] != cx[y]:
                yield (x, y)


def sigma_automorphism_violations(dot: GroupTable, circ: GroupTable) -> Iterator[tuple[int, int, int]]:
    """Yield every (x, y, z) where sigma_x(y . z) != sigma_x(y) . sigma_x(z)."""
    _require_compatible_carriers(dot, circ)
    n = dot.n
    d = dot.table
    S, _ = _sigma_tau_tables(dot, circ)
    for x in range(n):
        sx = S[x]
        for y in range(n):
            dy, dsy = d[y], d[sx[y]]
            for z in range(n):
                if sx[dy[z]] != dsy[sx[z]]:
                    yield (x, y, z)


class IdentityReport(_Record):
    name: str
    result: CheckResult
    _fields = ("name", "result")

    def __init__(self, name: str, result: CheckResult) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "result", result)


#: The identity suite, in report order. Each entry is (label, generator of
#: violation witnesses).
IDENTITY_SUITE: tuple[tuple[str, Callable[[GroupTable, GroupTable], Iterator[tuple[int, ...]]]], ...] = (
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
        IdentityReport(name, _first(gen(dot, circ))) for name, gen in IDENTITY_SUITE
    ]


class EquivalenceResult(_Record):
    """Joint outcome of the two brace criteria on one table pair."""

    compatibility: CheckResult
    homomorphism: CheckResult
    _fields = ("compatibility", "homomorphism")

    def __init__(self, compatibility: CheckResult, homomorphism: CheckResult) -> None:
        object.__setattr__(self, "compatibility", compatibility)
        object.__setattr__(self, "homomorphism", homomorphism)

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
        _first(sigma_homomorphism_violations(dot, circ)),
    )


# --- brace file formats -----------------------------------------------------
#
# JSON: {"n": <int>, "dot": <n x n array>, "circ": <n x n array>}.
# Text: two Cayley-table blocks (dot first), separated by one or more blank
# lines (a line holding only whitespace counts as blank); each block is the
# text format of skewbrace.groups.
#
# The *_tables variants validate the two group tables but not compatibility,
# so a caller can run the identity suite on a pair that is not a brace.


def parse_brace_tables_json(source: str | dict) -> tuple[GroupTable, GroupTable]:
    """Parse brace JSON, given as text or as the object decoded from it."""
    obj = _load_table_fields(source, ("dot", "circ"), BraceError)
    return validate_table(obj["n"], obj["dot"]), validate_table(obj["n"], obj["circ"])


def parse_brace_tables_text(text: str) -> tuple[GroupTable, GroupTable]:
    from .groups import parse_group_text

    blocks = [
        "\n".join(lines)
        for blank, lines in groupby(text.splitlines(), key=lambda line: not line.strip())
        if not blank
    ]
    if len(blocks) != 2:
        raise BraceError(
            f"expected two table blocks separated by a blank line, got {len(blocks)}"
        )
    return parse_group_text(blocks[0]), parse_group_text(blocks[1])


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
    from .groups import group_to_text

    return group_to_text(brace.dot) + "\n" + group_to_text(brace.circ)
