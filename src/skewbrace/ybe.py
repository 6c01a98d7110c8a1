"""The Yang-Baxter map of a skew brace, and exhaustive equation checking.

A candidate solution is any map R: B x B -> B x B on the carrier, stored as
an n x n table of output pairs. The braid-style equation checked here is

    (R x id)(id x R)(R x id) = (id x R)(R x id)(id x R)      on B^3,

with the rightmost factor applied first. That composition order is the one
convention in this package most likely to be implemented backwards, so two
independent evaluators are provided: :func:`check_ybe` evaluates both sides
stepwise, a row a at a time over all (b, c), while
:func:`check_ybe_materialized` builds the two factor maps on B^3 explicitly
and composes them as lookup tables. They must always agree.

The two factor tables of the materialized evaluator are cut from one tuple
of the n^3 triple codes, so they share its ints (about 56 bytes per triple
in all), and the sides are composed and compared a slab (one a, all (b, c))
at a time, so neither side is ever held whole and a failing map stops at
its first failing slab.

The stepwise sweep works as the identity sweeps of :mod:`skewbrace.braces`
do: R is split into its tables of first and second outputs, each step of
both sides is a gather in C over a whole row, as byte strings on carriers of
at most 256 elements and as tuples above (groups._row_form), and only a row
whose sides differ is turned into cells.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterator

from .braces import (
    CheckResult,
    SkewBrace,
    _first,
    _product_rows,
    _require_compatible_carriers,
    _sigma_tau_tables,
)
from .groups import (
    _compose,
    _cut_int,
    _gather,
    _load_table_fields,
    _Record,
    _row_form,
    _Triples,
)


class YbeMap(_Record):
    """A map B x B -> B x B as a table of output pairs r[a][b] = R(a, b)."""

    n: int
    r: tuple[tuple[tuple[int, int], ...], ...]
    _fields = ("n", "r")

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError(f"carrier size must be positive, got {_cut_int(n)}")
        rows = tuple([tuple(map(tuple, row)) for row in self.r])
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"map table must be {_cut_int(n)}x{_cut_int(n)}")
        # The shape and range checks run in C; the cell loop only runs to
        # name the first bad pair.
        pairs = tuple(chain.from_iterable(rows))
        if not set(map(len, pairs)) <= {2} or not set(range(n)).issuperset(
            chain.from_iterable(pairs)
        ):
            for row in rows:
                for pair in row:
                    if len(pair) != 2 or not (0 <= pair[0] < n and 0 <= pair[1] < n):
                        shown = ", ".join(map(_cut_int, pair))
                        raise ValueError(f"output ({shown}) is not a pair in 0..{n - 1}")
        object.__setattr__(self, "r", rows)


def build_r(brace: SkewBrace) -> YbeMap:
    """R(a, b) = (sigma_a(b), tau_b(a)) for all pairs."""
    S, U = _sigma_tau_tables(brace.dot, brace.circ)
    # Row a pairs row a of S with row a of U.
    return YbeMap(brace.n, tuple(map(tuple, map(zip, S, U))))


def swap_map(n: int) -> YbeMap:
    """R(a, b) = (b, a), a solution on any carrier."""
    return YbeMap(n, tuple(tuple((b, a) for b in range(n)) for a in range(n)))


def _components(
    rmap: YbeMap,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The tables R1[a][b] and R2[a][b] of the first and second outputs of
    R(a, b), each made by zip in C."""
    return tuple(zip(*[zip(*row) for row in rmap.r]))


def ybe_violations(rmap: YbeMap) -> Iterator[tuple[int, _Triples, _Triples]]:
    """Yield every row (a, lhs, rhs) where the two sides of the equation
    differ at some (b, c).

    The sides list the cells (b, c) row-major, each cell the evaluated
    triple: (h, k, g) on the left and (s, v, w) on the right, where
    (v, w) = r[t][u]. A row is built whole by gathers: per b, (f, g) is
    row e of R and (h, k) row d of R after f, for (d, e) = R(a, b); s and t
    are row a of R1 and of R2 after the flat R1, and r[t][u] is entry
    q*n + u of the rows of R joined in the order R2[a], for
    (q, u) = R(b, c). A row whose three components agree costs three
    comparisons; only a failing row is given cells, as _Triples.
    """
    n = rmap.n
    line, table, apply, join = _row_form(n)
    first, second = _components(rmap)
    flat1, lines1, maps1 = table(first)
    _, lines2, maps2 = table(second)
    # Cell (b, c) of the right side reads r[t][u] at index q*n + u of the
    # rows of R joined in the order R2[a], the same index for every a.
    gather = _gather([q * n + u for row in rmap.r for q, u in row])
    for a in range(n):
        # Row e = R2[a][b] of R1 for each b: the f of the left side, and
        # joined, the first outputs of the rows of R in the order R2[a].
        fs = _compose(lines1, second[a])
        g = join(_compose(lines2, second[a]))
        h = join(map(apply, fs, _compose(maps1, first[a])))
        k = join(map(apply, fs, _compose(maps2, first[a])))
        s = apply(flat1, maps1[a])
        v = line(gather(join(fs)))
        w = line(gather(g))
        if h != s or k != v or g != w:
            yield a, _Triples(h, k, g), _Triples(s, v, w)


def check_ybe(rmap: YbeMap) -> CheckResult:
    """Exhaustively evaluate both sides over all n^3 triples, a row at a
    time."""
    return _first(rmap.n, ybe_violations(rmap))


def check_ybe_materialized(rmap: YbeMap) -> CheckResult:
    """Independent evaluator: composes explicit maps on B^3.

    R is one flat table on encoded pairs, pairs[a*n + b] = first*n + second,
    and the triple (a, b, c) is encoded as (a*n + b)*n + c, so index order is
    lexicographic order. (R x id) sends p*n + c to pairs[p]*n + c: each pair
    image v expands to codes v*n .. v*n + n - 1. (id x R) sends a*n^2 + p to
    a*n^2 + pairs[p]: slab a of the codes gathered by pairs. Both tables are
    cut from one tuple of the n^3 codes, so they share its int objects and
    no table holds ints of its own.

    The sides are composed rightmost-first by gathers a slab (one a, all
    (b, c)) at a time and compared slab by slab: no table of a whole side
    is built, a failing map stops at its first failing slab, and the first
    differing triple of that slab is the witness.
    """
    n = rmap.n
    nn = n * n
    pairs = [f * n + s for row in rmap.r for f, s in row]
    slabs = range(0, nn * n, nn)
    codes = tuple(range(nn * n))
    r_x_id = tuple(chain.from_iterable(codes[v * n : v * n + n] for v in pairs))
    by_pairs = _gather(pairs)
    id_x_r = tuple(chain.from_iterable(by_pairs(codes[lo : lo + nn]) for lo in slabs))
    # Each code is in the tables now; the tuple would cost 8 bytes a triple.
    del codes
    for a, lo in enumerate(slabs):
        lhs = _gather(_gather(r_x_id[lo : lo + nn])(id_x_r))(r_x_id)
        rhs = _gather(_gather(id_x_r[lo : lo + nn])(r_x_id))(id_x_r)
        if lhs != rhs:
            i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return CheckResult(False, (a, *divmod(i, n)))
    return CheckResult(True)


def check_nondegenerate(rmap: YbeMap) -> bool:
    """True iff b -> first(R(a, b)) is bijective for every a, and
    a -> second(R(a, b)) is bijective for every b.

    Every output is in 0..n-1, so a row of R1 or a column of R2 is a
    bijection exactly when it has n distinct entries."""
    n = rmap.n
    first, second = _components(rmap)
    return set(map(len, map(set, first))) == {n} == set(map(len, map(set, zip(*second))))


def check_bijective(rmap: YbeMap) -> bool:
    """True iff R is a bijection of B x B (all output pairs distinct)."""
    return len(set(chain.from_iterable(rmap.r))) == rmap.n * rmap.n


def check_product_preservation(brace: SkewBrace, rmap: YbeMap) -> CheckResult:
    """Exhaustive check that R(a, b) = (s, t) implies s o t = a o b."""
    _require_compatible_carriers(brace, rmap)
    return _first(rmap.n, _product_rows(brace.circ, *_components(rmap)))


# --- export/import formats --------------------------------------------------
#
# JSON: {"n": <int>, "r": <n x n array of [first, second] pairs>}.
# CSV: n^2 lines "a,b,first,second" in lexicographic (a, b) order, no header.


def rmap_to_json(rmap: YbeMap) -> str:
    return json.dumps(
        {"n": rmap.n, "r": [[[f, s] for f, s in row] for row in rmap.r]}
    )


def parse_rmap_json(source: str | dict) -> YbeMap:
    """Parse R-map JSON, given as text or as the object decoded from it."""
    obj = _load_table_fields(source, ("r",), ValueError, pairs=True)
    return YbeMap(obj["n"], obj["r"])


def rmap_to_csv(rmap: YbeMap) -> str:
    lines = []
    for a in range(rmap.n):
        for b in range(rmap.n):
            f, s = rmap.r[a][b]
            lines.append(f"{a},{b},{f},{s}")
    return "\n".join(lines) + "\n"
