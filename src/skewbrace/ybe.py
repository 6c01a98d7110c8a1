"""The Yang-Baxter map of a skew brace, and exhaustive equation checking.

A candidate solution is any map R: B x B -> B x B on the carrier, stored as
an n x n table of output pairs. The braid-style equation checked here is

    (R x id)(id x R)(R x id) = (id x R)(R x id)(id x R)      on B^3,

with the rightmost factor applied first. That composition order is the one
convention in this package most likely to be implemented backwards, so two
independent evaluators are provided: :func:`check_ybe` walks each triple
stepwise, while :func:`check_ybe_materialized` builds the two factor maps on
B^3 explicitly and composes them as lookup tables. They must always agree.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterator

from .braces import (
    CheckResult,
    SkewBrace,
    _first,
    _require_compatible_carriers,
    _sigma_tau_tables,
)
from .groups import _compose, _cut_int, _load_table_fields, _Record


class YbeMap(_Record):
    """A map B x B -> B x B as a table of output pairs r[a][b] = R(a, b)."""

    n: int
    r: tuple[tuple[tuple[int, int], ...], ...]
    _fields = ("n", "r")

    def __init__(self, n: int, r: tuple[tuple[tuple[int, int], ...], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        self.__post_init__()

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
    n = brace.n
    S, T = _sigma_tau_tables(brace.dot, brace.circ)
    # Row a pairs row a of S with column a of T.
    return YbeMap(n, tuple(map(tuple, map(zip, S, zip(*T)))))


def swap_map(n: int) -> YbeMap:
    """R(a, b) = (b, a), a solution on any carrier."""
    return YbeMap(n, tuple(tuple((b, a) for b in range(n)) for a in range(n)))


def ybe_violations(rmap: YbeMap) -> Iterator[tuple[int, int, int]]:
    """Yield every triple where the two sides of the equation differ."""
    n = rmap.n
    r = rmap.r
    for a in range(n):
        ra = r[a]
        for b in range(n):
            # Left side: (R x id), then (id x R), then (R x id), giving
            # (h, k, g); right side: (id x R), then (R x id), then (id x R),
            # giving (s, r[t][u]).
            d, e = ra[b]
            rb, rd, re = r[b], r[d], r[e]
            for c in range(n):
                f, g = re[c]
                h, k = rd[f]
                q, u = rb[c]
                s, t = ra[q]
                if h != s or r[t][u] != (k, g):
                    yield (a, b, c)


def check_ybe(rmap: YbeMap) -> CheckResult:
    """Exhaustively evaluate both sides over all n^3 triples, stepwise."""
    return _first(ybe_violations(rmap))


def check_ybe_materialized(rmap: YbeMap) -> CheckResult:
    """Independent evaluator: composes explicit maps on B^3.

    R is one flat table on encoded pairs, pairs[a*n + b] = first*n + second,
    and the triple (a, b, c) is encoded as (a*n + b)*n + c, so index order is
    lexicographic order. (R x id) sends p*n + c to pairs[p]*n + c: each pair
    image v expands to v*n .. v*n + n - 1. (id x R) sends a*n^2 + p to
    a*n^2 + pairs[p]: one shifted copy of pairs per a. Both sides are composed
    rightmost-first by groups._compose and compared whole; only if they
    differ is the first differing triple decoded as the witness.
    """
    n = rmap.n
    nn = n * n
    pairs = [f * n + s for row in rmap.r for f, s in row]
    r_x_id = tuple(chain.from_iterable(range(v * n, v * n + n) for v in pairs))
    id_x_r = [base + v for base in range(0, nn * n, nn) for v in pairs]
    # (R x id)(id x R) is the shared middle: lhs = AB after (R x id),
    # rhs = (id x R) after AB.
    ab = _compose(r_x_id, id_x_r)
    lhs = _compose(ab, r_x_id)
    rhs = _compose(id_x_r, ab)
    if lhs == rhs:
        return CheckResult(True)
    i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    a, rest = divmod(i, nn)
    return CheckResult(False, (a, *divmod(rest, n)))


def check_nondegenerate(rmap: YbeMap) -> bool:
    """True iff b -> first(R(a, b)) is bijective for every a, and
    a -> second(R(a, b)) is bijective for every b."""
    n = rmap.n
    r = rmap.r
    full = set(range(n))
    for a in range(n):
        if {r[a][b][0] for b in range(n)} != full:
            return False
    for b in range(n):
        if {r[a][b][1] for a in range(n)} != full:
            return False
    return True


def check_bijective(rmap: YbeMap) -> bool:
    """True iff R is a bijection of B x B (all output pairs distinct)."""
    n = rmap.n
    outputs = {pair for row in rmap.r for pair in row}
    return len(outputs) == n * n


def check_product_preservation(brace: SkewBrace, rmap: YbeMap) -> CheckResult:
    """Exhaustive check that R(a, b) = (s, t) implies s o t = a o b."""
    _require_compatible_carriers(brace, rmap)
    c = brace.circ.table
    for a in range(brace.n):
        for b in range(brace.n):
            s, t = rmap.r[a][b]
            if c[s][t] != c[a][b]:
                return CheckResult(False, (a, b))
    return CheckResult(True)


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
