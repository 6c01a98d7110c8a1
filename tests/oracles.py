"""Slow, independent routes that the tests check the package against.

The labelled group route runs the closure search of skewbrace.search with
row a drawn from every Latin permutation sending 0 to a, which gives every
labelled group table: the oracle of the group classes and of the brace
search. The brute-force canonical form tries all (n-1)! relabelings: the
oracle of the class minima and of canonical_brace. The Yang-Baxter
references evaluate both sides of the equation one triple at a time, from
the table of R alone: the oracle of the row sweep ybe_violations.
"""

from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

from skewbrace import GroupTable, SkewBrace, YbeMap
from skewbrace.search import _closure_tables, _smallest_prime_factor


def _latin_rows(n: int, a: int, cols: list[set[int]]) -> list[tuple[int, ...]]:
    """Every permutation of 0..n-1 sending 0 to a that uses no value already
    in its column (cols[z] for column z)."""
    out: list[tuple[int, ...]] = []
    prefix = [a]
    used = {a}

    def extend(z: int) -> None:
        if z == n:
            out.append(tuple(prefix))
            return
        for v in range(n):
            if v not in used and v not in cols[z]:
                prefix.append(v)
                used.add(v)
                extend(z + 1)
                prefix.pop()
                used.remove(v)

    extend(1)
    return out


def _forced_row1(n: int) -> tuple[int, ...]:
    """Row 1 of the lexicographically smallest table of any group of order
    n > 1, and of the smallest circ table of any brace of order n.

    Row 1 is the left translation by element 1, whose cycles all have the
    order of that element. With p the smallest prime dividing n, an element
    of order p exists and none has a smaller order > 1, so the smallest
    possible row 1 is the one with cycles (0 1 .. p-1)(p .. 2p-1)...
    """
    p = _smallest_prime_factor(n)
    return tuple(a + 1 if (a + 1) % p else a + 1 - p for a in range(n))


@lru_cache(maxsize=None)
def _all_tables(n: int, forced_row1: bool = False) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every group table on 0..n-1 with identity 0, sorted. With forced_row1,
    only those whose row 1 is _forced_row1(n): they hold every class
    minimum and are still few enough to list at orders 9 and 10."""
    forced = [_forced_row1(n)] if forced_row1 and n > 1 else None

    def rows_for(a: int, rows: list, cols: list[set[int]]) -> Sequence[tuple[int, ...]]:
        return forced if a == 1 and forced else _latin_rows(n, a, cols)

    return tuple(sorted(_closure_tables(n, rows_for)))


def _canonical_brace_brute_force(brace: SkewBrace) -> SkewBrace:
    """canonical_brace by trying all (n-1)! relabelings.

    It relabels cell by cell rather than through the package's relabelings,
    so that it shares no code with the route it checks.
    """
    n = brace.n
    dot = brace.dot.table
    circ = brace.circ.table
    best: tuple | None = None
    q = [0] * n

    def relabel(rows: Sequence[Sequence[int]]) -> tuple:
        return tuple(tuple(p[rows[q[a]][q[b]]] for b in range(n)) for a in range(n))

    for tail in permutations(range(1, n)):
        p = (0,) + tail
        for i, v in enumerate(p):
            q[v] = i
        cand_circ = relabel(circ)
        if best is not None and cand_circ > best[0]:
            continue
        cand = (cand_circ, relabel(dot))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return SkewBrace(GroupTable(n, best[1]), GroupTable(n, best[0]))


def _sides_at(
    r: Sequence[Sequence[tuple[int, int]]], a: int, b: int, c: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Both sides of the Yang-Baxter equation at (a, b, c), from the table r
    of R: (h, k, g) and (s, v, w)."""
    # Left side: (R x id), then (id x R), then (R x id).
    d, e = r[a][b]
    f, g = r[e][c]
    h, k = r[d][f]
    # Right side: (id x R), then (R x id), then (id x R).
    q, u = r[b][c]
    s, t = r[a][q]
    v, w = r[t][u]
    return (h, k, g), (s, v, w)


def _ref_ybe_violations(rmap: YbeMap) -> Iterator[tuple[int, int, int]]:
    """Every triple (a, b, c) where the two sides differ, in order."""
    n = rmap.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs, rhs = _sides_at(rmap.r, a, b, c)
                if lhs != rhs:
                    yield (a, b, c)


def _ref_ybe_rows(rmap: YbeMap) -> Iterator[tuple[int, tuple, tuple]]:
    """The failing rows (a, lhs, rhs) of ybe_violations, cell by cell: the
    sides at every (b, c), row-major."""
    n = rmap.n
    for a in range(n):
        sides = [_sides_at(rmap.r, a, b, c) for b in range(n) for c in range(n)]
        lhs = tuple(left for left, _ in sides)
        rhs = tuple(right for _, right in sides)
        if lhs != rhs:
            yield a, lhs, rhs
