"""Enumeration of groups and skew braces of small order, two independent ways.

The production route builds the groups of order n up to isomorphism by
cyclic extension (_group_classes): every group of order < 60 is solvable, so
it is <N, t> with N normal of prime index p, and the candidates are built
from the classes of order n/p, one per t-action alpha in Aut(N) and t^p = z,
then split into classes. The braces on a dot group come from one search,
_closure_tables: it builds group tables by assigning left-translation rows
and closing under composition (row a is the permutation x -> a.x, and
row(a) . row(b) must equal row(a.b), so only generator rows are free), with
row x drawn from the holomorph coset L_x Aut(dot), since the circ
translation x o - is L_x sigma_x with sigma_x a dot automorphism. The tests
run the same search with row a drawn from the Latin permutations sending 0
to a, which gives every labelled group table, as the oracle of the group
classes.

The brace search finds Aut(dot)-orbits of circ tables, not every table
(_brace_orbits): isomorphic braces on one dot table are exactly the circ
tables of one orbit. At a node of the search, let psi in Aut(dot) fix the
label a of the row branched on and commute with every assigned row T_x.
Then psi also fixes each assigned label, psi(x) = psi(T_x(0)) = T_x(psi(0))
= x, so relabeling a table by psi keeps dot and the assigned rows and
conjugates row a by psi. Row a is therefore drawn from one member of each
class of L_a Aut(dot) under that conjugation, and every orbit is still met.
At the first branch, a = 1 and the automorphisms are those fixing 1. A
table outside every known orbit is validated as a SkewBrace and puts its
whole orbit into a set, so later members of the orbit are skipped.
One pass per dot group serves all three products: the catalog up to
isomorphism is the canonical forms of the orbits' first tables, the raw
count is the sum of the orbit sizes, and only the raw catalog builds and
validates every member.

The oracle route is deliberately naive: generate every Latin square with
identity row/column by cell-level backtracking, keep the associative ones,
and filter pairs of tables by the compatibility sweep. It is feasible only
for order <= 5 and exists purely to cross-validate the production route;
any disagreement between the two is a bug, never a tolerance.

Catalogs are canonically sorted (lexicographic on the concatenated
circ-then-dot tables) so that both routes, and repeated runs, produce
byte-identical output. Up-to-isomorphism entries are canonical forms: the
lexicographically smallest (circ, dot) relabeling fixing 0. Each group class
is represented by its lexicographically smallest table, validated once as a
GroupTable and cached per order (_group_reps).

A class minimum is not found by trying every relabeling. If p is the
smallest prime dividing n, every group of order n has elements of order p and
no smaller nontrivial order, so row 1 of a lexicographically smallest table
is always the left translation with cycles (0 1 .. p-1)(p .. 2p-1)... The
one-table search _lex_min_table therefore labels an element g of order p as
1 and g^j h_i as i*p + j, branching only on g and the coset representatives
h_i. Once h_1 is chosen, its row, row p, forces the next representative
whenever a labeled column has an unlabeled product there: any other choice
gives that cell a larger label. A canonical brace needs no search of its
own: circ is compared first, so its winning circ table is the minimum of
circ's group class, and the relabelings reaching it are one isomorphism
circ -> rep composed with each automorphism of rep. The dot table is
relabeled once by that isomorphism and the form is the least of its images
under Aut(rep). The tests check both searches against a brute force over all
(n-1)! relabelings.

The default dedup of a given raw catalog keys each brace by its canonical
form. A table is relabeled as one byte string, by one gather of its cells
and one bytes.translate of their values; the search's orbits and the
canonical forms share these relabelings, built once per group
(_aut_relabelings). Aut(dot) is computed once for the brace search and the
canonical forms of a catalog (_automorphism_images).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .braces import SkewBrace, _require_compatible_carriers, check_compatibility
from .groups import (
    GroupTable,
    _associativity_witness,
    _compose,
    _cut_int,
    _element_orders,
    _gather,
    _indented_array,
    _inverse,
    _Record,
    _table_isomorphisms,
    automorphisms,
)

#: Largest order the production enumerators accept.
MAX_ORDER = 15
#: Largest order the naive oracle accepts (the double-table space above
#: this is infeasible).
ORACLE_MAX_ORDER = 5


class OrderTooLargeError(ValueError):
    """Requested order exceeds the supported bound."""


def _check_order(order: int, bound: int) -> None:
    if order < 1:
        raise ValueError(f"order must be at least 1, got {_cut_int(order)}")
    if order > bound:
        raise OrderTooLargeError(f"order {_cut_int(order)} exceeds the supported bound {bound}")


class BraceCatalog(_Record):
    """A canonically ordered list of braces of one order.

    Entries are pairwise distinct; when up_to_iso is set they are pairwise
    non-isomorphic canonical forms.
    """

    order: int
    braces: tuple[SkewBrace, ...]
    up_to_iso: bool
    _fields = ("order", "braces", "up_to_iso")


def brace_sort_key(brace: SkewBrace) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Lexicographic key on the concatenated circ-then-dot tables: the pair
    orders as the concatenation, since every row of one order has n entries
    and row 0 of every table is 0..n-1 (a smaller order comes first)."""
    return brace.circ.table, brace.dot.table


# --- group table enumeration (production route) -----------------------------


def _closure_tables(
    n: int,
    rows_for: Callable[
        [int, list[tuple[int, ...] | None], list[set[int]]], Sequence[tuple[int, ...]]
    ],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every group table on 0..n-1 with identity 0 whose rows are
    drawn from rows_for.

    Rows are left translations. rows_for(a, rows, cols) gives the candidate
    rows for row a, where rows[x] is row x or None while unassigned and
    cols[z] holds the values already used in column z;
    assigning row a and row b forces row a.b to be their composition, so the
    search branches only on generator rows. A candidate or forced row that
    repeats a value in some column, or a forced row that disagrees with the
    row already there, prunes the branch.
    """
    rows: list[tuple[int, ...] | None] = [tuple(range(n))] + [None] * (n - 1)
    cols: list[set[int]] = [{z} for z in range(n)]

    def put(index: int, perm: tuple[int, ...], trail: list[int]) -> bool:
        # perm[0] == index, which no assigned row has put into cols[0].
        if any(map(set.__contains__, cols, perm)):
            return False
        rows[index] = perm
        for col, v in zip(cols, perm):
            col.add(v)
        trail.append(index)
        return True

    def undo(trail: list[int]) -> None:
        for index in reversed(trail):
            perm = rows[index]
            rows[index] = None
            for col, v in zip(cols, perm):  # type: ignore[arg-type]
                col.remove(v)

    def close(start: int, trail: list[int]) -> bool:
        queue = [start]
        while queue:
            u = queue.pop()
            for v in range(n):
                if rows[v] is None:
                    continue
                for x, y in ((u, v), (v, u)):
                    rx = rows[x]
                    ry = rows[y]
                    c = rx[y]
                    comp = _compose(rx, ry)
                    rc = rows[c]
                    if rc is not None:
                        if rc != comp:
                            return False
                    elif put(c, comp, trail):
                        queue.append(c)
                    else:
                        return False
        return True

    def dfs() -> Iterator[tuple[tuple[int, ...], ...]]:
        a = next((i for i in range(n) if rows[i] is None), None)
        if a is None:
            yield tuple(rows)  # type: ignore[arg-type]
            return
        for perm in rows_for(a, rows, cols):
            trail: list[int] = []
            if put(a, perm, trail) and close(a, trail):
                yield from dfs()
            undo(trail)

    yield from dfs()


def _smallest_prime_factor(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


def _class_representatives(
    tables: Sequence[tuple[tuple[int, ...], ...]],
) -> list[tuple[tuple[int, ...], ...]]:
    """Partition tables into isomorphism classes; return the lexicographically
    smallest member of each class, sorted."""
    classes: list[list[tuple[tuple[int, ...], ...]]] = []
    for rows in tables:
        for members in classes:
            if next(_table_isomorphisms(members[0], rows), None) is not None:
                members.append(rows)
                break
        else:
            classes.append([rows])
    return sorted(map(min, classes))


@lru_cache(maxsize=16)
def _automorphism_images(group: GroupTable) -> tuple[tuple[int, ...], ...]:
    # Cached because Aut is the costliest step per group, and the brace
    # search, the canonical forms and _cyclic_extensions ask again for the
    # same groups.
    return tuple(perm.image for perm in automorphisms(group))


def _cyclic_extensions(
    rows: tuple[tuple[int, ...], ...], p: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The table of every group G = <N, t> with N (the group of the table
    rows) normal of prime index p, t y t^-1 = alpha(y) and t^p = z.

    alpha ranges over Aut(N) and z over N with alpha(z) = z and alpha^p
    conjugation by z. The element t^i y is labelled i*m + y (m = |N|), and
    (t^i y)(t^j w) = t^((i+j) mod p) z^[i+j >= p] alpha^-j(y) w.
    """
    m = len(rows)
    group = GroupTable(m, rows)
    conj = [tuple(rows[rows[z][y]][group.inv[z]] for y in range(m)) for z in range(m)]
    for alpha in _automorphism_images(group):
        inverse = _inverse(alpha)
        back = [tuple(range(m))]  # alpha^-j for j = 0..p
        for _ in range(p):
            back.append(_compose(inverse, back[-1]))
        for z in range(m):
            # alpha^p is conjugation by z iff alpha^-p is conjugation by z^-1.
            if alpha[z] != z or back[p] != conj[group.inv[z]]:
                continue
            table = []
            for i in range(p):
                for y in range(m):
                    row: list[int] = []
                    for j in range(p):
                        k, right = i + j, rows[back[j][y]]
                        if k >= p:
                            k, right = k - p, _compose(rows[z], right)
                        row.extend(k * m + v for v in right)
                    table.append(tuple(row))
            yield GroupTable(m * p, tuple(table)).table


@lru_cache(maxsize=None)
def _group_classes(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One table per isomorphism class of groups of the order (< 60), in no
    canonical labelling.

    Every group of order < 60 is solvable, so it has a normal subgroup N of
    prime index p (the preimage of one in the abelian G/G'), and G/N is
    cyclic: G is a cyclic extension of a group of order order/p (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005).
    """
    if order == 1:
        return (((0,),),)
    candidates = [
        table
        for p in range(2, order + 1)
        if order % p == 0 and _smallest_prime_factor(p) == p
        for rows in _group_classes(order // p)
        for table in _cyclic_extensions(rows, p)
    ]
    return tuple(_class_representatives(candidates))


@lru_cache(maxsize=None)
def _group_reps(order: int) -> tuple[GroupTable, ...]:
    """The lexicographically smallest table of each group class of the
    order, sorted, each validated once as a GroupTable and shared by
    enumerate_groups and canonical_brace: _lex_min_table of each table of
    _group_classes. Only the requested order is made canonical; the orders
    it is built from are not."""
    minima = sorted(map(_lex_min_table, _group_classes(order)))
    return tuple(GroupTable(order, rows) for rows in minima)


def enumerate_groups(order: int) -> list[GroupTable]:
    """All groups of the given order up to isomorphism, one canonical table
    (lexicographically smallest relabeling fixing 0) per class, sorted."""
    _check_order(order, MAX_ORDER)
    return list(_group_reps(order))


def group_isomorphic(g1: GroupTable, g2: GroupTable) -> bool:
    """Brute-force isomorphism test over bijections fixing 0."""
    return next(_table_isomorphisms(g1.table, g2.table), None) is not None


# --- group table enumeration (naive oracle route) ----------------------------


def _naive_latin_squares(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Cell-by-cell backtracking over Latin squares with identity row/column."""
    rows: list[list[int | None]] = [list(range(n))]
    rows += [[a] + [None] * (n - 1) for a in range(1, n)]
    row_used = [set(range(n))] + [{a} for a in range(1, n)]
    col_used = [set(range(n))] + [{z} for z in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)  # type: ignore[arg-type]
            return
        a, b = cells[k]
        for v in range(n):
            if v in row_used[a] or v in col_used[b]:
                continue
            rows[a][b] = v
            row_used[a].add(v)
            col_used[b].add(v)
            yield from fill(k + 1)
            rows[a][b] = None
            row_used[a].remove(v)
            col_used[b].remove(v)

    yield from fill(0)


@lru_cache(maxsize=None)
def _naive_tables(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(
        rows
        for rows in sorted(_naive_latin_squares(order))
        if _associativity_witness(rows) is None
    )


# --- brace enumeration on a fixed dot group ----------------------------------


@lru_cache(maxsize=16)
def _brace_orbits(group: GroupTable) -> tuple[tuple[SkewBrace, frozenset[bytes]], ...]:
    """The Aut(group)-orbits of circ tables making (group, circ) a skew
    brace, each as its first table found, validated as a SkewBrace, and the
    set of its members as flat byte strings (_aut_orbit).

    The circ left translation of x is lambda_x(y) = x o y = x . sigma_x(y)
    with sigma_x in Aut(group), so row x of a circ table lies in the coset
    L_x Aut(group) of the holomorph, L_x the dot left translation; the circ
    tables are the group tables whose rows lie in these cosets (the regular
    subgroups of the holomorph), found by the closure search on those
    candidate rows. Row a takes one member of each class of its coset under
    conjugation by the automorphisms psi with psi(a) = a that commute with
    every assigned row, first-met in the order of Aut: psi L_a phi psi^-1 =
    L_a psi phi psi^-1, so the classes partition the coset, and the module
    docstring says why every orbit is still met. A table found in a known
    orbit is skipped.
    """
    n = group.n
    dot = group.table
    auts = _automorphism_images(group)

    def rows_for(
        a: int, rows: list[tuple[int, ...] | None], cols: list[set[int]]
    ) -> list[tuple[int, ...]]:
        assigned = [row for row in rows if row is not None]
        stabiliser = [
            (psi, _inverse(psi))
            for psi in auts
            if psi[a] == a and all(_compose(psi, row) == _compose(row, psi) for row in assigned)
        ]
        kept: list[tuple[int, ...]] = []
        met: set[tuple[int, ...]] = set()
        for phi in auts:
            row = _compose(dot[a], phi)
            if row not in met:
                kept.append(row)
                met.update(_compose(psi, _compose(row, inverse)) for psi, inverse in stabiliser)
        return kept

    relabelings = _aut_relabelings(group)
    orbits: list[tuple[SkewBrace, frozenset[bytes]]] = []
    met: set[bytes] = set()
    for rows in _closure_tables(n, rows_for):
        flat = bytes(chain.from_iterable(rows))
        if flat not in met:
            orbit = _aut_orbit(flat, relabelings)
            met |= orbit
            orbits.append((SkewBrace(group, GroupTable(n, rows)), orbit))
    return tuple(orbits)


def enumerate_braces_on_group(group: GroupTable) -> list[SkewBrace]:
    """All circ tables making (group, circ) a skew brace, sorted: every
    member of every orbit of _brace_orbits, each validated through the
    SkewBrace constructor, which independently sweeps the compatibility
    condition."""
    n = group.n
    found = [
        SkewBrace(group, GroupTable(n, _unflatten(flat, n)))
        for _, orbit in _brace_orbits(group)
        for flat in orbit
    ]
    found.sort(key=brace_sort_key)
    return found


# --- isomorphism, canonical forms, deduplication ------------------------------


def brace_isomorphic(b1: SkewBrace, b2: SkewBrace) -> bool:
    """True iff some bijection fixing 0 transports both tables of b1 onto b2."""
    _require_compatible_carriers(b1, b2)
    return (
        next(
            _table_isomorphisms(
                b1.dot.table, b2.dot.table, b1.circ.table, b2.circ.table
            ),
            None,
        )
        is not None
    )


def _relabel(rows: Sequence[Sequence[int]], p: Sequence[int], q: Sequence[int]) -> tuple:
    # Row a of the relabeled table is p∘rows[q[a]]∘q.
    return tuple(_compose(p, _compose(rows[a], q)) for a in q)


def _relabels_below(
    rows: Sequence[Sequence[int]],
    p: Sequence[int],
    q: Sequence[int],
    best: Sequence[Sequence[int]],
) -> bool:
    """True iff relabeling the table by p (inverse q) makes it
    lexicographically smaller than best.

    Rows are built one at a time and the comparison stops at the first row
    that differs, so a losing relabeling usually costs a row or two.
    """
    for a, best_row in zip(q, best):
        row = _compose(p, _compose(rows[a], q))
        if row != best_row:
            return row < best_row
    return False


def _lex_min_table(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The lexicographically smallest relabeling fixing 0 of a group table.

    With m the smallest prime dividing n, row 1 of the winning table is the
    translation with cycles (0 1 .. m-1)(m .. 2m-1)... (see the module
    docstring), so only labelings of that shape are searched: an element g
    of order m gets label 1 and g^j h_i gets label i*m + j, where h_0 = 0 and
    each h_i lies outside the cosets <g> h_k labeled before it. Rows 0..m-1
    are the powers of g, fixed by that shape, so row m (h_1) is the first
    that depends on a choice. Once h_1 is labeled, let b be the first labeled
    column whose product h_1 q[b] is still unlabeled: the cells of row m
    before b are already fixed, and only taking that product as the next h_i
    gives cell (m, b) the smallest free label, so it is the only choice
    searched.
    """
    n = len(rows)
    if n == 1:
        return rows
    m = _smallest_prime_factor(n)
    best: tuple | None = None
    p: list[int | None] = [None] * n
    q = [0] * n

    def extend(labeled: int, g_row: Sequence[int]) -> None:
        nonlocal best
        if labeled == n:
            if best is None or _relabels_below(rows, p, q, best):  # type: ignore
                best = _relabel(rows, p, q)  # type: ignore
            return
        choices = range(n) if labeled else (0,)
        if labeled > m:
            h_row = rows[q[m]]
            choices = next(([x] for x in map(h_row.__getitem__, q[:labeled]) if p[x] is None), choices)
        for h in choices:
            if p[h] is not None:
                continue
            x = h
            for j in range(labeled, labeled + m):
                p[x] = j
                q[j] = x
                x = g_row[x]
            extend(labeled + m, g_row)
            for j in range(labeled, labeled + m):
                p[q[j]] = None

    orders = _element_orders(rows)
    for g in range(1, n):
        if orders[g] == m:
            extend(0, rows[g])
    assert best is not None
    return best


def _byte_relabeling(p: Sequence[int]) -> tuple[Callable[[bytes], tuple], bytes]:
    """The relabeling by p of a flat table (its n*n cells row by row,
    entries below 256) as (gather, p_table): bytes(gather(flat)).translate(
    p_table) holds p[flat[a*n + b]] in cell p[a]*n + p[b].

    With q the inverse of p, cell q[a]*n + q[b] moves to cell a*n + b and its
    value v becomes p[v]: one gather and one bytes.translate, both in C.
    """
    n = len(p)
    q = _inverse(p)
    starts = [a * n for a in q]
    return _gather([start + b for start in starts for b in q]), bytes(p).ljust(256, b"\0")


@lru_cache(maxsize=16)
def _aut_relabelings(group: GroupTable) -> tuple[tuple[Callable[[bytes], tuple], bytes], ...]:
    # _byte_relabeling of every automorphism of the group but the identity
    # (the first of the sorted Aut), which leaves a table as it is.
    return tuple(map(_byte_relabeling, _automorphism_images(group)[1:]))


def _aut_orbit(
    flat: bytes, relabelings: Sequence[tuple[Callable[[bytes], tuple], bytes]]
) -> frozenset[bytes]:
    """The flat table and its images under _aut_relabelings of a group."""
    return frozenset([flat, *(bytes(g(flat)).translate(table) for g, table in relabelings)])


def _unflatten(flat: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(flat[start : start + n]) for start in range(0, n * n, n))


def canonical_brace(brace: SkewBrace) -> SkewBrace:
    """The lexicographically smallest (circ, dot) relabeling fixing 0.

    circ is compared first, so the winning circ table is the entry rep of
    _group_reps for circ's group class (orders up to MAX_ORDER), and the
    relabelings reaching it are one isomorphism phi: circ -> rep composed
    with each automorphism of rep. dot is relabeled once by phi, as a flat
    byte string, and the form takes the smallest of that string and its
    images under Aut(rep) (_aut_relabelings).
    """
    n = brace.n
    _check_order(n, MAX_ORDER)
    circ = brace.circ.table
    rep, phi = next(
        (rep, phi) for rep in _group_reps(n) for phi in _table_isomorphisms(circ, rep.table)
    )
    gather, p_table = _byte_relabeling(phi)
    dot = bytes(gather(bytes(chain.from_iterable(brace.dot.table)))).translate(p_table)
    best = min(_aut_orbit(dot, _aut_relabelings(rep)))
    return SkewBrace(GroupTable(n, _unflatten(best, n)), rep)


def _dedup_by_canonical_form(raw: Sequence[SkewBrace]) -> list[SkewBrace]:
    # Isomorphic braces, on one dot table or not, share one canonical form.
    forms = {brace_sort_key(form): form for form in map(canonical_brace, raw)}
    return [forms[key] for key in sorted(forms)]


def _dedup_pairwise(raw: Sequence[SkewBrace]) -> list[SkewBrace]:
    reps: list[SkewBrace] = []
    for brace in raw:
        if not any(brace_isomorphic(brace, rep) for rep in reps):
            reps.append(brace)
    return sorted((canonical_brace(b) for b in reps), key=brace_sort_key)


def deduplicate_catalog(catalog: BraceCatalog, pairwise: bool = False) -> BraceCatalog:
    """Collapse a raw catalog to canonical forms, one per isomorphism class.

    The default route keys each brace by its canonical form; the pairwise
    route runs brute-force isomorphism tests instead (used by the oracle so
    the two enumerators do not share their class partitioning). A brace above
    MAX_ORDER raises OrderTooLargeError before either route searches.
    """
    if catalog.up_to_iso:
        return catalog
    # Each brace, not catalog.order: a hand-built catalog may misstate it.
    for brace in catalog.braces:
        _check_order(brace.n, MAX_ORDER)
    dedup = _dedup_pairwise if pairwise else _dedup_by_canonical_form
    return BraceCatalog(catalog.order, tuple(dedup(catalog.braces)), True)


# --- the two enumerators ------------------------------------------------------


def enumerate_braces(order: int, up_to_iso: bool = False) -> BraceCatalog:
    """All skew braces of the given order via the holomorph-coset closure
    search, as a canonical catalog.

    Raw catalogs range over the canonical dot representative of each group
    class: every member of every Aut(dot)-orbit of _brace_orbits. With
    up_to_iso, entries are the canonical forms of the orbits' first tables,
    one per brace isomorphism class (braces on one dot table are isomorphic
    exactly when their circ tables share an Aut(dot)-orbit), and no raw
    catalog is built.
    """
    _check_order(order, MAX_ORDER)
    if up_to_iso:
        braces = [canonical_brace(rep) for g in _group_reps(order) for rep, _ in _brace_orbits(g)]
    else:
        braces = [b for g in _group_reps(order) for b in enumerate_braces_on_group(g)]
    braces.sort(key=brace_sort_key)
    return BraceCatalog(order, tuple(braces), up_to_iso)


def _brace_counts(order: int) -> tuple[int, int]:
    """The number of braces of the order, raw and up to isomorphism, read off
    _brace_orbits without building a catalog: the sum of the Aut(dot)-orbit
    sizes and the number of orbits."""
    _check_order(order, MAX_ORDER)
    orbits = [orbit for g in _group_reps(order) for _, orbit in _brace_orbits(g)]
    return sum(map(len, orbits)), len(orbits)


def oracle_enumerate(order: int, up_to_iso: bool = False) -> BraceCatalog:
    """Naive cross-validation enumerator (order <= 5 only).

    Generates every pair of group tables sharing identity 0 whose dot member
    is a canonical class representative, and keeps the pairs passing the
    compatibility sweep. Must agree with enumerate_braces entry for entry.
    """
    _check_order(order, ORACLE_MAX_ORDER)
    tables = _naive_tables(order)
    reps = _class_representatives(tables)
    raw: list[SkewBrace] = []
    for rep in reps:
        dot = GroupTable(order, rep)
        for rows in tables:
            circ = GroupTable(order, rows)
            if check_compatibility(dot, circ):
                raw.append(SkewBrace(dot, circ))
    raw.sort(key=brace_sort_key)
    catalog = BraceCatalog(order, tuple(raw), False)
    if up_to_iso:
        catalog = deduplicate_catalog(catalog, pairwise=True)
    return catalog


# --- catalog export and frozen expectations -----------------------------------


def catalog_to_json(catalog: BraceCatalog, count_raw: int, count_up_to_iso: int) -> str:
    """Serialize a catalog with its metadata header; byte-stable across runs.

    The text is json.dumps(meta, indent=1) of the header fields and
    "braces": [{"n": n, "dot": [...], "circ": [...]}, ...], written out
    directly (groups._indented_array).
    """
    from . import __version__

    header = {
        "order": catalog.order,
        "up_to_iso": catalog.up_to_iso,
        "count": len(catalog.braces),
        "count_raw": count_raw,
        "count_up_to_iso": count_up_to_iso,
        "tool_version": __version__,
    }
    fields = [f'"{key}": {json.dumps(value)}' for key, value in header.items()]
    entries = []
    for brace in catalog.braces:
        s = [str(v) for v in range(brace.n)]
        dot, circ = (
            _indented_array([_indented_array([s[v] for v in row], 4) for row in table], 3)
            for table in (brace.dot.table, brace.circ.table)
        )
        entries.append(f'{{\n   "n": {brace.n},\n   "dot": {dot},\n   "circ": {circ}\n  }}')
    fields.append(f'"braces": {_indented_array(entries, 1)}')
    return "{\n " + ",\n ".join(fields) + "\n}"


def load_expected_counts(path: str | Path | None = None) -> dict[int, tuple[int, int]]:
    """Read the frozen 'order count_raw count_up_to_iso' expectations file."""
    if path is None:
        from importlib import resources

        text = resources.files("skewbrace").joinpath("data/expected_counts.txt").read_text()
    else:
        text = Path(path).read_text()
    counts: dict[int, tuple[int, int]] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        order, raw, iso = (int(tok) for tok in line.split())
        counts[order] = (raw, iso)
    return counts
