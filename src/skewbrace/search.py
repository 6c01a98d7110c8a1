"""Enumeration of groups and skew braces of small order, two independent ways.

The production route has one search, _closure_tables: it builds group
tables by assigning left-translation rows and closing under composition (row
a is the permutation x -> a.x, and row(a) . row(b) must equal row(a.b), so
only generator rows are free). Group tables draw row a from the Latin
permutations sending 0 to a. Braces on a dot group are the same search with
row x drawn from the holomorph coset L_x Aut(dot), since the circ
translation x o - is L_x sigma_x with sigma_x a dot automorphism.

The oracle route is deliberately naive: generate every Latin square with
identity row/column by cell-level backtracking, keep the associative ones,
and filter pairs of tables by the compatibility sweep. It is feasible only
for order <= 5 and exists purely to cross-validate the production route;
any disagreement between the two is a bug, never a tolerance.

Catalogs are canonically sorted (lexicographic on the concatenated
circ-then-dot tables) so that both routes, and repeated runs, produce
byte-identical output. Up-to-isomorphism entries are canonical forms: the
lexicographically smallest (circ, dot) relabeling fixing 0, and each group
class is represented by its lexicographically smallest table.

Neither minimum is found by trying every relabeling. If p is the smallest
prime dividing n, every group of order n has elements of order p and no
smaller nontrivial order, so row 1 of a lexicographically smallest table is
always the left translation with cycles (0 1 .. p-1)(p .. 2p-1)... The group
search offers only that row for row 1, and a canonical brace labels a circ
element g of order p as 1 and g^j o h_i as i*p + j, branching only on g and
the coset representatives h_i. The (n-1)! brute force is kept as the test oracle.

Before canonical forms are taken, the default dedup enumerates the Aut(dot)
orbits of circ tables on each dot table: the first brace of an orbit in
catalog order is its representative and puts every Aut(dot) image of its circ
table into a set, so later members of the orbit cost one lookup. Tables are
relabeled row by row, each row a permutation composed in C (groups._compose).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .braces import CarrierMismatchError, SkewBrace, check_compatibility
from .groups import (
    GroupTable,
    _associativity_witness,
    _compose,
    _element_orders,
    _Record,
    _table_isomorphisms,
    automorphisms,
)

#: Largest order the production enumerators accept.
MAX_ORDER = 8
#: Largest order the naive oracle accepts (the double-table space above
#: this is infeasible).
ORACLE_MAX_ORDER = 5


class OrderTooLargeError(ValueError):
    """Requested order exceeds the supported bound."""


def _check_order(order: int, bound: int) -> None:
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if order > bound:
        raise OrderTooLargeError(f"order {order} exceeds the supported bound {bound}")


class BraceCatalog(_Record):
    """A canonically ordered list of braces of one order.

    Entries are pairwise distinct; when up_to_iso is set they are pairwise
    non-isomorphic canonical forms.
    """

    order: int
    braces: tuple[SkewBrace, ...]
    up_to_iso: bool
    _fields = ("order", "braces", "up_to_iso")

    def __init__(self, order: int, braces: tuple[SkewBrace, ...], up_to_iso: bool) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "braces", braces)
        object.__setattr__(self, "up_to_iso", up_to_iso)


def brace_sort_key(brace: SkewBrace) -> tuple[int, ...]:
    """Lexicographic key on the concatenated circ-then-dot tables."""
    return tuple(v for row in brace.circ.table for v in row) + tuple(
        v for row in brace.dot.table for v in row
    )


# --- group table enumeration (production route) -----------------------------


def _closure_tables(
    n: int, rows_for: Callable[[int, list[set[int]]], Sequence[tuple[int, ...]]]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every group table on 0..n-1 with identity 0 whose rows are
    drawn from rows_for.

    Rows are left translations. rows_for(a, cols) gives the candidate rows
    for row a, where cols[z] holds the values already used in column z;
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
        for perm in rows_for(a, cols):
            trail: list[int] = []
            if put(a, perm, trail) and close(a, trail):
                yield from dfs()
            undo(trail)

    yield from dfs()


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


@lru_cache(maxsize=None)
def _all_tables(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(
        sorted(_closure_tables(order, lambda a, cols: _latin_rows(order, a, cols)))
    )


def _smallest_prime_factor(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


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


def all_group_tables(order: int) -> list[GroupTable]:
    """Every group table on 0..order-1 with identity 0, sorted."""
    _check_order(order, MAX_ORDER)
    return [GroupTable(order, rows) for rows in _all_tables(order)]


def _class_representatives(
    tables: Sequence[tuple[tuple[int, ...], ...]],
) -> list[tuple[tuple[int, ...], ...]]:
    """Partition tables into isomorphism classes; return the lexicographically
    smallest member of each class, sorted."""
    classes: list[tuple[tuple[int, ...], list]] = []
    for rows in tables:
        key = tuple(sorted(_element_orders(rows)))
        for cls_key, members in classes:
            if cls_key == key and next(
                _table_isomorphisms(members[0], rows), None
            ) is not None:
                members.append(rows)
                break
        else:
            classes.append((key, [rows]))
    return sorted(min(members) for _, members in classes)


@lru_cache(maxsize=None)
def _group_reps(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # Every class minimum has the forced row 1, so only the tables with that
    # row are partitioned. Positional arguments only: wrappers that time
    # _closure_tables may not forward keywords.
    def rows_for(a: int, cols: list[set[int]]) -> list[tuple[int, ...]]:
        return [_forced_row1(order)] if a == 1 else _latin_rows(order, a, cols)

    return tuple(_class_representatives(list(_closure_tables(order, rows_for))))


def enumerate_groups(order: int) -> list[GroupTable]:
    """All groups of the given order up to isomorphism, one canonical table
    (lexicographically smallest relabeling fixing 0) per class, sorted."""
    _check_order(order, MAX_ORDER)
    return [GroupTable(order, rows) for rows in _group_reps(order)]


def group_isomorphic(g1: GroupTable, g2: GroupTable) -> bool:
    """Brute-force isomorphism test over bijections fixing 0."""
    if g1.n != g2.n:
        return False
    return next(_table_isomorphisms(g1.table, g2.table), None) is not None


# --- group table enumeration (naive oracle route) ----------------------------


def _naive_latin_squares(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Cell-by-cell backtracking over Latin squares with identity row/column."""
    if n == 1:
        yield ((0,),)
        return
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


def enumerate_braces_on_group(group: GroupTable) -> list[SkewBrace]:
    """All circ tables making (group, circ) a skew brace, sorted.

    The circ left translation of x is lambda_x(y) = x o y = x . sigma_x(y)
    with sigma_x in Aut(group), so row x of a circ table lies in the coset
    L_x Aut(group) of the holomorph, L_x the dot left translation; the circ
    tables are the group tables whose rows lie in these cosets (the regular
    subgroups of the holomorph), found by the closure search on those
    candidate rows. Every table found is re-validated through the SkewBrace
    constructor, which independently sweeps the compatibility condition.
    """
    n = group.n
    dot = group.table
    auts = [perm.image for perm in automorphisms(group)]
    cosets = [[_compose(dot[x], s) for s in auts] for x in range(n)]
    found = [
        SkewBrace(group, GroupTable(n, rows))
        for rows in _closure_tables(n, lambda a, cols: cosets[a])
    ]
    found.sort(key=brace_sort_key)
    return found


# --- isomorphism, canonical forms, deduplication ------------------------------


def brace_isomorphic(b1: SkewBrace, b2: SkewBrace) -> bool:
    """True iff some bijection fixing 0 transports both tables of b1 onto b2."""
    if b1.n != b2.n:
        raise CarrierMismatchError(f"carrier sizes differ: {b1.n} vs {b2.n}")
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
    tables: Sequence[Sequence[Sequence[int]]],
    p: Sequence[int],
    q: Sequence[int],
    best: Sequence[Sequence[Sequence[int]]],
) -> bool:
    """True iff relabeling tables by p (inverse q) makes their concatenation
    lexicographically smaller than best.

    Rows are built one at a time and the comparison stops at the first row
    that differs, so a losing relabeling usually costs a row or two.
    """
    for rows, best_rows in zip(tables, best):
        for a, best_row in zip(q, best_rows):
            row = _compose(p, _compose(rows[a], q))
            if row != best_row:
                return row < best_row
    return False


def _canonical_brace_brute_force(brace: SkewBrace) -> SkewBrace:
    """canonical_brace by trying all (n-1)! relabelings; the test oracle.

    It relabels cell by cell rather than through _relabel, so that it shares
    no code with the route it checks.
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


def canonical_brace(brace: SkewBrace) -> SkewBrace:
    """The lexicographically smallest (circ, dot) relabeling fixing 0.

    The winning circ table has the forced row 1 (see _forced_row1), so only
    labelings of that shape are searched: with m the smallest prime dividing
    n, a circ element g of order m gets label 1 and g^j o h_i gets label
    i*m + j, where h_0 = 0 and each h_i lies outside the cosets <g> o h_k
    labeled before it. A partial labeling is dropped as soon as the labeled
    prefix of circ row 2 exceeds the best table so far.
    """
    n = brace.n
    if n == 1:
        return brace
    circ = brace.circ.table
    tables = (circ, brace.dot.table)
    m = _smallest_prime_factor(n)
    best: tuple | None = None
    p: list[int | None] = [None] * n
    q = [0] * n

    def worse_prefix(labeled: int) -> bool:
        # Row 2's cells in columns 0..labeled-1 are known once their product
        # is labeled; an unlabeled product gets a label >= labeled.
        if best is None or labeled <= 2:
            return False
        best_row = best[0][2]
        src = circ[q[2]]
        for b in range(labeled):
            v = p[src[q[b]]]
            if v is None:
                return best_row[b] < labeled
            if v != best_row[b]:
                return v > best_row[b]
        return False

    def extend(labeled: int, g_row: Sequence[int]) -> None:
        nonlocal best
        if labeled == n:
            if best is None or _relabels_below(tables, p, q, best):  # type: ignore
                best = tuple(_relabel(rows, p, q) for rows in tables)  # type: ignore
            return
        if worse_prefix(labeled):
            return
        for h in range(n) if labeled else (0,):
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

    orders = _element_orders(circ)
    for g in range(1, n):
        if orders[g] == m:
            extend(0, circ[g])
    assert best is not None
    return SkewBrace(GroupTable(n, best[1]), GroupTable(n, best[0]))


def _dedup_by_aut_orbit(raw: Sequence[SkewBrace]) -> list[SkewBrace]:
    # Braces sharing a dot table are isomorphic exactly when their circ
    # tables lie in one Aut(dot) orbit. The orbits are enumerated rather than
    # keyed: the first brace of an orbit in catalog order becomes its
    # representative and puts every Aut(dot) image of its circ table into
    # in_orbit, so each later member costs one lookup and the relabelings
    # number orbits x |Aut(dot)|, not braces x |Aut(dot)|. Isomorphic braces
    # on two different dot tables (a catalog not built on the class
    # representatives) stay apart here until their canonical forms coincide
    # below.
    by_dot: dict[tuple, list[SkewBrace]] = {}
    for brace in raw:
        by_dot.setdefault(brace.dot.table, []).append(brace)
    reps: list[SkewBrace] = []
    for members in by_dot.values():
        inverse_pairs = [
            (perm.image, perm.inverse().image) for perm in automorphisms(members[0].dot)
        ]
        in_orbit: set[tuple] = set()
        for brace in members:
            circ = brace.circ.table
            if circ in in_orbit:
                continue
            reps.append(brace)
            for p, q in inverse_pairs:
                in_orbit.add(_relabel(circ, p, q))
    forms: dict[tuple[int, ...], SkewBrace] = {}
    for brace in reps:
        form = canonical_brace(brace)
        forms[brace_sort_key(form)] = form
    return [forms[key] for key in sorted(forms)]


def _dedup_pairwise(raw: Sequence[SkewBrace]) -> list[SkewBrace]:
    reps: list[SkewBrace] = []
    for brace in raw:
        if not any(brace_isomorphic(brace, rep) for rep in reps):
            reps.append(brace)
    return sorted((canonical_brace(b) for b in reps), key=brace_sort_key)


def deduplicate_catalog(catalog: BraceCatalog, pairwise: bool = False) -> BraceCatalog:
    """Collapse a raw catalog to canonical forms, one per isomorphism class.

    The default route groups circ tables into Aut(dot) orbits; the pairwise
    route runs brute-force isomorphism tests instead (used by the oracle so
    the two enumerators do not share their class partitioning).
    """
    if catalog.up_to_iso:
        return catalog
    dedup = _dedup_pairwise if pairwise else _dedup_by_aut_orbit
    return BraceCatalog(catalog.order, tuple(dedup(catalog.braces)), True)


# --- the two enumerators ------------------------------------------------------


def enumerate_braces(order: int, up_to_iso: bool = False) -> BraceCatalog:
    """All skew braces of the given order via the holomorph-coset closure
    search, as a canonical catalog.

    Raw catalogs range over the canonical dot representative of each group
    class; with up_to_iso, entries are canonical forms, one per brace
    isomorphism class.
    """
    _check_order(order, MAX_ORDER)
    raw = sorted(
        (b for g in enumerate_groups(order) for b in enumerate_braces_on_group(g)),
        key=brace_sort_key,
    )
    catalog = BraceCatalog(order, tuple(raw), False)
    if up_to_iso:
        catalog = deduplicate_catalog(catalog)
    return catalog


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


def catalog_to_json(
    catalog: BraceCatalog,
    count_raw: int | None = None,
    count_up_to_iso: int | None = None,
) -> str:
    """Serialize a catalog with its metadata header; byte-stable across runs."""
    import json

    from . import __version__
    from .braces import brace_to_json_dict

    meta: dict = {
        "order": catalog.order,
        "up_to_iso": catalog.up_to_iso,
        "count": len(catalog.braces),
    }
    if count_raw is not None:
        meta["count_raw"] = count_raw
    if count_up_to_iso is not None:
        meta["count_up_to_iso"] = count_up_to_iso
    meta["tool_version"] = __version__
    meta["braces"] = [brace_to_json_dict(b) for b in catalog.braces]
    return json.dumps(meta, indent=1)


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
