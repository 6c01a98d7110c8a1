"""Group and brace enumeration, isomorphism, dedup, and catalog plumbing."""

import hashlib
import json
import random

import pytest
from oracles import _all_tables, _canonical_brace_brute_force, _forced_row1

import skewbrace as sb
from skewbrace import search
from skewbrace.braces import brace_to_json_dict
from skewbrace.cli import main
from skewbrace.search import (
    _class_representatives,
    _group_classes,
    _group_reps,
    _lex_min_table,
    _naive_tables,
    brace_sort_key,
    deduplicate_catalog,
)


def _cycle_type(image):
    seen = [False] * len(image)
    out = []
    for i in range(len(image)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = image[j]
            length += 1
        out.append(length)
    return tuple(sorted(out))


def test_enumerate_groups_counts():
    assert len(sb.enumerate_groups(1)) == 1
    assert len(sb.enumerate_groups(4)) == 2
    assert len(sb.enumerate_groups(6)) == 2
    assert len(sb.enumerate_groups(8)) == 5


def test_enumerate_groups_order4_classes(z4, v4):
    reps = sb.enumerate_groups(4)
    assert any(sb.group_isomorphic(rep, z4) for rep in reps)
    assert any(sb.group_isomorphic(rep, v4) for rep in reps)


def test_enumerate_groups_order6_classes(s3):
    reps = sb.enumerate_groups(6)
    assert any(sb.group_isomorphic(rep, sb.cyclic_group(6)) for rep in reps)
    assert any(sb.group_isomorphic(rep, s3) for rep in reps)


def test_all_group_tables_match_naive_generation():
    for n in range(1, 6):
        assert _all_tables(n) == _naive_tables(n)


def test_group_isomorphic_basics(z4, v4):
    assert sb.group_isomorphic(z4, z4)
    assert not sb.group_isomorphic(z4, v4)
    assert not sb.group_isomorphic(z4, sb.cyclic_group(3))
    relabeled = sb.GroupTable(
        4, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    )
    assert sb.group_isomorphic(relabeled, z4)


def test_braces_on_z2_forced_trivial():
    z2 = sb.cyclic_group(2)
    assert sb.enumerate_braces_on_group(z2) == [sb.trivial_brace(z2)]


def test_braces_on_z4_contain_known_ones(z4, v4):
    braces = sb.enumerate_braces_on_group(z4)
    assert sb.trivial_brace(z4) in braces
    assert sb.SkewBrace(z4, v4) in braces


def test_braces_on_s3_contain_trivial_and_opposite(s3):
    braces = sb.enumerate_braces_on_group(s3)
    trivial = sb.trivial_brace(s3)
    opposite = sb.opposite_brace(s3)
    assert trivial in braces
    assert opposite in braces
    assert trivial != opposite


def test_enumerate_braces_order1():
    catalog = sb.enumerate_braces(1)
    assert len(catalog.braces) == 1
    assert catalog.order == 1
    assert not catalog.up_to_iso


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_orders_have_one_brace(p):
    assert len(sb.enumerate_braces(p, up_to_iso=True).braces) == 1


def test_counts_match_frozen_expectations(raw_catalogs, raw_catalog_8):
    expected = sb.load_expected_counts()
    assert sorted(expected) == list(range(1, 9))
    for order, raw in raw_catalogs.items():
        iso = deduplicate_catalog(raw)
        assert (len(raw.braces), len(iso.braces)) == expected[order]
    assert len(raw_catalog_8.braces) == expected[8][0]
    assert len(deduplicate_catalog(raw_catalog_8).braces) == expected[8][1]


def test_order7_count():
    assert len(sb.enumerate_braces(7).braces) == 1


def test_oracle_small_counts():
    assert len(sb.oracle_enumerate(2).braces) == 1
    assert len(sb.oracle_enumerate(3, up_to_iso=True).braces) == 1


def test_oracle_agrees_with_search_order4():
    assert sb.oracle_enumerate(4) == sb.enumerate_braces(4)
    assert sb.oracle_enumerate(4, up_to_iso=True) == sb.enumerate_braces(
        4, up_to_iso=True
    )


def test_order_bounds():
    with pytest.raises(sb.OrderTooLargeError):
        sb.enumerate_braces(16)
    with pytest.raises(sb.OrderTooLargeError):
        sb.enumerate_groups(16)
    with pytest.raises(sb.OrderTooLargeError):
        # Canonical forms are read off the class minima of _group_reps.
        sb.canonical_brace(sb.trivial_brace(sb.cyclic_group(16)))
    with pytest.raises(sb.OrderTooLargeError):
        sb.oracle_enumerate(6)
    with pytest.raises(ValueError):
        sb.enumerate_braces(0)


def test_brace_isomorphic_reflexive_symmetric(raw_catalogs):
    braces = raw_catalogs[4].braces
    for b in braces:
        assert sb.brace_isomorphic(b, b)
    for b1 in braces:
        for b2 in braces:
            assert sb.brace_isomorphic(b1, b2) == sb.brace_isomorphic(b2, b1)


def test_brace_isomorphic_carrier_mismatch(z4):
    with pytest.raises(sb.CarrierMismatchError):
        sb.brace_isomorphic(sb.trivial_brace(z4), sb.trivial_brace(sb.cyclic_group(3)))


def test_trivial_z4_not_isomorphic_to_xor_brace(z4, xor_brace):
    trivial = sb.trivial_brace(z4)
    assert not sb.brace_isomorphic(trivial, xor_brace)
    # cross-check through an isomorphism invariant: the multiset of sigma
    # cycle types differs
    types_trivial = sorted(_cycle_type(sb.sigma_perm(trivial, x).image) for x in range(4))
    types_xor = sorted(_cycle_type(sb.sigma_perm(xor_brace, x).image) for x in range(4))
    assert types_trivial != types_xor


def test_trivial_s3_not_isomorphic_to_opposite_s3(s3):
    # frozen regression: a brace isomorphism here would force S3 to commute
    assert sb.brace_isomorphic(sb.trivial_brace(s3), sb.opposite_brace(s3)) is False


def test_sigma_maps_are_dot_automorphisms(raw_catalogs):
    for catalog in raw_catalogs.values():
        for brace in catalog.braces:
            aut_images = {a.image for a in sb.automorphisms(brace.dot)}
            for x in range(brace.n):
                assert sb.sigma_perm(brace, x).image in aut_images


def test_catalog_sorted_and_distinct(raw_catalogs):
    for catalog in raw_catalogs.values():
        keys = [brace_sort_key(b) for b in catalog.braces]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_dedup_independent_of_input_order(raw_catalogs):
    raw = raw_catalogs[6]
    shuffled = list(raw.braces)
    random.Random(99).shuffle(shuffled)
    scrambled = sb.BraceCatalog(6, tuple(shuffled), False)
    assert deduplicate_catalog(scrambled) == deduplicate_catalog(raw)
    assert deduplicate_catalog(scrambled, pairwise=True) == deduplicate_catalog(raw)


def test_aut_computed_once_per_dot_group(monkeypatch):
    """The brace search and the dedup of one catalog share each Aut(dot)."""
    dots = []

    def counting(group):
        dots.append(group.table)
        return sb.automorphisms(group)

    monkeypatch.setattr(search, "automorphisms", counting)
    search._automorphism_images.cache_clear()
    search._brace_orbits.cache_clear()
    deduplicate_catalog(sb.enumerate_braces(8))
    # Order 8 is built from the classes of order 4; only its own groups
    # are dot groups.
    assert tuple(sorted(t for t in dots if len(t) == 8)) == tuple(g.table for g in _group_reps(8))


def test_dedup_above_max_order_fails_before_any_search(monkeypatch):
    """Both dedup routes refuse a brace above MAX_ORDER before they compute
    an Aut group or try an isomorphism, also when the catalog misstates its
    order."""
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(search, "automorphisms", counting("aut", sb.automorphisms))
    monkeypatch.setattr(search, "brace_isomorphic", counting("iso", sb.brace_isomorphic))
    search._automorphism_images.cache_clear()
    search._aut_relabelings.cache_clear()
    brace = sb.trivial_brace(sb.cyclic_group(16))
    for order in (16, 8):
        catalog = sb.BraceCatalog(order, (brace, brace), False)
        for pairwise in (False, True):
            with pytest.raises(sb.OrderTooLargeError):
                deduplicate_catalog(catalog, pairwise=pairwise)
    assert calls == []


def test_dedup_routes_agree(raw_catalogs):
    for order in (4, 5, 6):
        raw = raw_catalogs[order]
        assert deduplicate_catalog(raw) == deduplicate_catalog(raw, pairwise=True)


def test_iso_catalog_entries_pairwise_non_isomorphic(raw_catalogs):
    iso = deduplicate_catalog(raw_catalogs[6])
    entries = iso.braces
    for i, b1 in enumerate(entries):
        for b2 in entries[i + 1 :]:
            assert not sb.brace_isomorphic(b1, b2)


def test_raw_catalog_dots_are_group_representatives(raw_catalogs):
    for order, catalog in raw_catalogs.items():
        reps = {g.table for g in sb.enumerate_groups(order)}
        assert {b.dot.table for b in catalog.braces} == reps


def test_canonical_brace_idempotent_and_isomorphic(raw_catalogs):
    for brace in raw_catalogs[6].braces:
        canon = sb.canonical_brace(brace)
        assert sb.brace_isomorphic(canon, brace)
        assert sb.canonical_brace(canon) == canon
        assert brace_sort_key(canon) <= brace_sort_key(brace)


def _relabeled(brace, rng):
    """brace transported by a random bijection fixing 0."""
    n = brace.n
    tail = list(range(1, n))
    rng.shuffle(tail)
    p = [0] + tail

    def move(table):
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[p[a]][p[b]] = p[table[a][b]]
        return sb.GroupTable(n, tuple(tuple(row) for row in rows))

    return sb.SkewBrace(move(brace.dot.table), move(brace.circ.table))


def test_canonical_brace_matches_brute_force_up_to_order7(raw_catalogs):
    rng = random.Random(7)
    braces = [b for c in raw_catalogs.values() for b in c.braces]
    braces += sb.enumerate_braces(7).braces
    for brace in braces:
        expected = _canonical_brace_brute_force(brace)
        assert sb.canonical_brace(brace) == expected
        for _ in range(3):
            assert sb.canonical_brace(_relabeled(brace, rng)) == expected


def test_canonical_brace_matches_brute_force_order8_sample(raw_catalog_8):
    rng = random.Random(8)
    by_dot = {}
    for brace in raw_catalog_8.braces:
        by_dot.setdefault(brace.dot.table, []).append(brace)
    assert len(by_dot) == 5
    for members in by_dot.values():
        for brace in rng.sample(members, min(2, len(members))):
            expected = _canonical_brace_brute_force(brace)
            assert sb.canonical_brace(brace) == expected
            for _ in range(3):
                assert sb.canonical_brace(_relabeled(brace, rng)) == expected


@pytest.mark.parametrize("order", [12, 14])
def test_canonical_brace_above_the_brute_force(order):
    """Beyond the brute force's reach the canonical forms are checked by the
    isomorphism test, which searches brace isomorphisms on its own: each form
    is isomorphic to its brace, three random relabelings of a brace give the
    same form, and the forms of the catalog are pairwise non-isomorphic."""
    rng = random.Random(order)
    raw = sb.enumerate_braces(order).braces
    for brace in raw:
        form = sb.canonical_brace(brace)
        assert sb.brace_isomorphic(brace, form)
        for _ in range(3):
            assert sb.canonical_brace(_relabeled(brace, rng)) == form
    forms = deduplicate_catalog(sb.BraceCatalog(order, raw, False)).braces
    for i, b1 in enumerate(forms):
        for b2 in forms[i + 1 :]:
            assert not sb.brace_isomorphic(b1, b2)


def test_forced_row1_shape():
    assert _forced_row1(2) == (1, 0)
    assert _forced_row1(7) == (1, 2, 3, 4, 5, 6, 0)
    assert _forced_row1(8) == (1, 0, 3, 2, 5, 4, 7, 6)
    assert _forced_row1(9) == (1, 2, 0, 4, 5, 3, 7, 8, 6)


@pytest.mark.parametrize("n", range(1, 11))
def test_seeded_group_reps_match_all_tables(n):
    """The cyclic-extension route gives the class minima of the labelled
    route: of all labelled tables up to order 8, and of the tables with the
    forced row 1 up to order 10."""
    assert tuple(g.table for g in _group_reps(n)) == tuple(_class_representatives(_all_tables(n, forced_row1=True)))
    if n <= 8:
        assert tuple(g.table for g in _group_reps(n)) == tuple(_class_representatives(_all_tables(n)))
    if n > 1:
        assert all(rows[1] == _forced_row1(n) for rows in (g.table for g in _group_reps(n)))


#: sha256 of the JSON of [_group_reps(n) for n in 1..12]. The class minima
#: are the dot tables of the canonical forms of the braces (g, g), and every
#: catalog pin rests on them: a new way of finding them must give these bytes.
GROUP_REPS_SHA256 = "1726b4b89d971c589ff1771a6a4e4a8b1f2f0f6e0f9fc29a4dfc48ddb22ea3d2"


def test_group_reps_pinned():
    reps = json.dumps([[g.table for g in _group_reps(n)] for n in range(1, 13)], separators=(",", ":"))
    assert hashlib.sha256(reps.encode()).hexdigest() == GROUP_REPS_SHA256


#: Orders above 12 whose class minima _lex_min_table finds in under a second,
#: and the sha256 of their compact JSON as the search gave it when it still
#: pruned on row 2 whatever the smallest prime (about 70 s, order 21 alone
#: a minute).
GROUP_REPS_ABOVE_12 = (13, 14, 15, 17, 18, 19, 21, 22, 23)
GROUP_REPS_ABOVE_12_SHA256 = "4a18fd4288d08ffd4ad6504efd0a7ecd74e352074292de892010f0cde3172f9b"

#: Orders 16 and 20, where that prime is 2 and the search takes seconds, and
#: the sha256 of their compact JSON as the search gave it when it still
#: pruned on the labeled prefix of row 2 instead of forcing the next choice.
GROUP_REPS_16_20_SHA256 = "749a47571f8f62724c5a38adfa34047e2e2c3381006707dbc9d57efa7f6e1f3b"


@pytest.mark.parametrize(
    "orders, digest",
    [(GROUP_REPS_ABOVE_12, GROUP_REPS_ABOVE_12_SHA256), ((16, 20), GROUP_REPS_16_20_SHA256)],
    ids=["13-23", "16-and-20"],
)
def test_group_reps_above_order_12_pinned(orders, digest):
    reps = json.dumps([[g.table for g in _group_reps(n)] for n in orders], separators=(",", ":"))
    assert hashlib.sha256(reps.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(1, 9))
def test_lex_min_table_matches_brute_force(n):
    """The one-table search gives the dot table of the brute-force canonical
    form of (g, g), on the unlabelled tables of _group_classes and on a
    random relabeling of each."""
    rng = random.Random(n)
    for rows in _group_classes(n):
        brace = sb.trivial_brace(sb.GroupTable(n, rows))
        expected = _canonical_brace_brute_force(brace).dot.table
        assert _lex_min_table(rows) == expected
        assert _lex_min_table(_relabeled(brace, rng).dot.table) == expected


@pytest.mark.parametrize("n", range(8, 16))
def test_lex_min_table_ignores_the_labeling(n):
    """Above the reach of the brute force, two random relabelings of each
    class table have the class minimum of the table itself."""
    rng = random.Random(n)
    for rows in _group_classes(n):
        brace = sb.trivial_brace(sb.GroupTable(n, rows))
        expected = _lex_min_table(rows)
        for _ in range(2):
            assert _lex_min_table(_relabeled(brace, rng).dot.table) == expected


def test_group_class_counts_match_oeis_a000001():
    """The number of groups of each order 1-31 (OEIS A000001), counted
    before canonical forms are taken."""
    counts = [len(_group_classes(n)) for n in range(1, 32)]
    assert counts == [
        1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14,
        1, 5, 1, 5, 2, 2, 1, 15, 2, 2, 5, 4, 1, 4, 1,
    ]


#: (order, raw, up to isomorphism) above the orders of expected_counts.txt.
COUNTS_ABOVE_ORDER_8 = [
    (9, 12, 4), (10, 14, 6), (11, 1, 1), (12, 116, 38), (13, 1, 1), (14, 18, 6), (15, 1, 1),
]


@pytest.mark.parametrize("order, raw, iso", COUNTS_ABOVE_ORDER_8)
def test_counts_above_order_8(order, raw, iso):
    """Up to isomorphism these are the published counts (Guarnieri and
    Vendramin, Math. Comp. 86, 2017); the raw counts are this package's own
    measurement, confirmed by the orbit-stabiliser sums below."""
    catalog = sb.enumerate_braces(order)
    assert len(catalog.braces) == raw
    assert len(deduplicate_catalog(catalog).braces) == iso


@pytest.mark.parametrize("order, raw, iso", COUNTS_ABOVE_ORDER_8)
def test_enumerate_up_to_iso_reports_raw_counts_above_order_8(order, raw, iso, tmp_path, capsys):
    """`enumerate --up-to-iso` reads the raw count off the orbit sizes
    without building the raw catalog; it is the raw count above."""
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--order", str(order), "--up-to-iso", "--output", str(out)]) == 0
    assert f"order={order} raw={raw} iso={iso} elapsed=" in capsys.readouterr().err
    header = json.loads(out.read_text())
    assert (header["count_raw"], header["count_up_to_iso"], header["count"]) == (raw, iso, iso)


def _conjugate(psi, row):
    """psi row psi^-1, written out cell by cell."""
    out = [0] * len(row)
    for y, v in enumerate(row):
        out[psi[y]] = psi[v]
    return tuple(out)


@pytest.mark.parametrize("n", range(2, 16))
def test_row1_candidates_are_one_per_stabiliser_class(n, monkeypatch):
    """For every group class of orders 2-15, the candidates that the brace
    search's row rule gives for row 1 at the first branch, where only row 0
    is assigned, meet every class of L_1 Aut(dot) under conjugation by the
    automorphisms fixing 1 exactly once: their conjugates are the whole
    coset, and no two of them are conjugate."""
    rules = []
    monkeypatch.setattr(search, "_closure_tables", lambda size, rows_for: rules.append(rows_for) or ())
    for group in sb.enumerate_groups(n):
        # Past the cache, which must not keep this search's empty result.
        search._brace_orbits.__wrapped__(group)
        rows = [tuple(range(n))] + [None] * (n - 1)
        kept = rules.pop()(1, rows, [{z} for z in range(n)])
        auts = [perm.image for perm in sb.automorphisms(group)]
        translation = group.table[1]
        coset = {tuple(translation[phi[y]] for y in range(n)) for phi in auts}
        stabiliser = [psi for psi in auts if psi[1] == 1]
        classes = [{_conjugate(psi, row) for psi in stabiliser} for row in kept]
        assert set().union(*classes) == coset
        assert sum(map(len, classes)) == len(coset)


@pytest.mark.parametrize("n", range(1, 16))
def test_brace_orbits_hold_every_table_of_the_whole_cosets(n):
    """For every group class of orders 1-15, the orbits found with one
    candidate per stabiliser class at each branched row hold exactly the circ
    tables that the closure search finds with every row drawn from its whole
    coset L_a Aut(dot)."""
    for group in sb.enumerate_groups(n):
        auts = [perm.image for perm in sb.automorphisms(group)]
        cosets = [[tuple(row[phi[y]] for y in range(n)) for phi in auts] for row in group.table]
        tables = search._closure_tables(n, lambda a, rows, cols: cosets[a])
        orbits = [orbit for _, orbit in search._brace_orbits(group)]
        assert set().union(*orbits) == {bytes(v for row in t for v in row) for t in tables}


def test_orbit_search_builds_at_most_105_tables_at_order_8(monkeypatch):
    """The stabiliser rule at every branched row keeps the closure tables of
    the order-8 orbit search to 105 (the rule at row 1 alone builds 140)."""
    built = []
    closure = search._closure_tables

    def counting(*args):
        for rows in closure(*args):
            built.append(rows)
            yield rows

    monkeypatch.setattr(search, "_closure_tables", counting)
    search._brace_orbits.cache_clear()
    assert len(sb.enumerate_braces(8, up_to_iso=True).braces) == 47
    assert 0 < len(built) <= 105


@pytest.mark.parametrize("n", range(1, 13))
def test_up_to_iso_search_matches_dedup_of_raw_catalog(n):
    """The catalog up to isomorphism, taken from the orbits' first tables
    without a raw catalog, is the dedup of the raw catalog."""
    assert sb.enumerate_braces(n, up_to_iso=True) == deduplicate_catalog(sb.enumerate_braces(n))


def _stabiliser_size(automorphisms, table):
    """How many of the automorphisms (image tuples) fix the table, checked
    cell by cell: p fixes it when p[t[a][b]] == t[p[a]][p[b]] everywhere."""
    cells = [(a, b, v) for a, row in enumerate(table) for b, v in enumerate(row)]
    return sum(all(p[v] == table[p[a]][p[b]] for a, b, v in cells) for p in automorphisms)


def test_raw_counts_by_orbit_stabiliser():
    """A second route to the raw counts: the raw catalog holds one dot table
    per group class and every circ table on it, and those circ tables fall
    into Aut(dot) orbits, one per brace class, of size |Aut(dot)| / |Stab|
    with Stab the automorphisms of dot that also fix circ. So each raw count
    is that sum over the catalog up to isomorphism. The stabiliser is found
    cell by cell."""
    pinned = {order: raw for order, (raw, _) in sb.load_expected_counts().items()}
    pinned.update((order, raw) for order, raw, _ in COUNTS_ABOVE_ORDER_8)
    sums, counts = {}, {}
    for order in range(1, 16):
        catalog = sb.enumerate_braces(order)
        counts[order] = len(catalog.braces)
        sums[order] = 0
        for brace in deduplicate_catalog(catalog).braces:
            auts = [perm.image for perm in sb.automorphisms(brace.dot)]
            fixing = _stabiliser_size(auts, brace.circ.table)
            assert len(auts) % fixing == 0
            sums[order] += len(auts) // fixing
    assert sums == counts == pinned


@pytest.mark.parametrize("n", range(1, 9))
def test_class_representatives_match_brute_force_minima(n):
    """The class minima equal the dot tables of the brute-force canonical
    forms of the trivial braces (g, g), a route that shares no code with
    _class_representatives. Order 8 runs on the tables with the forced row
    1, which hold every class minimum, instead of all 2,760."""
    tables = _all_tables(n) if n < 8 else _all_tables(n, forced_row1=True)
    minima = sorted(
        {
            _canonical_brace_brute_force(sb.trivial_brace(sb.GroupTable(n, rows))).dot.table
            for rows in tables
        }
    )
    assert minima == _class_representatives(tables)
    assert tuple(minima) == tuple(g.table for g in _group_reps(n))


def _flat_sort_key(brace):
    """The catalog order's reference: the circ-then-dot tables concatenated
    into one flat tuple of 2n^2 ints."""
    return tuple(v for row in brace.circ.table for v in row) + tuple(
        v for row in brace.dot.table for v in row
    )


def test_sort_key_orders_mixed_orders_as_the_flat_key(raw_catalogs, raw_catalog_8):
    """brace_sort_key, the pair of tables, sorts a shuffled pool of the raw
    catalogs of orders 1-8 exactly as the flat key: within an order as the
    concatenated tables, and a smaller order before a larger."""
    catalogs = [*(raw_catalogs[n] for n in range(1, 7)), sb.enumerate_braces(7), raw_catalog_8]
    pool = [brace for catalog in catalogs for brace in catalog.braces]
    random.Random(2205).shuffle(pool)
    assert sorted(pool, key=brace_sort_key) == sorted(pool, key=_flat_sort_key)
    assert sorted(pool, key=brace_sort_key) == [b for c in catalogs for b in c.braces]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_brace_search_matches_definition(n):
    """Above the oracle's orders, the brace search on each group g finds
    exactly the group tables t that pass the compatibility sweep with g."""
    tables = [sb.GroupTable(n, rows) for rows in _all_tables(n)]
    for g in sb.enumerate_groups(n):
        expected = sorted(
            (sb.SkewBrace(g, t) for t in tables if sb.check_compatibility(g, t)),
            key=brace_sort_key,
        )
        assert sb.enumerate_braces_on_group(g) == expected


def test_catalog_json_structure(raw_catalogs):
    import json

    text = sb.catalog_to_json(raw_catalogs[4], count_raw=6, count_up_to_iso=4)
    obj = json.loads(text)
    assert obj["order"] == 4
    assert obj["count"] == 6
    assert obj["count_raw"] == 6
    assert obj["count_up_to_iso"] == 4
    assert obj["up_to_iso"] is False
    assert obj["tool_version"] == sb.__version__
    assert len(obj["braces"]) == 6
    assert {"n", "dot", "circ"} <= set(obj["braces"][0])


def _indent_1(catalog, count_raw, count_up_to_iso):
    """The catalog text as json's own encoder writes it with indent=1."""
    meta = {
        "order": catalog.order,
        "up_to_iso": catalog.up_to_iso,
        "count": len(catalog.braces),
        "count_raw": count_raw,
        "count_up_to_iso": count_up_to_iso,
        "tool_version": sb.__version__,
        "braces": [brace_to_json_dict(b) for b in catalog.braces],
    }
    return json.dumps(meta, indent=1)


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_json_is_the_indented_encoding(n):
    """catalog_to_json writes out, byte for byte, json.dumps(meta, indent=1)
    of the raw and the up-to-isomorphism catalogs."""
    for catalog in (sb.enumerate_braces(n), sb.enumerate_braces(n, up_to_iso=True)):
        assert sb.catalog_to_json(catalog, 7, 3) == _indent_1(catalog, 7, 3)


def test_catalog_json_of_an_empty_catalog():
    catalog = sb.BraceCatalog(4, (), True)
    assert sb.catalog_to_json(catalog, 0, 0) == _indent_1(catalog, 0, 0)
    assert '"braces": []' in sb.catalog_to_json(catalog, 0, 0)


def test_load_expected_counts_from_explicit_path(tmp_path):
    p = tmp_path / "counts.txt"
    p.write_text("# comment\n4 6 4\n")
    assert sb.load_expected_counts(p) == {4: (6, 4)}
