"""Property tests: the two YBE evaluators, the table-driven sweeps and the
associativity check against their per-definition references, isomorphism,
canonical forms, dedup, and the CLI's handling of malformed input."""

import copy
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _ref_ybe_violations

import skewbrace as sb
from skewbrace import braces, groups
from skewbrace.cli import main
from skewbrace.groups import _associativity_witness, _compose, _row_form, _witnesses
from skewbrace.search import brace_sort_key
from skewbrace.ybe import YbeMap, ybe_violations


@st.composite
def rmaps(draw):
    """A random map on B x B, or the swap solution with a few cells changed,
    so that first witnesses fall anywhere in the sweep."""
    n = draw(st.integers(1, 8))
    element = st.integers(0, n - 1)
    pair = st.tuples(element, element)
    if draw(st.booleans()):
        rows = [[(b, a) for b in range(n)] for a in range(n)]
        for a, b, out in draw(st.lists(st.tuples(element, element, pair), max_size=3)):
            rows[a][b] = out
    else:
        row = st.lists(pair, min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=n, max_size=n))
    return YbeMap(n, rows)


@settings(max_examples=200)
@given(rmaps())
def test_ybe_evaluators_agree(rmap):
    step = sb.check_ybe(rmap)
    mat = sb.check_ybe_materialized(rmap)
    assert (step.ok, step.witness) == (mat.ok, mat.witness)
    assert list(_witnesses(rmap.n, ybe_violations(rmap))) == list(_ref_ybe_violations(rmap))


@settings(max_examples=200)
@given(rmaps())
def test_map_checks_match_their_definitions(rmap):
    """check_nondegenerate and check_bijective, which read R a row at a
    time, against their definitions evaluated pair by pair."""
    n, r = rmap.n, rmap.r
    carrier = list(range(n))
    nondegenerate = all(
        sorted(r[a][b][0] for b in range(n)) == carrier
        and sorted(r[b][a][1] for b in range(n)) == carrier
        for a in range(n)
    )
    assert sb.check_nondegenerate(rmap) is nondegenerate
    assert sb.check_bijective(rmap) is (len({pair for row in r for pair in row}) == n * n)


@pytest.fixture(scope="module")
def catalogs(raw_catalogs, raw_catalog_8):
    return {**{n: c.braces for n, c in raw_catalogs.items()}, 8: raw_catalog_8.braces}


@settings(max_examples=100)
@given(data=st.data())
def test_product_preservation_matches_its_definition(catalogs, data):
    """check_product_preservation on a brace's R-map with up to three
    outputs changed reports the first (a, b) where s o t != a o b."""
    brace = data.draw(st.sampled_from(catalogs[data.draw(st.sampled_from(sorted(catalogs)))]))
    n, c = brace.n, brace.circ.table
    rows = [list(row) for row in sb.build_r(brace).r]
    element = st.integers(0, n - 1)
    changes = st.lists(st.tuples(element, element, element, element), max_size=3)
    for a, b, s, t in data.draw(changes):
        rows[a][b] = (s, t)
    witness = next(
        ((a, b) for a in range(n) for b in range(n) if c[rows[a][b][0]][rows[a][b][1]] != c[a][b]),
        None,
    )
    result = sb.check_product_preservation(brace, YbeMap(n, rows))
    assert result == sb.CheckResult(witness is None, witness)


def _relabelled(table, p):
    """The group table moved along the bijection p of its carrier."""
    n = len(p)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[p[a]][p[b]] = p[table[a][b]]
    return sb.GroupTable(n, rows)


def _transport(brace, tail):
    """The brace relabelled by p = (0, *tail), a bijection fixing 0."""
    p = (0, *tail)
    return sb.SkewBrace(_relabelled(brace.dot.table, p), _relabelled(brace.circ.table, p))


def _draw_relabelled(data, braces):
    brace = data.draw(st.sampled_from(braces))
    return _transport(brace, data.draw(st.permutations(range(1, brace.n))))


# --- per-definition references ------------------------------------------------
#
# The sweeps in skewbrace.braces and skewbrace.ybe read sigma, tau and R from
# precomputed tables, build both sides of a whole row x (a) by gathers, as
# the associativity check does, and yield only the rows whose sides differ.
# These references evaluate every product, sigma_x(y) and tau_y(x) from the
# definitions, one call per value, in the same sweep order; the Yang-Baxter
# references are in oracles.py.


def _ref_compatibility(dot, circ):
    n = dot.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = circ.multiply(x, dot.multiply(y, z))
                xy_xi = dot.multiply(circ.multiply(x, y), dot.inverse(x))
                if left != dot.multiply(xy_xi, circ.multiply(x, z)):
                    yield (x, y, z)


def _ref_associativity_witness(rows):
    n = len(rows)

    def mul(a, b):
        return rows[a][b]

    triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
    return next(((a, b, c) for a, b, c in triples if mul(mul(a, b), c) != mul(a, mul(b, c))), None)


def _sigma_tables(dot, circ, x, y):
    return dot.table[dot.inv[x]][circ.table[x][y]]


def _tau_tables(dot, circ, y, x):
    s = _sigma_tables(dot, circ, x, y)
    c = circ.table
    return c[c[circ.inv[s]][x]][y]


def _ref_sigma_homomorphism(dot, circ):
    n = dot.n
    for x in range(n):
        for y in range(n):
            xy = circ.table[x][y]
            for z in range(n):
                if _sigma_tables(dot, circ, xy, z) != _sigma_tables(
                    dot, circ, x, _sigma_tables(dot, circ, y, z)
                ):
                    yield (x, y, z)


def _ref_tau_antihomomorphism(dot, circ):
    n = dot.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if _tau_tables(dot, circ, circ.table[y][z], x) != _tau_tables(
                    dot, circ, z, _tau_tables(dot, circ, y, x)
                ):
                    yield (x, y, z)


def _ref_sigma_twisted_product(dot, circ):
    n = dot.n
    c = circ.table
    for x in range(n):
        for y in range(n):
            sxy = _sigma_tables(dot, circ, x, y)
            tyx = _tau_tables(dot, circ, y, x)
            for z in range(n):
                if _sigma_tables(dot, circ, x, c[y][z]) != c[sxy][
                    _sigma_tables(dot, circ, tyx, z)
                ]:
                    yield (x, y, z)


def _ref_inverse_product(dot, circ):
    n = dot.n
    for a in range(n):
        ai = dot.inverse(a)
        for b in range(n):
            lhs = dot.multiply(dot.multiply(ai, circ.multiply(a, dot.inverse(b))), ai)
            if lhs != dot.inverse(circ.multiply(a, b)):
                yield (a, b)


def _ref_product_preservation(dot, circ):
    n = dot.n
    c = circ.table
    for x in range(n):
        for y in range(n):
            if c[_sigma_tables(dot, circ, x, y)][_tau_tables(dot, circ, y, x)] != c[x][y]:
                yield (x, y)


def _ref_sigma_automorphism(dot, circ):
    n = dot.n
    d = dot.table
    for x in range(n):
        sx = [_sigma_tables(dot, circ, x, y) for y in range(n)]
        for y in range(n):
            for z in range(n):
                if sx[d[y][z]] != d[sx[y]][sx[z]]:
                    yield (x, y, z)


def _ref_r(dot, circ):
    n = dot.n
    return YbeMap(
        n,
        [[(_sigma_tables(dot, circ, a, b), _tau_tables(dot, circ, b, a)) for b in range(n)] for a in range(n)],
    )


#: Each check with its reference, called with the same arguments: the
#: identity sweeps take a (dot, circ) pair and yield every failing row, whose
#: witnesses (_sweep_witnesses) are the reference's; GroupTable's
#: associativity check takes one table and returns its first witness.
REFERENCES = {
    _associativity_witness: _ref_associativity_witness,
    braces.compatibility_violations: _ref_compatibility,
    braces.inverse_product_violations: _ref_inverse_product,
    braces.sigma_homomorphism_violations: _ref_sigma_homomorphism,
    braces.tau_antihomomorphism_violations: _ref_tau_antihomomorphism,
    braces.sigma_twisted_product_violations: _ref_sigma_twisted_product,
    braces.product_preservation_violations: _ref_product_preservation,
    braces.sigma_automorphism_violations: _ref_sigma_automorphism,
}


@pytest.fixture(scope="module")
def groups_by_order():
    return {n: sb.enumerate_groups(n) for n in range(1, 9)}


PAIR_SWEEPS = [sweep for sweep in REFERENCES if sweep is not _associativity_witness]


def _sweep_witnesses(sweep, dot, circ):
    return list(_witnesses(dot.n, sweep(dot, circ)))


def _draw_mixed(data, braces):
    """The dot table of one brace and the circ table of a brace on another
    dot table, relabelled together: a pair on which the identities hold at
    some x and fail at others."""
    b1 = data.draw(st.sampled_from(braces))
    b2 = data.draw(st.sampled_from([b for b in braces if b.dot != b1.dot]))
    p = (0, *data.draw(st.permutations(range(1, b1.n))))
    return _relabelled(b1.dot.table, p), _relabelled(b2.circ.table, p)


def _draw_pair(data, groups_by_order, catalogs):
    """A relabelled pair of group tables of one order n <= 8: a brace from
    the catalogs, the dot of one brace with the circ of a brace on another
    dot table, or two unrelated groups."""
    n = data.draw(st.sampled_from(sorted(catalogs)), label="n")
    kind = data.draw(st.sampled_from(["brace", "mixed", "groups"]), label="kind")
    if kind == "mixed" and len(groups_by_order[n]) == 1:
        kind = "brace"
    if kind == "brace":
        brace = _draw_relabelled(data, catalogs[n])
        dot, circ = brace.dot, brace.circ
    elif kind == "mixed":
        dot, circ = _draw_mixed(data, catalogs[n])
    else:
        dot, circ = (
            _relabelled(
                data.draw(st.sampled_from(groups_by_order[n])).table,
                (0, *data.draw(st.permutations(range(1, n)))),
            )
            for _ in range(2)
        )
    return dot, circ


@settings(max_examples=150)
@given(data=st.data())
def test_table_sweeps_match_per_definition_references(groups_by_order, catalogs, data):
    """On the pairs _draw_pair draws, every table-driven sweep yields
    exactly its reference's witnesses."""
    dot, circ = _draw_pair(data, groups_by_order, catalogs)
    n = dot.n
    for sweep in PAIR_SWEEPS:
        assert _sweep_witnesses(sweep, dot, circ) == list(REFERENCES[sweep](dot, circ)), sweep.__name__
    S, U = braces._sigma_tau_tables(dot, circ)
    assert S == tuple(tuple(_sigma_tables(dot, circ, x, y) for y in range(n)) for x in range(n))
    assert U == tuple(tuple(_tau_tables(dot, circ, y, x) for y in range(n)) for x in range(n))
    r = _ref_r(dot, circ)
    assert list(_witnesses(n, ybe_violations(r))) == list(_ref_ybe_violations(r))
    if sb.check_compatibility(dot, circ).ok:
        assert sb.build_r(sb.SkewBrace(dot, circ)) == r


def test_mixed_pairs_pass_at_some_x_and_fail_at_others(raw_catalog_8):
    """On pairs of the kind _draw_mixed draws, each sweep but product
    preservation (which holds on every pair of groups) both passes rows
    whose sides agree and yields rows that fail, in one pair, and every
    sweep yields its reference's witnesses."""
    braces_8 = raw_catalog_8.braces
    rng = random.Random(8)
    mixed = set()
    for _ in range(40):
        b1 = rng.choice(braces_8)
        b2 = rng.choice([b for b in braces_8 if b.dot != b1.dot])
        dot, circ = b1.dot, b2.circ
        for sweep in PAIR_SWEEPS:
            witnesses = _sweep_witnesses(sweep, dot, circ)
            assert witnesses == list(REFERENCES[sweep](dot, circ)), sweep.__name__
            if 0 < len({w[0] for w in witnesses}) < 8:
                mixed.add(sweep)
    assert mixed == set(PAIR_SWEEPS) - {braces.product_preservation_violations}


def test_interleaved_sweeps_read_their_own_pairs_tables(raw_catalog_8):
    """The sigma/tau tables of the last pair are served again only to an
    equal pair. Sweeps advanced in turn on a brace and on a pair that is
    not a brace, whose dot is an equal but distinct copy of the brace's
    dot, each yield their reference's witnesses; so do sigma_perm, tau_perm
    and build_r called in turn on the brace and on another brace with the
    copied dot."""
    braces_8 = raw_catalog_8.braces
    rng = random.Random(19)
    for _ in range(6):
        b1 = rng.choice(braces_8)
        b2 = rng.choice([b for b in braces_8 if not sb.check_compatibility(b1.dot, b.circ)])
        b3 = rng.choice([b for b in braces_8 if b.dot == b1.dot and b.circ != b1.circ])
        copy_dot = sb.GroupTable(8, b1.dot.table)
        assert copy_dot == b1.dot and copy_dot is not b1.dot
        pairs = [(b1.dot, b1.circ), (copy_dot, b2.circ)]
        sweeps = [(sweep, pair, sweep(*pair)) for sweep in PAIR_SWEEPS for pair in pairs]
        seen = [[] for _ in sweeps]
        live = list(range(len(sweeps)))
        while live:
            for i in list(live):
                witness = next(sweeps[i][2], None)
                if witness is None:
                    live.remove(i)
                else:
                    seen[i].append(witness)
        for (sweep, pair, _), rows in zip(sweeps, seen):
            assert list(_witnesses(8, rows)) == list(REFERENCES[sweep](*pair)), sweep.__name__
        # sigma_homomorphism reads S and fails on the second pair (as
        # compatibility does), so tables served from the first would show.
        assert seen[2 * PAIR_SWEEPS.index(braces.sigma_homomorphism_violations) + 1]
        both = [b1, sb.SkewBrace(copy_dot, b3.circ)]
        for x in range(8):
            for brace in both:
                dot, circ = brace.dot, brace.circ
                assert sb.sigma_perm(brace, x).image == tuple(
                    _sigma_tables(dot, circ, x, y) for y in range(8)
                )
                assert sb.tau_perm(brace, x).image == tuple(
                    _tau_tables(dot, circ, x, y) for y in range(8)
                )
        for brace in both * 2:
            assert sb.build_r(brace) == _ref_r(brace.dot, brace.circ)


def _tuple_form(n):
    return groups._TUPLE_FORM


@settings(max_examples=60)
@given(data=st.data())
def test_tuple_rows_match_per_definition_references(groups_by_order, catalogs, data):
    """The tuple rows that serve carriers above 256 elements, forced on the
    pairs _draw_pair draws: every sweep yields the byte rows' failing rows
    and sides as tuples, and so its reference's witnesses."""
    dot, circ = _draw_pair(data, groups_by_order, catalogs)
    byte_rows = {sweep: list(sweep(dot, circ)) for sweep in PAIR_SWEEPS}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(braces, "_row_form", _tuple_form)
        mp.setattr(groups, "_row_form", _tuple_form)
        for sweep in PAIR_SWEEPS:
            rows = list(sweep(dot, circ))
            assert all(type(lhs) is type(rhs) is tuple for _, lhs, rhs in rows)
            assert [(x, bytes(lhs), bytes(rhs)) for x, lhs, rhs in rows] == byte_rows[sweep]
            assert list(_witnesses(dot.n, rows)) == list(REFERENCES[sweep](dot, circ)), sweep.__name__


def _sides(dot, circ):
    """Each sweep's two sides at one cell, evaluated from the definitions."""
    d, c = dot.multiply, circ.multiply
    inv = dot.inverse

    def sig(x, y):
        return _sigma_tables(dot, circ, x, y)

    def tau(y, x):
        return _tau_tables(dot, circ, y, x)

    return {
        braces.compatibility_violations: (
            lambda x, y, z: c(x, d(y, z)),
            lambda x, y, z: d(d(c(x, y), inv(x)), c(x, z)),
        ),
        braces.inverse_product_violations: (
            lambda a, b: d(d(inv(a), c(a, inv(b))), inv(a)),
            lambda a, b: inv(c(a, b)),
        ),
        braces.sigma_homomorphism_violations: (
            lambda x, y, z: sig(c(x, y), z),
            lambda x, y, z: sig(x, sig(y, z)),
        ),
        braces.tau_antihomomorphism_violations: (
            lambda x, y, z: tau(c(y, z), x),
            lambda x, y, z: tau(z, tau(y, x)),
        ),
        braces.sigma_twisted_product_violations: (
            lambda x, y, z: sig(x, c(y, z)),
            lambda x, y, z: c(sig(x, y), sig(tau(y, x), z)),
        ),
        braces.product_preservation_violations: (
            lambda x, y: c(sig(x, y), tau(y, x)),
            lambda x, y: c(x, y),
        ),
        braces.sigma_automorphism_violations: (
            lambda x, y, z: sig(x, d(y, z)),
            lambda x, y, z: d(sig(x, y), sig(x, z)),
        ),
    }


def test_failing_rows_carry_both_sides(raw_catalog_8):
    """Each failing row (x, lhs, rhs) lists both sides of its identity at
    every cell of x, (y, z) row-major or b, as the definitions evaluate
    them, so a report can show the values and not only the witness."""
    braces_8 = raw_catalog_8.braces
    rng = random.Random(20)
    rows_seen = 0
    for _ in range(6):
        b1 = rng.choice(braces_8)
        b2 = rng.choice([b for b in braces_8 if b.dot != b1.dot])
        dot, circ = b1.dot, b2.circ
        for sweep, (left, right) in _sides(dot, circ).items():
            cells = list(itertools.product(range(8), repeat=left.__code__.co_argcount - 1))
            for x, lhs, rhs in sweep(dot, circ):
                assert list(lhs) == [left(x, *cell) for cell in cells], sweep.__name__
                assert list(rhs) == [right(x, *cell) for cell in cells], sweep.__name__
                rows_seen += 1
    assert rows_seen > 0


@settings(max_examples=150)
@given(data=st.data())
def test_associativity_witness_matches_reference(groups_by_order, data):
    """On a relabelled group table of order n <= 8 with up to two products
    changed (a at 0 still passes, other a may fail), the associativity
    check returns its reference's first witness in both row forms, and
    GroupTable reports it when the table is still a Latin square."""
    n = data.draw(st.integers(1, 8), label="n")
    group = data.draw(st.sampled_from(groups_by_order[n]))
    rows = [list(row) for row in _relabelled(group.table, (0, *data.draw(st.permutations(range(1, n))))).table]
    element = st.integers(0, n - 1)
    for a, b, v in data.draw(st.lists(st.tuples(element, element, element), max_size=2)):
        if a and b:
            rows[a][b] = v
    rows = tuple(map(tuple, rows))
    witness = _associativity_witness(rows)
    assert witness == _ref_associativity_witness(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_row_form", _tuple_form)
        assert _associativity_witness(rows) == witness
    if all(sorted(col) == list(range(n)) for col in (*rows, *zip(*rows))):
        if witness is None:
            sb.GroupTable(n, rows)
        else:
            with pytest.raises(sb.NotAssociativeError) as exc:
                sb.GroupTable(n, rows)
            assert exc.value.triple == witness


def test_row_check_at_256_elements():
    """At n = 256, where every entry still fits a byte, the cyclic table
    validates, and a copy with one intercalate swapped (a Latin square, not a
    group) reports its reference's first witness."""
    n = 256
    table = sb.cyclic_group(n).table
    assert _row_form(n)[0] is bytes
    rows = [list(row) for row in table]
    h = n // 2
    # Cells (1, 1), (1, 1+h), (1+h, 1), (1+h, 1+h) hold 2, 2+h, 2+h, 2.
    rows[1][1], rows[1][1 + h] = rows[1][1 + h], rows[1][1]
    rows[1 + h][1], rows[1 + h][1 + h] = rows[1 + h][1 + h], rows[1 + h][1]
    rows = tuple(map(tuple, rows))
    witness = _ref_associativity_witness(rows)
    assert witness is not None
    with pytest.raises(sb.NotAssociativeError) as exc:
        sb.GroupTable(n, rows)
    assert exc.value.triple == witness


def test_row_check_declines_above_256_elements():
    """At n = 257 an entry may not fit a byte: the rows are tuples, and
    they find the reference's witness."""
    n = 257
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    assert _row_form(n)[0] is tuple
    rows[2][3] = 0
    assert _associativity_witness(rows) == _ref_associativity_witness(rows)


@settings(max_examples=25)
@given(data=st.data())
def test_dedup_invariant_under_relabelling(raw_catalogs, raw_catalog_8, data):
    """Relabelling every brace of a raw catalog by its own seeded bijection
    fixing 0 does not change the deduplicated catalog."""
    catalog = data.draw(st.sampled_from([*raw_catalogs.values(), raw_catalog_8]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = catalog.order
    moved = sb.BraceCatalog(
        n,
        tuple(_transport(b, rng.sample(range(1, n), n - 1)) for b in catalog.braces),
        False,
    )
    assert sb.deduplicate_catalog(moved) == sb.deduplicate_catalog(catalog)


def _relabel_cells(rows, p, q):
    n = len(rows)
    return tuple(tuple(p[rows[q[a]][q[b]]] for b in range(n)) for a in range(n))


def _dedup_min_over_aut(raw):
    """The Aut-orbit dedup as the package ran it before it enumerated orbits:
    every circ table is keyed by its smallest image over all of Aut(dot)."""
    by_dot = {}
    for brace in raw:
        by_dot.setdefault(brace.dot.table, []).append(brace)
    reps = []
    for members in by_dot.values():
        auts = [perm.image for perm in sb.automorphisms(members[0].dot)]
        inverses = []
        for p in auts:
            q = [0] * len(p)
            for i, v in enumerate(p):
                q[v] = i
            inverses.append(tuple(q))
        seen = {}
        for brace in members:
            circ = brace.circ.table
            key = circ
            for p, q in zip(auts, inverses):
                key = min(key, _relabel_cells(circ, p, q))
            if key not in seen:
                seen[key] = brace
        reps.extend(seen.values())
    forms = {}
    for brace in reps:
        form = sb.canonical_brace(brace)
        forms[brace_sort_key(form)] = form
    return [forms[key] for key in sorted(forms)]


@pytest.fixture(scope="module")
def raw_by_order(raw_catalogs, raw_catalog_8):
    return {**raw_catalogs, 7: sb.enumerate_braces(7), 8: raw_catalog_8}


@pytest.mark.parametrize("order", range(1, 9))
def test_orbit_dedup_matches_min_over_aut(raw_by_order, order):
    """The orbit-enumerating dedup agrees with the min-over-Aut reference on
    the raw catalog, and on the raw catalog followed by a seeded Aut(dot)
    image of every brace, whose members all land in orbits met before (so
    its reference result is the raw catalog's)."""
    catalog = raw_by_order[order]
    rng = random.Random(order)
    images = []
    for brace in catalog.braces:
        p = rng.choice(sb.automorphisms(brace.dot)).image
        image = _transport(brace, p[1:])
        assert image.dot == brace.dot
        images.append(image)
    expected = _dedup_min_over_aut(catalog.braces)
    for braces in (catalog.braces, catalog.braces + tuple(images)):
        dedup = sb.deduplicate_catalog(sb.BraceCatalog(order, braces, False))
        assert list(dedup.braces) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_compose_matches_generator_form(n):
    rng = random.Random(n)
    for _ in range(20):
        p = tuple(rng.sample(range(n), n))
        q = rng.sample(range(n), n)
        expected = tuple(p[v] for v in q)
        assert _compose(p, q) == expected
        assert _compose(list(p), tuple(q)) == expected
        assert type(_compose(p, q)) is tuple


@settings(max_examples=150)
@given(data=st.data())
def test_brace_isomorphic_is_symmetric(catalogs, data):
    braces = catalogs[data.draw(st.sampled_from(sorted(catalogs)))]
    b1 = _draw_relabelled(data, braces)
    b2 = _draw_relabelled(data, braces)
    iso = sb.brace_isomorphic(b1, b2)
    assert sb.brace_isomorphic(b2, b1) == iso
    assert (sb.canonical_brace(b1) == sb.canonical_brace(b2)) == iso


@settings(max_examples=150)
@given(data=st.data())
def test_canonical_brace_invariant_under_relabelling(catalogs, data):
    brace = data.draw(st.sampled_from(catalogs[data.draw(st.sampled_from(sorted(catalogs)))]))
    moved = _transport(brace, data.draw(st.permutations(range(1, brace.n))))
    assert sb.canonical_brace(moved) == sb.canonical_brace(brace)


# Characters of both input formats plus a few others; a fixed alphabet also
# spares Hypothesis building its Unicode tables on every fresh checkout.
_ALPHABET = ' \n0123456789-+._,:[]{}"ndotcirufalsNIé٣'
_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 4),
    st.floats(-1, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(_ALPHABET, max_size=3),
)
_json = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(_ALPHABET, max_size=4), inner, max_size=3)
    ),
    max_leaves=12,
)
_cell = st.one_of(_leaf, st.integers(0, 1), st.lists(st.integers(0, 1), max_size=3))
_table = st.one_of(_json, st.lists(st.lists(_cell, max_size=4), max_size=4))
_VALID = (
    {"n": 2, "dot": [[0, 1], [1, 0]], "circ": [[0, 1], [1, 0]]},
    {"n": 2, "r": [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]},
)


@st.composite
def _mutated(draw):
    """A valid brace or R-map document with one field or one cell replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID)))
    key = draw(st.sampled_from(sorted(doc)))
    if key == "n" or draw(st.booleans()):
        doc[key] = draw(_table)
    else:
        doc[key][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(_cell)
    return json.dumps(doc)


_document = st.one_of(
    _mutated(),
    _json.map(json.dumps),
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.one_of(st.integers(-1, 4), _leaf),
            "dot": _table,
            "circ": _table,
            "r": _table,
        },
    ).map(json.dumps),
    st.text(_ALPHABET, max_size=40),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=100)
@given(text=_document)
def test_malformed_input_never_escapes_main(fuzz_path, text):
    fuzz_path.write_text(text)
    for command in ("verify", "maps", "r-map", "check-ybe"):
        assert main([command, str(fuzz_path)]) in (0, 1, 2)
