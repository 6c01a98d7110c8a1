"""R-map construction, both Yang-Baxter evaluators, and export formats."""

import json
import random
import tracemalloc
from itertools import product

import pytest
from oracles import _ref_ybe_rows, _ref_ybe_violations, _sides_at

import skewbrace as sb
from skewbrace import groups, ybe
from skewbrace.groups import _witnesses
from skewbrace.search import deduplicate_catalog
from skewbrace.ybe import YbeMap, ybe_violations

# Swap map on two elements with the outputs of inputs (0,0) and (0,1)
# exchanged; fails the equation, first witness (0,0,0). Frozen from the
# search over all 256 self-maps of BxB (test_n2_census_and_frozen_failure).
PERTURBED_SWAP_2 = (((1, 0), (0, 0)), ((0, 1), (1, 1)))


def test_build_r_trivial_z2_is_swap():
    brace = sb.trivial_brace(sb.cyclic_group(2))
    assert sb.build_r(brace) == sb.swap_map(2)


def test_build_r_trivial_s3_is_conjugation(s3):
    rmap = sb.build_r(sb.trivial_brace(s3))
    t = s3.table
    for a in range(6):
        for b in range(6):
            assert rmap.r[a][b] == (b, t[t[s3.inv[b]][a]][b])


def test_build_r_xor_brace(xor_brace):
    assert sb.build_r(xor_brace).r[1][1] == (3, 3)


def test_swap_solves_ybe_all_small_carriers():
    for n in range(1, 9):
        assert sb.check_ybe(sb.swap_map(n)).ok
        assert sb.check_ybe_materialized(sb.swap_map(n)).ok


def test_xor_brace_solves_ybe(xor_brace):
    rmap = sb.build_r(xor_brace)
    # spot-check the sweep really covers all 64 triples
    assert sum(1 for _ in product(range(4), repeat=3)) == 64
    assert sb.check_ybe(rmap).ok
    assert sb.check_ybe_materialized(rmap).ok


def test_n2_census_and_frozen_failure():
    # all 4^4 self-maps of BxB for n = 2: both evaluators agree everywhere,
    # solutions and non-solutions both occur
    outs = [(a, b) for a in range(2) for b in range(2)]
    n_solutions = 0
    for combo in product(range(4), repeat=4):
        rmap = YbeMap(
            2, ((outs[combo[0]], outs[combo[1]]), (outs[combo[2]], outs[combo[3]]))
        )
        step = sb.check_ybe(rmap)
        mat = sb.check_ybe_materialized(rmap)
        assert (step.ok, step.witness) == (mat.ok, mat.witness)
        if step.ok:
            n_solutions += 1
    assert n_solutions == 43

    # the frozen perturbed swap is one of the non-solutions
    swap = sb.swap_map(2)
    rows = [list(row) for row in swap.r]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    assert tuple(tuple(row) for row in rows) == PERTURBED_SWAP_2


def test_perturbed_swap_fails_with_witness():
    rmap = YbeMap(2, PERTURBED_SWAP_2)
    result = sb.check_ybe(rmap)
    assert not result.ok
    assert result.witness == (0, 0, 0)
    lhs, rhs = _sides_at(rmap.r, 0, 0, 0)
    assert lhs != rhs
    assert sb.check_ybe_materialized(rmap).witness == (0, 0, 0)


def _product_table(t1, t2):
    """Cayley table of the direct product; (a1, a2) is element a1 * n2 + a2."""
    n2 = len(t2)
    n = len(t1) * n2
    return tuple(
        tuple(t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(n))
        for a in range(n)
    )


def _product_rmaps(rng, factors, shapes):
    """For each pair of factor orders, the R-map of the direct product of two
    raw catalog braces, and the same map with 8n of its entries changed."""
    for o1, o2 in shapes:
        b1, b2 = rng.choice(factors[o1]), rng.choice(factors[o2])
        n = o1 * o2
        brace = sb.SkewBrace(
            sb.GroupTable(n, _product_table(b1.dot.table, b2.dot.table)),
            sb.GroupTable(n, _product_table(b1.circ.table, b2.circ.table)),
        )
        rmap = sb.build_r(brace)
        yield rmap
        rows = [list(row) for row in rmap.r]
        for cell in rng.sample(range(n * n), 8 * n):
            a, b = divmod(cell, n)
            f, s = rows[a][b]
            rows[a][b] = ((f + rng.randrange(n)) % n, (s + rng.randrange(1, n)) % n)
        yield YbeMap(n, rows)


def test_evaluators_agree_on_random_maps(raw_catalogs, raw_catalog_8):
    rng = random.Random(404)
    maps = [
        YbeMap(n, tuple(tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n)) for _ in range(n)))
        for n in (1, 2, 3, 4)
        for _ in range(30)
    ]
    # Above order 8: products of orders 16 and 64, solutions and perturbed.
    factors = {2: raw_catalogs[2].braces, 4: raw_catalogs[4].braces, 8: raw_catalog_8.braces}
    maps += _product_rmaps(rng, factors, [(2, 8), (4, 4), (8, 8)])
    large = []
    for rmap in maps:
        step = sb.check_ybe(rmap)
        assert sb.check_ybe_materialized(rmap) == step
        if rmap.n > 8:
            large.append((rmap.n, step.ok))
    assert large == [(16, True), (16, False), (16, True), (16, False), (64, True), (64, False)]


def test_nondegenerate():
    assert sb.check_nondegenerate(sb.swap_map(3))
    constant_first = YbeMap(2, (((0, 0), (0, 1)), ((0, 0), (0, 1))))
    assert not sb.check_nondegenerate(constant_first)


def test_nondegenerate_brace_maps(s3, xor_brace):
    for brace in (sb.trivial_brace(s3), sb.opposite_brace(s3), xor_brace):
        assert sb.check_nondegenerate(sb.build_r(brace))


def test_bijective(s3):
    assert sb.check_bijective(sb.swap_map(4))
    rmap = sb.build_r(sb.trivial_brace(s3))
    assert len({pair for row in rmap.r for pair in row}) == 36
    assert sb.check_bijective(rmap)
    collapse = YbeMap(2, (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    assert not sb.check_bijective(collapse)


def test_product_preservation(xor_brace, s3):
    rmap = sb.build_r(xor_brace)
    # pair (1, 1): R(1,1) = (3,3) and 3 o 3 = 0 = 1 o 1
    assert rmap.r[1][1] == (3, 3)
    assert xor_brace.circ.table[3][3] == 0 == xor_brace.circ.table[1][1]
    assert sb.check_product_preservation(xor_brace, rmap).ok
    trivial = sb.trivial_brace(sb.cyclic_group(5))
    assert sb.check_product_preservation(trivial, sb.build_r(trivial)).ok
    opp = sb.opposite_brace(s3)
    assert sb.check_product_preservation(opp, sb.build_r(opp)).ok


def test_product_preservation_detects_mismatch(xor_brace, s3):
    constant = YbeMap(4, tuple(tuple((0, 0) for _ in range(4)) for _ in range(4)))
    result = sb.check_product_preservation(xor_brace, constant)
    assert not result.ok
    assert result.witness == (0, 1)
    # swap preserves products only when circ is commutative; S3 is not
    assert not sb.check_product_preservation(sb.trivial_brace(s3), sb.swap_map(6)).ok
    with pytest.raises(sb.CarrierMismatchError):
        sb.check_product_preservation(xor_brace, sb.swap_map(3))


def _then(r, q):
    """The table of (a, b) -> q(r(a, b)), for R-maps r and q on one carrier."""
    return tuple(tuple(q.r[f][s] for f, s in row) for row in r.r)


def _transposed(group):
    """The group with x . y read as y . x."""
    return sb.GroupTable(group.n, tuple(zip(*group.table)))


def test_paper_maps_on_whole_catalogs(raw_catalogs, raw_catalog_8):
    """On the 335 raw braces of orders 1-8 and the 57 iso forms of 9-15, the
    R-map obeys two known laws: R o R = id exactly when dot is abelian
    (Guarnieri and Vendramin), and R^-1 is the R-map of the Koch-Truman
    opposite brace, dot transposed and the same circ (not opposite_brace,
    which transposes dot into circ). Up to isomorphism the braces with
    abelian dot, the classical ones, number the published counts."""
    raw = {**raw_catalogs, 7: sb.enumerate_braces(7), 8: raw_catalog_8}
    iso = {n: deduplicate_catalog(catalog).braces for n, catalog in raw.items()}
    iso.update({n: sb.enumerate_braces(n, up_to_iso=True).braces for n in range(9, 16)})
    checked = [b for n in range(1, 9) for b in raw[n].braces]
    checked += [b for n in range(9, 16) for b in iso[n]]
    assert len(checked) == 392
    failures = []
    for brace in checked:
        n = brace.n
        r = sb.build_r(brace)
        identity = tuple(tuple((a, b) for b in range(n)) for a in range(n))
        abelian = _transposed(brace.dot) == brace.dot
        inverse = sb.build_r(sb.SkewBrace(_transposed(brace.dot), brace.circ))
        if (_then(r, r) == identity) != abelian:
            failures.append(("involutive iff abelian", brace))
        if not _then(r, inverse) == identity == _then(inverse, r):
            failures.append(("inverse is the opposite's map", brace))
    assert failures == []
    classical = [sum(_transposed(b.dot) == b.dot for b in iso[n]) for n in range(1, 16)]
    assert classical == [1, 1, 1, 4, 1, 2, 1, 27, 4, 2, 1, 10, 1, 2, 1]


def test_ybe_violations_stream():
    rmap = YbeMap(2, PERTURBED_SWAP_2)
    rows = list(ybe_violations(rmap))
    witnesses = list(_witnesses(2, rows))
    assert witnesses == list(_ref_ybe_violations(rmap))
    assert witnesses[0] == (0, 0, 0)
    assert len(witnesses) > len(rows) == 1


def _perturbed_swap(rng, n, cells):
    """The swap map on n elements with `cells` seeded outputs changed."""
    rows = [list(row) for row in sb.swap_map(n).r]
    for cell in rng.sample(range(n * n), cells):
        a, b = divmod(cell, n)
        rows[a][b] = (rng.randrange(n), rng.randrange(n))
    return YbeMap(n, rows)


def _edge_maps():
    """Maps at the row form's edges: one element; two; 16, where the last
    index into the joined rows of R is 255; and 17, where it passes 255.
    Each size has a solution and a map that fails."""
    rng = random.Random(17)
    maps = [sb.swap_map(1), sb.swap_map(2), YbeMap(2, PERTURBED_SWAP_2)]
    for n in (16, 17):
        maps += [sb.swap_map(n), _perturbed_swap(rng, n, 3), _perturbed_swap(rng, n, n)]
    maps += [_perturbed_swap(rng, n, 2) for n in range(3, 7) for _ in range(5)]
    return maps


EDGE_MAPS = _edge_maps()


def _sides(rows):
    """Failing rows with their sides read out as tuples of cells."""
    return [(a, tuple(lhs), tuple(rhs)) for a, lhs, rhs in rows]


@pytest.mark.parametrize("rmap", EDGE_MAPS, ids=lambda m: f"n{m.n}")
def test_ybe_rows_carry_both_sides(rmap):
    """Every failing row lists, at every (b, c), the two sides that
    _sides_at evaluates from the definition, and no passing row is
    yielded; the rows' witnesses are the reference's triples."""
    rows = list(ybe_violations(rmap))
    assert _sides(rows) == list(_ref_ybe_rows(rmap))
    assert all(len(lhs) == len(rhs) == rmap.n**2 for _, lhs, rhs in rows)
    assert list(_witnesses(rmap.n, rows)) == list(_ref_ybe_violations(rmap))
    assert sb.check_ybe(rmap) == sb.check_ybe_materialized(rmap)


def test_ybe_edge_maps_pass_and_fail():
    assert [(m.n, sb.check_ybe(m).ok) for m in EDGE_MAPS[:9]] == [
        (1, True), (2, True), (2, False), (16, True), (16, False), (16, False),
        (17, True), (17, False), (17, False),
    ]


@pytest.mark.parametrize("rmap", EDGE_MAPS, ids=lambda m: f"n{m.n}")
def test_ybe_tuple_rows_carry_both_sides(rmap):
    """The tuple rows that serve carriers above 256 elements, forced: the
    same failing rows, and so the reference's, and the reference's
    witnesses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ybe, "_row_form", lambda n: groups._TUPLE_FORM)
        rows = list(ybe_violations(rmap))
    assert all(type(part) is tuple for _, *sides in rows for side in sides for part in side.parts)
    assert _sides(rows) == list(_ref_ybe_rows(rmap))
    assert list(_witnesses(rmap.n, rows)) == list(_ref_ybe_violations(rmap))


def test_ybemap_validation():
    with pytest.raises(ValueError):
        YbeMap(2, (((0, 2), (0, 0)), ((0, 0), (0, 0))))
    with pytest.raises(ValueError):
        YbeMap(2, (((0, 0),),))
    with pytest.raises(ValueError, match="not a pair"):
        YbeMap(1, (((0, 0, 0),),))


@pytest.mark.parametrize(
    "n, r, message",
    [
        (2, [[[0, 0]]], "map table must be 2x2"),
        (2, [[[0, 0], [1, 0]], [[0, 1]]], "map table must be 2x2"),
        (1, [[[0, 0, 0]]], "output (0, 0, 0) is not a pair in 0..0"),
        (2, [[[0, 0], [1, 0]], [[0], [1, 1]]], "output (0) is not a pair in 0..1"),
        (2, [[[0, 2], [0, 0]], [[0, 0], [0, 0]]], "output (0, 2) is not a pair in 0..1"),
        (2, [[[0, 0], [-1, 0]], [[0, 1], [1, 1]]], "output (-1, 0) is not a pair in 0..1"),
        # The first bad pair in (a, b) order is named, whatever its kind.
        (2, [[[0, 0], [1, 5]], [[0, 1, 0], [1, 1]]], "output (1, 5) is not a pair in 0..1"),
    ],
)
def test_ybemap_messages(n, r, message):
    """YbeMap checks shape and range in C; the message names the first bad
    pair, for a direct construction and through parse_rmap_json (which
    refuses a pair of another length itself)."""
    with pytest.raises(ValueError) as exc:
        YbeMap(n, r)
    assert str(exc.value) == message
    text = json.dumps({"n": n, "r": r})
    if all(len(pair) == 2 for row in r for pair in row):
        with pytest.raises(ValueError) as exc:
            sb.parse_rmap_json(text)
        assert str(exc.value) == message


def test_rmap_json_round_trip(xor_brace):
    rmap = sb.build_r(xor_brace)
    assert sb.parse_rmap_json(sb.rmap_to_json(rmap)) == rmap


def test_rmap_json_rejections():
    with pytest.raises(ValueError):
        sb.parse_rmap_json("nope")
    with pytest.raises(ValueError):
        sb.parse_rmap_json('{"n": 2}')
    with pytest.raises(ValueError):
        sb.parse_rmap_json('{"n": 2, "r": [[0, 1], [1, 0]]}')


def test_rmap_csv(s3):
    rmap = sb.build_r(sb.trivial_brace(s3))
    lines = sb.rmap_to_csv(rmap).splitlines()
    assert len(lines) == 36
    assert lines[0] == "0,0,0,0"
    a, b = 2, 5
    first, second = rmap.r[a][b]
    assert f"{a},{b},{first},{second}" in lines


def _first_failing_slab(rmap):
    """The a of the reference's first failing triple, or None."""
    first = next(_ref_ybe_violations(rmap), None)
    return None if first is None else first[0]


def _slab_edge_maps():
    """Maps whose verdict the materialized evaluator reaches at the edges of
    its slab loop: perturbed swaps, picked through the reference, that first
    fail in the last slab (a = n - 1) or in an inner one (0 < a < n - 1);
    constant maps, which are not bijective, one solving the equation and one
    failing it everywhere; and carriers of one and two elements."""
    rng = random.Random(25)
    last, inner = [], []
    while len(last) < 4 or len(inner) < 4:
        rmap = _perturbed_swap(rng, rng.randrange(3, 7), 1)
        a = _first_failing_slab(rmap)
        if a == rmap.n - 1 and len(last) < 4:
            last.append(rmap)
        elif a is not None and 0 < a < rmap.n - 1 and len(inner) < 4:
            inner.append(rmap)
    constant = [YbeMap(n, [[pair] * n for _ in range(n)]) for n in (3, 5) for pair in ((0, 0), (0, 1))]
    small = [sb.swap_map(1), sb.swap_map(2), YbeMap(2, PERTURBED_SWAP_2)]
    # A bijection of two elements that first fails in its last slab.
    small += [YbeMap(2, [[(0, 0), (1, 0)], [(1, 1), (0, 1)]])]
    return last + inner + constant + small


SLAB_EDGE_MAPS = _slab_edge_maps()


def test_slab_edge_maps_fail_where_picked():
    slabs = [(m.n, _first_failing_slab(m)) for m in SLAB_EDGE_MAPS]
    assert [a == n - 1 for n, a in slabs[:4]] == [True] * 4
    assert [0 < a < n - 1 for n, a in slabs[4:8]] == [True] * 4
    assert [a for _, a in slabs[8:]] == [None, 0, None, 0, None, None, 0, 1]


@pytest.mark.parametrize("rmap", SLAB_EDGE_MAPS, ids=lambda m: f"n{m.n}")
def test_materialized_agrees_at_slab_edges(rmap):
    """The slab-by-slab composition gives the stepwise verdict and the
    reference's first failing triple, whichever slab that lies in."""
    first = next(_ref_ybe_violations(rmap), None)
    expected = sb.CheckResult(first is None, first)
    assert sb.check_ybe_materialized(rmap) == sb.check_ybe(rmap) == expected


def test_materialized_holds_no_side_whole():
    """The two factor tables share one set of n^3 code ints and the sides
    are composed a slab at a time: the peak stays under 64 bytes a triple
    (tables of ints of their own, or a whole side, need about 100)."""
    n = 32
    rmap = sb.swap_map(n)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert sb.check_ybe_materialized(rmap).ok
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 64 * n**3
