"""Group table validation, arithmetic, automorphisms, and table formats."""

from itertools import permutations

import pytest

import skewbrace as sb
from skewbrace.groups import _element_orders

# First Latin square of order 5 with identity row/column, in lexicographic
# cell order, that fails associativity. Frozen from the generator below
# (see test_order5_first_nonassociative_frozen_value).
NONASSOC_5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


def _latin_squares_with_identity(n):
    # independent oracle: plain cell-by-cell backtracking in lex order
    rows = [list(range(n))] + [[a] + [None] * (n - 1) for a in range(1, n)]
    row_used = [set(range(n))] + [{a} for a in range(1, n)]
    col_used = [set(range(n))] + [{z} for z in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(r) for r in rows)
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


def _first_nonassoc_triple(rows):
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return (a, b, c)
    return None


def test_z2_is_valid():
    g = sb.GroupTable(2, [[0, 1], [1, 0]])
    assert g.n == 2
    assert g.table == ((0, 1), (1, 0))


def test_repeated_entry_is_not_latin():
    with pytest.raises(sb.NotLatinError) as exc:
        sb.GroupTable(2, [[0, 1], [1, 1]])
    assert exc.value.axis == "row"
    assert exc.value.index == 1


def test_out_of_range_entry():
    with pytest.raises(sb.OutOfRangeError) as exc:
        sb.GroupTable(2, [[0, 1], [1, 7]])
    assert exc.value.value == 7
    assert exc.value.cell == (1, 1)


@pytest.mark.parametrize(
    "value, shown",
    [
        (10**3999, "1000000000000000000000000000000000000000... (4000 digits)"),
        (10**5000, "<an integer of 16610 bits>"),
    ],
    ids=["4000 digits", "5001 digits"],
)
def test_long_integers_are_cut_in_messages(value, shown):
    """Error messages stay short, also for integers too long for str()."""
    with pytest.raises(sb.OutOfRangeError) as exc:
        sb.GroupTable(2, [[0, 1], [1, value]])
    assert str(exc.value) == f"value {shown} at cell (1, 1) is outside 0..1"
    assert exc.value.value == value
    with pytest.raises(sb.GroupTableError, match=r"^table must be ") as exc:
        sb.GroupTable(value, [[0]])
    assert str(exc.value) == f"table must be {shown}x{shown}"


def test_identity_violation():
    # row 0 must read 0 1 2 ...
    with pytest.raises(sb.IdentityViolationError) as exc:
        sb.GroupTable(3, [[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    assert exc.value.cell == (0, 1)


def test_wrong_shape_rejected():
    with pytest.raises(sb.GroupTableError):
        sb.GroupTable(3, [[0, 1, 2], [1, 2, 0]])
    with pytest.raises(sb.GroupTableError):
        sb.GroupTable(0, [])


def test_order5_first_nonassociative_frozen_value():
    # recompute the oracle and compare against the frozen table
    found = None
    for rows in _latin_squares_with_identity(5):
        if _first_nonassoc_triple(rows) is not None:
            found = rows
            break
    assert found == NONASSOC_5
    assert _first_nonassoc_triple(NONASSOC_5) == (1, 1, 2)


def test_order5_nonassociative_witness():
    with pytest.raises(sb.NotAssociativeError) as exc:
        sb.GroupTable(5, NONASSOC_5)
    assert exc.value.triple == (1, 1, 2)
    # hand re-evaluation at the witness
    a, b, c = exc.value.triple
    assert NONASSOC_5[NONASSOC_5[a][b]][c] == 2
    assert NONASSOC_5[a][NONASSOC_5[b][c]] == 4


def test_multiply_z4():
    z4 = sb.cyclic_group(4)
    assert z4.multiply(1, 3) == 0
    assert z4.multiply(2, 3) == 1


def test_multiply_identity_law(s3):
    for g in (sb.cyclic_group(5), sb.klein_four_group(), s3):
        for b in range(g.n):
            assert g.multiply(0, b) == b
            assert g.multiply(b, 0) == b


def test_s3_transposition_product_is_three_cycle(s3):
    # transpositions are elements 1, 2, 5 in the documented numbering
    transpositions = [x for x in range(6) if _element_orders(s3.table)[x] == 2]
    assert transpositions == [1, 2, 5]
    for a in transpositions:
        for b in transpositions:
            if a != b:
                assert _element_orders(s3.table)[s3.multiply(a, b)] == 3


def test_multiply_range_check(z4):
    with pytest.raises(sb.OutOfRangeError):
        z4.multiply(4, 0)
    with pytest.raises(sb.OutOfRangeError):
        z4.multiply(0, -1)


def test_inverse():
    z4 = sb.cyclic_group(4)
    assert z4.inverse(0) == 0
    assert z4.inverse(1) == 3
    s3 = sb.symmetric_group_s3()
    for x in (1, 2, 5):
        assert s3.inverse(x) == x


def test_inverse_involution(s3):
    for g in (sb.cyclic_group(7), s3):
        for a in range(g.n):
            assert g.inverse(g.inverse(a)) == a
            assert g.multiply(a, g.inverse(a)) == 0
            assert g.multiply(g.inverse(a), a) == 0


def test_associativity_exhaustive_up_to_12():
    g = sb.cyclic_group(12)
    t = g.table
    for a in range(12):
        for b in range(12):
            for c in range(12):
                assert t[t[a][b]][c] == t[a][t[b][c]]


def _naive_automorphisms(g):
    # oracle: filter all n! permutations
    out = []
    for perm in permutations(range(g.n)):
        if perm[0] != 0:
            continue
        if all(
            perm[g.table[a][b]] == g.table[perm[a]][perm[b]]
            for a in range(g.n)
            for b in range(g.n)
        ):
            out.append(perm)
    return sorted(out)


def test_automorphism_counts():
    assert len(sb.automorphisms(sb.cyclic_group(2))) == 1
    assert len(sb.automorphisms(sb.cyclic_group(4))) == 2
    assert len(sb.automorphisms(sb.klein_four_group())) == 6


@pytest.mark.parametrize(
    "group",
    [sb.cyclic_group(2), sb.cyclic_group(4), sb.klein_four_group(), sb.cyclic_group(5)],
    ids=["z2", "z4", "v4", "z5"],
)
def test_automorphisms_match_naive_oracle(group):
    got = [p.image for p in sb.automorphisms(group)]
    assert got == _naive_automorphisms(group)


def test_automorphisms_form_a_group(s3):
    auts = sb.automorphisms(s3)
    images = {a.image for a in auts}
    assert tuple(range(6)) in images
    for a in auts:
        assert a.inverse().image in images
        for b in auts:
            assert a.compose(b).image in images


def test_automorphisms_lexicographic_and_deterministic(v4):
    first = [a.image for a in sb.automorphisms(v4)]
    second = [a.image for a in sb.automorphisms(v4)]
    assert first == second == sorted(first)


def test_perm_map_rejects_non_bijection():
    with pytest.raises(ValueError):
        sb.PermMap(3, (0, 0, 2))


def test_perm_map_compose_inverse():
    p = sb.PermMap(4, (0, 2, 3, 1))
    assert p.compose(p.inverse()).image == (0, 1, 2, 3)
    assert p(1) == 2


def test_text_format_round_trip(s3):
    from skewbrace.groups import group_to_text, parse_group_text

    for g in (sb.cyclic_group(3), s3):
        assert parse_group_text(group_to_text(g)) == g


def test_json_format_round_trip(v4):
    from skewbrace.groups import group_to_json, parse_group_json

    assert parse_group_json(group_to_json(v4)) == v4


def test_text_parser_rejections():
    from skewbrace.groups import parse_group_text

    with pytest.raises(sb.GroupTableError):
        parse_group_text("")
    with pytest.raises(sb.GroupTableError):
        parse_group_text("x\n0 1\n1 0\n")
    with pytest.raises(sb.GroupTableError):
        parse_group_text("2\n0 1\n")
    with pytest.raises(sb.GroupTableError):
        parse_group_text("2\n0 1\n1 zero\n")
    with pytest.raises(sb.NotLatinError):
        parse_group_text("2\n0 1\n1 1\n")


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0"], ids=ascii)
def test_text_parser_takes_ascii_separators_only(char):
    """Only spaces and tabs separate entries or make a line blank, and only
    LF, CRLF and CR end a line."""
    from skewbrace.groups import parse_group_text

    assert parse_group_text("2\n0 \t1\r\n \t\n1\t0\r") == sb.cyclic_group(2)
    with pytest.raises(sb.GroupTableError, match="entries must be non-negative decimal"):
        parse_group_text(f"2\n0{char}1\n1 0\n")
    with pytest.raises(sb.GroupTableError, match="first line must be the carrier size"):
        parse_group_text(f"2{char}0 1{char}1 0{char}")
    with pytest.raises(sb.GroupTableError, match="expected 2 table rows, got 3"):
        parse_group_text(f"2\n0 1\n{char}\n1 0\n")


def test_json_parser_rejections():
    from skewbrace.groups import parse_group_json

    with pytest.raises(sb.GroupTableError):
        parse_group_json("not json")
    with pytest.raises(sb.GroupTableError):
        parse_group_json('{"n": 2}')
    with pytest.raises(sb.GroupTableError):
        parse_group_json('{"n": "2", "table": [[0, 1], [1, 0]]}')
    with pytest.raises(sb.GroupTableError, match='"n" must be an integer'):
        parse_group_json('{"n": true, "table": [[0]]}')
    with pytest.raises(sb.GroupTableError, match="array of arrays"):
        parse_group_json('{"n": 2, "table": [null, null]}')
    with pytest.raises(sb.GroupTableError, match="must be integers, got 1.0"):
        parse_group_json('{"n": 2, "table": [[0, 1], [1.0, 0]]}')
    # json would keep the second table, a valid one, and drop the first.
    with pytest.raises(sb.GroupTableError, match="invalid JSON: duplicate key 'table'"):
        parse_group_json('{"n": 2, "table": [[0, 1], [1, 1]], "table": [[0, 1], [1, 0]]}')
    with pytest.raises(sb.NotAssociativeError):
        parse_group_json(
            '{"n": 5, "table": %s}' % [[int(v) for v in row] for row in NONASSOC_5]
        )


def test_trivial_carrier():
    g = sb.GroupTable(1, [[0]])
    assert g.inv == (0,)
    assert len(sb.automorphisms(g)) == 1
