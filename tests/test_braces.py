"""Compatibility, sigma/tau maps, constructors, and the identity suite."""

import random

import pytest
from oracles import _all_tables

import skewbrace as sb
from skewbrace.braces import brace_identity_suite

# Relabeling of the mod-4 addition table by the transposition (1 2); forms a
# group but fails compatibility against plain addition. Frozen from the
# search in test_relabeled_z4_pair_fails (witness verified by hand there).
BAD_CIRC_4 = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 1, 0),
    (3, 2, 0, 1),
)


def test_compatibility_trivial_pairs(z4, v4, s3):
    for g in (z4, v4, s3, sb.cyclic_group(1)):
        assert sb.check_compatibility(g, g).ok


def test_xy_plus_2xy_circ_is_the_xor_table(z4, v4):
    rows = tuple(tuple((x + y + 2 * x * y) % 4 for y in range(4)) for x in range(4))
    assert rows == v4.table
    assert sb.check_compatibility(z4, sb.GroupTable(4, rows)).ok


def test_z4_with_klein_circ_is_a_brace(z4, v4):
    # direct transcription of the compatibility sweep as an oracle
    ok = all(
        v4.table[x][z4.table[y][z]]
        == z4.table[z4.table[v4.table[x][y]][z4.inv[x]]][v4.table[x][z]]
        for x in range(4)
        for y in range(4)
        for z in range(4)
    )
    assert ok
    assert sb.check_compatibility(z4, v4).ok


def test_relabeled_z4_pair_fails(z4):
    # recompute the frozen table: relabel addition mod 4 by p = (1 2)
    p = (0, 2, 1, 3)
    rows = tuple(tuple(p[(p[a] + p[b]) % 4] for b in range(4)) for a in range(4))
    assert rows == BAD_CIRC_4
    circ = sb.GroupTable(4, BAD_CIRC_4)
    result = sb.check_compatibility(z4, circ)
    assert not result.ok
    assert result.witness == (2, 1, 1)
    # hand re-evaluation at the witness: 2 o (1.1) = 2 o 2 = 1 but
    # (2 o 1) . 2^-1 . (2 o 1) = 3 + 2 + 3 = 0
    assert circ.table[2][z4.table[1][1]] == 1
    assert z4.table[z4.table[circ.table[2][1]][z4.inv[2]]][circ.table[2][1]] == 0


def test_make_brace(z4, v4):
    brace = sb.SkewBrace(z4, v4)
    assert brace.n == 4
    with pytest.raises(sb.NotABraceError) as exc:
        sb.SkewBrace(z4, sb.GroupTable(4, BAD_CIRC_4))
    assert exc.value.witness == (2, 1, 1)


def test_carrier_mismatch(z4):
    with pytest.raises(sb.CarrierMismatchError):
        sb.check_compatibility(z4, sb.cyclic_group(3))


def test_trivial_brace_sigma_is_identity():
    brace = sb.trivial_brace(sb.cyclic_group(3))
    for x in range(3):
        assert sb.sigma_perm(brace, x).image == (0, 1, 2)


def test_trivial_brace_tau_is_conjugation(s3):
    brace = sb.trivial_brace(s3)
    t = s3.table
    for y in range(6):
        expected = tuple(t[t[s3.inv[y]][x]][y] for x in range(6))
        assert sb.tau_perm(brace, y).image == expected


def test_trivial_brace_z2(s3):
    assert sb.check_compatibility(sb.cyclic_group(2), sb.cyclic_group(2)).ok
    sb.trivial_brace(sb.cyclic_group(2))


def test_opposite_brace_s3(s3):
    brace = sb.opposite_brace(s3)
    t = s3.table
    for x in range(6):
        for y in range(6):
            assert sb.sigma(brace, x, y) == t[t[s3.inv[x]][y]][x]
            assert sb.tau(brace, y, x) == x


def test_opposite_of_abelian_is_trivial(v4):
    for g in (sb.cyclic_group(5), v4):
        assert sb.opposite_brace(g) == sb.trivial_brace(g)


def test_sigma_values(xor_brace):
    assert sb.sigma(xor_brace, 1, 1) == 3
    # cross-check by table evaluation: -1 + (1 o 1) mod 4
    dot, circ = xor_brace.dot, xor_brace.circ
    assert dot.table[dot.inv[1]][circ.table[1][1]] == 3


def test_sigma_perm_xor_brace(xor_brace):
    assert sb.sigma_perm(xor_brace, 1).image == (0, 3, 2, 1)


def test_tau_values(xor_brace):
    # sigma_1(1) = 3, circ-inverse of 3 is 3, then 3 o 1 = 2, then 2 o 1 = 3
    circ = xor_brace.circ
    assert circ.inv[3] == 3
    assert circ.table[3][1] == 2
    assert circ.table[2][1] == 3
    assert sb.tau(xor_brace, 1, 1) == 3


def test_tau_trivial_abelian_is_identity():
    brace = sb.trivial_brace(sb.cyclic_group(5))
    for y in range(5):
        for x in range(5):
            assert sb.tau(brace, y, x) == x


def test_sigma_tau_range_checks(xor_brace):
    with pytest.raises(sb.OutOfRangeError):
        sb.sigma(xor_brace, 4, 0)
    with pytest.raises(sb.OutOfRangeError):
        sb.tau(xor_brace, 0, 4)


@pytest.mark.parametrize("perm", [sb.sigma_perm, sb.tau_perm])
@pytest.mark.parametrize("element", [-1, 4])
def test_perm_range_checks(xor_brace, perm, element):
    """sigma_perm and tau_perm build their permutation alone from rows of
    the brace's tables, where -1 would silently pick the last row; they
    still refuse it."""
    with pytest.raises(sb.OutOfRangeError, match=f"value {element} is outside 0..3"):
        perm(xor_brace, element)


def test_inverse_product_worked_example(xor_brace):
    # a = b = 1: lhs = 3 . (1 o 3) . 3 = 3 + 2 + 3 = 0, rhs = (1 o 1)^-1 = 0
    dot, circ = xor_brace.dot, xor_brace.circ
    assert circ.table[1][3] == 2
    assert dot.table[dot.table[3][2]][3] == 0
    assert dot.inv[circ.table[1][1]] == 0
    reports = {r.name: r.result for r in brace_identity_suite(dot, circ)}
    assert reports["inverse product (Lemma 1)"].ok


@pytest.mark.parametrize("name", ["trivial_s3", "opposite_s3", "xor", "order1"])
def test_identity_checks_exhaustive(name, s3, xor_brace):
    brace = {
        "trivial_s3": sb.trivial_brace(s3),
        "opposite_s3": sb.opposite_brace(s3),
        "xor": xor_brace,
        "order1": sb.trivial_brace(sb.cyclic_group(1)),
    }[name]
    reports = brace_identity_suite(brace.dot, brace.circ)
    assert [r.name for r in reports if not r.result.ok] == []


def test_identity_suite_names_and_pass(xor_brace):
    reports = brace_identity_suite(xor_brace.dot, xor_brace.circ)
    assert [r.name for r in reports] == [
        "compatibility",
        "inverse product (Lemma 1)",
        "sigma homomorphism (Proposition 1)",
        "tau anti-homomorphism (Proposition 2)",
        "sigma twisted product",
        "product preservation",
        "sigma automorphism",
    ]
    assert all(r.result.ok for r in reports)


def test_identity_suite_reports_failures(z4):
    circ = sb.GroupTable(4, BAD_CIRC_4)
    reports = {r.name: r.result for r in brace_identity_suite(z4, circ)}
    assert not reports["compatibility"].ok
    assert reports["compatibility"].witness == (2, 1, 1)
    # the homomorphism law must fail too (the two criteria are equivalent)
    assert not reports["sigma homomorphism (Proposition 1)"].ok


def test_compatibility_equivalence_sampling():
    rng = random.Random(11)
    for order in (3, 4, 5):
        tables = [sb.GroupTable(order, rows) for rows in _all_tables(order)]
        for _ in range(60):
            dot = rng.choice(tables)
            circ = rng.choice(tables)
            assert sb.check_compatibility_equivalence(dot, circ).consistent


def test_brace_json_round_trip(xor_brace, s3):
    from skewbrace.braces import brace_to_json, parse_brace_json

    for brace in (xor_brace, sb.opposite_brace(s3)):
        assert parse_brace_json(brace_to_json(brace)) == brace


def test_brace_text_round_trip(xor_brace):
    from skewbrace.braces import brace_to_text, parse_brace_text

    assert parse_brace_text(brace_to_text(xor_brace)) == xor_brace


@pytest.mark.parametrize("separator", ["\n \n", "\n\t\n", "\n \t\n  \n", "\n\n\n"])
def test_brace_text_separator_may_hold_whitespace(xor_brace, separator):
    """A separator line holding only spaces or tabs is blank, as it is
    within a block (skewbrace.groups.parse_group_text)."""
    from skewbrace.braces import brace_to_text, parse_brace_text

    text = brace_to_text(xor_brace)
    assert text.count("\n\n") == 1
    assert parse_brace_text(text.replace("\n\n", separator)) == xor_brace


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_brace_text_takes_every_line_end_and_tabs(xor_brace, line_end):
    """Lines end at LF, CRLF or CR, and tabs separate entries as spaces do."""
    from skewbrace.braces import brace_to_text, parse_brace_text

    text = brace_to_text(xor_brace).replace(" ", " \t").replace("\n", line_end)
    assert parse_brace_text(text) == xor_brace


def test_brace_parser_rejections(z4):
    from skewbrace.braces import parse_brace_json, parse_brace_text

    with pytest.raises(sb.BraceError):
        parse_brace_json("[]")
    with pytest.raises(sb.BraceError):
        parse_brace_json('{"n": 2, "dot": [[0, 1], [1, 0]]}')
    with pytest.raises(sb.BraceError):
        parse_brace_text("2\n0 1\n1 0\n")
    with pytest.raises(sb.NotABraceError):
        parse_brace_json(
            '{"n": 4, "dot": %s, "circ": %s}'
            % (
                [list(r) for r in z4.table],
                [list(r) for r in BAD_CIRC_4],
            )
        )
