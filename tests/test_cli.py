"""CLI subcommands: exit codes, reports, witnesses, and output determinism."""

import hashlib
import itertools
import json
import random

import pytest

import skewbrace as sb
from skewbrace import cli
from skewbrace.braces import brace_to_json, brace_to_text
from skewbrace.cli import main

XOR_BRACE_JSON = json.dumps(
    {
        "n": 4,
        "dot": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
        "circ": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }
)

BAD_PAIR_JSON = json.dumps(
    {
        "n": 4,
        "dot": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
        "circ": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],
    }
)

NOT_A_GROUP_JSON = json.dumps(
    {
        "n": 2,
        "dot": [[0, 1], [1, 0]],
        "circ": [[0, 1], [1, 1]],
    }
)


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.json"
    path.write_text(XOR_BRACE_JSON)
    return str(path)


def test_verify_pass(xor_file, capsys):
    assert main(["verify", xor_file]) == 0
    out = capsys.readouterr().out
    assert "compatibility: PASS" in out
    assert "inverse product (Lemma 1): PASS" in out
    assert "sigma homomorphism (Proposition 1): PASS" in out
    assert "tau anti-homomorphism (Proposition 2): PASS" in out
    assert "product preservation: PASS" in out
    assert "FAIL" not in out


def test_verify_pass_text_format(tmp_path, capsys, xor_brace):
    path = tmp_path / "xor.txt"
    path.write_text(brace_to_text(xor_brace))
    assert main(["verify", str(path)]) == 0
    assert "compatibility: PASS" in capsys.readouterr().out


def test_verify_bad_pair_exits_1_with_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_PAIR_JSON)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "compatibility: FAIL witness=(2, 1, 1)" in out


def test_verify_all_witnesses_streams_more(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_PAIR_JSON)
    assert main(["verify", str(path), "--all-witnesses"]) == 1
    out = capsys.readouterr().out
    assert out.count("compatibility: FAIL") > 1


def test_verify_non_group_exits_2(tmp_path, capsys):
    path = tmp_path / "notgroup.json"
    path.write_text(NOT_A_GROUP_JSON)
    assert main(["verify", str(path)]) == 2
    assert "not a permutation" in capsys.readouterr().err


def test_verify_missing_file_exits_2(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


def test_maps_trivial_identity(tmp_path, capsys):
    z3 = sb.cyclic_group(3)
    path = tmp_path / "triv.json"
    path.write_text(brace_to_json(sb.trivial_brace(z3)))
    assert main(["maps", str(path)]) == 0
    out = capsys.readouterr().out
    for x in range(3):
        assert f"sigma[{x}] = 0 1 2" in out


def test_maps_single_element(xor_file, capsys):
    assert main(["maps", xor_file, "--element", "1"]) == 0
    out = capsys.readouterr().out
    assert "sigma[1] = 0 3 2 1" in out
    assert "sigma[2]" not in out


def test_maps_out_of_range_exits_2(xor_file):
    assert main(["maps", xor_file, "--element", "7"]) == 2


def test_maps_json_format(xor_file, capsys):
    assert main(["maps", xor_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["maps"][1]["sigma"] == [0, 3, 2, 1]


def test_rmap_json(xor_file, capsys, xor_brace):
    assert main(["r-map", xor_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(sb.rmap_to_json(sb.build_r(xor_brace)))
    assert payload["r"][1][1] == [3, 3]


def test_rmap_csv_row_count(xor_file, capsys):
    assert main(["r-map", xor_file, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16


def test_rmap_bit_exact_across_runs(xor_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["r-map", xor_file, "--output", str(out1)]) == 0
    assert main(["r-map", xor_file, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_ybe_on_brace_file(xor_file, capsys):
    assert main(["check-ybe", xor_file]) == 0
    out = capsys.readouterr().out
    assert "yang-baxter: PASS" in out
    assert "nondegenerate: yes" in out
    assert "bijective: yes" in out


def test_check_ybe_on_swap_rmap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(sb.rmap_to_json(sb.swap_map(3)))
    assert main(["check-ybe", str(path)]) == 0


def test_check_ybe_perturbed_map_exits_1(tmp_path, capsys):
    perturbed = sb.YbeMap(2, (((1, 0), (0, 0)), ((0, 1), (1, 1))))
    path = tmp_path / "bad_r.json"
    path.write_text(sb.rmap_to_json(perturbed))
    assert main(["check-ybe", str(path)]) == 1
    assert "yang-baxter: FAIL witness=(0, 0, 0)" in capsys.readouterr().out


def test_check_ybe_all_witnesses(tmp_path, capsys):
    perturbed = sb.YbeMap(2, (((1, 0), (0, 0)), ((0, 1), (1, 1))))
    path = tmp_path / "bad_r.json"
    path.write_text(sb.rmap_to_json(perturbed))
    assert main(["check-ybe", str(path), "--all-witnesses"]) == 1
    assert capsys.readouterr().out.count("FAIL") > 1


def test_enumerate_order1(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--order", "1", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 1
    err = capsys.readouterr().err
    assert "order=1 raw=1 iso=1 elapsed=" in err


def test_enumerate_order3_up_to_iso(tmp_path):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--order", "3", "--up-to-iso", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 1
    assert payload["up_to_iso"] is True


def test_enumerate_oracle_matches_search(tmp_path):
    a = tmp_path / "search.json"
    b = tmp_path / "oracle.json"
    assert main(["enumerate", "--order", "4", "--output", str(a)]) == 0
    assert main(["enumerate", "--order", "4", "--oracle", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_byte_identical_across_runs(tmp_path):
    outs = []
    for i in range(2):
        path = tmp_path / f"cat{i}.json"
        argv = ["enumerate", "--order", "4", "--up-to-iso", "--output", str(path)]
        assert main(argv) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_enumerate_order_too_large():
    assert main(["enumerate", "--order", "9"]) == 2
    assert main(["enumerate", "--order", "6", "--oracle"]) == 2


def test_enumerate_summary_counts(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--order", "4", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "order=4 raw=6 iso=4 elapsed=" in err
    payload = json.loads(out.read_text())
    assert payload["count_raw"] == 6
    assert payload["count_up_to_iso"] == 4


#: sha256 of `enumerate --order N --up-to-iso` output, pinned when canonical
#: forms were still found by trying all (n-1)! relabelings.
UP_TO_ISO_SHA256 = {
    1: "3ac74409478772b458ec9b17cf8b5aac023fb8e4efd30d9c5146f40083fe561f",
    2: "f432dcfb647a257c3423d1b2c66cb166ad44e3098238d093fda3711216f32f7f",
    3: "7012e2f590eaae639c9636cf41d1395cae609fccf0573ea6f2744775124feea9",
    4: "b3e6ddde774edc14d6a08209f5be680b15b8db25edfdd3f4320304d46755d0a4",
    5: "62190175e0b3219e5ca4c64cdfbe961239c25ce4871200fe44191ecd8aaf8395",
    6: "0129a6e7ec88aaf8591a9c6de15016b8256ebade6fd93096d7abf90423635b07",
    7: "c9d492eb67863acbf98ebcad839ebb2da982bc4565c42a5b7b4e04feff7a469c",
    8: "d9e06bc98e935830c3b56e2ed908b0fd1aef015cff2633f1cd9fe5db2107ab7b",
}


@pytest.mark.parametrize("order", sorted(UP_TO_ISO_SHA256))
def test_enumerate_up_to_iso_bytes_pinned(order, tmp_path):
    out = tmp_path / "cat.json"
    argv = ["enumerate", "--order", str(order), "--up-to-iso", "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == UP_TO_ISO_SHA256[order]


#: sha256 of `enumerate --order N` output (the raw catalog, every brace on
#: each group class representative), pinned before the Aut-orbit dedup was
#: rewritten to enumerate orbits and permutations were composed in C.
RAW_SHA256 = {
    1: "b89d155f4d6341e2e8d8a98775f90c0ae327fb539fd26415e543291dd6f5de3e",
    2: "4c65aa12f8d037e4e337a8258341f7f082deab67866eef4a4380782f7b9ef95d",
    3: "d7a0afb88b9a9ff8a881171d1613d3596de94ef979a59af97bc77916193c0666",
    4: "1dd00c0aa22f7715d2f01499b51e0ad82e9321040128edb1f52929dd9147a83c",
    5: "33dd9d62a3501adc3cf91bc10859222f77599a30e269c5a51f35c206fb53b6c4",
    6: "f6e84735cb2dfc216479d4d913ae1adb2c8e5fd7888ae901f44b275e517c7cfa",
    7: "94b137bfa16b5516d871c5c95cbf0ac0b7f90205080b154a7673b07aadf5e7ab",
    8: "f1028012f83a73406681d5373a1a7fb5f0cdbf03da5300eac0f1a3b600596b22",
}


@pytest.mark.parametrize("order", sorted(RAW_SHA256))
def test_enumerate_raw_bytes_pinned(order, tmp_path):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--order", str(order), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RAW_SHA256[order]


#: JSON arrays nested 200,000 deep: too deep for the decoder, which raises
#: RecursionError rather than a parse error.
DEEP_ARRAY = "[" * 200_000 + "]" * 200_000
#: JSON arrays nested 900 deep: shallow enough to decode, too deep to quote
#: in an error message.
DEEP_900 = "[" * 900 + "]" * 900
#: A 100,000-character string: too long to quote whole in an error message.
LONG = "a" * 100_000
#: Decimal integers of 4,000 digits (str() and int() convert them) and of
#: 5,000 digits (more than Python's default limit of 4,300 digits).
DIGITS_4000 = "9" * 4_000
DIGITS_5000 = "9" * 5_000


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 2, "dot": None, "circ": [[0, 1], [1, 0]]}, '"dot" must be an array'),
        ({"n": 2, "dot": [[0, 1], [1, 0]], "circ": 5}, '"circ" must be an array'),
        ({"n": 2, "dot": [None, None], "circ": [[0, 1], [1, 0]]}, '"dot" must be'),
        ({"n": 2, "dot": [[0, 1], [1, 0]], "circ": ["01", "10"]}, '"circ" must be'),
        ({"n": True, "dot": [[0]], "circ": [[0]]}, '"n" must be an integer'),
        (
            {"n": 2, "dot": [[0, 1], [1, 0]], "circ": [[0, 1], [1.7, 0]]},
            '"circ" entries must be integers, got 1.7',
        ),
        (
            {"n": 2, "dot": [[0, 1], [1.0, 0]], "circ": [[0, 1], [1, 0]]},
            '"dot" entries must be integers, got 1.0',
        ),
        (
            {"n": 2, "dot": [[0, 1], [1, 0]], "circ": [[0, True], [1, 0]]},
            '"circ" entries must be integers, got True',
        ),
        pytest.param(
            '{"n": 1, "dot": %s, "circ": [[0]]}' % DEEP_ARRAY,
            "nested too deeply",
            id="dot nested 200000 deep",
        ),
        pytest.param(
            '{"n": 2, "dot": [[0, 1], [1, %s]], "circ": [[0, 1], [1, 0]]}' % DEEP_900,
            '"dot" entries must be integers, got an array',
            id="dot cell nested 900 deep",
        ),
        pytest.param(
            '{"n": %s, "dot": [[0]], "circ": [[0]]}' % DEEP_900,
            '"n" must be an integer, got an array',
            id="n nested 900 deep",
        ),
        pytest.param(
            {"n": LONG, "dot": [[0]], "circ": [[0]]},
            '"n" must be an integer, got \'aaa',
            id="n string of 100000 characters",
        ),
        pytest.param(
            {"n": 2, "dot": [[0, 1], [1, LONG]], "circ": [[0, 1], [1, 0]]},
            '"dot" entries must be integers, got \'aaa',
            id="dot cell string of 100000 characters",
        ),
        pytest.param(
            '{"n": %s, "dot": [[0]], "circ": [[0]]}' % DIGITS_4000,
            "table must be 9999999999999999999999999999999999999999... (4000 digits)x",
            id="n of 4000 digits",
        ),
        pytest.param(
            '{"n": -%s, "dot": [[0]], "circ": [[0]]}' % DIGITS_4000,
            "carrier size must be positive, got -999",
            id="n of minus 4000 digits",
        ),
        pytest.param(
            '{"n": 2, "dot": [[0, 1], [1, 0]], "circ": [[0, 1], [1, %s]]}' % DIGITS_4000,
            "value 9999999999999999999999999999999999999999... (4000 digits) at cell (1, 1)",
            id="circ cell of 4000 digits",
        ),
        pytest.param(
            '{"n": %s, "dot": [[0]], "circ": [[0]]}' % DIGITS_5000,
            "an integer in the JSON has more than 4300 digits",
            id="n of 5000 digits",
        ),
        pytest.param(
            '{"n": 2, "dot": [[0, 1], [1, %s]], "circ": [[0, 1], [1, 0]]}' % DIGITS_5000,
            "an integer in the JSON has more than 4300 digits",
            id="dot cell of 5000 digits",
        ),
    ],
)
@pytest.mark.parametrize("command", ["verify", "check-ybe", "maps", "r-map"])
def test_malformed_brace_json_exits_2(command, payload, message, tmp_path, capsys):
    """`payload` is the JSON text itself, or an object to encode."""
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err) < 200
    assert "set_int_max_str_digits" not in err


def _write(tmp_path, text):
    path = tmp_path / "brace.txt"
    path.write_text(text)
    return str(path)


XOR_BRACE_TEXT = "4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n\n4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("3 2 1 0\n", "3 2 1 +0\n", "entries must be non-negative decimal integers"),
        ("3 2 1 0\n", "3 2 1 0_0\n", "entries must be non-negative decimal integers"),
        ("0 1 2 3\n1 2", "0 1 2 \u0663\n1 2", "entries must be non-negative decimal integers"),
        ("4\n0 1 2 3\n1 2", "+4\n0 1 2 3\n1 2", "first line must be the carrier size"),
        ("4\n0 1 2 3\n1 0", "0_4\n0 1 2 3\n1 0", "first line must be the carrier size"),
        ("4\n0 1 2 3\n1 2", LONG + "\n0 1 2 3\n1 2", "carrier size, got 'aaa"),
        ("3 2 1 0\n", "3 2 1 " + LONG + "\n", "decimal integers, got row '3 2 1 aaa"),
        ("3 2 1 0\n", "3 2 1 " + DIGITS_4000 + "\n", "(4000 digits) at cell (3, 3) is outside 0..3"),
        ("3 2 1 0\n", "3 2 1 " + DIGITS_5000 + "\n", "(5000 digits) at cell (3, 3) is outside 0..3"),
        (
            "3 2 1 0\n",
            "3 2 1 000" + DIGITS_5000 + "\n",
            "value 9999999999999999999999999999999999999999... (5000 digits) at cell (3, 3)",
        ),
        ("4\n0 1 2 3\n1 2", DIGITS_4000 + "\n0 1 2 3\n1 2", "(4000 digits) table rows, got 4"),
        ("4\n0 1 2 3\n1 2", DIGITS_5000 + "\n0 1 2 3\n1 2", "(5000 digits) table rows, got 4"),
    ],
    ids=[
        "cell +0",
        "cell 0_0",
        "cell arabic-indic 3",
        "size +4",
        "size 0_4",
        "size line of 100000 characters",
        "row of 100006 characters",
        "cell of 4000 digits",
        "cell of 5000 digits",
        "cell of 5000 digits after leading zeros",
        "size of 4000 digits",
        "size of 5000 digits",
    ],
)
def test_malformed_brace_text_exits_2(old, new, message, tmp_path, capsys):
    assert main(["verify", _write(tmp_path, XOR_BRACE_TEXT)]) == 0
    capsys.readouterr()
    assert XOR_BRACE_TEXT.count(old) == 1
    path = _write(tmp_path, XOR_BRACE_TEXT.replace(old, new))
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err) < 200
    assert "set_int_max_str_digits" not in err


def test_text_tokens_with_many_leading_zeros_keep_their_value(tmp_path, capsys):
    """A token longer than int() converts may still be a small number."""
    zeros = "0" * 5_000
    text = XOR_BRACE_TEXT.replace("4\n0 1 2 3\n1 2", zeros + "4\n0 1 2 3\n1 2")
    text = text.replace("3 2 1 0\n", f"3 2 1 {zeros}0\n")
    assert main(["verify", _write(tmp_path, XOR_BRACE_TEXT)]) == 0
    expected = capsys.readouterr().out
    assert main(["verify", _write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == expected


SWAP_2_R = [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]


@pytest.mark.parametrize(
    "r, n, message",
    [
        (SWAP_2_R, True, '"n" must be an integer'),
        ([[[0.9, 0], [1, 0]], [[0, 1], [1, 1]]], 2, '"r" entries must be integers, got 0.9'),
        ([["10", [1, 0]], [[0, 1], [1, 1]]], 2, '"r" entries must be [first, second] pairs'),
        ([[[0, 0, 1], [1, 0]], [[0, 1], [1, 1]]], 2, '"r" entries must be [first, second] pairs'),
        ([[[0, True], [1, 0]], [[0, 1], [1, 1]]], 2, '"r" entries must be integers, got True'),
        pytest.param(DEEP_ARRAY, 1, "nested too deeply", id="r nested 200000 deep"),
        pytest.param(
            "[[[0, 0], [1, 0]], [[0, 1], [1, %s]]]" % DEEP_900,
            2,
            '"r" entries must be integers, got an array',
            id="r cell nested 900 deep",
        ),
        pytest.param(SWAP_2_R, DEEP_900, '"n" must be an integer, got an array', id="n nested 900 deep"),
        pytest.param(
            [[[LONG, 0], [1, 0]], [[0, 1], [1, 1]]],
            2,
            '"r" entries must be integers, got \'aaa',
            id="r pair member string of 100000 characters",
        ),
        pytest.param(
            SWAP_2_R,
            DIGITS_4000,
            "map table must be 9999999999999999999999999999999999999999... (4000 digits)x",
            id="n of 4000 digits",
        ),
        pytest.param(
            "[[[0, 0], [1, 0]], [[0, 1], [1, %s]]]" % DIGITS_4000,
            2,
            "output (1, 9999999999999999999999999999999999999999... (4000 digits)) is not a pair",
            id="r pair member of 4000 digits",
        ),
        pytest.param(
            SWAP_2_R,
            DIGITS_5000,
            "an integer in the JSON has more than 4300 digits",
            id="n of 5000 digits",
        ),
        pytest.param(
            "[[[0, 0], [1, 0]], [[0, 1], [1, %s]]]" % DIGITS_5000,
            2,
            "an integer in the JSON has more than 4300 digits",
            id="r pair member of 5000 digits",
        ),
    ],
)
def test_malformed_rmap_json_exits_2(r, n, message, tmp_path, capsys):
    """`r` and `n` are the JSON text of their fields, or objects to encode."""
    path = tmp_path / "bad_r.json"
    r, n = (v if isinstance(v, str) else json.dumps(v) for v in (r, n))
    path.write_text('{"n": %s, "r": %s}' % (n, r))
    assert main(["check-ybe", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err) < 200
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv", [["check-ybe", "F", "--jobs", "2"], ["enumerate", "--order", "4", "--jobs", "2"]]
)
def test_jobs_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def _product_table(t1, t2):
    """Cayley table of the direct product; (a1, a2) is element a1 * n2 + a2."""
    n2 = len(t2)
    n = len(t1) * n2
    return [
        [t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(n)]
        for a in range(n)
    ]


def _witness_inputs(tmp_path):
    """A seeded order-16 pair of group tables that is not a brace, and the
    R-map of an order-16 brace with 16 seeded entries changed."""
    rng = random.Random(16)
    z4, v4 = sb.cyclic_group(4).table, sb.klein_four_group().table
    other = _product_table(v4, v4)
    p = [0] + rng.sample(range(1, 16), 15)
    q = [p.index(i) for i in range(16)]
    circ = [[p[other[q[a]][q[b]]] for b in range(16)] for a in range(16)]
    pair = tmp_path / "pair16.json"
    pair.write_text(json.dumps({"n": 16, "dot": _product_table(z4, z4), "circ": circ}))

    brace = sb.SkewBrace(
        sb.GroupTable(16, _product_table(z4, z4)), sb.GroupTable(16, _product_table(v4, v4))
    )
    rows = [list(row) for row in sb.build_r(brace).r]
    for cell in rng.sample(range(256), 16):
        a, b = divmod(cell, 16)
        new = rows[a][b]
        while new == rows[a][b]:
            new = (rng.randrange(16), rng.randrange(16))
        rows[a][b] = new
    rmap = tmp_path / "rmap16.json"
    rmap.write_text(sb.rmap_to_json(sb.YbeMap(16, rows)))
    return {"verify": str(pair), "check-ybe": str(rmap)}


#: (sha256, line count) of stdout for `verify` and `check-ybe` with
#: --all-witnesses on the inputs above, pinned when every witness was
#: printed with its own print call.
ALL_WITNESSES_PINS = {
    "verify": ("f870aa7846cf06986551c08e4be0ddb43e2a33f16e7d53afb0784b2705d8c849", 15938),
    "check-ybe": ("3f6bdb96280faff37d3460918c5e1fec8058e1391cbfac9584efe0a3724af8d8", 878),
}

#: stdout of the same commands without --all-witnesses.
FIRST_WITNESS_OUTPUT = {
    "verify": (
        "compatibility: FAIL witness=(1, 1, 1)\n"
        "inverse product (Lemma 1): FAIL witness=(1, 1)\n"
        "sigma homomorphism (Proposition 1): FAIL witness=(1, 1, 1)\n"
        "tau anti-homomorphism (Proposition 2): FAIL witness=(1, 1, 1)\n"
        "sigma twisted product: FAIL witness=(1, 1, 1)\n"
        "product preservation: PASS\n"
        "sigma automorphism: FAIL witness=(1, 1, 1)\n"
    ),
    "check-ybe": "yang-baxter: FAIL witness=(0, 0, 10)\n",
}


@pytest.mark.parametrize("command", sorted(ALL_WITNESSES_PINS))
def test_all_witnesses_stream_pinned(command, tmp_path, capsys):
    path = _witness_inputs(tmp_path)[command]
    assert main([command, path, "--all-witnesses"]) == 1
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == ALL_WITNESSES_PINS[command]


@pytest.mark.parametrize("command", sorted(FIRST_WITNESS_OUTPUT))
def test_first_witness_output_pinned(command, tmp_path, capsys):
    path = _witness_inputs(tmp_path)[command]
    assert main([command, path]) == 1
    assert capsys.readouterr().out == FIRST_WITNESS_OUTPUT[command]


@pytest.mark.parametrize("block_lines", [1, 7])
@pytest.mark.parametrize("command", sorted(ALL_WITNESSES_PINS))
def test_all_witnesses_stream_independent_of_block_size(
    command, block_lines, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "WITNESS_BLOCK_LINES", block_lines)
    path = _witness_inputs(tmp_path)[command]
    assert main([command, path, "--all-witnesses"]) == 1
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == ALL_WITNESSES_PINS[command]


@pytest.mark.parametrize("n", [1, 2, 10, 11, 101])
@pytest.mark.parametrize("arity", [2, 3])
def test_print_witnesses_matches_percent_d_reference(n, arity, capsys):
    """Witness lines equal the "%d" template at every label width, up to
    three digits; the pinned streams above stop at order 16."""
    rng = random.Random(n * 10 + arity)
    corners = sorted({v for v in (0, 1, n // 2, n - 2, n - 1, 9, 10, 99, 100) if 0 <= v < n})
    witnesses = list(itertools.product(corners, repeat=arity))
    witnesses += [tuple(rng.randrange(n) for _ in range(arity)) for _ in range(3000)]
    cli._print_witnesses("sweep", n, witnesses[0], iter(witnesses[1:]))
    line = f"sweep: FAIL witness=({', '.join(['%d'] * arity)})\n"
    assert capsys.readouterr().out == "".join(line % w for w in witnesses)


def test_reused_parser_keeps_no_state_between_calls(xor_file, tmp_path, capsys):
    """One process runs a sequence of `main` calls on the one cached parser;
    each call's stdout, stderr and exit code equal those of the same call
    made on its own, with a freshly built parser."""
    pair = _witness_inputs(tmp_path)["verify"]
    sequence = [
        ["check-ybe", xor_file, "--jobs", "2"],
        ["maps", xor_file, "--element", "1"],
        ["maps", xor_file],
        ["verify", pair, "--all-witnesses"],
        ["verify", pair],
        ["check-ybe", xor_file],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    assert [run(argv) for argv in sequence] == alone
    assert cli.build_parser() is parser

    codes = [code for code, _, _ in alone]
    assert codes == [2, 0, 0, 1, 1, 0]
    assert alone[2][1].count("sigma[") == 4
    assert alone[4][1] == FIRST_WITNESS_OUTPUT["verify"]
