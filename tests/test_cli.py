"""CLI subcommands: exit codes, reports, witnesses, and output determinism."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import _ref_ybe_rows

import skewbrace as sb
from skewbrace import braces, cli, groups, ybe
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


#: The cache of R's sigma/tau tables. cache_clear() empties it and its
#: counts, so that an equal pair left by an earlier call is no hit, and
#: cache_info().misses then counts the builds.
SIGMA_TAU = braces._sigma_tau_tables


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{brace}"],
        ["verify", "{pair}"],
        ["verify", "{pair}", "--all-witnesses"],
        ["maps", "{brace}"],
        ["maps", "{brace}", "--format", "json"],
        ["r-map", "{brace}"],
        ["check-ybe", "{brace}"],
        ["maps", "{brace}", "--element", "1"],
        ["maps", "{brace}", "--element", "3", "--format", "json"],
    ],
)
def test_one_sigma_tau_build_per_command(argv, tmp_path, capsys):
    """verify (five sweeps read S and U), r-map and check-ybe each build the
    sigma/tau tables of the file's pair once; maps builds none, since each
    permutation is built alone, and with --element its two rows are the
    per-definition sigma_x and tau_x."""
    brace = tmp_path / "brace.json"
    brace.write_text(XOR_BRACE_JSON)
    pair = tmp_path / "pair.json"
    pair.write_text(BAD_PAIR_JSON)
    SIGMA_TAU.cache_clear()
    code = main([arg.format(brace=brace, pair=pair) for arg in argv])
    assert code == (1 if "{pair}" in argv else 0)
    assert SIGMA_TAU.cache_info().misses == (0 if argv[0] == "maps" else 1)
    if "--element" not in argv:
        return
    x = int(argv[argv.index("--element") + 1])
    xor = sb.parse_brace_json(XOR_BRACE_JSON)
    sigma = [sb.sigma(xor, x, y) for y in range(4)]
    tau = [sb.tau(xor, x, y) for y in range(4)]
    out = capsys.readouterr().out
    if "json" in argv:
        assert json.loads(out) == {"n": 4, "maps": [{"element": x, "sigma": sigma, "tau": tau}]}
    else:
        assert out == f"sigma[{x}] = {' '.join(map(str, sigma))}\ntau[{x}] = {' '.join(map(str, tau))}\n"


def test_one_sigma_tau_build_across_commands_on_one_file(tmp_path):
    """verify, check-ybe and r-map on one brace file in one process build
    the sigma/tau tables once: each command parses its own equal pair, and
    the cache is keyed by value."""
    brace = tmp_path / "brace.json"
    brace.write_text(XOR_BRACE_JSON)
    SIGMA_TAU.cache_clear()
    for command in ("verify", "check-ybe", "r-map"):
        assert main([command, str(brace)]) == 0
    assert SIGMA_TAU.cache_info().misses == 1


def test_maps_json_format(xor_file, capsys):
    assert main(["maps", xor_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["maps"][1]["sigma"] == [0, 3, 2, 1]


@pytest.mark.parametrize("order, element", [(1, None), (8, None), (8, 5)])
def test_maps_json_is_the_indented_encoding(tmp_path, capsys, raw_catalog_8, order, element):
    """`maps --format json` writes exactly json.dumps(payload, indent=1)."""
    brace = raw_catalog_8.braces[100] if order == 8 else sb.trivial_brace(sb.cyclic_group(1))
    path = tmp_path / "brace.json"
    path.write_text(brace_to_json(brace))
    argv = ["maps", str(path), "--format", "json"]
    assert main(argv if element is None else [*argv, "--element", str(element)]) == 0
    payload = {
        "n": brace.n,
        "maps": [
            {
                "element": x,
                "sigma": list(sb.sigma_perm(brace, x).image),
                "tau": list(sb.tau_perm(brace, x).image),
            }
            for x in (range(brace.n) if element is None else [element])
        ],
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=1) + "\n"


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


@pytest.mark.parametrize("up_to_iso", [[], ["--up-to-iso"]], ids=["raw", "iso"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_enumerate_oracle_matches_search(tmp_path, capsys, order, up_to_iso):
    """Both routes write the same catalog bytes and the same order=, raw=
    and iso= fields on stderr."""
    outputs = []
    for route in ([], ["--oracle"]):
        path = tmp_path / f"catalog{len(outputs)}.json"
        argv = ["enumerate", "--order", str(order), *up_to_iso, *route, "--output", str(path)]
        assert main(argv) == 0
        summary = capsys.readouterr().err.split(" elapsed=")[0]
        outputs.append((path.read_bytes(), summary))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith(f"order={order} raw=")


def test_enumerate_byte_identical_across_runs(tmp_path):
    outs = []
    for i in range(2):
        path = tmp_path / f"cat{i}.json"
        argv = ["enumerate", "--order", "4", "--up-to-iso", "--output", str(path)]
        assert main(argv) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_enumerate_order_too_large():
    assert main(["enumerate", "--order", "16"]) == 2
    assert main(["enumerate", "--order", "6", "--oracle"]) == 2


def test_enumerate_order_12(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--order", "12", "--up-to-iso", "--output", str(out)]) == 0
    assert "order=12 raw=116 iso=38 elapsed=" in capsys.readouterr().err
    assert json.loads(out.read_text())["count"] == 38


def test_enumerate_summary_counts(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--order", "4", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "order=4 raw=6 iso=4 elapsed=" in err
    payload = json.loads(out.read_text())
    assert payload["count_raw"] == 6
    assert payload["count_up_to_iso"] == 4


def test_enumerate_up_to_iso_validates_only_orbit_representatives(tmp_path):
    """A cold `enumerate --order 8 --up-to-iso` validates at most two
    SkewBraces per isomorphism class (47): the first table found of each
    Aut(dot)-orbit and its canonical form. Building and validating the 314
    raw braces first would make 361. Counted through SkewBrace.__post_init__
    in a fresh interpreter, so that no cache of this process is warm."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, sys\n"
        "from skewbrace import braces, cli\n"
        "calls = []\n"
        "check = braces.SkewBrace.__post_init__\n"
        "def counted(self):\n"
        "    calls.append(None)\n"
        "    check(self)\n"
        "braces.SkewBrace.__post_init__ = counted\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = cli.main(sys.argv[1:])\n"
        "print(rc, len(calls))\n"
    )
    argv = ["enumerate", "--order", "8", "--up-to-iso", "--output", str(tmp_path / "cat.json")]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    rc, constructed = map(int, out.split())
    assert rc == 0
    assert 47 <= constructed <= 2 * 47


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


#: What every command reports for an object with only one of a brace's
#: table fields: check-ybe reads it as a brace, not as an R-map.
BRACE_FIELDS = 'expected an object with fields "n", "dot" and "circ"'
#: What each command reports for JSON that is not an object.
NOT_AN_OBJECT = dict.fromkeys(["verify", "maps", "r-map"], BRACE_FIELDS) | {
    "check-ybe": 'expected JSON with an "r" field or "dot"/"circ" fields'
}


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
        pytest.param(
            '{"n": 2, "dot": [[0, 1], [1, 0]], "circ": [[0, 1], [1, 0]],'
            ' "circ": [[0, 1], [1, 0]], "n": 2}',
            "invalid JSON: duplicate key 'circ'",
            id="circ and n given twice",
        ),
        pytest.param(
            '{"n": 1, "dot": [[0]], "circ": [[0]], "meta": {"a": 1, "a": 2}}',
            "invalid JSON: duplicate key 'a'",
            id="key repeated in a nested object",
        ),
        pytest.param(
            '{"n": 1, "dot": [[0]], "circ": [[0]], "%s": 0, "%s": 1}' % (LONG, LONG),
            "invalid JSON: duplicate key 'aaa",
            id="key of 100000 characters given twice",
        ),
        pytest.param({"n": 1, "dot": [[0]]}, BRACE_FIELDS, id="dot without circ"),
        pytest.param({"n": 1, "circ": [[0]]}, BRACE_FIELDS, id="circ without dot"),
        pytest.param("[1, 2]", NOT_AN_OBJECT, id="JSON array"),
        pytest.param(" \n\t[[0]]", NOT_AN_OBJECT, id="JSON array after whitespace"),
        pytest.param(
            "\ufeff" + json.dumps({"n": 1, "dot": [[0]], "circ": [[0]]}),
            "invalid JSON: Unexpected UTF-8 BOM",
            id="JSON object after a byte-order mark",
        ),
    ],
)
@pytest.mark.parametrize("command", ["verify", "check-ybe", "maps", "r-map"])
def test_malformed_brace_json_exits_2(command, payload, message, tmp_path, capsys):
    """`payload` is the JSON text itself, or an object to encode; `message`
    is the expected text, or a dict of it by command."""
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert (message[command] if isinstance(message, dict) else message) in err
    assert "table blocks" not in err
    assert len(err) < 200
    assert "set_int_max_str_digits" not in err


def _write(tmp_path, text):
    path = tmp_path / "brace.txt"
    path.write_text(text)
    return str(path)


XOR_BRACE_TEXT = "4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n\n4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"

#: Characters that str.splitlines or str.split take for a line end or for
#: whitespace, but that the text formats do not: only LF, CRLF and CR end a
#: line, and only spaces and tabs separate entries or make a line blank.
NOT_SEPARATORS = {
    "VT": "\x0b", "FF": "\x0c", "FS": "\x1c", "NEL": "\x85", "LS": "\u2028", "NBSP": "\xa0"
}
SEPARATOR_CASES = {
    f"{name} {where}": (old, new.replace("#", char), message)
    for name, char in NOT_SEPARATORS.items()
    for where, old, new, message in [
        ("between entries", "3 2 1 0\n", "3 2 1#0\n", "entries must be non-negative decimal"),
        ("ending a line", "1 0 3 2\n", "1 0 3 2#", "expected 4 table rows, got 3"),
        ("as a blank line", "\n\n", "\n#\n", "expected two table blocks separated by a blank"),
    ]
}


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
        *SEPARATOR_CASES.values(),
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
        *SEPARATOR_CASES,
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


def test_rmap_json_with_a_repeated_key_exits_2(tmp_path, capsys):
    """json keeps the last of two "r" fields; a repeated key is an input
    error instead, whichever map it would have kept."""
    path = tmp_path / "two_r.json"
    r = json.dumps(SWAP_2_R)
    path.write_text('{"n": 2, "r": %s, "r": %s}' % (r, r))
    assert main(["check-ybe", str(path)]) == 2
    assert "invalid JSON: duplicate key 'r'" in capsys.readouterr().err


@pytest.mark.parametrize("tables", [("dot", "circ"), ("circ",)], ids=["dot and circ", "circ"])
def test_rmap_json_with_brace_fields_too_exits_2(tables, tmp_path, capsys):
    """An object with an "r" field and a brace's table fields could be read
    either way, so check-ybe reads it neither way."""
    path = tmp_path / "both.json"
    obj = {**json.loads(XOR_BRACE_JSON), "r": [[[b, a] for b in range(4)] for a in range(4)]}
    path.write_text(json.dumps({k: obj[k] for k in ("n", "r", *tables)}))
    assert main(["check-ybe", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"r"' in err and '"dot"/"circ"' in err


@pytest.mark.parametrize(
    "argv", [["check-ybe", "F", "--jobs", "2"], ["enumerate", "--order", "4", "--jobs", "2"]]
)
def test_jobs_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


#: A 4,000-digit value cut by groups._cut_int, and a 5,000-digit one (too
#: long for int()) quoted and cut by groups._quote.
CUT_9S = "9" * 40 + "..."
QUOTED_5000 = "invalid int value: '" + "9" * 39 + "... (5000 characters)"


@pytest.mark.parametrize(
    "option, value, usage, message",
    [
        ("--order", "٣", True, "argument --order: invalid int value: '٣'"),
        ("--order", "+3", True, "argument --order: invalid int value: '+3'"),
        ("--order", " 3", True, "argument --order: invalid int value: ' 3'"),
        ("--order", "1_0", True, "argument --order: invalid int value: '1_0'"),
        ("--order", DIGITS_4000, False, f"order {CUT_9S} (4000 digits) exceeds the supported"),
        ("--order", DIGITS_5000, True, QUOTED_5000),
        ("--element", "١", True, "argument --element: invalid int value: '١'"),
        ("--element", "0_1", True, "argument --element: invalid int value: '0_1'"),
        ("--element", DIGITS_4000, False, f"element {CUT_9S} (4000 digits) is outside 0..3"),
        ("--element", DIGITS_5000, True, QUOTED_5000),
        # Messages that read the same before the options took ASCII digits only.
        ("--order", "x", True, "argument --order: invalid int value: 'x'"),
        ("--order", "-1", False, "error: order must be at least 1, got -1\n"),
        ("--element", "x", True, "argument --element: invalid int value: 'x'"),
        ("--element", "-1", False, "error: element -1 is outside 0..3\n"),
    ],
    ids=[
        "order arabic-indic 3",
        "order +3",
        "order space 3",
        "order 1_0",
        "order of 4000 digits",
        "order of 5000 digits",
        "element arabic-indic 1",
        "element 0_1",
        "element of 4000 digits",
        "element of 5000 digits",
        "order x",
        "order -1",
        "element x",
        "element -1",
    ],
)
def test_integer_options_take_ascii_digits_only(option, value, usage, message, xor_file, capsys):
    """`usage` is set where argparse refuses the value and exits."""
    if option == "--order":
        argv = ["enumerate", "--up-to-iso", "--order", value]
    else:
        argv = ["maps", xor_file, "--element", value]
    if usage:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
    else:
        code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    # argparse writes its usage lines before the error line.
    assert max(map(len, err.splitlines())) < 200
    assert "set_int_max_str_digits" not in err


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


def test_all_witnesses_builds_line_tails_once_per_arity(tmp_path, capsys):
    """verify --all-witnesses reports five failing identities in three
    variables and one in two on one carrier: their witness line tails are
    built twice, once per arity, and the stream keeps its pinned bytes."""
    path = _witness_inputs(tmp_path)["verify"]
    cli._line_tails.cache_clear()
    assert main(["verify", path, "--all-witnesses"]) == 1
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == ALL_WITNESSES_PINS["verify"]
    info = cli._line_tails.cache_info()
    assert (info.misses, info.hits) == (2, 4)


@pytest.mark.parametrize("command", sorted(FIRST_WITNESS_OUTPUT))
def test_first_witness_output_pinned(command, tmp_path, capsys):
    path = _witness_inputs(tmp_path)[command]
    assert main([command, path]) == 1
    assert capsys.readouterr().out == FIRST_WITNESS_OUTPUT[command]


@pytest.mark.parametrize("command", sorted(ALL_WITNESSES_PINS))
def test_all_witnesses_masks_each_failing_row_once(command, tmp_path, capsys, monkeypatch):
    """With --all-witnesses every failing row is masked once, the first
    included: _report takes the arity from the first row's side length, not
    from a witness of its own. Both names of _differing are counted."""
    path = _witness_inputs(tmp_path)[command]
    if command == "verify":
        dot, circ = cli._load_brace_tables(path)
        failing = sum(len(list(sweep(dot, circ))) for _, sweep in braces.IDENTITY_SUITE)
    else:
        failing = len(list(ybe.ybe_violations(cli._load_rmap(path))))
    differing, calls = groups._differing, []

    def counting(lhs, rhs):
        calls.append(None)
        return differing(lhs, rhs)

    monkeypatch.setattr(cli, "_differing", counting)
    monkeypatch.setattr(groups, "_differing", counting)
    assert main([command, path, "--all-witnesses"]) == 1
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == ALL_WITNESSES_PINS[command]
    assert failing > 0
    assert len(calls) == failing


@pytest.mark.parametrize("form", ["bytes", "tuples"])
def test_ybe_rows_of_the_pinned_input_carry_both_sides(form, tmp_path, monkeypatch):
    """check-ybe's pinned order-16 input yields, in either row form, the
    failing rows that the reference evaluates cell by cell."""
    with open(_witness_inputs(tmp_path)["check-ybe"]) as f:
        rmap = sb.parse_rmap_json(f.read())
    if form == "tuples":
        monkeypatch.setattr(ybe, "_row_form", lambda n: groups._TUPLE_FORM)
    rows = list(ybe.ybe_violations(rmap))
    assert [(a, tuple(lhs), tuple(rhs)) for a, lhs, rhs in rows] == list(_ref_ybe_rows(rmap))
    assert len(list(groups._witnesses(16, rows))) == ALL_WITNESSES_PINS["check-ybe"][1]


@pytest.mark.parametrize("n", [1, 2, 10, 11, 101])
@pytest.mark.parametrize("arity", [2, 3])
def test_print_witnesses_matches_percent_d_reference(n, arity, capsys):
    """A set of witnesses, given as rows whose cells are tuples (a
    Yang-Baxter row holds a triple per cell), prints as the "%d" lines of
    the witnesses in lexicographic order, at every label width up to three
    digits; the pinned streams above stop at order 16."""
    rng = random.Random(n * 10 + arity)
    corners = sorted({v for v in (0, 1, n // 2, n - 2, n - 1, 9, 10, 99, 100) if 0 <= v < n})
    witnesses = set(itertools.product(corners, repeat=arity))
    witnesses |= {tuple(rng.randrange(n) for _ in range(arity)) for _ in range(3000)}
    cells = list(itertools.product(range(n), repeat=arity - 1))
    rows = []
    for x in sorted({w[0] for w in witnesses}):
        lhs = tuple((x, *cell) for cell in cells)
        rhs = tuple((-1, *w) if w in witnesses else w for w in lhs)
        rows.append((x, lhs, rhs))
    cli._print_rows("sweep", n, arity, iter(rows))
    line = f"sweep: FAIL witness=({', '.join(['%d'] * arity)})\n"
    assert capsys.readouterr().out == "".join(line % w for w in sorted(witnesses))


def _ref_witnesses(n, arity, rows):
    """(x, *cell) for each cell, in order, of each row (x, lhs, rhs) whose
    two sides differ there, compared in Python one cell at a time."""
    for x, lhs, rhs in rows:
        cells = itertools.product(range(n), repeat=arity - 1)
        yield from ((x, *cell) for cell, l, r in zip(cells, lhs, rhs) if l != r)


#: How the two sides of a failing cell differ, as (lhs, rhs) made from the
#: left side's value v: in the lowest or the highest bit alone, or as 0
#: against 255 either way round. A mask made by XOR must mark each.
BYTE_DIFFERENCES = [
    lambda v: (v, v ^ 1),
    lambda v: (v, v ^ 0x80),
    lambda v: (0, 255),
    lambda v: (255, 0),
]


def _sides_differing_at(rng, size, mask, parts=1):
    """Two sides of `parts` random byte strings of `size` cells each, equal
    but at the cells of the mask; at each of those one part, picked at
    random, differs in one of the BYTE_DIFFERENCES ways, picked in turn."""
    lhs = [bytearray(rng.randbytes(size)) for _ in range(parts)]
    rhs = [bytearray(part) for part in lhs]
    for k, i in enumerate(sorted(mask)):
        part = rng.randrange(parts)
        lhs[part][i], rhs[part][i] = BYTE_DIFFERENCES[k % len(BYTE_DIFFERENCES)](lhs[part][i])
    return list(map(bytes, lhs)), list(map(bytes, rhs))


def _tuple_rows(rows):
    return [(x, tuple(lhs), tuple(rhs)) for x, lhs, rhs in rows]


@pytest.mark.parametrize("n", [1, 2, 10, 11, 101])
@pytest.mark.parametrize("arity", [2, 3])
def test_print_rows_matches_percent_d_reference(n, arity, capsys):
    """verify's row writer prints, for each row (x, lhs, rhs), the "%d"
    line of (x, *cell) for every cell where the sides differ, in cell
    order: rows with no, one and every failing cell, whose failing cells
    differ by one, in one bit alone or as 0 against 255, at every label
    width up to three digits. The same rows as tuples (the row form above
    256 elements) print the same lines, and _witnesses gives the same
    cells in both forms."""
    rng = random.Random(n * 10 + arity)
    cells = list(itertools.product(range(n), repeat=arity - 1))
    corners = sorted({v for v in (0, 1, n // 2, n - 2, n - 1, 9, 10, 99, 100) if 0 <= v < n})
    masks = [set(), {0}, {len(cells) - 1}, {len(cells) // 2}, set(range(len(cells)))]
    masks += [set(rng.sample(range(len(cells)), rng.randrange(len(cells) + 1))) for _ in range(5)]
    rows = []
    for x in corners:
        for mask in masks:
            lhs = bytes(rng.randrange(n) for _ in cells)
            rhs = bytes((v + 1) % 256 if i in mask else v for i, v in enumerate(lhs))
            rows.append((x, lhs, rhs))
    for x in corners:
        for mask in masks[1:5]:
            [lhs], [rhs] = _sides_differing_at(rng, len(cells), mask)
            rows.append((x, lhs, rhs))
    line = f"sweep: FAIL witness=({', '.join(['%d'] * arity)})\n"
    expected = list(_ref_witnesses(n, arity, rows))
    cli._print_rows("sweep", n, arity, iter(rows))
    cli._print_rows("sweep", n, arity, iter(_tuple_rows(rows)))
    assert capsys.readouterr().out == "".join(line % w for w in expected) * 2
    # _witnesses reads sides of n cells as b and of n^2 as (y, z); on one
    # element, where the two agree, it gives the shorter tuple.
    expected = list(_ref_witnesses(n, 2 if n == 1 else arity, rows))
    assert list(groups._witnesses(n, rows)) == expected
    assert list(groups._witnesses(n, _tuple_rows(rows))) == expected


@pytest.mark.parametrize("n", [1, 2, 10, 16, 17])
@pytest.mark.parametrize("form", ["bytes", "tuples"])
def test_triple_rows_match_per_cell_reference(n, form, capsys):
    """Yang-Baxter rows, whose sides are groups._Triples of three parts,
    with failing cells where one part alone differs, in one bit or as 0
    against 255, in byte parts and in tuple parts: _print_rows prints the
    "%d" line and _witnesses gives the triple of every cell a per-cell
    comparison of the triples finds, in order."""
    rng = random.Random(n)
    size = n * n
    masks = [set(), {0}, {size - 1}, {size // 2}, set(range(size))]
    masks += [set(rng.sample(range(size), rng.randrange(size + 1))) for _ in range(3)]
    line = bytes if form == "bytes" else tuple
    rows = []
    for x in sorted({0, n // 2, n - 1}):
        for mask in masks:
            lhs, rhs = _sides_differing_at(rng, size, mask, parts=3)
            rows.append((x, groups._Triples(*map(line, lhs)), groups._Triples(*map(line, rhs))))
    assert all(type(part) is line for _, *sides in rows for side in sides for part in side.parts)
    cli._print_rows("yang-baxter", n, 3, iter(rows))
    expected = list(_ref_witnesses(n, 3, rows))
    assert capsys.readouterr().out == "".join(
        "yang-baxter: FAIL witness=(%d, %d, %d)\n" % w for w in expected
    )
    if n > 1:
        assert list(groups._witnesses(n, rows)) == expected


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
