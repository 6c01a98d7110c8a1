"""Property tests: the two YBE evaluators, isomorphism, canonical forms, and
the CLI's handling of malformed input."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewbrace as sb
from skewbrace.cli import main
from skewbrace.ybe import YbeMap


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


@pytest.fixture(scope="module")
def catalogs(raw_catalogs, raw_catalog_8):
    return {**{n: c.braces for n, c in raw_catalogs.items()}, 8: raw_catalog_8.braces}


def _transport(brace, tail):
    """The brace relabelled by p = (0, *tail), a bijection fixing 0."""
    p = (0, *tail)
    n = brace.n

    def move(table):
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[p[a]][p[b]] = p[table[a][b]]
        return sb.GroupTable(n, rows)

    return sb.SkewBrace(move(brace.dot.table), move(brace.circ.table))


def _draw_relabelled(data, braces):
    brace = data.draw(st.sampled_from(braces))
    return _transport(brace, data.draw(st.permutations(range(1, brace.n))))


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
