"""The package's value types behave as immutable records, and importing the
CLI stays light."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from skewbrace.braces import CheckResult, EquivalenceResult, IdentityReport, SkewBrace
from skewbrace.groups import GroupTable, PermMap
from skewbrace.search import BraceCatalog
from skewbrace.ybe import YbeMap

Z2 = ((0, 1), (1, 0))
SWAP_2 = (((0, 0), (1, 0)), ((0, 1), (1, 1)))


def _z2():
    return GroupTable(n=2, table=Z2)


def _brace():
    return SkewBrace(dot=_z2(), circ=_z2())


#: (keyword constructor, fields by name in order, repr) for every record type.
RECORDS = {
    "PermMap": (
        lambda: PermMap(n=3, image=(0, 2, 1)),
        {"n": 3, "image": (0, 2, 1)},
        "PermMap(n=3, image=(0, 2, 1))",
    ),
    "GroupTable": (_z2, {"n": 2, "table": Z2}, "GroupTable(n=2, table=((0, 1), (1, 0)))"),
    "CheckResult": (
        lambda: CheckResult(ok=False, witness=(1, 0, 1)),
        {"ok": False, "witness": (1, 0, 1)},
        "CheckResult(ok=False, witness=(1, 0, 1))",
    ),
    "SkewBrace": (
        _brace,
        {"dot": _z2(), "circ": _z2()},
        "SkewBrace(dot=GroupTable(n=2, table=((0, 1), (1, 0))), "
        "circ=GroupTable(n=2, table=((0, 1), (1, 0))))",
    ),
    "IdentityReport": (
        lambda: IdentityReport(name="compatibility", result=CheckResult(ok=True)),
        {"name": "compatibility", "result": CheckResult(True)},
        "IdentityReport(name='compatibility', result=CheckResult(ok=True, witness=None))",
    ),
    "EquivalenceResult": (
        lambda: EquivalenceResult(
            compatibility=CheckResult(ok=True), homomorphism=CheckResult(ok=False, witness=(1, 1))
        ),
        {"compatibility": CheckResult(True), "homomorphism": CheckResult(False, (1, 1))},
        "EquivalenceResult(compatibility=CheckResult(ok=True, witness=None), "
        "homomorphism=CheckResult(ok=False, witness=(1, 1)))",
    ),
    "BraceCatalog": (
        lambda: BraceCatalog(order=2, braces=(_brace(),), up_to_iso=True),
        {"order": 2, "braces": (_brace(),), "up_to_iso": True},
        "BraceCatalog(order=2, braces=(SkewBrace(dot=GroupTable(n=2, table=((0, 1), (1, 0))), "
        "circ=GroupTable(n=2, table=((0, 1), (1, 0)))),), up_to_iso=True)",
    ),
    "YbeMap": (
        lambda: YbeMap(n=2, r=SWAP_2),
        {"n": 2, "r": SWAP_2},
        "YbeMap(n=2, r=(((0, 0), (1, 0)), ((0, 1), (1, 1))))",
    ),
}

records = pytest.mark.parametrize("kind", sorted(RECORDS))


@records
def test_record_keyword_construction_and_equality(kind):
    make, fields, _ = RECORDS[kind]
    a, b = make(), make()
    assert a is not b
    assert {name: getattr(a, name) for name in fields} == fields
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert type(a)(*fields.values()) == a
    values = tuple(fields.values())
    assert a != values and not a == values
    assert a.__eq__(values) is NotImplemented


@records
def test_record_repr(kind):
    make, _, text = RECORDS[kind]
    assert repr(make()) == text


@records
def test_record_is_immutable(kind):
    make, fields, _ = RECORDS[kind]
    record = make()
    name = next(iter(fields))
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


@records
@pytest.mark.parametrize(
    "round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy]
)
def test_record_pickle_and_copy(kind, round_trip):
    record = RECORDS[kind][0]()
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)
    with pytest.raises(AttributeError):
        again.extra = 1


def test_check_result_witness_defaults_to_none():
    assert CheckResult(True) == CheckResult(ok=True, witness=None)
    assert repr(CheckResult(True)) == "CheckResult(ok=True, witness=None)"
    assert not CheckResult(False, (0, 1))


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((2, Z2, None), {}, r"^GroupTable\(\) takes 2 arguments, got 3$"),
        ((2,), {"rows": Z2}, r"^GroupTable\(\) got an unknown or repeated argument 'rows'$"),
        ((2, Z2), {"n": 2}, r"^GroupTable\(\) got an unknown or repeated argument 'n'$"),
        ((), {"table": Z2}, r"^GroupTable\(\) missing argument 'n'$"),
    ],
    ids=["too many positional", "unknown keyword", "field given twice", "missing field"],
)
def test_record_constructor_rejects_a_bad_call(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        GroupTable(*args, **kwargs)


def test_record_constructor_binds_position_keyword_and_default():
    assert GroupTable(2, table=Z2) == GroupTable(table=Z2, n=2) == _z2()
    assert CheckResult(ok=False) == CheckResult(False, None)
    with pytest.raises(TypeError, match=r"^CheckResult\(\) missing argument 'ok'$"):
        CheckResult(witness=(0, 1))


def test_post_init_patched_on_the_class_runs_once_per_construction(monkeypatch):
    """A wrapper put on GroupTable.__post_init__ (as the benchmark's tracer
    does) sees every construction, by position or by keyword, exactly once."""
    calls = []
    original = GroupTable.__post_init__

    def traced(self):
        calls.append(self.n)
        original(self)

    monkeypatch.setattr(GroupTable, "__post_init__", traced)
    table = GroupTable(2, Z2)
    assert table.inv == (0, 1)
    GroupTable(n=2, table=Z2)
    assert calls == [2, 2]


def test_canonical_brace_of_order_1_is_the_brace_itself():
    """Order 1 takes canonical_brace's general path, through one-index
    gathers, and gives the brace back."""
    from skewbrace.search import canonical_brace

    one = GroupTable(1, ((0,),))
    brace = SkewBrace(one, one)
    assert canonical_brace(brace) == brace


def test_group_table_inv_is_computed_and_not_compared():
    table = _z2()
    assert table.inv == (0, 1)
    other = _z2()
    object.__setattr__(other, "inv", (1, 0))
    assert table == other and hash(table) == hash(other)
    assert "inv" not in repr(table)
    assert pickle.loads(pickle.dumps(table)).inv == (0, 1)
    assert copy.deepcopy(table).inv == (0, 1)
    with pytest.raises(AttributeError):
        table.inv = (1, 0)


def test_cli_import_does_not_load_dataclasses_or_inspect():
    """`python -m skewbrace.cli` pays for every module it imports at start-up;
    -S keeps the site-packages .pth hooks out of the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import skewbrace.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
