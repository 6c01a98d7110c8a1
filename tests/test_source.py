"""Checks on the package source itself: no unused imports, a pinned public
API, so that a deletion leaves no debris and a removed public name shows in
the diff, no syntax newer than the oldest Python the package supports, no test
oracle in the package, identity and Yang-Baxter sweeps that compare whole
rows, and a bench tracer that still finds the functions it wraps."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewbrace as sb
from skewbrace import braces, groups

PACKAGE = Path(sb.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ORACLES = Path(__file__).parent / "oracles.py"

#: skewbrace.__all__, spelled out. Removing or renaming a public name must
#: change this list, and the change is recorded with its replacement.
PUBLIC_NAMES = [
    "__version__",
    "BraceCatalog",
    "BraceError",
    "CarrierMismatchError",
    "CheckResult",
    "GroupTable",
    "GroupTableError",
    "IdentityViolationError",
    "NotABraceError",
    "NotAssociativeError",
    "NotLatinError",
    "OrderTooLargeError",
    "OutOfRangeError",
    "PermMap",
    "SkewBrace",
    "YbeMap",
    "automorphisms",
    "brace_identity_suite",
    "brace_isomorphic",
    "build_r",
    "canonical_brace",
    "catalog_to_json",
    "check_bijective",
    "check_compatibility",
    "check_compatibility_equivalence",
    "check_nondegenerate",
    "check_product_preservation",
    "check_ybe",
    "check_ybe_materialized",
    "cyclic_group",
    "deduplicate_catalog",
    "enumerate_braces",
    "enumerate_braces_on_group",
    "enumerate_groups",
    "group_isomorphic",
    "klein_four_group",
    "load_expected_counts",
    "opposite_brace",
    "oracle_enumerate",
    "parse_brace_json",
    "parse_brace_text",
    "parse_group_json",
    "parse_group_text",
    "parse_rmap_json",
    "rmap_to_csv",
    "rmap_to_json",
    "sigma",
    "sigma_perm",
    "swap_map",
    "symmetric_group_s3",
    "tau",
    "tau_perm",
    "trivial_brace",
]


#: The deliberately doubled code of ROADMAP aim 2: each function must not
#: name its twin's functions, so that one copy keeps checking the other.
#: A twin that only the tests call lives in tests/oracles.py.
_ORACLE_AVOIDS = {
    "enumerate_braces",
    "enumerate_braces_on_group",
    "enumerate_groups",
    "_closure_tables",
    "_latin_rows",
    "_group_reps",
    "_group_classes",
    "_cyclic_extensions",
}
TWINS = {
    "check_ybe_materialized": {
        "ybe_violations",
        "check_ybe",
        "_components",
        "_row_form",
        "_Triples",
        "_compose",
        "_differing",
    },
    "ybe_violations": {"check_ybe_materialized"},
    "_canonical_brace_brute_force": {
        "canonical_brace",
        "_lex_min_table",
        "_relabel",
        "_relabels_below",
        "_byte_relabeling",
        "_aut_relabelings",
        "_group_reps",
        "_table_isomorphisms",
        "_compose",
    },
    "_dedup_pairwise": {"_dedup_by_canonical_form", "_automorphism_images", "automorphisms"},
    "oracle_enumerate": _ORACLE_AVOIDS,
    "_naive_tables": _ORACLE_AVOIDS,
    "_naive_latin_squares": _ORACLE_AVOIDS,
}


def _imported_names(tree):
    """Each name an import statement binds, with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_every_module_parses_as_python_3_10(path):
    """pyproject.toml declares requires-python >= 3.10: no module may use
    syntax newer than 3.10."""
    ast.parse(path.read_text(), feature_version=(3, 10))


def test_public_names_are_pinned():
    assert sb.__all__ == PUBLIC_NAMES
    assert len(set(sb.__all__)) == len(sb.__all__)
    assert [name for name in sb.__all__ if not hasattr(sb, name)] == []


@pytest.mark.parametrize("name", sorted(TWINS))
def test_twins_do_not_reference_each_other(name):
    [function] = [
        node
        for path in [*MODULES, ORACLES]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    referenced = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
    referenced |= {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
    assert referenced & TWINS[name] == set()


#: The labelled group route and the brute-force canonical form, which only
#: the tests run; they live in tests/oracles.py.
TEST_ONLY_NAMES = {
    "_latin_rows",
    "_all_tables",
    "_forced_row1",
    "all_group_tables",
    "ALL_TABLES_MAX_ORDER",
    "_canonical_brace_brute_force",
}


def _words(nodes):
    """Every identifier and every word of every string among the nodes."""
    words = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            words.add(node.name)
        elif isinstance(node, ast.alias):
            words.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return words


def test_package_holds_no_test_oracle():
    """No package module defines, imports, calls, exports or documents a
    test-only name: every identifier and every word of every string (so
    __all__ entries and docstrings too) is checked."""
    found = {}
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        words = _words(ast.walk(ast.parse(path.read_text())))
        if words & TEST_ONLY_NAMES:
            found[path.name] = sorted(words & TEST_ONLY_NAMES)
    assert found == {}


def test_sigma_tau_tables_are_named_only_in_braces_and_build_r():
    """braces.py alone tabulates and shares S and U: outside it, the build
    and its cache are named only in ybe.build_r and the import that serves
    it, so cli.py names neither."""
    names = {"_sigma_tau_tables", "_build_sigma_tau"}
    found = {}
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        if path.name == "braces.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "ybe.py":
            serving = [
                top
                for top in tree.body
                if isinstance(top, ast.ImportFrom) and top.module == "braces"
                or isinstance(top, ast.FunctionDef) and top.name == "build_r"
            ]
            assert len(serving) == 2
            allowed = {id(node) for top in serving for node in ast.walk(top)}
        words = _words(node for node in ast.walk(tree) if id(node) not in allowed)
        if words & names:
            found[path.name] = sorted(words & names)
    assert "cli.py" in {path.name for path in MODULES}
    assert found == {}


def test_identity_suite_entries_are_violation_generators():
    """Each IDENTITY_SUITE entry is a generator function named *_violations,
    which the benchmark's tracer times as one span per identity."""
    for label, sweep in braces.IDENTITY_SUITE:
        assert inspect.isgeneratorfunction(sweep), label
        assert sweep.__name__.endswith("_violations"), label
        assert getattr(braces, sweep.__name__) is sweep, label


def _nested_loops(function):
    """(name, line) of each loop or comprehension nested in a loop of a
    function; a comprehension has no line of its own, so its target's is
    given."""
    return [
        (function.name, inner.target.lineno)
        for loop in ast.walk(function)
        if isinstance(loop, ast.For)
        for statement in loop.body
        for inner in ast.walk(statement)
        if isinstance(inner, (ast.For, ast.comprehension))
    ]


def _functions(module, name_filter):
    return [
        node
        for node in ast.walk(ast.parse((PACKAGE / module).read_text()))
        if isinstance(node, ast.FunctionDef) and name_filter(node.name)
    ]


def test_braces_sweeps_have_no_cell_loop():
    """No sweep in braces.py, and neither row shape (braces._twisted_rows,
    groups._action_rows), nests a loop or a comprehension inside its loop
    over the rows: each row's cells are compared whole, so the row path is
    the only path."""
    sweeps = _functions(
        "braces.py", lambda name: name.endswith("_violations") or name == "_twisted_rows"
    )
    sweeps += _functions("groups.py", lambda name: name == "_action_rows")
    assert len(sweeps) == len(braces.IDENTITY_SUITE) + 2
    assert [nested for sweep in sweeps for nested in _nested_loops(sweep)] == []


#: The laws of the two row shapes, by module: each sweep hands its tables to
#: its shape, which alone loops over the rows. _action_rows checks
#: associativity and Propositions 1 and 2, _twisted_rows the other three.
ROW_SHAPE_LAWS = {
    "groups.py": {"_associativity_witness": "_action_rows"},
    "braces.py": {
        "sigma_homomorphism_violations": "_action_rows",
        "tau_antihomomorphism_violations": "_action_rows",
        "compatibility_violations": "_twisted_rows",
        "sigma_automorphism_violations": "_twisted_rows",
        "sigma_twisted_product_violations": "_twisted_rows",
    },
}


def test_row_shape_laws_have_no_row_loop_of_their_own():
    """Associativity, Propositions 1 and 2 and the three brace laws of the
    twisted shape call their shape and hold no for or while loop of their
    own."""
    for module, laws in ROW_SHAPE_LAWS.items():
        functions = _functions(module, laws.__contains__)
        assert sorted(f.name for f in functions) == sorted(laws)
        for function in functions:
            nodes = list(ast.walk(function))
            assert not any(isinstance(node, (ast.For, ast.While)) for node in nodes), function.name
            called = {
                node.func.id
                for node in nodes
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
            assert laws[function.name] in called, function.name


def test_package_keeps_no_global_state():
    """No package module rebinds a module-level name from inside a
    function: what the package keeps between calls lives in functools
    caches."""
    found = [
        (path.name, node.lineno)
        for path in [*MODULES, PACKAGE / "__init__.py"]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_every_private_definition_is_named_elsewhere():
    """Every top-level _-prefixed function or class of the package is named
    by an identifier somewhere in the package outside its own definition,
    so a deletion leaves no unused helper behind."""
    trees = [ast.parse(path.read_text()) for path in [*MODULES, PACKAGE / "__init__.py"]]
    unused = []
    for tree in trees:
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_") or top.name.startswith("__"):
                continue
            inside = {id(node) for node in ast.walk(top)}
            named = any(
                isinstance(node, ast.Name) and node.id == top.name
                or isinstance(node, ast.Attribute) and node.attr == top.name
                for other in trees
                for node in ast.walk(other)
                if id(node) not in inside
            )
            if not named:
                unused.append(top.name)
    assert unused == []


def test_ybe_sweep_has_no_cell_loop():
    """The stepwise Yang-Baxter sweep, like the identity sweeps, builds each
    row a whole: nothing loops over b or c inside its loop over a."""
    [sweep] = _functions("ybe.py", lambda name: name == "ybe_violations")
    assert any(isinstance(node, ast.For) for node in ast.walk(sweep))
    assert _nested_loops(sweep) == []


def test_records_are_built_by_the_base_constructor_alone():
    """No _Record subclass defines __init__: _Record.__init__ binds every
    record's fields, and __post_init__ is the per-class hook."""
    defining = [
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body)
        and any(isinstance(b, ast.Name) and b.id == "_Record" for b in node.bases)
    ]
    assert defining == []
    records = groups._Record.__subclasses__()
    assert len(records) >= 8
    assert [cls for cls in records if "__init__" in vars(cls)] == []


def test_itemgetter_is_named_only_in_groups():
    """groups._gather is the one C gather, so no other module handles
    itemgetter's single-index case itself."""
    found = [
        path.name
        for path in [*MODULES, PACKAGE / "__init__.py"]
        if "itemgetter" in _words(ast.walk(ast.parse(path.read_text())))
    ]
    assert found == ["groups.py"]


def test_table_isomorphisms_computes_its_own_signatures():
    """Callers pass the tables only; the element-order signatures are the
    search's own business."""
    parameters = inspect.signature(groups._table_isomorphisms).parameters
    assert list(parameters) == ["t1", "t2", "extra1", "extra2"]


def test_witness_readers_share_one_mask():
    """groups._differing is the one definition of a failing cell: the two
    readers of failing rows, _witnesses (the first witness, CheckResult)
    and cli._print_rows (the streamed lines), call it and compare no cells
    with map(ne, ...) of their own."""
    readers = _functions("groups.py", lambda name: name == "_witnesses")
    readers += _functions("cli.py", lambda name: name == "_print_rows")
    assert len(readers) == 2
    for function in readers:
        called = {
            node.func.id
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "_differing" in called, function.name
        assert "map" not in called and "ne" not in _words(ast.walk(function)), function.name


def test_bench_tracer_finds_every_function_it_wraps():
    """perfbench/tracer.py times the package by replacing its functions by
    name, and a name it no longer finds leaves a per-layer metric at 0
    without an error. Only cli.check_ybe, which cli no longer imports, is
    missing; a renamed or moved function would show here."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = (
        "import json, tracer\n"
        "rec = tracer.Recorder()\n"
        "tracer.install(rec)\n"
        "print(json.dumps(rec.unwrapped))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == ["skewbrace.cli.check_ybe"]
