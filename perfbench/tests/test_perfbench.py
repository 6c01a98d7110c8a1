"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests

The traced runs at the end take about a minute in all.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from skewbrace import cli, load_expected_counts  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

IDENTITY_METRICS = [
    "braces.suite_s",
    "braces.compatibility_s",
    "braces.inverse_product_s",
    "braces.sigma_homomorphism_s",
    "braces.tau_antihomomorphism_s",
    "braces.sigma_twisted_product_s",
    "braces.product_preservation_s",
    "braces.sigma_automorphism_s",
]
#: The spans and counters each workload must exercise (NOTES.md, "Layers").
ASSIGNED = {
    "enumerate-cold": [
        "search.canonical_s", "search.canonical_calls", "search.relabellings",
        "search.closure_s", "search.labelled_tables", "search.group_reps_s",
        "search.group_reps", "search.brace_search_s", "search.raw_braces",
        "search.dedup_s", "search.iso_braces", "search.oracle_s",
        "search.catalog_json_s", "groups.automorphisms_s", "groups.aut_order_sum",
        "braces.construct_s", "braces.construct_calls",
    ],
    "verify-corpus": [
        "groups.validate_s", "groups.validate_calls", "braces.parse_s",
        "braces.construct_s", "braces.construct_calls", *IDENTITY_METRICS,
        "braces.perm_cache_entries", "ybe.build_r_s", "ybe.stepwise_s",
        "ybe.materialized_s", "ybe.triples", "ybe.nondeg_bij_s",
    ],
    "witness-stream": [
        *IDENTITY_METRICS, "braces.witnesses", "ybe.parse_rmap_s",
        "ybe.witnesses", "cli.self_s", "cli.output_bytes",
    ],
}


def checker(directory: Path, pins: dict = PINS) -> checks.Checker:
    return checks.Checker(pins, load_expected_counts(), directory)


def catalog_op(n: int) -> dict:
    return corpus.cli_op(
        f"enumerate-{n}",
        ["enumerate", "--order", str(n), "--up-to-iso", "--output", f"{{out}}/enumerate-{n}.json"],
        0,
        {"type": "catalog", "order": n, "pin": f"enumerate-{n}", "output": f"enumerate-{n}.json"},
    )


def enumerate_in_process(op: dict, out: Path) -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main([arg.format(out=out) for arg in op["argv"]]) == 0
    return err.getvalue()


def test_corrupted_catalog_counts_as_failed_op(tmp_path):
    op = catalog_op(4)
    stderr = {op["id"]: enumerate_in_process(op, tmp_path)}
    results = {op["id"]: {"rc": 0}}
    assert checker(tmp_path).check_pass([op], results, tmp_path, stderr)[0] == 0

    wrong_pin = json.loads(json.dumps(PINS))
    wrong_pin["catalogs"]["enumerate-4"] = "0" * 64
    assert checker(tmp_path, wrong_pin).check_pass([op], results, tmp_path, stderr)[0] == 1

    path = tmp_path / "enumerate-4.json"
    path.write_text(path.read_text().replace('"count": 4', '"count": 5'))
    assert checker(tmp_path).check_pass([op], results, tmp_path, stderr)[0] == 1


def test_wrong_exit_code_counts_as_failed_op(tmp_path):
    op = corpus.cli_op("verify:x", ["verify", "x.json"], 0, {"type": "stdout", "pin": "verify_pass"})
    result = {"rc": 1, "sha256": PINS["stdout"]["verify_pass"], "head": ""}
    failed, reasons, _ = checker(tmp_path).check_pass([op], {op["id"]: result}, tmp_path)
    assert failed == 1 and "exit code 1" in reasons[0]


def test_disagreeing_ybe_evaluators_count_as_failed_op(tmp_path):
    stepwise = corpus.cli_op("check-ybe:x", ["check-ybe", "x.json"], 0, {"type": "stdout", "pin": "check_ybe_pass"})
    materialized = corpus.materialized_op("materialized:x", "x.csv", "csv", "check-ybe:x")
    results = {
        "check-ybe:x": {
            "rc": 0,
            "sha256": PINS["stdout"]["check_ybe_pass"],
            "head": "yang-baxter: PASS\nnondegenerate: yes\nbijective: yes\n",
        },
        "materialized:x": {"rc": 0, "head": "yang-baxter: PASS\n"},
    }
    ops = [stepwise, materialized]
    assert checker(tmp_path).check_pass(ops, results, tmp_path)[0] == 0
    results["materialized:x"]["head"] = "yang-baxter: FAIL witness=(0, 1, 2)\n"
    failed, reasons, _ = checker(tmp_path).check_pass(ops, results, tmp_path)
    assert failed == 1 and "evaluators disagree" in reasons[0]


def test_corpus_is_deterministic_per_seed(tmp_path):
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        corpus.build("verify-corpus", seed, tmp_path / name)
        digests.append(corpus.digest(tmp_path / name))
    assert digests[0] == digests[1] != digests[2]


def test_without_source_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_traced_run_exercises_its_layers(workload):
    result = bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert [name for name in ASSIGNED[workload] if metrics[name]["value"] <= 0] == []
    if workload != "enumerate-cold":
        searched = {k: v["value"] for k, v in metrics.items() if k.startswith("search.")}
        assert set(searched.values()) == {0}, searched


def test_untraced_run_reports_every_end_to_end_metric():
    result = bench("witness-stream", trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
