"""The skewbrace benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. A run builds the workload's inputs from the seed (set-up, timed
several times), then repeats passes over those inputs until S seconds have
been measured, checking every output of every pass. With ``--trace 0`` the
last line of stdout reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. Everything runs serially: one operation at a time, no
``--jobs``. See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 3
#: A timed run makes at least this many passes.
MIN_PASSES = 3
#: No child may outlive this, so that a run ends within three minutes.
CHILD_TIMEOUT_S = 150
#: Passes stop starting once this much time is gone, whatever --seconds says.
RUN_BUDGET_S = 120
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)
#: Span names of the seven IDENTITY_SUITE sweeps; braces.suite_s is their sum.
IDENTITY_LAYERS = (
    "braces.compatibility",
    "braces.inverse_product",
    "braces.sigma_homomorphism",
    "braces.tau_antihomomorphism",
    "braces.sigma_twisted_product",
    "braces.product_preservation",
    "braces.sigma_automorphism",
)

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402


class SetupError(RuntimeError):
    """The inputs could not be built; there is nothing to measure."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdout: Path, stderr: Path) -> dict:
    """Run one process to completion; return its exit code, wall time, and the
    user+sys time and peak RSS of that process alone."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest grid percentile with at least ten samples beyond it (the
    median when there are fewer than twenty samples), by nearest rank, as
    (percentile, value, samples beyond)."""
    n = len(samples)
    pct = max((p for p in TAIL_GRID if n - math.ceil(p / 100 * n) >= 10), default=50)
    rank = math.ceil(pct / 100 * n)
    return pct, sorted(samples)[rank - 1], n - rank


def metadata(args, corpus_digest: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_digest": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "corpus_digest": corpus_digest,
        "execution": "serial, no --jobs",
    }


class Bench:
    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.pins = json.loads((BENCH / "pins.json").read_text())
        self.setup_times: list[float] = []
        self.setup_scaled: list[float] = []
        self.setup_digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- set-up ---------------------------------------------------------------

    def setup(self, repeats: int) -> None:
        """Build the inputs `repeats` times, each in a fresh interpreter.

        Every build must give the same corpus digest; the first one is used.
        """
        kernel = calibrate.kernel_time()
        for i in range(repeats):
            out = self.run_dir / f"setup-{i}"
            child = run_child(
                [
                    sys.executable, str(BENCH / "corpus.py"),
                    "--workload", self.args.workload,
                    "--seed", str(self.args.seed),
                    "--out", str(out),
                ],
                self.run_dir / f"setup-{i}.stdout",
                self.run_dir / f"setup-{i}.stderr",
            )
            if child["rc"] != 0:
                raise SetupError((self.run_dir / f"setup-{i}.stderr").read_text()[-2000:])
            before, kernel = kernel, calibrate.kernel_time()
            self.setup_times.append(child["wall"])
            self.setup_scaled.append(child["wall"] * calibrate.scale(before, kernel))
            self.setup_digests.append(corpus.digest(out))
            if i:
                shutil.rmtree(out)
        self.corpus = self.run_dir / "setup-0"
        self.manifest = json.loads((self.corpus / "manifest.json").read_text())
        self.ops = self.manifest["ops"]
        from skewbrace import load_expected_counts

        self.checker = checks.Checker(self.pins, load_expected_counts(), self.corpus)

    # -- one pass -------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> dict:
        pass_dir = self.run_dir / f"pass-{index}"
        pass_dir.mkdir()
        if self.ops[0].get("cold"):
            record = self._cold_pass(pass_dir, traced)
        else:
            record = self._worker_pass(pass_dir, traced)
        record["traced"] = traced
        record["scaled_wall"] = sum(record["scaled"].values())
        shutil.rmtree(pass_dir)
        return record

    def _worker_argv(self, pass_dir: Path, result: Path, spans: Path | None, only=None) -> list[str]:
        argv = [
            sys.executable, str(BENCH / "worker.py"),
            "--manifest", str(self.corpus / "manifest.json"),
            "--corpus", str(self.corpus),
            "--out", str(pass_dir),
            "--result", str(result),
        ]
        if only is not None:
            argv += ["--only", only]
        if spans is not None:
            argv += ["--trace", str(spans)]
        return argv

    def _cold_pass(self, pass_dir: Path, traced: bool) -> dict:
        """Each op in its own process. The kernel is timed here, between the
        processes; one factor, from the median of those times, scales the
        whole pass, which is steadier than the two times around each op."""
        record = {"wall": 0.0, "cpu": 0.0, "rss_kb": 0, "times": {}, "dumps": [], "output_bytes": 0}
        kernel = [calibrate.kernel_time()]
        start = perf_counter()
        results: dict[str, dict] = {}
        stderr_of: dict[str, str] = {}
        for op in self.ops:
            stdout = pass_dir / f"{op['id']}.stdout"
            stderr = pass_dir / f"{op['id']}.stderr"
            if traced:
                result = pass_dir / f"{op['id']}.result.json"
                spans = pass_dir / f"{op['id']}.spans.json"
                child = run_child(self._worker_argv(pass_dir, result, spans, op["id"]), stdout, stderr)
                if child["rc"] == 0:
                    results[op["id"]] = json.loads(result.read_text())["ops"][0]
                    record["dumps"].append(json.loads(spans.read_text()))
            else:
                argv = [sys.executable, "-m", "skewbrace.cli"]
                argv += [arg.format(out=pass_dir) for arg in op["argv"]]
                child = run_child(argv, stdout, stderr)
                results[op["id"]] = {"rc": child["rc"]}
            kernel.append(calibrate.kernel_time())
            record["times"][op["id"]] = child["wall"]
            record["cpu"] += child["cpu"]
            record["rss_kb"] = max(record["rss_kb"], child["rss_kb"])
            stderr_of[op["id"]] = stderr.read_text()
            output = pass_dir / op["check"]["output"]
            record["output_bytes"] += stdout.stat().st_size + (
                output.stat().st_size if output.exists() else 0
            )
        record["wall"] = perf_counter() - start
        factor = calibrate.REFERENCE_S / statistics.median(kernel)
        record["factor"] = factor
        record["scaled"] = {op_id: t * factor for op_id, t in record["times"].items()}
        record["scaled_cpu"] = record["cpu"] * factor
        self._check(record, results, pass_dir, stderr_of)
        return record

    def _worker_pass(self, pass_dir: Path, traced: bool) -> dict:
        result = pass_dir / "result.json"
        spans = pass_dir / "spans.json" if traced else None
        child = run_child(
            self._worker_argv(pass_dir, result, spans),
            pass_dir / "worker.stdout",
            pass_dir / "worker.stderr",
        )
        record = {"wall": child["wall"], "cpu": child["cpu"], "rss_kb": child["rss_kb"], "dumps": []}
        results: dict[str, dict] = {}
        perm_entries = 0
        kernel, spent = [calibrate.REFERENCE_S] * 2, 0.0
        if child["rc"] == 0:
            summary = json.loads(result.read_text())
            results = {res["id"]: res for res in summary["ops"]}
            perm_entries = summary["perm_cache_entries"]
            kernel, spent = summary["kernel"], summary["kernel_spent_s"]
            if traced:
                record["dumps"].append(json.loads(spans.read_text()))
        else:
            self.failures.append(
                f"worker exited {child['rc']}: {(pass_dir / 'worker.stderr').read_text()[-500:]}"
            )
        factors = {
            op_id: calibrate.scale(kernel[res["cal"]], kernel[res["cal"] + 1])
            for op_id, res in results.items()
        }
        record["times"] = {op_id: res["seconds"] for op_id, res in results.items()}
        record["scaled"] = {op_id: t * factors[op_id] for op_id, t in record["times"].items()}
        # CPU time and traced self times are scaled by the ops' time-weighted
        # factor; the worker's own kernel runs are not part of its CPU time.
        busy = sum(record["times"].values())
        record["factor"] = sum(record["scaled"].values()) / busy if busy else 1.0
        record["scaled_cpu"] = (child["cpu"] - spent) * record["factor"]
        record["output_bytes"] = sum(
            res.get("bytes", 0) + res.get("output_bytes", 0) for res in results.values()
        )
        record["perm_cache_entries"] = perm_entries
        self._check(record, results, pass_dir, {})
        return record

    def _check(self, record: dict, results: dict, pass_dir: Path, stderr_of: dict) -> None:
        failed, reasons, record["witnesses"] = self.checker.check_pass(
            self.ops, results, pass_dir, stderr_of
        )
        self.attempted += len(self.ops)
        self.failed += failed
        self.failures += reasons[: max(0, 20 - len(self.failures))]

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, passes: list[dict]) -> tuple[dict, dict]:
        """End-to-end metrics at the reference speed (see calibrate.py).

        Pass-level figures are medians over passes. Each op's latency is its
        median over passes; p50 and the tail are taken over those, so the
        tail's percentile depends only on the number of ops in a pass.
        """
        med = statistics.median
        heaviest = self.manifest["heaviest"]
        per_op = {
            op["id"]: med([p["scaled"][op["id"]] for p in passes if op["id"] in p["scaled"]] or [0.0])
            for op in self.ops
        }
        samples = list(per_op.values())
        pct, tail_value, beyond = tail(samples)
        wall = med(p["scaled_wall"] for p in passes)
        values = {
            "setup_s": med(self.setup_scaled),
            "wall_s": wall,
            "cpu_s": med(p["scaled_cpu"] for p in passes),
            "heaviest_op_s": per_op[heaviest],
            "ops_per_s": len(self.ops) / wall if wall else 0.0,
            "op_p50_ms": 1000 * med(samples),
            "op_tail_ms": 1000 * tail_value,
            "peak_rss_mb": med(p["rss_kb"] for p in passes) / 1024,
        }
        detail = {
            "op_tail_percentile": pct,
            "op_tail_samples_beyond": beyond,
            "ops_per_pass": len(self.ops),
            "passes": len(passes),
            "heaviest_op": heaviest,
            "failed_ratio": self.failed / self.attempted,
            "witnesses_per_pass": passes[0]["witnesses"],
            "witnesses_per_s": passes[0]["witnesses"] / wall if wall else 0.0,
            "unscaled_wall_s": med(p["wall"] for p in passes),
            "unscaled_heaviest_op_s": med(p["times"].get(heaviest, 0.0) for p in passes),
            "unscaled_setup_s": med(self.setup_times),
            "pass_wall_s": [p["wall"] for p in passes],
            "pass_speed_factor": [p["factor"] for p in passes],
        }
        if self.args.workload == "enumerate-cold":
            detail["catalog_s"] = values["heaviest_op_s"]
        return values, detail

    def per_layer(self, passes: list[dict]) -> tuple[dict, dict]:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        per_pass = []
        for record in traced:
            self_time, calls, counters = tracer.aggregate(record["dumps"])
            factor = record["factor"]
            extra = {
                "braces.suite_s": factor
                * sum(self_time.get(name, 0.0) for name in IDENTITY_LAYERS),
                "braces.perm_cache_entries": record.get("perm_cache_entries", 0),
                "cli.output_bytes": record["output_bytes"],
            }
            values = {}
            for metric in self.spec["per_layer"]:
                name = metric["name"]
                if name in extra:
                    values[name] = extra[name]
                elif name.endswith("_calls"):
                    values[name] = calls.get(name[: -len("_calls")], 0)
                elif name.endswith("_s"):
                    values[name] = self_time.get(name[: -len("_s")], 0.0) * factor
                else:
                    values[name] = counters.get(name, 0)
            per_pass.append(values)
        traced_wall = statistics.median(p["scaled_wall"] for p in traced)
        plain_wall = statistics.median(p["scaled_wall"] for p in plain)
        overhead = traced_wall - plain_wall
        values = {}
        for metric in self.spec["per_layer"]:
            name = metric["name"]
            values[name] = (
                overhead
                if name == "trace.overhead_s"
                else statistics.median(v[name] for v in per_pass)
            )
        detail = {
            "traced_passes": len(traced),
            "untraced_passes": len(plain),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": plain_wall,
            "unwrapped": sorted({name for p in traced for d in p["dumps"] for name in d["unwrapped"]}),
        }
        return values, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "skewbrace" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'skewbrace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        bench = Bench(args, run_dir)
        try:
            bench.setup(1 if args.trace else SETUP_REPEATS)
        except SetupError as exc:
            print(f"error: set-up failed:\n{exc}", file=sys.stderr)
            return 1
        passes: list[dict] = []
        start = perf_counter()
        while True:
            if args.trace:
                passes.append(bench.run_pass(len(passes), traced=False))
                passes.append(bench.run_pass(len(passes), traced=True))
            else:
                passes.append(bench.run_pass(len(passes), traced=False))
            elapsed = perf_counter() - start
            enough = args.trace or len(passes) >= MIN_PASSES
            if (enough and elapsed >= args.seconds) or elapsed >= RUN_BUDGET_S:
                break
        if args.trace:
            values, detail = bench.per_layer(passes)
            specs = bench.spec["per_layer"]
        else:
            values, detail = bench.end_to_end(passes)
            specs = bench.spec["end_to_end"]
        deterministic = len(set(bench.setup_digests)) == 1
        if not deterministic:
            bench.failures.append(f"set-up gave different corpora: {bench.setup_digests}")
        detail["setup_s_each"] = bench.setup_times
        detail["failures"] = bench.failures
        detail["metadata"] = metadata(args, bench.setup_digests[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    for name, value in detail.items():
        if name not in ("metadata", "failures"):
            print(f"{name:32s} {value}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"report": detail}))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0 and deterministic and not bench.failures,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
