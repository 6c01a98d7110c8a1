"""Runs benchmark operations serially in this one process.

    python3 perfbench/worker.py --manifest M --corpus DIR --out DIR --result R
                                [--only OP_ID] [--trace SPANS]

Each ``cli`` op is one in-process ``skewbrace.cli.main(argv)`` call with
stdout captured into a hashing sink; each ``materialized`` op loads an
R-map outside the timer and times ``skewbrace.ybe.check_ybe_materialized``.
The result file holds, per op, the exit code, the seconds it took, the
sha256 of its stdout and the index of the kernel time measured before it
(see calibrate.py; the kernel is timed again every calibrate.EVERY_S
seconds and once at the end). With --trace the layer spans are written to
SPANS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402

HEAD_CHARS = 4096


class HashSink(io.TextIOBase):
    """A write-only text stream that keeps a digest, a size and a prefix."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.nbytes = 0
        self.head = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode()
        self._sha.update(data)
        self.nbytes += len(data)
        if len(self.head) < HEAD_CHARS:
            self.head += text[: HEAD_CHARS - len(self.head)]
        return len(text)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _load_rmap(ybe, path: str, fmt: str):
    text = Path(path).read_text()
    if fmt == "json":
        return ybe.parse_rmap_json(text)
    rows = [tuple(int(v) for v in line.split(",")) for line in text.splitlines()]
    n = math.isqrt(len(rows))
    table = [[None] * n for _ in range(n)]
    for a, b, first, second in rows:
        table[a][b] = (first, second)
    return ybe.YbeMap(n, tuple(tuple(row) for row in table))


def run_op(op: dict, corpus: str, out: str) -> dict:
    from skewbrace import cli, ybe

    result: dict = {"id": op["id"]}
    sink = HashSink()
    if op["kind"] == "materialized":
        try:
            rmap = _load_rmap(ybe, op["rmap"].format(corpus=corpus, out=out), op["format"])
        except (OSError, ValueError) as exc:
            return dict(result, rc=None, seconds=0.0, error=f"cannot load R-map: {exc}")
        start = perf_counter()
        verdict = ybe.check_ybe_materialized(rmap)
        result["seconds"] = perf_counter() - start
        result["rc"] = 0
        sink.write(
            "yang-baxter: PASS\n" if verdict.ok else f"yang-baxter: FAIL witness={verdict.witness}\n"
        )
    else:
        argv = [arg.format(corpus=corpus, out=out) for arg in op["argv"]]
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = None
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["seconds"] = perf_counter() - start
        result["rc"] = rc
        if "--output" in argv:
            target = argv[argv.index("--output") + 1]
            result["output_bytes"] = os.path.getsize(target) if os.path.exists(target) else 0
    result["sha256"] = sink.hexdigest()
    result["bytes"] = sink.nbytes
    result["head"] = sink.head
    return result


def perm_cache_entries() -> int:
    from skewbrace import braces

    return sum(
        getattr(braces, name).cache_info().currsize
        for name in ("sigma_perm", "tau_perm")
        if hasattr(getattr(braces, name, None), "cache_info")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--only", default=None)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    ops = json.loads(Path(args.manifest).read_text())["ops"]
    if args.only is not None:
        ops = [op for op in ops if op["id"] == args.only]
    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)

    # A single op (--only) is a cold op: the parent times it and the kernel.
    clock = calibrate.Clock()
    if args.only is None:
        clock.measure()
    results = []
    for op in ops:
        if args.only is None and clock.due():
            clock.measure()
        results.append(dict(run_op(op, args.corpus, args.out), cal=len(clock.times) - 1))
    if args.only is None:
        clock.measure()
    summary = {
        "ops": results,
        "kernel": clock.times,
        "kernel_spent_s": clock.spent,
        "perm_cache_entries": perm_cache_entries(),
    }
    Path(args.result).write_text(json.dumps(summary))
    if recorder is not None:
        recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
