"""Regenerate pins.json, the digests the benchmark checks outputs against.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are known to be right: it records
what the CLI prints today. It pins every enumerate-cold catalog (production
and oracle), the all-pass stdout of ``verify`` and ``check-ybe``, and the
stdout of every witness-stream input any seed can draw from the pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"pin.py: unexpected output: {what}")


def sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def main() -> int:
    sb = corpus.import_package()
    from skewbrace import cli

    work = corpus.ROOT / ".perfbench-work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pins: dict = {"catalogs": {}, "stdout": {}, "witness": {}}
        for op in corpus.enumerate_cold(0)["ops"]:
            rc, _ = run_cli(cli, [arg.format(out=work) for arg in op["argv"]])
            require(rc == 0, op["id"])
            pins["catalogs"][op["id"]] = sha((work / op["check"]["output"]).read_bytes())
        for n in corpus.ORACLE_ORDERS:
            require(pins["catalogs"][f"oracle-{n}"] == pins["catalogs"][f"enumerate-{n}"], n)

        raw = corpus.raw_catalogs(sb)
        brace = raw[8][0]
        path = work / "brace.json"
        path.write_text(corpus.brace_text(8, brace.dot.table, brace.circ.table))
        for pin, command in (("verify_pass", "verify"), ("check_ybe_pass", "check-ybe")):
            rc, text = run_cli(cli, [command, str(path)])
            require(rc == 0 and "FAIL" not in text, (command, text))
            pins["stdout"][pin] = sha(text)

        for kind, n, index in corpus.pool_ids():
            name = f"{kind}-{n}-{index}"
            text = corpus.pool_text(sb, raw, kind, n, index)
            path = work / f"{name}.json"
            path.write_text(text)
            command = "verify" if kind == "pair" else "check-ybe"
            rc, out = run_cli(cli, [command, str(path), "--all-witnesses"])
            require(rc == 1, name)
            pins["witness"][name] = {
                "input": sha(text),
                "stdout": sha(out),
                "witnesses": sum(" FAIL witness=" in line for line in out.splitlines()),
            }
            print(name, pins["witness"][name]["witnesses"], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
