"""Output checks: one verdict per operation, never an abort.

``check_op`` returns None when an operation's exit code and output are right
and a one-line reason when they are not. Outputs are compared with digests
pinned at a known-good commit (catalogs, witness streams, all-pass reports)
or, for sigma/tau maps and R-maps, with values this module computes from
the brace tables by the definitions alone.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

SUMMARY = re.compile(r"order=(\d+) raw=(\d+) iso=(\d+) elapsed=")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_maps(brace: dict) -> tuple[list[list[int]], list[list[int]]]:
    """sigma[x][y] = x^-1 . (x o y) and tau[y][x] = (sigma_x(y))^-o o x o y."""
    n, d, c = brace["n"], brace["dot"], brace["circ"]
    dinv = [row.index(0) for row in d]
    cinv = [row.index(0) for row in c]
    sigma = [[d[dinv[x]][c[x][y]] for y in range(n)] for x in range(n)]
    tau = [[c[c[cinv[sigma[x][y]]][x]][y] for x in range(n)] for y in range(n)]
    return sigma, tau


def _check_maps(brace: dict, text: str) -> str | None:
    sigma, tau = reference_maps(brace)
    n = brace["n"]
    expected = [{"element": x, "sigma": sigma[x], "tau": tau[x]} for x in range(n)]
    obj = json.loads(text)
    if obj != {"n": n, "maps": expected}:
        return "sigma/tau maps differ from the definitions"
    return None


def _check_rmap_csv(brace: dict, text: str) -> str | None:
    sigma, tau = reference_maps(brace)
    n = brace["n"]
    expected = [f"{a},{b},{sigma[a][b]},{tau[b][a]}" for a in range(n) for b in range(n)]
    if text.splitlines() != expected or not text.endswith("\n"):
        return "R-map rows differ from (sigma_a(b), tau_b(a))"
    return None


class Checker:
    """Checks the ops of one run.

    Files each op writes are checked against the definitions the first time
    that op runs; later passes must reproduce the same digest.
    """

    def __init__(self, pins: dict, expected_counts: dict, corpus: Path):
        self.pins = pins
        self.expected_counts = expected_counts
        self.corpus = corpus
        self.first_digest: dict[str, str] = {}

    def check_op(
        self, op: dict, res: dict | None, results: dict, out: Path, stderr: str = ""
    ) -> str | None:
        if res is None:
            return "no result"
        if res.get("error"):
            return res["error"]
        if res.get("rc") != op["rc"]:
            return f"exit code {res.get('rc')}, expected {op['rc']}"
        check = op["check"]
        kind = check["type"]
        try:
            if kind == "catalog":
                return self._catalog(check, out / check["output"], stderr)
            if kind == "stdout":
                if res["sha256"] != self.pins["stdout"][check["pin"]]:
                    return f"stdout differs from pin {check['pin']}"
                return None
            if kind in ("maps", "rmap"):
                return self._file(op["id"], check, out / check["output"])
            if kind == "agree":
                other = results.get(check["with"])
                if other is None:
                    return f"no result for {check['with']}"
                stepwise = other["head"].split("\n", 1)[0]
                materialized = res["head"].split("\n", 1)[0]
                if stepwise != materialized:
                    return f"evaluators disagree: stepwise {stepwise!r}, materialized {materialized!r}"
                return None
            if kind == "witness":
                pin = self.pins["witness"][check["pin"]]
                if sha256_file(self.corpus / check["input"]) != pin["input"]:
                    return f"input {check['input']} differs from the pinned input"
                if res["sha256"] != pin["stdout"]:
                    return f"witness stream differs from pin {check['pin']}"
                return None
        except (OSError, KeyError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return f"unknown check {kind!r}"

    def check_pass(
        self, ops: list[dict], results: dict, out: Path, stderr_of: dict | None = None
    ) -> tuple[int, list[str], int]:
        """Check every op of one pass; return (failed ops, reasons, witnesses
        printed by the ops that passed)."""
        failed, reasons, witnesses = 0, [], 0
        for op in ops:
            error = self.check_op(
                op, results.get(op["id"]), results, out, (stderr_of or {}).get(op["id"], "")
            )
            if error is not None:
                failed += 1
                reasons.append(f"{op['id']}: {error}")
            elif op["check"]["type"] == "witness":
                witnesses += self.pins["witness"][op["check"]["pin"]]["witnesses"]
        return failed, reasons, witnesses

    def _catalog(self, check: dict, path: Path, stderr: str) -> str | None:
        raw, iso = self.expected_counts[check["order"]]
        match = SUMMARY.search(stderr)
        if match is None or match.groups() != (str(check["order"]), str(raw), str(iso)):
            return f"summary line {stderr.strip()!r}, expected order={check['order']} raw={raw} iso={iso}"
        if sha256_file(path) != self.pins["catalogs"][check["pin"]]:
            return f"catalog digest differs from pin {check['pin']}"
        meta = json.loads(path.read_text())
        if (meta["count"], meta["count_raw"], meta["count_up_to_iso"]) != (iso, raw, iso):
            return "catalog counts differ from the expected counts"
        return None

    def _file(self, op_id: str, check: dict, path: Path) -> str | None:
        digest = sha256_file(path)
        first = self.first_digest.get(op_id)
        if first is not None:
            return None if digest == first else "output differs from the first pass"
        brace = json.loads((self.corpus / check["brace"]).read_text())
        text = path.read_text()
        error = (_check_maps if check["type"] == "maps" else _check_rmap_csv)(brace, text)
        if error is None:
            self.first_digest[op_id] = digest
        return error
