"""Deterministic inputs for the benchmark workloads.

    python3 perfbench/corpus.py --workload NAME --seed N --out DIR

writes the input files of one workload and ``manifest.json``, the list of
operations a pass runs, into DIR, and prints the corpus digest. The same
workload and seed always give a byte-identical directory. Every brace is
built through the package's own validating constructors before it is
written, so an input that is not what it claims never reaches a timed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: enumerate-cold: every supported production order, and every oracle order.
ENUMERATE_ORDERS = range(1, 9)
ORACLE_ORDERS = range(1, 6)

#: Factor orders of the direct products, by product order.
SHAPES = {16: [(2, 8), (4, 4)], 24: [(3, 8), (4, 6)], 32: [(4, 8)], 48: [(6, 8)], 64: [(8, 8)]}
FACTOR_ORDERS = (2, 3, 4, 6, 8)

#: verify-corpus: the product braces added to the 314 raw order-8 braces.
PRODUCT_ORDERS = (16, 16, 16, 16, 24, 24, 32, 32, 48, 64)

#: witness-stream: each seed draws its inputs from a fixed pool, so that the
#: stdout of every input a seed can pick is pinned in pins.json.
POOL_SIZE = 8
PAIR_PICKS = {16: 4, 24: 2, 32: 2, 48: 1}
RMAP_PICKS = {16: 6, 24: 4, 32: 4, 48: 2}


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import skewbrace

    return skewbrace


def product_table(t1, t2) -> tuple[tuple[int, ...], ...]:
    """Cayley table of the direct product; (a1, a2) is element a1 * n2 + a2."""
    n2 = len(t2)
    n = len(t1) * n2
    return tuple(
        tuple(t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(n))
        for a in range(n)
    )


def product_brace(sb, b1, b2):
    n = b1.n * b2.n
    return sb.SkewBrace(
        sb.GroupTable(n, product_table(b1.dot.table, b2.dot.table)),
        sb.GroupTable(n, product_table(b1.circ.table, b2.circ.table)),
    )


def random_product(sb, rng: random.Random, raw: dict, n: int):
    o1, o2 = rng.choice(SHAPES[n])
    return product_brace(sb, rng.choice(raw[o1]), rng.choice(raw[o2]))


def raw_catalogs(sb) -> dict:
    return {o: sb.enumerate_braces(o).braces for o in FACTOR_ORDERS}


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def brace_text(n: int, dot, circ) -> str:
    return dumps({"n": n, "dot": [list(r) for r in dot], "circ": [list(r) for r in circ]})


def pair_entry(sb, raw: dict, n: int, index: int) -> str:
    """Two valid group tables that do not form a brace: the dot table of one
    product brace and the circ table of another, relabelled at random."""
    rng = random.Random(f"pair-{n}-{index}")
    dot = random_product(sb, rng, raw, n).dot
    other = random_product(sb, rng, raw, n).circ.table
    while True:
        p = [0] + rng.sample(range(1, n), n - 1)
        q = [0] * n
        for i, v in enumerate(p):
            q[v] = i
        circ = sb.GroupTable(
            n, tuple(tuple(p[other[q[a]][q[b]]] for b in range(n)) for a in range(n))
        )
        if not sb.check_compatibility(dot, circ).ok:
            return brace_text(n, dot.table, circ.table)


def rmap_entry(sb, raw: dict, n: int, index: int) -> str:
    """The R-map of a product brace with 8n of its n^2 entries replaced at
    random, so that it is no longer a solution. With that many, nearly every
    triple fails, so the witness count varies little between pool entries."""
    rng = random.Random(f"rmap-{n}-{index}")
    rows = [list(row) for row in sb.build_r(random_product(sb, rng, raw, n)).r]
    for cell in rng.sample(range(n * n), 8 * n):
        a, b = divmod(cell, n)
        old = rows[a][b]
        new = old
        while new == old:
            new = (rng.randrange(n), rng.randrange(n))
        rows[a][b] = new
    return dumps({"n": n, "r": [[list(pair) for pair in row] for row in rows]})


def pool_ids() -> list[tuple[str, int, int]]:
    """Every witness-stream input a seed can pick, as (kind, order, index)."""
    return [
        (kind, n, i)
        for kind, picks in (("pair", PAIR_PICKS), ("rmap", RMAP_PICKS))
        for n in picks
        for i in range(POOL_SIZE)
    ]


def pool_text(sb, raw: dict, kind: str, n: int, index: int) -> str:
    return (pair_entry if kind == "pair" else rmap_entry)(sb, raw, n, index)


def cli_op(op_id: str, argv: list[str], rc: int, check: dict) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "rc": rc, "check": check}


def materialized_op(op_id: str, rmap: str, fmt: str, stepwise: str) -> dict:
    # Runs ybe.check_ybe_materialized on an R-map; its verdict must equal
    # the stepwise verdict the check-ybe op `stepwise` printed.
    return {
        "id": op_id,
        "kind": "materialized",
        "rmap": rmap,
        "format": fmt,
        "rc": 0,
        "check": {"type": "agree", "with": stepwise},
    }


def enumerate_cold(seed: int) -> dict:
    ops = []
    for oracle, orders in ((False, ENUMERATE_ORDERS), (True, ORACLE_ORDERS)):
        for n in orders:
            name = f"{'oracle' if oracle else 'enumerate'}-{n}"
            argv = ["enumerate", "--order", str(n), "--up-to-iso"]
            argv += ["--oracle"] if oracle else []
            argv += ["--output", f"{{out}}/{name}.json"]
            check = {"type": "catalog", "order": n, "pin": name, "output": f"{name}.json"}
            ops.append(dict(cli_op(name, argv, 0, check), cold=True))
    # Every op runs in a fresh interpreter, so order changes no result; the
    # seed only fixes the order in which they run.
    random.Random(seed).shuffle(ops)
    return {"ops": ops, "heaviest": "enumerate-8"}


def verify_corpus(sb, seed: int, out: Path) -> dict:
    raw = raw_catalogs(sb)
    rng = random.Random(seed)
    names = []
    for i, brace in enumerate(raw[8]):
        names.append(f"b8-{i:03d}")
        (out / f"{names[-1]}.json").write_text(brace_text(8, brace.dot.table, brace.circ.table))
    for i, n in enumerate(PRODUCT_ORDERS):
        brace = random_product(sb, rng, raw, n)
        names.append(f"p{n}-{i}")
        (out / f"{names[-1]}.json").write_text(brace_text(n, brace.dot.table, brace.circ.table))
    rng.shuffle(names)
    ops = []
    for name in names:
        src = f"{{corpus}}/{name}.json"
        brace = f"{name}.json"
        ops += [
            cli_op(f"verify:{name}", ["verify", src], 0, {"type": "stdout", "pin": "verify_pass"}),
            cli_op(f"check-ybe:{name}", ["check-ybe", src], 0, {"type": "stdout", "pin": "check_ybe_pass"}),
            cli_op(
                f"maps:{name}",
                ["maps", src, "--format", "json", "--output", f"{{out}}/maps-{name}.json"],
                0,
                {"type": "maps", "brace": brace, "output": f"maps-{name}.json"},
            ),
            cli_op(
                f"r-map:{name}",
                ["r-map", src, "--format", "csv", "--output", f"{{out}}/rmap-{name}.csv"],
                0,
                {"type": "rmap", "brace": brace, "output": f"rmap-{name}.csv"},
            ),
            materialized_op(f"materialized:{name}", f"{{out}}/rmap-{name}.csv", "csv", f"check-ybe:{name}"),
        ]
    return {"ops": ops, "heaviest": f"verify:p64-{PRODUCT_ORDERS.index(64)}"}


def witness_stream(sb, seed: int, out: Path) -> dict:
    raw = raw_catalogs(sb)
    rng = random.Random(seed)
    ops = []
    for kind, picks in (("pair", PAIR_PICKS), ("rmap", RMAP_PICKS)):
        for n, k in picks.items():
            for index in sorted(rng.sample(range(POOL_SIZE), k)):
                name = f"{kind}-{n}-{index}"
                text = pool_text(sb, raw, kind, n, index)
                (out / f"{name}.json").write_text(text)
                src = f"{{corpus}}/{name}.json"
                check = {"type": "witness", "pin": name, "input": f"{name}.json"}
                if kind == "pair":
                    ops.append(cli_op(f"verify:{name}", ["verify", src, "--all-witnesses"], 1, check))
                else:
                    ops.append(cli_op(f"check-ybe:{name}", ["check-ybe", src, "--all-witnesses"], 1, check))
                    ops.append(materialized_op(f"materialized:{name}", src, "json", f"check-ybe:{name}"))
    heaviest = next(op["id"] for op in ops if op["id"].startswith("verify:pair-48-"))
    return {"ops": ops, "heaviest": heaviest}


WORKLOADS = ("enumerate-cold", "verify-corpus", "witness-stream")


def build(workload: str, seed: int, out: Path) -> dict:
    sb = import_package()
    out.mkdir(parents=True, exist_ok=True)
    if workload == "enumerate-cold":
        manifest = enumerate_cold(seed)
    elif workload == "verify-corpus":
        manifest = verify_corpus(sb, seed, out)
    elif workload == "witness-stream":
        manifest = witness_stream(sb, seed, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, **manifest}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in the directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    build(args.workload, args.seed, out)
    print(json.dumps({"digest": digest(out)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
