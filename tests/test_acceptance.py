"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All comparisons are exact (integer equality); there are no numeric
tolerances anywhere in the package.
"""

import random
import time
from itertools import product

from oracles import _all_tables

import skewbrace as sb
from skewbrace.braces import brace_identity_suite
from skewbrace.search import deduplicate_catalog
from skewbrace.ybe import YbeMap


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({description}): {status}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_ybe_holds_on_every_enumerated_brace(raw_catalogs, raw_catalog_8):
    started = time.perf_counter()
    failures = []
    for order, catalog in raw_catalogs.items():
        for brace in catalog.braces:
            result = sb.check_ybe(sb.build_r(brace))
            if not result.ok:
                failures.append((order, brace, result.witness))
    elapsed_small = time.perf_counter() - started
    for brace in raw_catalog_8.braces:
        result = sb.check_ybe(sb.build_r(brace))
        if not result.ok:
            failures.append((8, brace, result.witness))
    _report(
        1,
        "Yang-Baxter holds exactly for every enumerated brace, orders 1-6 and 8",
        not failures and elapsed_small < 60.0,
        f"failures={failures[:3]} elapsed={elapsed_small:.1f}s",
    )


def test_criterion_2_identity_suite_on_every_enumerated_brace(
    raw_catalogs, raw_catalog_8
):
    failures = []
    catalogs = dict(raw_catalogs)
    catalogs[8] = raw_catalog_8
    for order, catalog in catalogs.items():
        for brace in catalog.braces:
            for report in brace_identity_suite(brace.dot, brace.circ):
                if not report.result.ok:
                    failures.append((order, report.name, report.result.witness))
            aut_images = {a.image for a in sb.automorphisms(brace.dot)}
            for x in range(brace.n):
                if sb.sigma_perm(brace, x).image not in aut_images:
                    failures.append((order, "sigma_x in Aut(dot)", x))
    _report(
        2,
        "identity suite exact on every enumerated brace",
        not failures,
        f"failures={failures[:3]}",
    )


def test_criterion_3_nondegeneracy(raw_catalogs, raw_catalog_8):
    catalogs = dict(raw_catalogs)
    catalogs[8] = raw_catalog_8
    bad = [
        (order, brace)
        for order, catalog in catalogs.items()
        for brace in catalog.braces
        if not sb.check_nondegenerate(sb.build_r(brace))
    ]
    _report(3, "every brace-derived R-map is nondegenerate", not bad, f"bad={bad[:3]}")


def test_criterion_4_dual_enumerator_agreement():
    mismatches = []
    for order in range(1, 6):
        for up_to_iso in (False, True):
            a = sb.enumerate_braces(order, up_to_iso=up_to_iso)
            b = sb.oracle_enumerate(order, up_to_iso=up_to_iso)
            if a != b:
                mismatches.append((order, up_to_iso, len(a.braces), len(b.braces)))
    _report(
        4,
        "enumerate_braces and oracle_enumerate produce identical catalogs, orders 1-5",
        not mismatches,
        f"mismatches={mismatches}",
    )


def test_criterion_5_compatibility_equivalence_sampling():
    rng = random.Random(20250808)
    samples = 0
    discrepancies = []
    outcomes = {True: 0, False: 0}
    for order in (3, 4, 5):
        tables = [sb.GroupTable(order, rows) for rows in _all_tables(order)]
        for _ in range(350):
            dot = rng.choice(tables)
            circ = rng.choice(tables)
            eq = sb.check_compatibility_equivalence(dot, circ)
            samples += 1
            outcomes[eq.compatibility.ok] += 1
            if not eq.consistent:
                discrepancies.append((order, dot.table, circ.table))
    _report(
        5,
        "compatibility iff sigma-homomorphism over >= 1000 random table pairs",
        samples >= 1000 and not discrepancies and min(outcomes.values()) > 0,
        f"samples={samples} discrepancies={len(discrepancies)} outcomes={outcomes}",
    )


def test_criterion_6_dual_ybe_evaluator_agreement(raw_catalogs):
    rng = random.Random(1234)
    disagreements = []

    def compare(rmap):
        a = sb.check_ybe(rmap)
        b = sb.check_ybe_materialized(rmap)
        if (a.ok, a.witness) != (b.ok, b.witness):
            disagreements.append((rmap.n, a, b))

    tested = 0
    for catalog in raw_catalogs.values():
        for brace in catalog.braces:
            compare(sb.build_r(brace))
            tested += 1
    for n in range(1, 9):
        compare(sb.swap_map(n))
        tested += 1
    random_counts = {}
    for n in (1, 2, 3, 4):
        for _ in range(120):
            rows = tuple(
                tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n))
                for _ in range(n)
            )
            compare(YbeMap(n, rows))
            tested += 1
            random_counts[n] = random_counts.get(n, 0) + 1
    _report(
        6,
        "stepwise and materialized evaluators agree on every tested map",
        not disagreements and all(random_counts[n] >= 100 for n in (1, 2, 3, 4)),
        f"tested={tested} disagreements={disagreements[:3]}",
    )


def test_criterion_7_named_concrete_checks(s3, z4, v4, xor_brace):
    ok = True
    detail = []

    trivial = sb.trivial_brace(s3)
    rmap = sb.build_r(trivial)
    t = s3.table
    conj = all(
        rmap.r[a][b] == (b, t[t[s3.inv[b]][a]][b]) for a in range(6) for b in range(6)
    )
    if not conj:
        ok = False
        detail.append("trivial S3 R(a,b) != (b, b^-1 a b)")

    r_xor = sb.build_r(xor_brace)
    if r_xor.r[1][1] != (3, 3):
        ok = False
        detail.append(f"R(1,1) = {r_xor.r[1][1]} != (3,3)")
    if not (xor_brace.circ.table[3][3] == 0 == xor_brace.circ.table[1][1]):
        ok = False
        detail.append("3 o 3 != 0 or 1 o 1 != 0")

    opposite = sb.opposite_brace(s3)
    if not all(sb.tau(opposite, y, x) == x for x in range(6) for y in range(6)):
        ok = False
        detail.append("opposite S3 tau_y(x) != x")

    # the circ table of the order-4 brace really is x + y + 2xy mod 4
    formula = tuple(tuple((x + y + 2 * x * y) % 4 for y in range(4)) for x in range(4))
    if xor_brace.circ.table != formula:
        ok = False
        detail.append("circ table != x + y + 2xy mod 4")

    _report(7, "named concrete map values", ok, "; ".join(detail))


def test_criterion_8_negative_controls(z4):
    ok = True
    detail = []

    # a compatibility-violating pair: addition mod 4 against its relabeling
    # by the transposition (1 2)
    p = (0, 2, 1, 3)
    bad_rows = tuple(tuple(p[(p[a] + p[b]) % 4] for b in range(4)) for a in range(4))
    circ = sb.GroupTable(4, bad_rows)
    result = sb.check_compatibility(z4, circ)
    if result.ok or result.witness != (2, 1, 1):
        ok = False
        detail.append(f"compatibility witness {result.witness} != (2, 1, 1)")
    x, y, z = 2, 1, 1
    lhs = circ.table[x][z4.table[y][z]]
    rhs = z4.table[z4.table[circ.table[x][y]][z4.inv[x]]][circ.table[x][z]]
    if lhs == rhs:
        ok = False
        detail.append("hand evaluation at the witness does not disagree")

    try:
        sb.SkewBrace(z4, circ)
        ok = False
        detail.append("SkewBrace accepted the violating pair")
    except sb.NotABraceError as exc:
        if exc.witness != (2, 1, 1):
            ok = False
            detail.append(f"NotABraceError witness {exc.witness}")

    # a perturbed R-map: swap on n=2 with the outputs of (0,0)/(0,1) exchanged
    perturbed = YbeMap(2, (((1, 0), (0, 0)), ((0, 1), (1, 1))))
    ybe = sb.check_ybe(perturbed)
    if ybe.ok or ybe.witness != (0, 0, 0):
        ok = False
        detail.append(f"perturbed map witness {ybe.witness} != (0, 0, 0)")
    # re-verify the witness by evaluating both sides directly
    r = perturbed.r
    d, e = r[0][0]
    f, g = r[e][0]
    h, k = r[d][f]
    q, rr = r[0][0]
    s, t = r[0][q]
    v, w = r[t][rr]
    if (h, k, g) == (s, v, w):
        ok = False
        detail.append("hand evaluation of the perturbed map agrees at the witness")

    _report(8, "negative controls rejected with verified witnesses", ok, "; ".join(detail))
