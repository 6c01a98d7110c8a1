"""Span recorder for the traced benchmark run.

The package itself is not modified: ``install`` replaces public functions
with timing wrappers in the module where their callers look them up (for
example ``skewbrace.cli.IDENTITY_SUITE`` or ``skewbrace.search.canonical_brace``).
Each span records a name, start, end, busy time and parent. Spans stay in
memory and are written once, when the process ends.

A generator (an identity sweep, the stepwise Yang-Baxter witness stream) is
one span whose busy time counts only the time spent inside the generator, so
witness printing done by the caller is not charged to the sweep.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        # Each span is [id, parent_id, name, start, end, busy].
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.unwrapped: list[str] = []

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        span = [len(self.spans), parent, name, perf_counter(), 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        end = perf_counter()
        span[4] = end
        span[5] = end - span[3]
        self.stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "unwrapped": self.unwrapped,
                },
                fh,
            )


def _timed(span: list, it, counters: dict, counter: str | None):
    """Yield from `it`, charging only the time inside it to the span.

    The generators wrapped this way (identity sweeps, the stepwise witness
    stream) call no wrapped function, so the span is not pushed on the stack.
    """
    clock = perf_counter
    while True:
        start = clock()
        try:
            item = next(it)
        except StopIteration:
            span[5] += clock() - start
            return
        span[5] += clock() - start
        if counter is not None:
            counters[counter] += 1
        yield item


def _wrap_call(rec: Recorder, fn, name: str, count=None):
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if count is not None:
            count(rec.counters, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_gen(rec: Recorder, fn, name: str, counter: str | None, count=None):
    def wrapper(*args, **kwargs):
        parent = rec.stack[-1][0] if rec.stack else -1
        now = perf_counter()
        span = [len(rec.spans), parent, name, now, now, 0.0]
        rec.spans.append(span)
        if count is not None:
            count(rec.counters, args, None)
        return _timed(span, fn(*args, **kwargs), rec.counters, counter)

    wrapper.__wrapped__ = fn
    return wrapper


def _patch(rec: Recorder, owner, attr: str, make) -> None:
    original = getattr(owner, attr, None)
    if original is None:
        rec.unwrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    setattr(owner, attr, make(original))


def _add(key: str, value):
    def count(counters, args, result):
        counters[key] += value(args, result)

    return count


def _cubed(args, result):
    return args[0].n ** 3


def _identity_metric(fn) -> str:
    name = fn.__name__
    if name.endswith("_violations"):
        name = name[: -len("_violations")]
    return f"braces.{name}"


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from skewbrace import braces, cli, groups, search, ybe

    def call(owner, attr, name, count=None):
        _patch(rec, owner, attr, lambda fn: _wrap_call(rec, fn, name, count))

    def gen(owner, attr, name, counter, count=None):
        _patch(rec, owner, attr, lambda fn: _wrap_gen(rec, fn, name, counter, count))

    # search: the enumeration pipeline, looked up from cli and within search.
    call(cli, "enumerate_braces", "search.enumerate")
    call(cli, "oracle_enumerate", "search.oracle")
    call(cli, "catalog_to_json", "search.catalog_json")
    for owner in (cli, search):
        call(
            owner,
            "deduplicate_catalog",
            "search.dedup",
            _add("search.iso_braces", lambda a, r: 0 if a[0].up_to_iso else len(r.braces)),
        )
    call(
        search,
        "canonical_brace",
        "search.canonical",
        _add("search.relabellings", lambda a, r: math.factorial(a[0].n - 1)),
    )

    def closure(fn):
        # _all_tables sorts the generator's output; draining it inside the
        # span keeps the span's start and end around all of the closure work.
        def drain(*args):
            span = rec.open("search.closure")
            try:
                tables = list(fn(*args))
            finally:
                rec.close(span)
            rec.counters["search.labelled_tables"] += len(tables)
            return iter(tables)

        return drain

    _patch(rec, search, "_closure_tables", closure)
    call(
        search,
        "_class_representatives",
        "search.group_reps",
        _add("search.group_reps", lambda a, r: len(r)),
    )
    call(
        search,
        "enumerate_braces_on_group",
        "search.brace_search",
        _add("search.raw_braces", lambda a, r: len(r)),
    )
    call(
        search,
        "automorphisms",
        "groups.automorphisms",
        _add("groups.aut_order_sum", lambda a, r: len(r)),
    )

    # groups and braces: validation runs in the dataclasses' __post_init__,
    # which the generated __init__ looks up on the class.
    call(groups.GroupTable, "__post_init__", "groups.validate")
    call(braces.SkewBrace, "__post_init__", "braces.construct")
    call(cli, "parse_brace_tables_json", "braces.parse")
    call(cli, "parse_brace_tables_text", "braces.parse")
    call(cli, "sigma_perm", "braces.perm")
    call(cli, "tau_perm", "braces.perm")
    cli.IDENTITY_SUITE = tuple(
        (label, _wrap_gen(rec, fn, _identity_metric(fn), "braces.witnesses"))
        for label, fn in cli.IDENTITY_SUITE
    )

    # ybe
    call(cli, "build_r", "ybe.build_r")
    call(cli, "check_ybe", "ybe.stepwise", _add("ybe.triples", _cubed))
    gen(cli, "ybe_violations", "ybe.stepwise", "ybe.witnesses", _add("ybe.triples", _cubed))
    call(ybe, "check_ybe_materialized", "ybe.materialized", _add("ybe.triples", _cubed))
    call(cli, "check_nondegenerate", "ybe.nondeg_bij")
    call(cli, "check_bijective", "ybe.nondeg_bij")
    call(cli, "parse_rmap_json", "ybe.parse_rmap")
    call(cli, "rmap_to_csv", "ybe.export")
    call(cli, "rmap_to_json", "ybe.export")

    call(cli, "main", "cli.self")


def aggregate(dumps: list[dict]) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
    """Self time and call count per span name, and summed counters.

    Self time is a span's busy time minus the busy time of its children.
    """
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, int] = defaultdict(int)
    for dump in dumps:
        spans = dump["spans"]
        child_busy = [0.0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_busy[span[1]] += span[5]
        for span in spans:
            self_time[span[2]] += span[5] - child_busy[span[0]]
            calls[span[2]] += 1
        for key, value in dump["counters"].items():
            counters[key] += value
    return dict(self_time), dict(calls), dict(counters)
