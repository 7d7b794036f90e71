"""Per-layer timing and counts, taken by wrapping groupsight from outside.

`install` replaces the package's public functions, in every groupsight
module that binds them, with wrappers that record a span per call: call
count, inclusive time and self time (inclusive minus the wrapped calls
made inside it). The kernel index class is swapped for a subclass whose
methods are wrapped the same way, so either backend can be traced.

Family generation and antichain validation issue hundreds of thousands
of kernel queries and samples of their own. Inside those two spans the
per-query wrappers pass straight through, so their cost lands in
`oracle.generate_s` / `oracle.validate_s` and the query, test, sample
and spawn figures describe the paired runs alone.

A forked worker process (the CLI's `--threads 2` pool) inherits the
wrappers. On its first traced call it drops the parent's figures and
registers a multiprocessing finalizer that writes its own figures to
the trace directory when the worker exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, out_dir: str | Path | None = None):
        self.out_dir = None if out_dir is None else Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: dict[str, list] = {}     # name -> [calls, inclusive_s, self_s]
        self.sums: dict[str, float] = {}     # extra per-call sums, e.g. nodes per query
        self._stack: list[float] = []        # child time of each open span
        self._bulk = 0                       # > 0 inside generation or validation

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0) + value

    def _forked(self) -> None:
        self._reset()
        if self.out_dir is not None:
            mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = self.out_dir / f"trace-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans, "sums": self.sums}))

    def span(self, fn, name: str, *, hot: bool = False, bulk: bool = False, after=None):
        """Wrap `fn` so that each call is recorded under `name`.

        `hot` calls pass through untraced inside a `bulk` span; `after`
        is called as after(tracer, args, result) to add figures.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._forked()
            if hot and tracer._bulk:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            tracer._bulk += bulk
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._bulk -= bulk
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper


def _replace(original, replacement) -> None:
    """Rebind every groupsight module attribute that is `original`."""
    for name, module in list(sys.modules.items()):
        if name != "groupsight" and not name.startswith("groupsight."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _query_nodes(tracer, args, result):
    tracer.add("kernel.nodes", len(args[1]))


def _test_outcome(tracer, args, result):
    tracer.add("oracle.positives", bool(result))


def _run_tests(layer):
    def after(tracer, args, result):
        tracer.add(f"{layer}.tests", result.ledger.total)
    return after


def _experiment_finds(tracer, args, result):
    tracer.add("harness.finds", sum(s.finds for s in result.summaries))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every groupsight module."""
    import groupsight.cli  # noqa: F401  (binds every module in sys.modules)
    from groupsight import backend, harness, oracle, rc, rng, sight, stats

    base = backend.FamilyIndex
    traced_index = type(base.__name__, (base,), {
        "__init__": tracer.span(base.__init__, "kernel.index_build"),
        "contains_defective": tracer.span(base.contains_defective, "kernel.query",
                                          hot=True, after=_query_nodes),
        "count_contained": tracer.span(base.count_contained, "kernel.query",
                                       hot=True, after=_query_nodes),
    })
    backend.FamilyIndex = traced_index

    family = oracle.PlantedFamily
    family.validate_antichain = tracer.span(
        family.validate_antichain, "oracle.validate", bulk=True)
    family.load = classmethod(tracer.span(
        family.__dict__["load"].__func__, "oracle.load"))
    oracle.Oracle.is_defective = tracer.span(
        oracle.Oracle.is_defective, "oracle.test", hot=True, after=_test_outcome)

    wrapped = [
        (oracle.generate_family, "oracle.generate", {"bulk": True}),
        (oracle.sample, "oracle.sample", {"hot": True}),
        (rng.spawn_generator, "rng.spawn", {"hot": True}),
        (sight.run_sight, "sight.run", {"after": _run_tests("sight")}),
        (sight.bin_search, "sight.bin_search", {}),
        (sight.bottom_up_sight, "sight.bottom_up", {}),
        (rc.run_rc, "rc.run", {"after": _run_tests("rc")}),
        (rc.bottom_up_rc, "rc.bottom_up", {}),
        (harness.run_experiment, "harness.run_experiment", {"after": _experiment_finds}),
        (harness.run_cell, "harness.run_cell", {}),
        (harness.run_pair, "harness.run_pair", {}),
        (harness.summarize_cell, "harness.summarize", {}),
        (stats.mann_whitney_u, "stats.mann_whitney", {}),
        (harness.write_run_log, "io.write_run_log", {}),
        (harness.write_summary_csv, "io.write_summary", {}),
        (harness.read_run_log, "io.read_run_log", {}),
    ]
    for fn, name, opts in wrapped:
        _replace(fn, tracer.span(fn, name, **opts))

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.add("harness.pool_starts", 1)
            super().__init__(*args, **kwargs)

    harness.ProcessPoolExecutor = CountingPool


def merge(parts) -> dict:
    """Sum the figures of several processes' traces."""
    spans: dict[str, list] = {}
    sums: dict[str, float] = {}
    for part in parts:
        for name, (calls, incl, own) in part["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += own
        for name, value in part["sums"].items():
            sums[name] = sums.get(name, 0) + value
    return {"spans": spans, "sums": sums}


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced round, from its merged trace."""
    spans, sums = trace["spans"], trace["sums"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    queries, tests, pairs = calls("kernel.query"), calls("oracle.test"), calls("harness.run_pair")
    positives = sums.get("oracle.positives", 0)
    return {
        "kernel.queries": queries,
        "kernel.query_us": per(incl("kernel.query"), queries, 1e6),
        "kernel.query_nodes": per(sums.get("kernel.nodes", 0), queries),
        "kernel.self_s": own("kernel.query"),
        "kernel.index_build_s": incl("kernel.index_build"),
        "oracle.generate_s": incl("oracle.generate"),
        "oracle.load_s": incl("oracle.load"),
        "oracle.validate_s": incl("oracle.validate"),
        "oracle.tests": tests,
        "oracle.positives": positives,
        "oracle.negatives": tests - positives,
        "oracle.test_self_us": per(own("oracle.test"), tests, 1e6),
        "oracle.sample_calls": calls("oracle.sample"),
        "oracle.sample_us": per(incl("oracle.sample"), calls("oracle.sample"), 1e6),
        "rng.spawns": calls("rng.spawn"),
        "rng.spawns_per_pair": per(calls("rng.spawn"), pairs),
        "rng.spawn_us": per(incl("rng.spawn"), calls("rng.spawn"), 1e6),
        "sight.runs": calls("sight.run"),
        "sight.self_s": own("sight.run", "sight.bin_search", "sight.bottom_up"),
        "sight.tests_per_run": per(sums.get("sight.tests", 0), calls("sight.run")),
        "sight.bin_search_calls": calls("sight.bin_search"),
        "sight.bottom_up_s": incl("sight.bottom_up"),
        "rc.runs": calls("rc.run"),
        "rc.self_s": own("rc.run", "rc.bottom_up"),
        "rc.tests_per_run": per(sums.get("rc.tests", 0), calls("rc.run")),
        "rc.bottom_up_s": incl("rc.bottom_up"),
        "harness.run_cell_s": incl("harness.run_cell"),
        "harness.pool_starts": sums.get("harness.pool_starts", 0),
        "harness.finds": sums.get("harness.finds", 0),
        "harness.summarize_s": incl("harness.summarize"),
        "stats.mann_whitney_s": incl("stats.mann_whitney"),
        "stats.mann_whitney_calls": calls("stats.mann_whitney"),
        "io.write_run_log_s": incl("io.write_run_log"),
        "io.write_summary_s": incl("io.write_summary"),
        "io.read_run_log_s": incl("io.read_run_log"),
    }
