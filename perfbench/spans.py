"""The traced run: spans around every public function of each layer.

The run is in-process.  After `coxcells.cli` is imported, every public
function of the seven layer modules is replaced, in every coxcells module
that holds it, by a wrapper that records a span.  Because the names that
`pipeline`, `classify`, `jring` and `cli` import are replaced too, spans
nest the way the pipeline calls them.  Spans stay in memory and are
written out when the run ends.

One traced run does three things:

* the workload's commands, once each, through `coxcells.cli.main`;
* a lane probe on A3, small enough to add only milliseconds: the direct
  lane with a cache write and read, and the streamed lane through
  `classify_group_streamed`.  It reaches every layer, so no layer metric
  reads a constant 0 on a workload that never calls it;
* a parallel probe (B4 leading scan at jobs=1 and jobs=2) and an F4 probe
  (`compute_kl`, `character_table`, one h-block at a seed-chosen y).

Layer metrics without a probe suffix are self times summed over the
workload's commands and the lane probe.  The probes report their own
metrics (`.jobs1_s`, `.jobs2_s`, `.f4_s`) and are left out of the rest.
The tracing overhead is the cost of one wrapper call, measured on a
wrapped no-op, times the number of spans the workload recorded.
"""

import functools
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import types
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import SRC, Scratch, load_reference, verdict

LAYERS = ("coxeter", "klbase", "jring", "chartab", "classify", "pipeline",
          "cli")

# Layers whose self time is reported by name; every other span's self time
# goes to trace.other_s.
TIMED = (
    "coxeter.build_group",
    "klbase.compute_kl",
    "klbase.compute_h_table",
    "klbase.stream_h_blocks",
    "klbase.cache_save",
    "klbase.cache_load",
    "jring.compute_cells",
    "jring.compute_gamma",
    "jring.distinguished_involutions",
    "chartab.character_table",
    "classify.build_phi",
    "classify.balanced_dagger_rows",
    "classify.j_traces",
    "classify.hecke_character",
    "classify.classify_group",
    "classify.classify_group_streamed",
    "classify.fake_degrees",
    "classify.verify_claim",
    "pipeline.load_stores",
    "pipeline.classify_report",
)

COUNTS = (
    "coxeter.elements",
    "klbase.kl_pairs",
    "klbase.h_rows",
    "klbase.h_terms",
    "klbase.h_blocks",
    "klbase.cache_bytes",
    "chartab.classes",
    "chartab.conductor",
)

PROBE_METRICS = (
    ("klbase.compute_kl.f4_s", "s"),
    ("klbase.h_block.f4_s", "s"),
    ("chartab.character_table.f4_s", "s"),
    ("jring.compute_gamma.jobs1_s", "s"),
    ("jring.compute_gamma.jobs2_s", "s"),
    ("jring.compute_gamma.jobs2_cpu_s", "s"),
    ("jring.compute_gamma.efficiency", "ratio"),
    ("klbase.stream_h_blocks.jobs1_s", "s"),
    ("klbase.stream_h_blocks.jobs2_s", "s"),
)

RUN_METRICS = (
    ("cli.import_s", "s"),
    ("trace.other_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)

# (name, unit, better) for every metric a traced run prints.
PER_LAYER = (
    [(f"{n}_s", "s", "lower") for n in TIMED]
    + [(n, "count", "lower") for n in COUNTS]
    + [(n, u, "higher" if u == "ratio" else "lower") for n, u in PROBE_METRICS]
    + [(n, u, "lower") for n, u in RUN_METRICS]
)

# Groups of the probes; smoke mode uses tiny ones.
PROBES = {False: {"lane": "A3", "jobs": "B4", "f4": "F4"},
          True: {"lane": "A3", "jobs": "A3", "f4": "B3"}}

# Calls of a wrapped no-op that price one span.
OVERHEAD_CALLS = 20_000

F4_BLOCK_REPS = 3
PLAIN_RUNS = ("workload", "probe.lane")


def _cpu() -> float:
    """CPU seconds of this process and of every child it has reaped, so
    pool workers count once their pool has shut down."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# Counters read off a traced call's arguments and result.

def _count_group(tracer, args, kwargs, group):
    tracer.add("coxeter.elements", group.size)


def _count_kl(tracer, args, kwargs, store):
    tracer.add("klbase.kl_pairs", sum(map(len, store.P_by_w)))


def _count_h_table(tracer, args, kwargs, table):
    tracer.add("klbase.h_rows", len(table.rows))
    tracer.add("klbase.h_terms", sum(map(len, table.rows.values())))


def _count_stream(tracer, args, kwargs, _):
    ys = kwargs.get("ys", args[3] if len(args) > 3 else None)
    tracer.add("klbase.h_blocks", args[0].group.size if ys is None
               else len(ys))


def _count_cache_save(tracer, args, kwargs, _):
    directory = Path(kwargs.get("directory", args[2] if len(args) > 2
                                else None))
    tracer.add("klbase.cache_bytes",
               sum(f.stat().st_size for f in directory.iterdir()))


def _count_table(tracer, args, kwargs, table):
    tracer.add("chartab.classes", len(table.classes.representatives))
    tracer.peak("chartab.conductor", table.conductor)


COUNTERS = {
    "coxeter.build_group": _count_group,
    "klbase.compute_kl": _count_kl,
    "klbase.compute_h_table": _count_h_table,
    "klbase.stream_h_blocks": _count_stream,
    "klbase.cache_save": _count_cache_save,
    "chartab.character_table": _count_table,
}


def call_main(cli, args):
    """`coxcells <args>` through `cli.main` in this process; returns the
    exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(args))
    return code, out.getvalue().encode()


class Tracer:
    """Spans and counts, kept in memory.

    A span is [name, run, parent index, start, end, cpu start, cpu end];
    run labels which part of the traced run issued the call.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.run_label = None
        self.origin = time.perf_counter()

    @contextmanager
    def run(self, label: str):
        self.run_label = label
        try:
            yield
        finally:
            self.run_label = None

    def add(self, name: str, value: int):
        key = (self.run_label, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, name: str, value: int):
        key = (self.run_label, name)
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name: str, fn, count=None):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.run_label, stack[-1] if stack else -1,
                    time.perf_counter(), None, _cpu(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                span[6] = _cpu()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def instrument(self):
        """Replace each layer's public functions by traced wrappers, in
        every coxcells module that holds a reference to them."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"coxcells.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_")
                        and isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(value)] = (
                        value, self.wrap(name, value, COUNTERS.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "coxcells":
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def self_times(self, runs) -> dict:
        """Self time per span name over the given runs: a span's duration
        minus the durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for name, run, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, run, _, start, end, _, _) in enumerate(self.spans):
            if run in runs:
                out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def durations(self, name: str, run: str) -> list:
        return [s[4] - s[3] for s in self.spans
                if s[0] == name and s[1] == run]

    def cpu(self, name: str, run: str) -> float:
        return sum(s[6] - s[5] for s in self.spans
                   if s[0] == name and s[1] == run)

    def count(self, name: str, runs) -> int:
        values = [v for (run, n), v in self.counts.items()
                  if n == name and run in runs]
        if name == "chartab.conductor":
            return max(values, default=0)
        return sum(values)

    def write(self, path: Path, trace_id: str):
        with open(path, "w") as f:
            for i, (name, run, parent, start, end, c0, c1) in enumerate(
                    self.spans):
                f.write(json.dumps({
                    "trace": trace_id, "run": run, "id": i,
                    "parent": parent, "name": name,
                    "start": start - self.origin, "end": end - self.origin,
                    "cpu": c1 - c0,
                }) + "\n")


class TracedRun:
    """Runs one workload and the probes under a Tracer and collects the
    per-layer metrics."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.reference = load_reference()
        self.attempted = 0
        self.errors = []

    def check(self, label: str, error: str):
        self.attempted += 1
        if error:
            self.errors.append(f"{label}: {error}")

    def call(self, args):
        """`coxcells <args>` in this process; stdout is checked against
        the reference."""
        code, stdout = call_main(self.cli, args)
        self.check(" ".join(args), verdict(args, code, stdout,
                                           self.reference))

    def execute(self, spans_path: Path, trace_id: str) -> dict:
        os.environ.pop("COXCELLS_CACHE", None)
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import coxcells.cli
        import_s = time.perf_counter() - start
        self.cli = coxcells.cli

        tracer = self.tracer = Tracer()
        tracer.instrument()
        wl = self.workload
        groups = wl.plan(self.seed, self.smoke)
        probes = PROBES[self.smoke]
        with Scratch() as scratch:
            prepare, commands = wl.commands(groups, scratch)
            with tracer.run("prepare"):
                for args in prepare:
                    self.call(args)
            traced_s = import_s
            for args in commands:
                begin = time.perf_counter()
                with tracer.run("workload"):
                    self.call(args)
                traced_s += time.perf_counter() - begin
            self.lane_probe(probes["lane"], scratch.fresh())
        self.jobs_probe(probes["jobs"])
        self.f4_probe(probes["f4"])
        tracer.write(spans_path, trace_id)
        return self.metrics(import_s, traced_s)

    def lane_probe(self, symbol: str, cache: str):
        """Direct lane with a cache write, a cache read, then the streamed
        lane on the same group; its report must be the reference's too."""
        from coxcells import chartab, classify, coxeter, pipeline

        with self.tracer.run("probe.lane"):
            self.call(("classify", "--type", symbol, "--cache-dir", cache))
            self.call(("cells", "--type", symbol, "--cache-dir", cache))
            group = coxeter.build_group(symbol)
            store, _, cells, gamma, dset = pipeline.analysis(group, cache)
            table = chartab.character_table(group)
            result = classify.classify_group_streamed(
                store, cells, gamma, dset, table)
            report = pipeline.classify_report(
                result, pipeline.run_claims(result))
        streamed = (json.dumps(report, indent=2) + "\n").encode()
        self.check(f"streamed lane {symbol}", verdict(
            ("classify", "--type", symbol), 0, streamed, self.reference))

    def jobs_probe(self, symbol: str):
        """The leading scan (compute_gamma over stream_h_blocks) at one and
        at two workers."""
        from coxcells import coxeter, jring, klbase

        with self.tracer.run("probe.jobs1"):
            group = coxeter.build_group(symbol)
            store = klbase.compute_kl(group)
            cells = jring.compute_cells(klbase.generator_rows(store))
            serial = jring.compute_gamma(store, cells, jobs=1)
        with self.tracer.run("probe.jobs2"):
            parallel = jring.compute_gamma(store, cells, jobs=2)
        same = serial.a == parallel.a and serial.lead == parallel.lead
        self.check(f"compute_gamma {symbol} jobs=1 vs jobs=2",
                   "" if same else "results differ")

    def f4_probe(self, symbol: str):
        """F4 layers too slow to run as a workload: compute_kl,
        character_table and one h-block at a seed-chosen y."""
        from coxcells import chartab, coxeter, klbase

        with self.tracer.run("probe.f4"):
            group = coxeter.build_group(symbol)
            store = klbase.compute_kl(group)
            chartab.character_table(group)
            y = random.Random(self.seed).randrange(group.size)
            terms = []
            for _ in range(F4_BLOCK_REPS):
                rows = []
                klbase.stream_h_blocks(
                    store, lambda x, _, row: rows.append(len(row)), ys=[y])
                terms.append(sum(rows))
        self.check(f"h-block {symbol} y={y}",
                   "" if len(set(terms)) == 1 else "blocks differ")

    def metrics(self, import_s, traced_s) -> dict:
        t = self.tracer
        plain = t.self_times(PLAIN_RUNS)
        out = {f"{n}_s": plain.get(n, 0.0) for n in TIMED}
        for n in COUNTS:
            out[n] = t.count(n, PLAIN_RUNS)
        gamma1 = sum(t.durations("jring.compute_gamma", "probe.jobs1"))
        gamma2 = sum(t.durations("jring.compute_gamma", "probe.jobs2"))
        self.workload_spans = sum(1 for s in t.spans if s[1] == "workload")
        out.update({
            "klbase.compute_kl.f4_s":
                sum(t.durations("klbase.compute_kl", "probe.f4")),
            "klbase.h_block.f4_s": statistics.median(
                t.durations("klbase.stream_h_blocks", "probe.f4")),
            "chartab.character_table.f4_s":
                sum(t.durations("chartab.character_table", "probe.f4")),
            "jring.compute_gamma.jobs1_s": gamma1,
            "jring.compute_gamma.jobs2_s": gamma2,
            "jring.compute_gamma.jobs2_cpu_s":
                t.cpu("jring.compute_gamma", "probe.jobs2"),
            "jring.compute_gamma.efficiency": gamma1 / (2 * gamma2),
            "klbase.stream_h_blocks.jobs1_s":
                sum(t.durations("klbase.stream_h_blocks", "probe.jobs1")),
            "klbase.stream_h_blocks.jobs2_s":
                sum(t.durations("klbase.stream_h_blocks", "probe.jobs2")),
            "cli.import_s": import_s,
            "trace.other_s": sum(v for n, v in plain.items()
                                 if n not in TIMED),
            "trace.traced_s": traced_s,
            "trace.overhead_s": self.workload_spans * span_cost_s(),
        })
        self.workload_self_s = import_s + sum(
            t.self_times(("workload",)).values())
        return out


def span_cost_s() -> float:
    """Seconds one span adds: a wrapped no-op's call time minus the bare
    no-op's, over OVERHEAD_CALLS calls, on a tracer of its own."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    times = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            fn()
        times.append(time.perf_counter() - start)
    return max(times[1] - times[0], 0.0) / OVERHEAD_CALLS
