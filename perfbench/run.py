"""coxcells benchmark: closed-loop CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload classify-h3 --seed 1 --seconds 20 \
        --trace 0

With --trace 0 the workload runs as fresh `coxcells` processes, one at a
time, for about --seconds seconds (an iteration starts only while it is
expected to end inside the window, and at least one always runs).  Every
process's stdout must match the seed commit's output in reference.json.
With --trace 1 the workload runs once in-process under the tracer in
spans.py instead.  `--workload all` runs every workload in turn, end to
end.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the environment stamp
and every sample goes to perfbench/out/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import (
    OUT, ROOT, SETUP_REPS, SRC, WORKLOADS, Scratch, load_reference, run_cli,
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# For the cache workloads wall_s is the summed time of the runs that write
# the cache (cold_s) or of one pass of the runs that read it (warm_s).
WALL_ALIAS = {"cold": "cold_s", "warm": "warm_s"}


class Outcome:
    """What one run of a workload measured and how it went."""

    def __init__(self, metrics, units, attempted, errors, lines, samples):
        self.metrics = metrics
        self.units = units
        self.attempted = attempted
        self.errors = errors
        self.lines = lines
        self.samples = samples

    def result(self) -> dict:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "metrics": {k: {"value": v, "unit": self.units[k]}
                        for k, v in self.metrics.items()},
        }


def end_to_end(wl, seed: int, seconds: float, smoke: bool) -> Outcome:
    """The closed loop of fresh CLI processes."""
    reference = load_reference()
    groups = wl.plan(seed, smoke)
    procs = []

    def run(args):
        proc = run_cli(args, reference)
        procs.append(proc)
        return proc

    # Untimed first run: it compiles the bytecode, which users pay once.
    run(("group", "--type", groups[0]))
    setup = []

    def set_up(reps):
        for _ in range(reps):
            g = groups[len(setup) % len(groups)]
            setup.append(run(("group", "--type", g)).wall_s)

    # Half the set-up samples go before the loop and half after it: the
    # host's speed drifts over seconds, and one block would see one speed.
    set_up(SETUP_REPS // 2)
    iterations = []
    with Scratch() as scratch:
        prepare, iteration = wl.commands(groups, scratch)
        for args in prepare:
            run(args)
        start = time.perf_counter()
        while True:
            if wl.cache == "cold" and iterations:
                _, iteration = wl.commands(groups, scratch)
            iterations.append([run(args) for args in iteration])
            if wl.cache == "cold":
                for args in iteration:
                    shutil.rmtree(args[-1])
            typical = statistics.median(
                sum(p.wall_s for p in b) for b in iterations)
            if time.perf_counter() - start + typical > seconds:
                break
    set_up(SETUP_REPS - len(setup))

    metrics = {
        "wall_s": statistics.median(
            sum(p.wall_s for p in b) for b in iterations),
        "cpu_s": statistics.median(
            sum(p.cpu_s for p in b) for b in iterations),
        "peak_rss_mb": statistics.median(
            max(p.rss_mb for p in b) for b in iterations),
        "setup_s": statistics.median(setup),
    }
    errors = [f"{' '.join(p.args)}: {p.error}" for p in procs if p.error]
    alias = WALL_ALIAS.get(wl.cache)
    lines = [f"{wl.name}  seed {seed}  groups {' '.join(groups)}"]
    for name, unit in END_TO_END.items():
        label = f"{name} ({alias})" if name == "wall_s" and alias else name
        count = len(setup) if name == "setup_s" else len(iterations)
        lines.append(f"  {label:<18} {metrics[name]:>12.4f} {unit:<3}"
                     f"  median of {count}")
    lines.append(f"  {'failed_frac':<18} {len(errors) / len(procs):>12.4f}"
                 f"      {len(errors)} of {len(procs)} processes")
    lines += [f"  FAILED {e}" for e in errors]
    return Outcome(metrics, END_TO_END, len(procs), errors, lines,
                   [p.summary() for p in procs])


def traced(wl, seed: int, smoke: bool, stem: str) -> Outcome:
    """The in-process traced run."""
    from spans import PER_LAYER, TracedRun

    job = TracedRun(wl, seed, smoke)
    metrics = job.execute(OUT / f"{stem}.spans.jsonl", stem)
    units = {name: unit for name, unit, _ in PER_LAYER}
    lines = [f"{wl.name}  seed {seed}  traced"]
    for name, value in metrics.items():
        text = (f"{value:>12d}" if isinstance(value, int)
                else f"{value:>12.4f}")
        lines.append(f"  {name:<36} {text} {units[name]}")
    lines.append(
        f"  self times of the workload's {job.workload_spans} spans sum to "
        f"{job.workload_self_s:.4f} s of traced {metrics['trace.traced_s']:.4f}"
        f" s; the spans cost {metrics['trace.overhead_s']:.4f} s")
    lines += [f"  FAILED {e}" for e in job.errors]
    return Outcome(metrics, units, job.attempted, job.errors, lines,
                   job.errors)


def environment(seed: int) -> dict:
    """Where and on what the run was made."""
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0")
        source.update(path.read_bytes())
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
    }


def run_workload(wl, args) -> dict:
    """One workload: print its lines, write its result file and return
    the result object."""
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    env = environment(args.seed)
    env["load_before"] = os.getloadavg()
    if args.trace:
        outcome = traced(wl, args.seed, args.smoke, stem)
    else:
        outcome = end_to_end(wl, args.seed, args.seconds, args.smoke)
    env["load_after"] = os.getloadavg()
    result = outcome.result()
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"workload": wl.name, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke,
                   "environment": env, "result": result,
                   "samples": outcome.samples}, f, indent=1)
    print("\n".join(outcome.lines), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny groups, for the benchmark's own tests")
    args = parser.parse_args()
    if not (SRC / "coxcells" / "cli.py").is_file():
        print(f"run.py: no coxcells sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs end to end only")
    OUT.mkdir(exist_ok=True)

    if args.workload != "all":
        print(json.dumps(run_workload(WORKLOADS[args.workload], args)))
        return 0
    results = {name: run_workload(wl, args) for name, wl in WORKLOADS.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
