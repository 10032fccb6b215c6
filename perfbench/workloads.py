"""Workload plans, the CLI process runner and the reference check.

Every workload is a closed loop with one client: the next `coxcells`
process starts only after the previous one has exited.  The program sees
nothing but the command-line arguments generated here from the seed.
"""

import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A single CLI process that runs longer than this counts as failed.  It
# keeps one run of the benchmark well inside its three-minute limit.
PROCESS_TIMEOUT_S = 150.0

# `group --type X` invocations per run, cycling over the workload's groups;
# setup_s is their median.
SETUP_REPS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    groups: tuple        # one iteration runs each, in a seeded order
    smoke_groups: tuple  # tiny stand-ins for the benchmark's own tests
    extra: tuple = ()    # flags after --type
    cache: str = ""      # "", "cold" or "warm"

    def plan(self, seed: int, smoke: bool = False) -> tuple:
        """The workload's groups in the order drawn from the seed."""
        groups = list(self.smoke_groups if smoke else self.groups)
        random.Random(seed).shuffle(groups)
        return tuple(groups)

    def command(self, group: str) -> tuple:
        verb = "classify" if not self.cache else "cells"
        return (verb, "--type", group) + self.extra

    def commands(self, groups, scratch) -> tuple:
        """(prepare, iteration): the untimed commands that fill the caches
        the iteration reads, and one iteration, with fresh cache
        directories from `scratch`."""
        if not self.cache:
            return [], [self.command(g) for g in groups]
        runs = [self.command(g) + ("--cache-dir", scratch.fresh())
                for g in groups]
        return (runs if self.cache == "warm" else []), runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify-h3",
            "the paper's headline case: irrational characters over Q(zeta60)"
            " on the direct lane, mostly build_phi, j_traces and"
            " hecke_character",
            ("H3",), ("I2(5)",),
        ),
        Workload(
            "classify-b4-jobs2",
            "smallest group on the streamed lane, with 2 workers; stands in"
            " for F4's leading scan, fake degrees and re-streams",
            ("B4",), ("A3",), extra=("--heavy", "--jobs", "2"),
        ),
        Workload(
            "cells-cold",
            "engine only (klbase, jring, cache writer): cells for A4, H3, D4"
            " into fresh cache directories, no chartab or classify",
            ("A4", "H3", "D4"), ("A3", "I2(5)"), cache="cold",
        ),
        Workload(
            "cells-warm",
            "engine only, cache reader: cells for A4, H3, D4 rerun from a"
            " filled cache, so a cold-path gain paid for by reads shows",
            ("A4", "H3", "D4"), ("A3", "I2(5)"), cache="warm",
        ),
    )
}


def reference_key(args) -> str:
    """A command as recorded in reference.json: its arguments without the
    cache directory, which changes from run to run."""
    out = []
    skip = False
    for a in args:
        if skip:
            skip = False
        elif a == "--cache-dir":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)["commands"]


def verdict(args, exit_code, stdout: bytes, reference: dict) -> str:
    """'' when the output is the seed commit's, else the reason it is not."""
    want = reference.get(reference_key(args))
    if want is None:
        return "no reference output"
    if exit_code != want["exit"]:
        return f"exit {exit_code}, reference {want['exit']}"
    if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return "stdout differs from the reference"
    if args[0] == "classify" and not json.loads(stdout)["all_claims_pass"]:
        return "all_claims_pass is false"
    return ""


@dataclass
class Proc:
    """One finished CLI process."""

    args: tuple
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout: bytes = field(repr=False)
    error: str = ""

    def summary(self) -> dict:
        return {
            "args": list(self.args), "wall_s": self.wall_s,
            "cpu_s": self.cpu_s, "rss_mb": self.rss_mb, "exit": self.exit,
            "error": self.error,
        }


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # Runs without --cache-dir must not pick up a cache from outside.
    env.pop("COXCELLS_CACHE", None)
    return env


def run_cli(args, reference: dict, timeout: float = PROCESS_TIMEOUT_S) -> Proc:
    """Spawn `coxcells <args>`, wait for it with wait4 and check its stdout.

    wall_s runs from spawn to exit.  cpu_s and rss_mb come from the rusage
    that wait4 returns, which on Linux covers the process and every child
    it reaped (the pool workers); ru_maxrss is the largest single resident
    set among them.
    """
    timed_out = threading.Event()

    def kill(pid):
        timed_out.set()
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "coxcells.cli", *args],
            stdout=out, stderr=err, cwd=ROOT, env=cli_env(),
            start_new_session=True,
        )
        timer = threading.Timer(timeout, kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    result = Proc(
        tuple(args), wall, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0, code, stdout,
    )
    if timed_out.is_set():
        result.error = f"timed out after {timeout:.0f} s"
    else:
        result.error = verdict(args, code, stdout, reference)
    if result.error and stderr:
        result.error += f" (stderr: {stderr.splitlines()[-1][:200]})"
    return result


class Scratch:
    """A directory under perfbench/out for cache directories, removed on
    exit."""

    def __enter__(self):
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        return self

    def fresh(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.path)

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
