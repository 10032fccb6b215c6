"""Record reference.json: the stdout digest and exit code of every command
the benchmark issues, full size and smoke size.

Run it on the commit whose outputs are the reference (the seed commit of
the benchmark), never to make a failing run pass:

    python3 perfbench/make_reference.py
"""

import hashlib
import json
import subprocess

from spans import PROBES
from workloads import (
    OUT, REFERENCE, WORKLOADS, Scratch, reference_key, run_cli,
)


def commands() -> list:
    out = set()
    for smoke in (False, True):
        for wl in WORKLOADS.values():
            for g in wl.plan(0, smoke):
                out.add(("group", "--type", g))
                out.add(wl.command(g))
        lane = PROBES[smoke]["lane"]
        out.add(("classify", "--type", lane))
        out.add(("cells", "--type", lane))
    return sorted(out)


def main():
    OUT.mkdir(exist_ok=True)
    recorded = {}
    with Scratch() as scratch:
        for args in commands():
            if args[0] == "cells":
                args += ("--cache-dir", scratch.fresh())
            proc = run_cli(args, reference={})
            key = reference_key(args)
            if proc.exit != 0:
                raise SystemExit(f"{key}: exit {proc.exit}")
            if args[0] == "classify" and \
                    not json.loads(proc.stdout)["all_claims_pass"]:
                raise SystemExit(f"{key}: a claim failed")
            recorded[key] = {
                "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "exit": proc.exit,
            }
            print(f"{proc.wall_s:8.2f} s  {key}", flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    with open(REFERENCE, "w") as f:
        json.dump({"commit": commit, "commands": recorded}, f, indent=1,
                  sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
