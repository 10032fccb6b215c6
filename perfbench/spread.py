"""Run one workload under several seeds and report, per end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median, next to the bound
in BENCHMARK.json.

    python3 perfbench/spread.py --workload cells-warm --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        child = subprocess.run(
            spec["command"] + ["--workload", args.workload,
                               "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]),
                               "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(child.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{child.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()),
            flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<12} median {med:10.4f} {metric['unit']:<3}"
              f" spread {(q3 - q1) / med:6.3f}  bound {metric['bound']}")


if __name__ == "__main__":
    main()
