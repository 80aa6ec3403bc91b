"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workloads W ...] [--trace 0|1]
                                [--first-seed 1] [--out FILE]

For every workload in BENCHMARK.json (or the ones named) and every seed it
runs ``run.py`` once with the file's ``run_seconds``, then prints each
metric's median and the distance between its first and third quartile as a
share of the median, next to the metric's bound.  Seeds run in the outer
loop so slow spells of a shared machine spread over all workloads.  With
``--out`` the per-run values and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if args.trace == 0 else {}
    runs = {name: [] for name in args.workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in args.workloads:
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            ok = ok and proc.returncode == 0 and result["correct"]
            runs[name].append(result)
            values = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
            print(f"seed {seed} {name} exit {proc.returncode} {values}", flush=True)

    summary = {}
    for name, results in runs.items():
        metrics = results[0]["metrics"] if results else {}
        summary[name] = {
            metric: summarize([r["metrics"][metric]["value"] for r in results if metric in r["metrics"]])
            for metric in metrics
        }
        for metric, s in summary[name].items():
            bound = bounds.get(metric)
            limit = "" if bound is None else f"  bound {bound:.3f}  {'OK' if s['spread'] < bound / 3 else 'WIDE'}"
            print(
                f"{name:<14} {metric:<40} median {s['median']:<12.6g} "
                f"spread {s['spread']:.4f}{limit}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
