"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 fairbench/steady.py --runs 10
    python3 fairbench/steady.py --trace-report

Run from the root of a checkout. The workloads and the run length are
those of BENCHMARK.json. Each set runs every workload once per
seed (seeds differ between runs and between sets; workloads are
interleaved so a slow spell of the machine hits all of them alike). For
every workload and end-to-end metric it prints both medians, the spread of
each set (distance between the first and third quartile over the median)
and whether the metric is steady: spread within the bound (not required of
setup_s) and the second median no worse than the first by more than the
bound. The share of failed operations must be identical in both sets.

``--trace-report`` instead runs each workload once untraced and once traced
with the same seed and prints the per-layer metrics next to the
end-to-end ones, with the tracing overhead per operation.

Raw results go to fairbench/work/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec: dict, sets: list[dict], workloads: list[str]) -> bool:
    steady = True
    header = f"{'workload':9} {'metric':14} {'median 1':>11} {'median 2':>11} {'spread 1':>8} {'spread 2':>8} {'worse':>7} {'bound':>5}  verdict"
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s[workload]] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            steady &= ok
            print(
                f"{workload:9} {name:14} {medians[0]:11.5g} {medians[1]:11.5g} "
                f"{spreads[0]:8.3f} {spreads[1]:8.3f} {worse:7.3f} {bound:5.2f}  "
                f"{'ok' if ok else 'NOT STEADY'}"
            )
        shares = {r["failed"] / r["attempted"] for s in sets for r in s[workload]}
        correct = all(r["correct"] for s in sets for r in s[workload])
        steady &= len(shares) == 1 and correct
        print(
            f"{workload:9} failed share {sorted(shares)} "
            f"{'ok' if len(shares) == 1 else 'NOT STEADY'}; "
            f"answers {'correct' if correct else 'WRONG'}"
        )
    return steady


def trace_report(spec: dict, seed: int, workloads: list[str]) -> dict:
    report = {}
    for workload in workloads:
        plain = run_once(spec, workload, seed, 0)
        traced = run_once(spec, workload, seed, 1)
        trace = json.loads((HERE / "work" / f"trace-{workload}-s{seed}.json").read_text())
        untraced_ms = 1e3 / plain["metrics"]["ops_per_s"]["value"]
        overhead = trace["wall_ms_per_op"] / untraced_ms - 1.0
        print(f"\n{workload} (seed {seed}, {spec['run_seconds']} s per run)")
        for name, m in plain["metrics"].items():
            print(f"  {name:42} {m['value']:12.5g} {m['unit']}")
        print(f"  {'traced wall per op':42} {trace['wall_ms_per_op']:12.5g} ms  (overhead {overhead:+.1%})")
        for name, m in traced["metrics"].items():
            print(f"  {name:42} {m['value']:12.5g} {m['unit']}")
        report[workload] = {"untraced": plain, "traced": traced, "overhead": overhead}
    return report


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-report", action="store_true")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    out = HERE / "work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)

    if args.trace_report:
        report = trace_report(spec, args.first_seed, workloads)
        out.write_text(json.dumps(report, indent=1))
        return 0

    sets = []
    seed = args.first_seed
    for _ in range(2):
        results = {w: [] for w in workloads}
        for _ in range(args.runs):
            for workload in workloads:
                result = run_once(spec, workload, seed, 0)
                results[workload].append(result)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: wrong answers", file=sys.stderr)
            seed += 1
        sets.append(results)
        out.write_text(json.dumps(sets, indent=1))
    steady = compare(spec, sets, workloads)
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
