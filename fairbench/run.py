"""Run one fairctl benchmark workload and print its metrics as JSON.

    python3 fairbench/run.py --workload screen --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there and nowhere else. Each operation is one in-process call of
``fairctl.cli.main`` with ``--out`` set to a file; the timed span covers
CSV parsing, computation and JSON output. Every report is checked against
the independent references in ``reference.py`` after its timed span.
Whole passes over the workload's operation list repeat until the run is as
close to ``--seconds`` long as whole passes allow.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries per-operation layer metrics from a traced
run, and the spans are written to ``fairbench/work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: steadier timings on a small shared machine, and the
# environment below is the one the set-up measurement starts Python with.
# It must be set before numpy loads, which importing workloads does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

#: Fewest set-up samples a run takes; it takes one more after every pass.
SETUP_SAMPLES = 5
_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import fairctl.cli"


def _fail(message: str) -> None:
    print(f"fairbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_fairctl():
    if not (SRC / "fairctl" / "__init__.py").is_file():
        _fail(f"no fairctl package under {SRC}; run from the root of a fairctl checkout")
    sys.path.insert(0, str(SRC))
    import fairctl
    import fairctl.cli

    if Path(fairctl.__file__).resolve().parent != SRC / "fairctl":
        _fail(f"imported fairctl from {fairctl.__file__}, not from {SRC}")
    return fairctl


def setup_seconds() -> float:
    """Wall time for a fresh interpreter to import fairctl.cli, start to exit.

    Timed from outside the interpreter, in the benchmark's environment.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT, str(SRC)], check=True, env=os.environ.copy())
    return time.perf_counter() - start


def run(fairctl, workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Whole passes over the workload for about ``seconds``, every report checked.

    Untraced runs also time set-up once after every pass (and at the end
    until there are SETUP_SAMPLES), so that the samples spread over the run
    like the operations do. The first start is not timed: it also writes
    the bytecode cache. The traced run of ``verify`` instead times each
    verifier suite alone after every pass; on the other workloads the
    verifier is idle.
    """
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        ops = workloads.WORKLOADS[workload](seed, work)
        first: dict[int, bytes] = {}
        wall, cpu = [], []
        failed = 0
        wrong: list[str] = []
        suite_ms: dict[str, list[float]] = {}
        setup: list[float] = []
        main = fairctl.cli.main
        if tracer is None:
            setup_seconds()
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for index, op in enumerate(ops):
                out = work / "out" / f"{index}.json"
                out.unlink(missing_ok=True)
                argv = op.argv + ["--out", str(out)]
                gc.collect()
                c0 = time.process_time()
                t0 = time.perf_counter()
                if tracer is None:
                    status = main(argv)
                else:
                    status = tracer.call(len(wall), op.name, argv)
                t1 = time.perf_counter()
                c1 = time.process_time()
                wall.append(t1 - t0)
                cpu.append(c1 - c0)
                data = out.read_bytes() if out.exists() else None
                problems = op.problems(status, data)
                if op.deterministic and data is not None:
                    digest = hashlib.sha256(data).digest()
                    if first.setdefault(index, digest) != digest:
                        problems.append("report differs from the first one for the same seed")
                if problems:
                    failed += 1
                    wrong.extend(f"{op.name}: {p}" for p in op.unexplained(problems)[:3])
            if tracer is None:
                setup.append(setup_seconds())
            elif workload == "verify":
                _time_suites(seed, suite_ms)
            # stop where the run length comes closest to --seconds
            now = time.perf_counter()
            if now - started + (now - pass_start) / 2 >= seconds:
                break
        while tracer is None and len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in dict.fromkeys(wrong):
        print(f"fairbench: wrong answer: {line}", file=sys.stderr)
    return {
        "attempted": len(wall),
        "failed": failed,
        "correct": not wrong,
        "wall": wall,
        "cpu": cpu,
        "suite_ms": {k: statistics.median(v) for k, v in suite_ms.items()},
        "setup": setup,
    }


def _time_suites(seed: int, suite_ms: dict[str, list[float]]) -> None:
    """Time run_suite on each suite alone, at the verify workload's sample count."""
    from fairctl.verifier import SUITE_NAMES, VerifyConfig, run_suite

    for name in SUITE_NAMES:
        cfg = VerifyConfig(suites=(name,), samples=workloads.VERIFY_SAMPLES, seed=seed)
        start = time.perf_counter()
        run_suite(cfg)
        suite_ms.setdefault(name, []).append((time.perf_counter() - start) * 1e3)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fairctl end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fairctl = _import_fairctl()
    from fairctl.verifier import SUITE_NAMES

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(fairctl)
        try:
            result = run(fairctl, args.workload, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        WORK.mkdir(exist_ok=True)
        tracer.write(
            WORK / f"trace-{args.workload}-s{args.seed}.json",
            {
                "workload": args.workload,
                "seed": args.seed,
                "ops": result["attempted"],
                "wall_ms_per_op": sum(result["wall"]) * 1e3 / result["attempted"],
            },
        )
        suite_ms = {name: result["suite_ms"].get(name, 0.0) for name in SUITE_NAMES}
        layer = tracer.metrics(result["attempted"], suite_ms)
        metrics = {
            name: _metric(value, "ms" if name.endswith((".ms", "_ms")) else "count")
            for name, value in layer.items()
        }
    else:
        result = run(fairctl, args.workload, args.seed, args.seconds)
        ops = result["attempted"]
        metrics = {
            "ops_per_s": _metric(ops / sum(result["wall"]), "ops/s"),
            "op_ms.p50": _metric(statistics.median(result["wall"]) * 1e3, "ms"),
            "cpu_ms_per_op": _metric(sum(result["cpu"]) * 1e3 / ops, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": _metric(statistics.median(result["setup"]), "s"),
        }
    print(
        f"fairbench: {args.workload} seed={args.seed} trace={args.trace} "
        f"ops={result['attempted']} wall_ms_per_op={sum(result['wall']) * 1e3 / result['attempted']:.3f}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
