"""The benchmark's tracer (fairbench/tracing.py, used read-only) still fits the package.

The tracer replaces imported names inside the fairctl modules by name; a
refactor that drops or renames one of them breaks ``--trace 1`` runs of
the benchmark, and this test instead.
"""

import importlib.util
import json
from pathlib import Path

import fairctl
import fairctl.cli

TRACING = Path(__file__).resolve().parents[1] / "fairbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("fairbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(tmp_path):
    tracing = load_tracing()
    originals = {
        (module, attr): getattr(getattr(fairctl, module), attr)
        for module, attr, _ in tracing.BOUNDARIES
    }
    tracer = tracing.Tracer()
    tracer.install(fairctl)
    try:
        for (module, attr), original in originals.items():
            assert getattr(getattr(fairctl, module), attr) is not original, (module, attr)
        path = tmp_path / "v.csv"
        path.write_text("1,2,3\n1,0,0\n5,5,5\n")
        out = tmp_path / "report.json"
        argv = ["check", "--input", str(path), "--eps", "0.2", "--p", "2,inf", "--out", str(out)]
        assert tracer.call(0, "check", argv) == 1
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(getattr(fairctl, module), attr) is original, (module, attr)
    assert len(json.loads(out.read_text())["results"]["vectors"]) == 3
    metrics = tracer.metrics(1, {})
    assert metrics["fairness.dispersion_report.calls"] == 1
    assert metrics["core.pnorm_rows.calls"] > 0


def test_traced_optimize_commands(tmp_path):
    # the tracer wraps solver.project_fair_region, eps_max, coefficient_of_variation
    # and cv_bound by name and binds project_fair_region's max_iter argument
    tracing = load_tracing()
    objective = tmp_path / "c.csv"
    objective.write_text("0.3,-1,0.8,0.1\n")
    vectors = tmp_path / "y.csv"
    vectors.write_text("1.5,0.2,0.9,0.1,0.7,0.4\n")
    commands = {
        "solve": ["solve", "--objective", str(objective), "--eps", "0.25", "--p", "4"],
        "sweep": ["sweep", "--objective", str(objective), "--p", "2", "--eps-grid", "0:1:0.25"],
        "project": ["project", "--input", str(vectors), "--eps", "0.5", "--p", "4"],
    }
    metrics = {}
    for op, (name, argv) in enumerate(commands.items()):
        tracer = tracing.Tracer()
        tracer.install(fairctl)
        try:
            out = tmp_path / f"{name}.json"
            assert tracer.call(op, name, argv + ["--out", str(out)]) == 0
        finally:
            tracer.uninstall()
        assert json.loads(out.read_text())["command"] == name
        metrics[name] = tracer.metrics(1, {})
    assert metrics["solve"]["solver.solve.calls"] == 1
    assert metrics["solve"]["solver.solve.iterations"] > 0
    assert metrics["sweep"]["solver.pareto_sweep.ms"] > 0
    project = metrics["project"]
    assert project["geometry.project_fair_region.calls"] == 1
    assert project["geometry.project_fair_region.iterations"] > 1
    assert project["geometry.project_fair_region.at_cap"] == 0
