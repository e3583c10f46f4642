"""Checks of the benchmark harness: layer coverage and the correctness gate.

    python -m pytest bench/test_bench.py -q
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from run import check_rows  # noqa: E402

workloads.import_vkfem()

import vkfem  # noqa: E402
from vkfem import adaptivity, cli, solver  # noqa: E402
from vkfem.cli import ExperimentSpec  # noqa: E402


def _originals():
    out = []
    for _, module_name, attr, _ in layers.TARGETS:
        owner_name, _, name = attr.rpartition(".")
        module = sys.modules[module_name]
        owner = getattr(module, owner_name) if owner_name else module
        out.append((owner, name, getattr(owner, name)))
    return out


def test_every_namespace_is_patched_and_restored():
    originals = _originals()
    real_newton, real_estimate = solver.newton_solve, adaptivity.estimate
    with layers.Tracer(layers.TARGETS) as tracer:
        assert tracer.missing == []
        # names imported by value are replaced where they were imported
        assert adaptivity.newton_solve is not real_newton
        assert cli.estimate is not real_estimate
        assert vkfem.newton_solve is not real_newton
        for owner, name, original in originals:
            assert getattr(owner, name) is not original, name
            for module in layers._vkfem_modules():
                for alias, value in vars(module).items():
                    assert value is not original, f"{module.__name__}.{alias}"
    for owner, name, original in originals:
        assert getattr(owner, name) is original, name
    assert adaptivity.newton_solve is real_newton
    assert cli.estimate is real_estimate


def test_missing_target_is_named_unmeasured():
    targets = layers.TARGETS + (
        ("solver.gone_s", "vkfem.solver", "no_such_function", None),)
    with layers.Tracer(targets) as tracer:
        unmeasured = tracer.unmeasured(frozenset())
    assert unmeasured == ["vkfem.solver.no_such_function (not found)"]


def test_layer_without_calls_is_named_unmeasured():
    with layers.Tracer(layers.TARGETS) as tracer:
        pass
    assert tracer.unmeasured(frozenset({"solver.factor_s"})) == [
        "solver.factor_s (no calls)"]
    assert tracer.unmeasured(frozenset({"solver.typo_s"})) == [
        "solver.typo_s (not a traced layer)"]


def test_small_adaptive_run_measures_every_layer(tmp_path):
    spec = ExperimentSpec(example="lshape_adaptive", method="morley",
                          levels=3, out=str(tmp_path / "out.csv"))
    with layers.Tracer(layers.TARGETS) as tracer:
        # through the module: a name imported before install is not patched
        rows = cli.run_experiment(spec)
    report = tracer.report(workloads.MUST_HIT["lshape_adaptive"])
    assert report["unmeasured"] == []
    m = report["metrics"]
    assert m["solver.newton_steps"] >= 3 * len(rows)
    assert m["solver.factor_calls"] == m["solver.newton_steps"]
    assert m["solver.triangular_solves"] >= m["solver.factor_calls"]
    assert m["solver.fill_ratio"] >= 1.0
    assert m["mesh.refine_calls"] == len(rows) - 1
    assert 0.0 < m["adaptivity.marked_frac"] <= 1.0
    assert m["problems.load_calls"] > 0 and m["problems.load_points"] > 0
    # self times never exceed the traced interval
    total = sum(v for k, v in m.items() if k.endswith("_s"))
    spans = tracer.spans
    assert total <= max(s[3] for s in spans) - min(s[2] for s in spans)


def test_scaled_loads_reduce_to_the_base_pair_at_unit_amplitude():
    import numpy as np
    base = vkfem.square_problem()
    scaled = workloads.scaled_problem(base, 1.0)
    x, y = np.meshgrid(np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.9, 5))
    assert np.allclose(scaled.exact.f(x, y), base.exact.f(x, y))
    assert np.allclose(scaled.exact.g(x, y), base.exact.g(x, y))
    strong = workloads.scaled_problem(base, 3.0)
    assert np.allclose(strong.exact.u_hess(x, y),
                       3.0 * base.exact.u_hess(x, y))


def test_check_rows_counts_mismatches():
    ref = [[5, 1.0, 2.0, 3.0], [9, 0.5, 1.0, 1.5]]
    assert check_rows([list(r) for r in ref], ref) == (2, 0)
    assert check_rows([[5, 1.0, 2.0, 3.0], [10, 0.5, 1.0, 1.5]], ref) == (2, 1)
    assert check_rows([[5, 1.0 + 1e-9, 2.0, 3.0], [9, 0.5, 1.0, 1.6]],
                      ref) == (2, 1)
    assert check_rows([[5, 1.0, 2.0, 3.0]], ref) == (2, 1)
    assert check_rows([], ref) == (2, 2)


def test_failed_method_gets_no_time(monkeypatch, tmp_path):
    def setup(name, tracer=None):
        def run_method(method, workdir):
            if method == "dg":
                raise solver.SolverError("no convergence")
            return [[1, 1.0, 1.0, 1.0]]
        return run_method
    monkeypatch.setattr(workloads, "setup", setup)
    monkeypatch.setattr(workloads, "calibrate", lambda: 0.15)
    out = workloads.repetition("square_strong", ["dg", "morley", "c0ip"],
                               False, str(tmp_path))
    assert out["errors"] == {"dg": "no convergence"}
    assert sorted(out["method_s"]) == ["c0ip", "morley"]

    ok = {"traced": False, "errors": {}, "wall_s": 2.0, "setup_s": 0.5,
          "peak_rss_mb": 100.0,
          "method_s": {"morley": 0.3, "c0ip": 0.4, "dg": 1.0}}
    bad = {"traced": False, "errors": {"dg": "no convergence"},
           "wall_s": 1.0, "setup_s": 0.6, "peak_rss_mb": 90.0,
           "method_s": {"morley": 0.5, "c0ip": 0.6}}
    samples = run.end_to_end([ok, bad])
    # a repetition with a failed method gives no wall_s or peak_rss_mb
    assert samples["wall_s"] == [2.0] and samples["peak_rss_mb"] == [100.0]
    assert samples["method_s.dg"] == [1.0]
    assert samples["method_s.morley"] == [0.3, 0.5]
    specs = [{"name": "wall_s", "unit": "s"},
             {"name": "method_s.dg", "unit": "s"},
             {"name": "setup_s", "unit": "s"}]
    assert run.summarise(run.end_to_end([bad]), specs) == {
        "setup_s": {"value": 0.6, "unit": "s"}}


def test_crashed_repetitions_report_no_metric_and_exit_nonzero(
        monkeypatch, capsys):
    monkeypatch.setattr(run, "run_repetition",
                        lambda *args: {"error": "exit code 1: crashed"})
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    code = run.main(["--workload", "square_uniform", "--seconds", "0",
                     "--trace", "1"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"] == {}
    assert "claim FAIL: no complete traced repetition" in out
