import csv
import filecmp
import re
from pathlib import Path

import numpy as np
import pytest

import vkfem.cli as cli
from vkfem import SolverError, build_dofmap
from vkfem.cli import CSV_COLUMNS, ExperimentSpec, main, run_experiment


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def test_square_experiment_csv_schema(tmp_path):
    out = tmp_path / "square.csv"
    spec = ExperimentSpec(example="square_analytic", method="morley",
                          levels=3, out=str(out))
    rows = run_experiment(spec)
    header, data = read_rows(out)
    assert header == list(CSV_COLUMNS)
    assert len(data) == 3 == len(rows)
    assert data[0][0] == "morley"
    assert [int(r[1]) for r in data] == [0, 1, 2]
    floats = [float(x) for x in data[-1][3:]]
    assert all(np.isfinite(floats[:-1]))
    # floats are serialised with 12 digits of mantissa
    assert "e" in data[-1][3]


def test_rerun_is_bit_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        run_experiment(ExperimentSpec(example="square_analytic",
                                      method="c0ip", levels=2, out=str(out)))
    assert filecmp.cmp(out1, out2, shallow=False)


def test_method_all_ndof_matches_dofmaps(tmp_path):
    out = tmp_path / "all.csv"
    run_experiment(ExperimentSpec(example="square_analytic", method="all",
                                  levels=2, out=str(out)))
    header, data = read_rows(out)
    from vkfem import unit_square_mesh, uniform_refine
    meshes = [unit_square_mesh()]
    meshes.append(uniform_refine(meshes[0]))
    for row in data:
        method, level = row[0], int(row[1])
        expected = build_dofmap(meshes[level], method).n_global
        assert int(row[2]) == expected


def test_emit_plot_writes_gnuplot_script(tmp_path):
    out = tmp_path / "plot.csv"
    run_experiment(ExperimentSpec(example="square_analytic", method="dg",
                                  levels=2, out=str(out), emit_plot=True))
    script = out.with_name(out.name + ".gp")
    assert script.exists()
    text = script.read_text()
    assert "logscale" in text and str(out) in text


def test_square_five_levels_final_rate_column(tmp_path):
    out = tmp_path / "rates.csv"
    run_experiment(ExperimentSpec(example="square_analytic", method="morley",
                                  levels=5, out=str(out)))
    header, data = read_rows(out)
    final_rate = float(data[-1][header.index("rate")])
    assert 0.42 <= final_rate <= 0.58


def test_adaptive_experiment_runs(tmp_path):
    out = tmp_path / "adaptive.csv"
    rows = run_experiment(ExperimentSpec(
        example="lshape_adaptive", method="morley", levels=4, theta=0.5,
        out=str(out)))
    assert len(rows) == 4
    ndofs = [r["ndof"] for r in rows]
    assert all(ndofs[k + 1] > ndofs[k] for k in range(3))


def test_main_exit_codes(tmp_path):
    out = tmp_path / "main.csv"
    code = main(["--example", "square_analytic", "--method", "morley",
                 "--levels", "2", "--out", str(out)])
    assert code == 0
    with pytest.raises(SystemExit) as err:
        main(["--example", "bogus"])
    assert err.value.code == 2
    code = main(["--example", "square_analytic", "--levels", "0",
                 "--out", str(out)])
    assert code == 2
    # invalid input is rejected before the run, so a previous --out file
    # survives
    written = out.read_bytes()
    for bad in (["--sigma-ip", "-1"], ["--sigma-dg", "0"],
                ["--newton-tol", "0"]):
        code = main(["--example", "square_analytic", "--method", "morley",
                     "--levels", "2", "--out", str(out)] + bad)
        assert code == 2, bad
        assert out.read_bytes() == written, bad
    # the volume rule is fixed: there is no flag for its degree
    with pytest.raises(SystemExit) as err:
        main(["--example", "square_analytic", "--method", "morley",
              "--levels", "2", "--out", str(out), "--quad-degree", "8"])
    assert err.value.code == 2
    assert out.read_bytes() == written


@pytest.mark.parametrize("args", [
    ["--example", "square_analytic"],
    ["--example", "lshape_uniform"],
    ["--example", "lshape_adaptive", "--refine", "uniform"],
])
def test_estimator_on_a_uniform_run_is_invalid_input(tmp_path, capsys, args):
    out = tmp_path / "uniform.csv"
    out.write_bytes(b"previous run\n")
    code = main(args + ["--method", "morley", "--levels", "2",
                        "--estimator", "dg", "--out", str(out)])
    assert code == 2
    assert "adaptive runs only" in capsys.readouterr().err
    assert out.read_bytes() == b"previous run\n"


def test_spec_adaptive_follows_example_and_refine():
    def adaptive(example, refine=None):
        return ExperimentSpec(example=example, refine=refine).adaptive
    assert adaptive("lshape_adaptive")
    assert not adaptive("lshape_adaptive", "uniform")
    assert not adaptive("square_analytic")
    assert not adaptive("lshape_uniform")
    assert adaptive("square_analytic", "adaptive")
    assert adaptive("lshape_uniform", "adaptive")
    # an estimator is accepted where it drives the marking
    ExperimentSpec(example="lshape_adaptive", estimator="dg")
    ExperimentSpec(example="square_analytic", refine="adaptive",
                   estimator="c0ip")


def test_solver_failure_keeps_partial_csv(tmp_path, monkeypatch):
    out = tmp_path / "partial.csv"
    import vkfem.adaptivity as adaptivity
    real = adaptivity.newton_solve
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise SolverError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(adaptivity, "newton_solve", flaky)
    code = main(["--example", "square_analytic", "--method", "morley",
                 "--levels", "3", "--out", str(out)])
    assert code == 1
    header, data = read_rows(out)
    assert header == list(CSV_COLUMNS)
    assert len(data) == 1  # the completed level survived


def test_multi_method_failure_keeps_every_completed_row(tmp_path,
                                                        monkeypatch):
    # adaptive rows are written level by level as each method's state
    # arrives: c0ip failing at level 1 keeps morley's level-1 row
    out = tmp_path / "partial.csv"
    import vkfem.adaptivity as adaptivity
    real = adaptivity.newton_solve
    c0ip_calls = {"n": 0}

    def flaky(dofmap, *args, **kwargs):
        if dofmap.method == "c0ip":
            c0ip_calls["n"] += 1
            if c0ip_calls["n"] == 2:
                raise SolverError("synthetic failure")
        return real(dofmap, *args, **kwargs)

    monkeypatch.setattr(adaptivity, "newton_solve", flaky)
    code = main(["--example", "lshape_adaptive", "--method", "all",
                 "--levels", "3", "--out", str(out)])
    assert code == 1
    header, data = read_rows(out)
    assert header == list(CSV_COLUMNS)
    assert [(row[0], row[1]) for row in data] == [
        ("morley", "0"), ("c0ip", "0"), ("dg", "0"), ("morley", "1")]


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(example="square_analytic", theta=0.0)
    for bad in ({"sigma_ip": -1.0}, {"sigma_dg": 0.0},
                {"sigma_ip": float("nan")}, {"sigma_dg": float("inf")},
                {"newton_tol": 0.0}, {"newton_tol": float("nan")},
                {"estimator": "dg"}, {"estimator": "morley",
                                      "refine": "uniform"},
                {"refine": "adaptiv"}):
        with pytest.raises(ValueError):
            ExperimentSpec(example="square_analytic", **bad)
    with pytest.raises(ValueError):
        ExperimentSpec(example="square_analytic", method="p17")
    with pytest.raises(ValueError):
        ExperimentSpec(example="nope")


@pytest.mark.parametrize("name, value", [
    ("levels", 2.5), ("levels", "3"), ("theta", "0.5"),
    ("newton_tol", "1e-8")])
def test_spec_rejects_bad_counts_and_numbers_before_any_output(
        tmp_path, name, value):
    # a ValueError naming the field the caller set, raised by the spec, so
    # that run_experiment never starts and no CSV exists
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^{name} must be"):
        run_experiment(ExperimentSpec(example="square_analytic",
                                      out=str(out), **{name: value}))
    assert not out.exists()


def test_readme_flags_are_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    flags = section.split("Flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", flags))
    options = {opt for action in cli._build_parser()._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert documented == options
