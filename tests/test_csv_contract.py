"""The CSV contract: the three CLI experiments against committed CSVs.

``tests/data/<example>.csv`` holds the output of

    vkfem --example <example> --levels <levels> --method all

for ``square_analytic`` (4 levels), ``lshape_uniform`` (4) and
``lshape_adaptive`` (12).  The test reruns each one and compares every cell:
``method``, ``level`` and ``ndof`` exactly, each float column to a relative
tolerance per experiment.

A cell is fixed only as far as Newton's stopping test fixes the solution.
Two floors were measured on the code that wrote the files, each as the
largest relative move of any float cell of the experiment:

* rounding: two more Newton steps solved by sparse LU from each converged
  pair (square 1.06e-8, uniform L-shape 6.4e-13, adaptive L-shape 1.9e-10);
* stopping test: the converged pair moved further by ``J^{-1} (1e-10 L)``,
  a pair whose residual ``1e-10 ||L||`` just passes the test, as a run
  from another start may stop at (square 1.1e-8, uniform L-shape 3.1e-10,
  adaptive L-shape 7.0e-9, a rate cell).

Each tolerance is three times the larger floor, rounded up to one digit.
A one-ulp change of an ``EDGE_RULE`` weight moves the cells by at most
1.2e-10, 8.8e-13 and 9.9e-13, and passes; ``newton_tol = 1e-6`` moves the
L-shape cells by 1e-6 and 7e-6, and fails.

A change that is meant to move a cell beyond its tolerance writes the files
again with ``python tests/test_csv_contract.py`` and says so.  The script
puts the ``src`` of its own checkout first on the path, so

    python tests/test_csv_contract.py --write DIR

run from another checkout (such as a copy of the parent commit with this
file in it) writes that checkout's three CSVs into ``DIR`` instead, and

    python tests/test_csv_contract.py --compare [DIR]

reruns the experiments here without writing any file and prints, per
experiment, whether its CSV is byte-identical to the one in ``DIR``
(default: the committed files), per float column, the largest relative
move of a cell against it, and the ``(method, level)`` rows that moved.
It exits with status 1 when any CSV differs, else 0.
"""

import argparse
import csv
import math
import sys
import tempfile
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

#: example -> (levels, relative tolerance of the float cells)
EXPERIMENTS = {
    "square_analytic": (4, 4e-8),
    "lshape_uniform": (4, 1e-9),
    "lshape_adaptive": (12, 3e-8),
}

EXACT = ("method", "level", "ndof")


def run(example, out):
    from vkfem.cli import ExperimentSpec, run_experiment
    levels, _ = EXPERIMENTS[example]
    run_experiment(ExperimentSpec(example=example, method="all",
                                  levels=levels, out=str(out)))


def read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("example", sorted(EXPERIMENTS))
def test_cli_csv_matches_the_committed_cells(example, tmp_path):
    out = tmp_path / f"{example}.csv"
    run(example, out)
    expected, got = read(DATA / f"{example}.csv"), read(out)
    assert list(got[0]) == list(expected[0])
    assert len(got) == len(expected)
    _, rtol = EXPERIMENTS[example]
    for new, ref in zip(got, expected):
        where = f"{ref['method']} level {ref['level']}"
        for col in EXACT:
            assert new[col] == ref[col], f"{where}: {col}"
        for col in list(ref)[len(EXACT):]:
            a, b = float(new[col]), float(ref[col])
            if math.isnan(b):
                assert math.isnan(a), f"{where}: {col} {a} is not nan"
            else:
                assert abs(a - b) <= rtol * abs(b), \
                    f"{where}: {col} {a!r} against {b!r}"


def largest_moves(got, expected):
    """Per float column, the largest relative move ``|a - b| / |b|`` of a
    cell ``a`` of ``got`` against its cell ``b`` of ``expected``: 0 for
    equal cells (``nan`` too), ``inf`` for a cell that moved from 0 or from
    or to ``nan``; and the ``(method, level)`` of each row with a cell
    that moved."""
    moves, rows = {}, []
    for new, ref in zip(got, expected):
        moved = any(new[col] != ref[col] for col in EXACT)
        for col in list(ref)[len(EXACT):]:
            a, b = float(new[col]), float(ref[col])
            if a == b or math.isnan(a) and math.isnan(b):
                move = 0.0
            elif b == 0.0 or math.isnan(a) or math.isnan(b):
                move = math.inf
            else:
                move = abs(a - b) / abs(b)
            moves[col] = max(moves.get(col, 0.0), move)
            moved = moved or move > 0.0
        if moved:
            rows.append((ref["method"], int(ref["level"])))
    return moves, rows


def test_largest_moves_names_the_rows_that_moved():
    ref = [{"method": "dg", "level": "0", "ndof": "6", "error_u": "2.0"},
           {"method": "dg", "level": "1", "ndof": "24", "error_u": "nan"}]
    got = [dict(ref[0], error_u="3.0"), dict(ref[1])]
    assert largest_moves(got, ref) == ({"error_u": 0.5}, [("dg", 0)])
    assert largest_moves(ref, ref) == ({"error_u": 0.0}, [])


def main(argv=None):
    """The script: 0 after ``--write``, and after ``--compare`` 0 when every
    fresh CSV is byte-identical to its written one, else 1."""
    parser = argparse.ArgumentParser(
        description="Write the three CLI CSVs, or compare fresh runs with "
                    "written ones.")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", metavar="DIR", type=Path, default=DATA,
                       help="directory to write the CSVs into (default: "
                            "the committed files)")
    group.add_argument("--compare", metavar="DIR", type=Path, nargs="?",
                       const=DATA, help="compare fresh runs with the CSVs "
                                        "in DIR (default: the committed "
                                        "files), writing nothing")
    args = parser.parse_args(argv)
    if args.compare is None:
        for name in EXPERIMENTS:
            run(name, args.write / f"{name}.csv")
        return 0
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in EXPERIMENTS:
            out, ref = Path(tmp) / f"{name}.csv", args.compare / f"{name}.csv"
            run(name, out)
            same = out.read_bytes() == ref.read_bytes()
            status = status or int(not same)
            moves, rows = largest_moves(read(out), read(ref))
            print(name, "byte-identical" if same else "differs",
                  " ".join(f"{col}={move:.2e}"
                           for col, move in moves.items()))
            if rows:
                print("  moved rows:", " ".join(
                    f"({method}, {level})" for method, level in rows))
    return status


@pytest.mark.parametrize("differs, status", [(None, 0),
                                             ("lshape_uniform", 1)])
def test_compare_exits_1_unless_every_csv_is_byte_identical(
        tmp_path, monkeypatch, capsys, differs, status):
    row = "method,level,ndof,error_u\ndg,0,6,{}\n"

    def known(example, out):
        Path(out).write_text(row.format("2.0"))
    monkeypatch.setitem(globals(), "run", known)
    for name in EXPERIMENTS:
        (tmp_path / f"{name}.csv").write_text(
            row.format("3.0" if name == differs else "2.0"))
    assert main(["--compare", str(tmp_path)]) == status
    printed = capsys.readouterr().out
    assert printed.count("byte-identical") == 3 - status
    assert printed.count("differs") == status


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    sys.exit(main())
