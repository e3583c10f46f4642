"""Benchmark of vkfem: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                       # all workloads, end to end
    python3 bench/run.py --trace 1             # all workloads, per layer too
    python3 bench/run.py --workload square_uniform --seed 3 --seconds 40

Each repetition of a workload runs in a fresh process (``workloads.py``)
with BLAS/OpenMP pinned to one thread, and repetitions are started until
``--seconds`` is spent on the workload (default: ``run_seconds`` of
``BENCHMARK.json``; with several workloads, each gets that long).  Metrics
are medians over repetitions, with times scaled by a calibration kernel
timed in the same process (see ``CALIBRATION_REF_S``).  Every level of
every method is checked against ``reference.json``; a mismatch or a solver
failure counts as a failed level.  With ``--trace 1`` repetitions alternate
between untraced and traced (``layers.py``), which gives the per-layer
metrics and the tracing overhead.  The seed only picks the order of
workloads, of methods within repetitions and of traced/untraced repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  A metric without samples
is left out of it, and the exit code is 1 when a level failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import EXIT_NO_PROGRAM, MUST_HIT, SRC  # noqa: E402

METHODS = ("morley", "c0ip", "dg")
THREADS = 1
REFERENCE = os.path.join(BENCH, "reference.json")
#: Relative tolerance of the error norms and the estimator against the
#: reference; ndof must match exactly.
RTOL = 1e-6
#: Times are reported at the machine speed at which ``workloads.calibrate``
#: takes this long, its typical time on the machine the benchmark was built
#: on.  Each repetition scales its times by CALIBRATION_REF_S over the
#: calibration time measured in its own process.
CALIBRATION_REF_S = 0.15
#: A repetition that takes longer than this is killed and counts as failed.
REP_TIMEOUT_S = 120.0
#: Two repetitions at least, so that a traced run has an untraced one too.
MIN_REPS = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _thread_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_repetition(workload, order, traced, workdir):
    """Run one repetition in a fresh process; returns its measurements, or
    ``{"error": ...}`` when the process failed."""
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"), workload,
           ",".join(order), "1" if traced else "0", workdir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_thread_env(),
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S:g} s"}
    end = time.monotonic()
    if proc.returncode == EXIT_NO_PROGRAM:
        raise BenchError(proc.stderr.strip())
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = out.pop("setup_end") - start
    wall = end - start - out.pop("calibrating_s")
    out["raw_wall_s"] = wall
    # a method is scaled by the calibrations just before and after it, the
    # rest of the repetition by all of them
    cal = out["calibration_s"]
    scale = CALIBRATION_REF_S / statistics.mean(cal)
    out["calibration_s"] = statistics.mean(cal)
    out["wall_s"] = wall * scale
    out["setup_s"] = setup * scale
    out["method_s"] = {
        m: out["method_s"][m] * CALIBRATION_REF_S / ((cal[i] + cal[i + 1]) / 2)
        for i, m in enumerate(order) if m in out["method_s"]}
    if traced:
        metrics = out["layers"]["metrics"]
        for name in metrics:
            if name.endswith("_s"):
                metrics[name] *= scale
    out["traced"] = traced
    return out


def check_rows(rows, reference):
    """(attempted, failed) levels of one method against its reference."""
    attempted = max(len(rows), len(reference))
    failed = 0
    for i in range(attempted):
        if i >= len(rows) or i >= len(reference):
            failed += 1
            continue
        got, want = rows[i], reference[i]
        if got[0] != want[0] or not all(
                math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0)
                for g, w in zip(got[1:], want[1:])):
            failed += 1
    return attempted, failed


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace, reference):
    """Repeat ``workload`` for ``seconds``; returns the run's summary."""
    orders = list(itertools.permutations(METHODS))
    rng = random.Random(seed)
    rng.shuffle(orders)
    first_traced = rng.random() < 0.5
    reps, durations, attempted, failed, errors = [], [], 0, 0, []
    workdir = tempfile.mkdtemp(prefix="run-", dir=_work_root())
    start = time.monotonic()
    try:
        while True:
            i = len(reps)
            traced = trace and (i % 2 == 0) == first_traced
            rep_start = time.monotonic()
            rep = run_repetition(workload, orders[i % len(orders)], traced,
                                 workdir)
            durations.append(time.monotonic() - rep_start)
            reps.append(rep)
            for method in METHODS:
                want = reference[method]
                if "error" in rep:
                    got = []
                else:
                    got = rep["rows"].get(method, [])
                    if method in rep["errors"]:
                        errors.append(f"{method}: {rep['errors'][method]}")
                a, f = check_rows(got, want)
                attempted += a
                failed += f
            if "error" in rep:
                errors.append(rep["error"])
            typical = _median(durations)
            if (len(reps) >= MIN_REPS
                    and time.monotonic() - start + typical > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = [r for r in reps if "error" not in r]
    return {"reps": ok, "attempted": attempted, "failed": failed,
            "errors": errors, "n_reps": len(reps)}


def end_to_end(reps):
    """Samples of each end-to-end metric over untraced repetitions.

    ``wall_s`` and ``peak_rss_mb`` come only from repetitions in which every
    method completed, ``method_s`` only from completed methods.
    """
    reps = [r for r in reps if not r["traced"]]
    complete = [r for r in reps if not r["errors"]]
    samples = {"wall_s": [r["wall_s"] for r in complete],
               "setup_s": [r["setup_s"] for r in reps],
               "peak_rss_mb": [r["peak_rss_mb"] for r in complete]}
    for method in METHODS:
        samples[f"method_s.{method}"] = [r["method_s"][method] for r in reps
                                         if method in r["method_s"]]
    return samples


def per_layer(reps):
    """Samples of each per-layer metric over traced repetitions in which
    every method completed."""
    complete = [r for r in reps if not r["errors"]]
    traced = [r for r in complete if r["traced"]]
    samples = {}
    for r in traced:
        for name, value in r["layers"]["metrics"].items():
            samples.setdefault(name, []).append(value)
    walls = [r["wall_s"] for r in traced]
    plain = [r["wall_s"] for r in complete if not r["traced"]]
    samples["trace.wall_s"] = walls
    if walls and plain:
        samples["trace.overhead_frac"] = [
            _median(walls) / _median(plain) - 1]
    return samples


def summarise(samples, specs):
    """The JSON metrics: the median of each metric in ``specs`` that has
    samples.  A metric without samples is left out, never reported as 0."""
    return {m["name"]: {"value": _median(samples[m["name"]]),
                        "unit": m["unit"]}
            for m in specs if samples.get(m["name"])}


def claims(workload, layer):
    """The stress claim each workload was chosen for, on its traced run."""
    if workload not in ("square_uniform", "lshape_adaptive"):
        return []
    if not layer.get("trace.wall_s"):
        return [("no complete traced repetition to check the claims on",
                 False)]
    times = {k: v for k, v in layer.items()
             if k.endswith("_s") and not k.startswith("trace.")}
    load_share = layer["problems.load_eval_s"] / layer["trace.wall_s"]
    if workload == "square_uniform":
        top = max(times, key=times.get)
        return [(f"largest self time is {top}", top == "solver.factor_s"),
                (f"load evaluation is {load_share:.1%} of wall_s (< 5%)",
                 load_share < 0.05)]
    return [(f"load evaluation is {load_share:.1%} of wall_s (>= 20%)",
             load_share >= 0.2)]


def _work_root():
    path = os.path.join(BENCH, ".work")
    os.makedirs(path, exist_ok=True)
    return path


def environment(seed, reps):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(fh.read())
    any_rep = reps[0] if reps else {}
    return {"seed": seed, "threads": THREADS, "cpu": cpu,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": any_rep.get("numpy"), "scipy": any_rep.get("scipy"),
            "commit": _git_commit(), "src_sha256": digest.hexdigest()[:16]}


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _print_samples(samples, units):
    for name, unit in units:
        values = samples.get(name, [])
        if values:
            print(f"  {name:38s} {_median(values):14.6g} {unit:6s}"
                  f" max {max(values):.6g}  n={len(values)}")
        else:
            print(f"  {name:38s} {'-':>14s} {unit:6s} n=0")


def run_workload(name, args, spec, reference):
    summary = measure(name, args.seed, args.seconds, args.trace == 1,
                      reference[name])
    reps = summary["reps"]
    print(f"== {name}: {summary['n_reps']} repetitions, "
          f"{summary['attempted']} level solves, {summary['failed']} failed "
          f"(failed_frac {summary['failed'] / summary['attempted']:.3g})")
    for err in summary["errors"]:
        print(f"  failure: {err}")
    if reps:
        cal = _median([r["calibration_s"] for r in reps])
        raw = _median([r["raw_wall_s"] for r in reps])
        print(f"  calibration {cal:.4f} s (reference {CALIBRATION_REF_S} s);"
              f" unscaled wall_s {raw:.4f} s")
    e2e = end_to_end(reps)
    _print_samples(e2e, [(m["name"], m["unit"]) for m in spec["end_to_end"]])
    if args.trace == 0:
        metrics = summarise(e2e, spec["end_to_end"])
    else:
        layer = per_layer(reps)
        _print_samples(layer, [(m["name"], m["unit"])
                               for m in spec["per_layer"]])
        for rep in reps:
            for item in rep.get("layers", {}).get("unmeasured", []):
                print(f"  unmeasured layer: {item}")
        metrics = summarise(layer, spec["per_layer"])
        layer_values = {k: v["value"] for k, v in metrics.items()}
        for text, ok in claims(name, layer_values):
            print(f"  claim {'PASS' if ok else 'FAIL'}: {text}")
    print(f"  env: {json.dumps(environment(args.seed, reps))}")
    return summary, metrics


def write_reference(names):
    """Run each workload once and store its levels as the reference."""
    out = {"rtol": RTOL}
    workdir = tempfile.mkdtemp(prefix="ref-", dir=_work_root())
    try:
        for name in names:
            rep = run_repetition(name, METHODS, False, workdir)
            if "error" in rep or rep["errors"]:
                raise BenchError(
                    f"{name}: {rep.get('error') or rep['errors']}")
            out[name] = rep["rows"]
            print(f"{name}: " + ", ".join(
                f"{m} {len(r)} levels" for m, r in rep["rows"].items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(MUST_HIT) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time spent on each workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="capture reference.json from this checkout")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the repetition
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = sorted(MUST_HIT) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    try:
        if not os.path.isfile(os.path.join(SRC, "vkfem", "__init__.py")):
            raise BenchError(f"no vkfem package under {SRC}")
        if args.write_reference:
            write_reference(sorted(MUST_HIT))
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        results = {name: run_workload(name, args, spec, reference)
                   for name in names}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(BENCH, ".work"), ignore_errors=True)

    if args.workload == "all" and args.trace == 1:
        steps = {n: results[n][1].get("solver.newton_steps_per_solve",
                                      {"value": math.nan})["value"]
                 for n in ("square_strong", "square_uniform")}
        ok = steps["square_strong"] > steps["square_uniform"]
        print(f"claim {'PASS' if ok else 'FAIL'}: Newton steps per solve "
              f"{steps['square_strong']:.3g} on square_strong > "
              f"{steps['square_uniform']:.3g} on square_uniform")
    attempted = sum(s["attempted"] for s, _ in results.values())
    failed = sum(s["failed"] for s, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, ms) in results.items()
                   for k, v in ms.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
