"""crenaudit benchmark: roof-corpus, audit-mix and w-sweep in one process.

    python3 perfbench/run.py --workload qubit|qudit --seed N --seconds S --trace 0|1

Run from the repository root; crenaudit is imported from ./src.  The run
builds its inputs from the seed, runs max(1, S // ROUND_SECONDS) whole
rounds of the workload's operations (a count that depends on S alone, not on
how fast the rounds run, so ``attempted`` and ``failed`` repeat exactly),
checks every output, and prints one metric per line and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times
and rates are scaled to the reference box's speed by a probe run between
operations (speed.py).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one round
untraced and one traced, reports the per-layer metrics and the traced
round's counts, and writes the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

# Pin BLAS threads before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
# Nominal length of one round: a round took 35-44 s (qubit) and 59-65 s
# (qudit), speed probe included, when the benchmark was added.
ROUND_SECONDS = 45

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import crenaudit; "
    "print(time.perf_counter() - t); print(crenaudit.__file__)"
)


def import_crenaudit():
    """Import crenaudit from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "crenaudit", "__init__.py")):
        sys.stderr.write(f"perfbench: no crenaudit sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import crenaudit

    if not os.path.abspath(crenaudit.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported crenaudit from {crenaudit.__file__}, not {SRC}\n")
        sys.exit(2)
    return crenaudit


def time_import() -> float:
    """Median wall time of `import crenaudit` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, path = proc.stdout.split("\n")[:2]
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"probe imported crenaudit from {path}")
        times.append(float(elapsed))
    return statistics.median(times)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_round(ops, probe=None) -> dict:
    """Run every operation once; returns per-op records and the round's wall time.

    With a SpeedProbe, runs it before every operation and records the
    machine's slowdown over the round.
    """
    records = []
    if probe is not None:
        probe.reset()
    start = time.perf_counter()
    for op in ops:
        if probe is not None:
            probe.run()
        t0 = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # an operation that raises is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        problems = [error] if error else op.check(out)
        records.append({"op": op, "seconds": dt, "out": out, "problems": problems})
    return {"records": records, "seconds": time.perf_counter() - start,
            "slowdown": 1.0 if probe is None else probe.slowdown()}


def round_metrics(rnd: dict) -> dict[str, float]:
    by_kind: dict[str, list] = {}
    for rec in rnd["records"]:
        by_kind.setdefault(rec["op"].kind, []).append(rec)

    def seconds(*kinds):  # at the reference box's speed
        return sum(r["seconds"] for k in kinds for r in by_kind.get(k, [])) / rnd["slowdown"]

    def work(*kinds):
        return sum(r["op"].work for k in kinds for r in by_kind.get(k, []))

    def values(kind):
        return sum(r["out"].value for r in by_kind.get(kind, []) if r["out"] is not None)

    upper = 0.0
    for rec in by_kind.get("audit", []):
        report = rec["out"]
        if report is not None and report.measure == "cren":
            upper += sum(t for t, k in zip(report.rhs_terms_sq, report.rhs_bound_kinds) if k == "upper")
    for rec in by_kind.get("cli_audit", []):
        if rec["out"] is None:
            continue
        for row in csv.DictReader(io.StringIO(rec["out"][1].decode("utf-8"))):
            if row["measure"] == "cren" and set(row["bound_kinds"].split(";")) == {"upper"}:
                upper += float(row["rhs_sq_sum"])
    return {
        "roof_min_s": seconds("roof_min"),
        "roof_max_s": seconds("roof_max"),
        "roof_min_value_sum": values("roof_min"),
        "roof_max_value_sum": values("roof_max"),
        "audit_per_s": work("audit") / seconds("audit"),
        "audit_cren_upper_sum": upper,
        "readme_audit_s": seconds("cli_audit"),
        "hunt_trials_per_s": work("cli_hunt") / seconds("cli_hunt"),
        "sweep_points_per_s": work("sweep") / seconds("sweep"),
        "flatness_states_per_s": work("flatness") / seconds("flatness"),
    }


UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "roof_min_s": "s",
    "roof_max_s": "s",
    "roof_min_value_sum": "1",
    "roof_max_value_sum": "1",
    "audit_per_s": "audits/s",
    "audit_cren_upper_sum": "1",
    "readme_audit_s": "s",
    "hunt_trials_per_s": "trials/s",
    "sweep_points_per_s": "points/s",
    "flatness_states_per_s": "states/s",
}
# Deterministic for a seed: reported from the first round, not as a median.
VALUE_METRICS = ("roof_min_value_sum", "roof_max_value_sum", "audit_cren_upper_sum")
PARTS = {"roof_min": "roof-corpus", "roof_max": "roof-corpus", "audit": "audit-mix",
         "cli_audit": "audit-mix", "cli_hunt": "audit-mix", "sweep": "w-sweep", "flatness": "w-sweep"}


def summarize(rounds) -> tuple[int, int, dict, list[str], set[str]]:
    """Attempted and failed counts, per-part counts, failure messages, failed op names."""
    attempted = failed = 0
    parts: dict[str, dict[str, int]] = {}
    failures = []
    failed_names = set()
    for rnd in rounds:
        for rec in rnd["records"]:
            part = parts.setdefault(PARTS[rec["op"].kind], {"attempted": 0, "failed": 0})
            part["attempted"] += 1
            attempted += 1
            if rec["problems"]:
                part["failed"] += 1
                failed += 1
                failed_names.add(rec["op"].name)
                failures.append(f"{rec['op'].name}: {'; '.join(rec['problems'])}")
    return attempted, failed, parts, sorted(set(failures)), failed_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_crenaudit()
    import numpy as np

    import refs
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    bad = refs.self_check()
    if bad:
        sys.stderr.write("perfbench: reference self-check failed:\n  " + "\n  ".join(bad) + "\n")
        return 3

    cli_dir = os.path.join(OUT, f"cli-{os.getpid()}")
    os.makedirs(cli_dir, exist_ok=True)
    try:
        import_s = time_import()
        the_plan = workloads.plan(args.workload, args.seed)
        build_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workloads.instantiate(the_plan, cli_dir)
            build_times.append(time.perf_counter() - t0)

        if args.trace:
            untraced = run_round(ops)
            with Tracer() as tracer:
                rounds = [run_round(ops)]
            metrics = dict(tracer.layer_metrics())
            metrics["trace.overhead_s"] = (rounds[0]["seconds"] - untraced["seconds"], "s")
            metrics["trace.spans"] = (len(tracer.spans), "count")
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        else:
            probe = SpeedProbe()
            rounds = [run_round(ops, probe) for _ in range(max(1, int(args.seconds // ROUND_SECONDS)))]
            per_round = [round_metrics(r) for r in rounds]
            # Set-up ran seconds before the first round, well within the
            # minutes over which the machine's speed drifts.
            setup_s = (import_s + statistics.median(build_times)) / rounds[0]["slowdown"]
            metrics = {"setup_s": (setup_s, "s"),
                       "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
            for name in per_round[0]:
                vals = [m[name] for m in per_round]
                metrics[name] = (vals[0] if name in VALUE_METRICS else statistics.median(vals), UNITS[name])
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)

    attempted, failed, parts, failures, failed_names = summarize(rounds)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    kind_s: dict[str, float] = {}
    for rec in rounds[0]["records"]:
        kind_s[rec["op"].kind] = kind_s.get(rec["op"].kind, 0.0) + rec["seconds"]
    # Wall times as measured (kind_s: the first round's), and the slowdowns
    # the metrics were divided by.
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                      "round_s": [r["seconds"] for r in rounds], "kind_s": kind_s,
                      "slowdown": [r["slowdown"] for r in rounds],
                      "parts": parts, "failures": failures, "environment": environment(np)}))
    print(json.dumps({
        # The references passed their self-check (else exit 3 above) and no
        # operation failed other than the known, listed faults.
        "correct": failed_names <= workloads.KNOWN_FAILURES,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
