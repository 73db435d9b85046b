"""Benchmark inputs, the operations run on them, and their output checks.

A workload is one round of operations in three parts, all in one process:

* roof-corpus: ``convexroof.optimize`` on a fixed corpus of two-party
  states, in both directions;
* audit-mix: the five monogamy audits on pure states, plus the README
  commands run in-process through ``cli.main``;
* w-sweep: ``monogamy.analytic_w_audit`` over (p, lambda) grids and large
  ``convexroof.flatness_scan`` runs on phase-damped W/vacuum mixtures.

``qubit`` and ``qudit`` split the inputs by local dimension.  The roof and
audit states are fixed (seeded by ``CORPUS_SEED``), so the value sums
compare across seeds and commits.  They are not varied per seed, not even
by local unitaries that leave every roof value unchanged: the optimizer's
path, its time and, for some cases, its value depend on the local basis of
the input, so pass/fail and the roof times would depend on the seed.  The
run seed draws the W-class tables and (p, lambda) grids of the sweeps, the
flatness samples and the states that ``hunt`` audits.

Within a round the five kinds of operation are interleaved, each spread
evenly over the round, so that a slow spell of a shared machine falls on
every metric alike rather than on whichever part happened to run then.

Checks compare against ``refs`` (independent closed forms),
``best_known.json`` (high-start optimizer values, see best_known.py), or
properties every correct output has.  An operation that raises or fails a
check counts as failed.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs
from crenaudit import cli, convexroof, monogamy, qlinalg, states

CORPUS_SEED = 2008
WORKLOADS = ("qubit", "qudit")
HERE = os.path.dirname(os.path.abspath(__file__))
BEST_KNOWN = os.path.join(HERE, "best_known.json")

ORACLE_TOL = 1e-3       # optimizer against a closed form or the best known value
ONE_SIDED_TOL = 1e-6    # a real decomposition never beats the closed form by more
W_TOL = 1e-6            # W-class roof values and flatness means
FLAT_DEV_TOL = 1e-9
EXACT_TOL = 1e-12       # closed form against closed form, damped build, residuals
TERM_TOL = 1e-9         # audit lhs, decomposition averages, lower <= term
# Both spin-flip formulas take square roots of eigenvalues that are zero up
# to rounding, so two correct implementations agree to ~sqrt(eps) only.
SPIN_FLIP_TOL = 1e-7

# Roof-corpus cases: (id, kind, dims or (n, d), rank, corpus key).  The key
# seeds the case's own generator, so adding a case changes no other.
ROOF_CASES = {
    "qubit": (
        ("2q-r2", "2q", (2, 2), 2, 1),
        ("2q-r3", "2q", (2, 2), 3, 2),
        ("2q-r4", "2q", (2, 2), 4, 3),
        ("w-n3d2", "w", (3, 2), 2, 4),
        ("w-n4d2", "w", (4, 2), 2, 5),
    ),
    "qudit": (
        ("32-r2", "best", (3, 2), 2, 6),
        ("32-r3", "best", (3, 2), 3, 7),
        ("24-r2", "best", (2, 4), 2, 8),
        ("24-r3", "best", (2, 4), 3, 9),
        ("33-r2", "best", (3, 3), 2, 10),
        ("33-r3", "best", (3, 3), 3, 11),
        ("w-n3d3", "w", (3, 3), 2, 12),
        ("33-r9-fault", "fault", (3, 3), 9, None),
    ),
}
# Operations that fail on every seed at the commit that added the benchmark
# (see "Known failures" in README.md); any other failure makes a run incorrect.
KNOWN_FAILURES = frozenset({"33-r9-fault:min", "33-r3:min"})
REDUCED_ROOF = {"qubit": ("2q-r2", "w-n3d2"), "qudit": ("32-r2", "w-n3d3")}

# Audit states: (profile, count, corpus key).  Focus cycles over parties.
AUDIT_STATES = {
    "qubit": (((2, 2, 2), 8, 101), ((2, 2, 2, 2), 5, 102)),
    "qudit": (((3, 2, 2), 3, 103), ((3, 3, 3), 2, 104)),
}
AUDIT_MEASURES = ("cren", "ckw", "coa", "crenoa", "negativity")

# W-sweep specs: (n, d, symmetric, partition or None); flatness scans (n, d).
SWEEP_SPECS = {
    "qubit": ((3, 2, True, None), (3, 2, False, None), (4, 2, False, None), (4, 2, False, "12|3|4"),
              (6, 2, False, None), (6, 2, False, "123|45|6")),
    "qudit": ((3, 3, True, None), (3, 3, False, None), (4, 3, False, None), (4, 3, False, "1|23|4")),
}
SWEEP_LAMBDAS = 4
FLATNESS = {"qubit": (8, 2), "qudit": (5, 3)}
FLATNESS_SIZES = (2, 3, 5)
FLATNESS_SAMPLES = 8
# Several short scans and hunts rather than one long one each, so that
# their time is spread over the round (see interleave).
FLATNESS_REPEATS = 2
HUNTS, HUNT_TRIALS = 4, 10
# README `audit --family` commands and how often each runs in a round.  ou
# is a (3,3,3) state whose pair terms keep the optimizer 7 s a call, so it
# runs on qudit only; kim_sanders takes 0.04 s a call, so qubit repeats it
# to time more than a few hundredths of a second.
README_AUDITS = {"qubit": (("kim_sanders", 16),), "qudit": (("ou", 1), ("kim_sanders", 1))}


@dataclass
class Op:
    """One benchmark operation: a timed call into crenaudit and its checks."""

    kind: str                              # roof_min roof_max audit cli_audit cli_hunt sweep flatness
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    work: float = 1.0                      # hunt trials (both invocations), or flatness members scored


@dataclass
class Plan:
    """Benchmark-side inputs and references for one workload and seed."""

    seed: int
    roof: list = field(default_factory=list)
    audits: list = field(default_factory=list)
    cli: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)
    flatness: list = field(default_factory=list)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([CORPUS_SEED, *key])


def fault_case_matrix() -> np.ndarray:
    """5th Ginibre draw of rank 9 on (3,3) from default_rng(11), as tests/conftest.py:rand_dm."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _w_table(n: int, d: int, rng, symmetric: bool = False) -> np.ndarray:
    if symmetric:
        return np.full((n, d - 1), 1.0 / np.sqrt(n * (d - 1)), dtype=complex)
    t = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
    return t / np.linalg.norm(t)


def roof_base(case) -> tuple[tuple[int, ...], np.ndarray, dict]:
    """Profile dims, density matrix and extra data of a roof case."""
    cid, kind, dims, rank, key = case
    if kind == "fault":
        return dims, fault_case_matrix(), {}
    rng = _rng(key)
    if kind == "w":
        n, d = dims
        table = _w_table(n, d, rng)
        p, lam = rng.uniform(0.3, 0.9), rng.uniform(0.0, 1.0)
        return (d,) * n, refs.pcs_density(table, p, lam), {"table": table, "p": p}
    return dims, refs.ginibre_density(dims[0] * dims[1], rank, rng), {}


def _load_best_known() -> dict:
    with open(BEST_KNOWN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def plan(workload: str, seed: int, reduced: bool = False) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out = Plan(seed)
    run_rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    best = _load_best_known()

    for case in ROOF_CASES[workload]:
        cid, kind = case[0], case[1]
        if reduced and cid not in REDUCED_ROOF[workload]:
            continue
        dims, mat, extra = roof_base(case)
        cut_dims = (dims[0], int(np.prod(dims[1:])))
        ref = {"ptneg": refs.pt_negativity(mat, cut_dims)}
        if kind == "2q":
            ref["min"] = refs.wootters_concurrence(mat)
            ref["max"] = refs.two_qubit_assistance(mat)
        elif kind == "w":
            ref["min"] = ref["max"] = refs.w_values(extra["table"], extra["p"])[0]
        else:
            if cid not in best:
                raise KeyError(f"{cid} missing from {BEST_KNOWN}; run best_known.py")
            ref.update(best[cid])
        directions = ("min",) if kind == "fault" else ("min", "max")
        out.roof.append({"id": cid, "kind": kind, "dims": dims, "matrix": mat, "ref": ref,
                         "directions": directions})

    for dims, count, key in AUDIT_STATES[workload]:
        base_rng = _rng(key)
        for k in range(1 if reduced else count):
            z = base_rng.standard_normal(int(np.prod(dims))) + 1j * base_rng.standard_normal(int(np.prod(dims)))
            amps = z / np.linalg.norm(z)
            focus = 1 + k % len(dims)
            pairs = {}
            for i in range(1, len(dims) + 1):
                if i != focus:
                    a, b = sorted((focus, i))
                    pairs[i] = refs.pair_marginal(amps, dims, a, b)
            sid = "x".join(map(str, dims)) + f"-{k}"
            out.audits.append({"id": sid, "dims": dims, "amps": amps, "focus": focus, "pairs": pairs})

    trials = 2 if reduced else HUNT_TRIALS
    for family, count in README_AUDITS[workload]:
        for _ in range(1 if reduced else count):
            out.cli.append(("cli_audit", family, ["audit", "--family", family, "--measures",
                                                 ",".join(AUDIT_MEASURES), "--format", "csv"], 1))
    for k in range(1 if reduced else HUNTS):
        out.cli.append(("cli_hunt", f"hunt-3,2,2-{k}", ["hunt", "--profile", "3,2,2", "--trials",
                                                      str(trials), "--seed", str(seed + k)], 2 * trials))

    specs = SWEEP_SPECS[workload][:1] if reduced else SWEEP_SPECS[workload]
    for n, d, symmetric, partition in specs:
        table = _w_table(n, d, run_rng, symmetric)
        p_grid = (1.0,) if reduced else tuple(np.round(run_rng.uniform(0.1, 0.95, 2), 6))
        inner = np.round(run_rng.uniform(0.05, 0.95, SWEEP_LAMBDAS - 2), 6)
        lam_grid = (0.0,) if reduced else (0.0, *map(float, inner), 1.0)
        blocks = None if partition is None else [tuple(int(c) for c in b) for b in partition.split("|")]
        merged = table if blocks is None else refs.coarse_table(table, blocks)
        for p in p_grid:
            for lam in lam_grid:
                g, pairs = refs.w_values(merged, p)
                out.sweeps.append({"id": f"w-n{n}d{d}-{partition or 'singletons'}-p{p}-l{lam}",
                                   "n": n, "d": d, "table": table, "p": float(p), "lam": float(lam),
                                   "blocks": blocks, "global": g, "pairs": pairs,
                                   "density": refs.pcs_density(table, p, lam)})

    n, d = FLATNESS[workload]
    table = _w_table(n, d, run_rng)
    p, lam = float(run_rng.uniform(0.3, 0.9)), float(run_rng.uniform(0.0, 1.0))
    density = refs.pcs_density(table, p, lam)
    for k in range(1 if reduced else FLATNESS_REPEATS):
        for size in FLATNESS_SIZES[:1] if reduced else FLATNESS_SIZES:
            out.flatness.append({"id": f"flat-n{n}d{d}-size{size}-{k}", "n": n, "d": d, "table": table,
                                 "p": p, "lam": lam, "size": size, "seed": seed + k,
                                 "samples": 2 if reduced else FLATNESS_SAMPLES,
                                 "global": refs.w_values(table, p)[0], "density": density})
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _roof_check(case, direction, seen):
    ref = case["ref"]
    dims = case["dims"]

    def check(res) -> list[str]:
        bad = []
        value = res.value
        dec = res.decomposition
        amps = [phi.amplitudes for phi in dec.states]
        recon = sum(w * np.outer(a, a.conj()) for w, a in zip(dec.weights, amps))
        dev = float(np.max(np.abs(recon - case["matrix"])))
        if dev > 1e-8:
            bad.append(f"decomposition reconstructs rho to {dev:.2e}")
        avg = sum(w * refs.pure_negativity(a, dims, [1]) for w, a in zip(dec.weights, amps))
        if abs(avg - value) > TERM_TOL:
            bad.append(f"value {value} is not its decomposition's average {avg}")
        if value < ref["ptneg"] - TERM_TOL:
            bad.append(f"value {value} below the partial-transpose negativity {ref['ptneg']}")
        target = ref.get(direction)
        if case["kind"] in ("2q", "w"):
            one_sided = ONE_SIDED_TOL
            tol = ORACLE_TOL if case["kind"] == "2q" else W_TOL
            if abs(value - target) > tol:
                bad.append(f"{direction} {value} differs from closed form {target} by more than {tol}")
            if direction == "min" and value < target - one_sided:
                bad.append(f"min {value} below closed form {target}")
            if direction == "max" and value > target + one_sided:
                bad.append(f"max {value} above closed form {target}")
        elif direction == "min" and value > target + ORACLE_TOL:
            bad.append(f"min {value} above best known {target} by {value - target:.4f}")
        elif direction == "max" and value < target - ORACLE_TOL:
            bad.append(f"max {value} below best known {target} by {target - value:.4f}")
        seen[direction] = value
        if "min" in seen and "max" in seen and seen["min"] > seen["max"] + TERM_TOL:
            bad.append(f"min {seen['min']} above max {seen['max']}")
        return bad

    return check


def _audit_check(state, measure):
    dims, amps, focus = state["dims"], state["amps"], state["focus"]
    qubits = all(d == 2 for d in dims)
    if measure in ("ckw", "coa"):
        lhs_ref = refs.pure_concurrence(amps, dims, [focus]) ** 2
    else:
        lhs_ref = refs.pure_negativity(amps, dims, [focus]) ** 2

    def check(report) -> list[str]:
        bad = []
        if abs(report.lhs_sq - lhs_ref) > TERM_TOL:
            bad.append(f"lhs_sq {report.lhs_sq} differs from SVD reference {lhs_ref}")
        for i, term, lower, kind in zip(report.partners, report.rhs_terms_sq,
                                        report.rhs_lower_sq, report.rhs_bound_kinds):
            pair = state["pairs"][i]
            pair_dims = tuple(dims[p - 1] for p in sorted((focus, i)))
            if lower > term + TERM_TOL:
                bad.append(f"partner {i}: rhs_lower_sq {lower} above rhs_terms_sq {term}")
            if measure == "negativity":
                want = refs.pt_negativity(pair, pair_dims) ** 2
                if abs(term - want) > TERM_TOL:
                    bad.append(f"partner {i}: negativity term {term} differs from {want}")
            elif pair_dims == (2, 2) and measure in ("cren", "ckw"):
                want = refs.wootters_concurrence(pair) ** 2
                if kind != "exact" or abs(term - want) > SPIN_FLIP_TOL:
                    bad.append(f"partner {i}: {kind} term {term} differs from Wootters {want}")
            elif pair_dims == (2, 2):
                ceiling = refs.two_qubit_assistance(pair) ** 2
                if term > ceiling + ONE_SIDED_TOL:
                    bad.append(f"partner {i}: dual term {term} above assistance {ceiling}")
        if qubits and measure in ("cren", "ckw", "negativity") and report.residual < -ONE_SIDED_TOL:
            bad.append(f"qubit {measure} residual {report.residual} < -{ONE_SIDED_TOL}")
        if qubits and measure in ("coa", "crenoa") and report.verdict not in ("holds", "saturated"):
            bad.append(f"qubit dual {measure} verdict {report.verdict}")
        return bad

    return check


# Paper values for the README audits: (measure -> verdict), cren residual.
CLI_EXPECT = {
    "ou": ({"cren": "holds", "ckw": "certified_violation", "negativity": "holds"}, 2.0),
    "kim_sanders": ({"cren": "holds", "ckw": "certified_violation", "negativity": "holds"}, 4.0 - 16.0 / 9.0),
}


def _cli_check(family):
    def check(out) -> list[str]:
        codes, first, second = out
        bad = []
        if codes != (0, 0):
            bad.append(f"exit codes {codes}")
        if first != second:
            bad.append("two identical invocations wrote different files")
        rows = list(csv.DictReader(io.StringIO(first.decode("utf-8"))))
        if family in CLI_EXPECT:
            verdicts, residual = CLI_EXPECT[family]
            by_measure = {r["measure"]: r for r in rows}
            for measure, verdict in verdicts.items():
                got = by_measure.get(measure, {}).get("verdict")
                if got != verdict:
                    bad.append(f"{family} {measure} verdict {got}, paper says {verdict}")
            cren = float(by_measure.get("cren", {}).get("residual", "nan"))
            if not abs(cren - residual) <= ONE_SIDED_TOL:
                bad.append(f"{family} cren residual {cren}, paper says {residual}")
        return bad

    return check


def _sweep_check(point):
    def check(out) -> list[str]:
        audit, damped, built = out
        bad = []
        if abs(audit.values.global_cren - point["global"]) > EXACT_TOL:
            bad.append(f"global {audit.values.global_cren} differs from {point['global']}")
        for got, want in zip(audit.values.pair_cren, point["pairs"]):
            if abs(got - want) > EXACT_TOL:
                bad.append(f"pair value {got} differs from {want}")
        if len(audit.values.pair_cren) != len(point["pairs"]):
            bad.append("wrong number of pair values")
        if abs(audit.flatness_mean - point["global"]) > W_TOL:
            bad.append(f"flatness mean {audit.flatness_mean} differs from {point['global']}")
        if audit.flatness_max_dev > FLAT_DEV_TOL:
            bad.append(f"flatness deviation {audit.flatness_max_dev}")
        if abs(audit.report.residual) > EXACT_TOL:
            bad.append(f"saturation residual {audit.report.residual}")
        for label, mat in (("phase-damped", damped), ("built", built)):
            dev = float(np.max(np.abs(mat.matrix - point["density"])))
            if dev > EXACT_TOL:
                bad.append(f"{label} density differs from the definition by {dev:.2e}")
        return bad

    return check


def _flatness_check(scan):
    def check(out) -> list[str]:
        res, damped = out
        bad = []
        if abs(res.mean - scan["global"]) > W_TOL:
            bad.append(f"flatness mean {res.mean} differs from {scan['global']}")
        if res.max_abs_dev > FLAT_DEV_TOL:
            bad.append(f"flatness deviation {res.max_abs_dev}")
        dev = float(np.max(np.abs(damped.matrix - scan["density"])))
        if dev > EXACT_TOL:
            bad.append(f"phase-damped density differs from the definition by {dev:.2e}")
        return bad

    return check


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _run_cli(args: list[str], out_dir: str) -> tuple[tuple[int, int], bytes, bytes]:
    codes, blobs = [], []
    for k in range(2):
        path = os.path.join(out_dir, f"cli-{k}.out")
        codes.append(cli.main(args + ["--output", path]))
        with open(path, "rb") as fh:
            blobs.append(fh.read())
        os.remove(path)
    return (codes[0], codes[1]), blobs[0], blobs[1]


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Merge lists keeping each one's order, each spread evenly over the result."""
    keyed = [((k + 0.5) / len(g), j, op) for j, g in enumerate(groups) for k, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def instantiate(p: Plan, out_dir: str) -> list[Op]:
    """Build the crenaudit inputs of a plan and the round's operations.

    This is the program-side set-up (object construction and validation);
    its time is part of ``setup_s``.
    """
    roof: list[Op] = []
    audits: list[Op] = []
    clis: list[Op] = []
    sweeps: list[Op] = []
    flats: list[Op] = []
    for case in p.roof:
        rho = qlinalg.DensityOperator(qlinalg.DimensionProfile(case["dims"]), case["matrix"])
        seen: dict[str, float] = {}
        for direction in case["directions"]:
            roof.append(Op(f"roof_{direction}", f"{case['id']}:{direction}",
                          lambda rho=rho, d=direction: convexroof.optimize(rho, 1, d),
                          _roof_check(case, direction, seen)))

    audit_fns = {
        "cren": lambda psi, f, sid: monogamy.cren_audit(psi, f, state_id=sid),
        "ckw": lambda psi, f, sid: monogamy.ckw_audit(psi, f, state_id=sid),
        "coa": lambda psi, f, sid: monogamy.dual_audit(psi, f, "coa", state_id=sid),
        "crenoa": lambda psi, f, sid: monogamy.dual_audit(psi, f, "crenoa", state_id=sid),
        "negativity": lambda psi, f, sid: monogamy.negativity_audit(psi, f, state_id=sid),
    }
    for state in p.audits:
        psi = qlinalg.PureState(qlinalg.DimensionProfile(state["dims"]), state["amps"])
        for measure in AUDIT_MEASURES:
            fn = audit_fns[measure]
            audits.append(Op("audit", f"{state['id']}:{measure}",
                          lambda fn=fn, psi=psi, f=state["focus"], sid=state["id"]: fn(psi, f, sid),
                          _audit_check(state, measure)))

    for kind, family, args, work in p.cli:
        clis.append(Op(kind, family, lambda args=args: _run_cli(args, out_dir), _cli_check(family), work))

    for point in p.sweeps:
        wspec = states.WClassSpec(point["n"], point["d"], point["table"])
        pcs = states.PCSSpec(wspec, point["p"], point["lam"])
        partition = None if point["blocks"] is None else states.PartitionSpec(tuple(point["blocks"]))

        def sweep(pcs=pcs, partition=partition):
            audit = monogamy.analytic_w_audit(pcs, partition, seed=p.seed)
            damped = states.apply_phase_damping(states.coherent_superposition(pcs), pcs.lam)
            return audit, damped, states.build_pcs_density(pcs)

        sweeps.append(Op("sweep", point["id"], sweep, _sweep_check(point)))

    for scan in p.flatness:
        wspec = states.WClassSpec(scan["n"], scan["d"], scan["table"])
        pcs = states.PCSSpec(wspec, scan["p"], scan["lam"])

        def flat(pcs=pcs, scan=scan):
            rho = states.apply_phase_damping(states.coherent_superposition(pcs), pcs.lam)
            res = convexroof.flatness_scan(rho, 1, scan["samples"], seed=scan["seed"], size=scan["size"])
            return res, rho

        flats.append(Op("flatness", scan["id"], flat, _flatness_check(scan),
                      scan["samples"] * scan["size"]))
    return interleave([roof, audits, clis, sweeps, flats])
