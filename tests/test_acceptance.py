"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion pins its tolerances here; nothing is deferred to later
calibration.
"""

import numpy as np

from crenaudit import (
    Bipartition,
    DimensionProfile,
    OptConfig,
    PCSSpec,
    PartitionSpec,
    PureState,
    WClassSpec,
    analytic_w_audit,
    apply_phase_damping,
    average_negativity,
    build_pcs_density,
    build_w_state,
    ckw_audit,
    coherent_superposition,
    concurrence_pure,
    cren_audit,
    decomposition_from_unitary,
    dual_audit,
    flatness_scan,
    haar_unitary,
    kim_sanders_state,
    negativity_audit,
    negativity_mixed,
    negativity_pure,
    optimize,
    ou_state,
    partial_trace,
    partial_transpose,
    random_pure_state,
)
from crenaudit.cli import main
from crenaudit.measures import pure_concurrences
from crenaudit.qlinalg import cut_matrices, cut_matrix

from conftest import rand_dm, rand_pure
from oracles import expand_coarse_state, to_density


def report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures


def pair_cren_min(rho, cfg=None) -> float:
    return optimize(rho, 1, "min", cfg).value


def pair_concurrence_min(rho, cfg=None) -> float:
    members = optimize(rho, 1, "min", cfg).decomposition.members
    return float(pure_concurrences(cut_matrices(members, rho.profile, 1)).sum())


def test_criterion_1_antisymmetric_counterexample():
    """Totally antisymmetric three-qutrit state: paper section III.B values."""
    failures = []
    psi = ou_state()
    c2 = concurrence_pure(psi, 1) ** 2
    if abs(c2 - 4 / 3) > 1e-9:
        failures.append(f"C^2 across 1|23 = {c2}, expected 4/3 within 1e-9")
    n = negativity_pure(psi, 1)
    if abs(n - 2.0) > 1e-9:
        failures.append(f"N across 1|23 = {n}, expected 2 within 1e-9")
    rho = to_density(psi)
    for keep in ((1, 2), (1, 3)):
        pair = partial_trace(rho, keep)
        c2_pair = pair_concurrence_min(pair) ** 2
        if abs(c2_pair - 1.0) > 1e-3:
            failures.append(f"pair {keep} C^2 = {c2_pair}, expected 1 within 1e-3")
        cren = pair_cren_min(pair)
        if abs(cren - 1.0) > 1e-6:
            failures.append(f"pair {keep} roof negativity = {cren}, expected 1 within 1e-6")
        flat = flatness_scan(pair, 1, samples=64, seed=0)
        if flat.max_abs_dev > 1e-9:
            failures.append(f"pair {keep} flatness dev = {flat.max_abs_dev} > 1e-9")
    report("1 (antisymmetric qutrit counterexample)", failures)


def test_criterion_2_mixed_dimension_counterexample():
    """3x2x2 counterexample: global and pairwise values."""
    failures = []
    psi = kim_sanders_state()
    c2 = concurrence_pure(psi, 1) ** 2
    if abs(c2 - 12 / 9) > 1e-9:
        failures.append(f"C^2 = {c2}, expected 12/9 within 1e-9")
    n2 = negativity_pure(psi, 1) ** 2
    if abs(n2 - 4.0) > 1e-9:
        failures.append(f"roof negativity^2 across 1|23 = {n2}, expected 4 within 1e-9")
    rho = to_density(psi)
    for keep in ((1, 2), (1, 3)):
        pair = partial_trace(rho, keep)
        c2_pair = pair_concurrence_min(pair) ** 2
        if abs(c2_pair - 8 / 9) > 1e-3:
            failures.append(f"pair {keep} C^2 = {c2_pair}, expected 8/9 within 1e-3")
    n2_ab = pair_cren_min(partial_trace(rho, (1, 2))) ** 2
    if abs(n2_ab - 8 / 9) > 1e-3:
        failures.append(f"pair (1,2) roof negativity^2 = {n2_ab}, expected 8/9 within 1e-3")
    report("2 (3x2x2 counterexample)", failures)


def test_criterion_3_verdicts():
    """Concurrence inequality certified violated; negativity-roof holds."""
    failures = []
    for name, psi, cren_residual in (
        ("antisymmetric", ou_state(), 2.0),
        ("mixed-dimension", kim_sanders_state(), 4 - 16 / 9),
    ):
        ckw = ckw_audit(psi, 1, state_id=name)
        if ckw.verdict != "certified_violation":
            failures.append(f"{name}: ckw verdict {ckw.verdict}, expected certified_violation")
        cren = cren_audit(psi, 1, state_id=name)
        if cren.verdict != "holds":
            failures.append(f"{name}: cren verdict {cren.verdict}, expected holds")
        if abs(cren.residual - cren_residual) > 1e-6:
            failures.append(
                f"{name}: cren residual {cren.residual}, expected {cren_residual} within 1e-6"
            )
    report("3 (verdicts)", failures)


def test_criterion_4_qubit_monogamy_property_suite():
    """Monogamy and dual inequalities on seeded qubit corpora (n = 3, 4)."""
    failures = []
    for n, seed in ((3, 301), (4, 401)):
        rng = np.random.default_rng(seed)
        profile = DimensionProfile((2,) * n)
        worst_cren = worst_ckw = worst_neg = np.inf
        dual_failures = 0
        for t in range(100):
            psi = random_pure_state(profile, rng)
            rep = cren_audit(psi, 1, seed=t)
            if not all(k == "exact" for k in rep.rhs_bound_kinds):
                failures.append(f"n={n} state {t}: pair oracle not exact")
            worst_cren = min(worst_cren, rep.residual)
            worst_ckw = min(worst_ckw, ckw_audit(psi, 1, seed=t).residual)
            worst_neg = min(worst_neg, negativity_audit(psi, 1).residual)
            dual = dual_audit(psi, 1, "crenoa", seed=t)
            if dual.verdict not in ("holds", "saturated"):
                dual_failures += 1
        if worst_cren < -1e-6:
            failures.append(f"n={n}: worst cren residual {worst_cren} < -1e-6")
        if worst_ckw < -1e-6:
            failures.append(f"n={n}: worst ckw residual {worst_ckw} < -1e-6")
        if worst_neg < -1e-9:
            failures.append(f"n={n}: worst negativity residual {worst_neg} < -1e-9")
        if dual_failures:
            failures.append(f"n={n}: {dual_failures} dual audits failed to hold")
    report("4 (qubit monogamy property suite)", failures)


def test_criterion_5_two_qubit_equivalence():
    """Roof minimum matches the spin-flip concurrence; rank-2 N equals C."""
    failures = []
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for k in range(50):
        rho = rand_dm((2, 2), 1 + k % 4, rng)
        gap = abs(pair_cren_min(rho) - __import__("crenaudit").wootters_concurrence_2q(rho))
        worst = max(worst, gap)
        if gap > 1e-12:
            failures.append(f"state {k}: |roof - closed form| = {gap} > 1e-12")
    print(f"\n  criterion 5: worst |optimizer - closed form| = {worst:.2e}")

    # The hardest known input: a separable full-rank state (Wootters 0),
    # state 31 of seed 99.  Its gap is pinned and may only be tightened.
    rng = np.random.default_rng(99)
    hard = [rand_dm((2, 2), 1 + k % 4, rng) for k in range(32)][-1]
    gap = abs(pair_cren_min(hard) - __import__("crenaudit").wootters_concurrence_2q(hard))
    print(f"  criterion 5: hardest known state, gap {gap:.3e}")
    if gap > 1e-12:
        failures.append(f"hardest known state: |roof - closed form| = {gap} > 1e-12")

    rng = np.random.default_rng(512)
    worst_eq = 0.0
    for k in range(100):
        dims = [(2, 2), (3, 3), (2, 4)][k % 3]
        lam0 = rng.uniform(0.02, 0.98)
        profile = DimensionProfile(dims)
        vec = np.zeros(profile.size, dtype=complex)
        vec[profile.index_of((0, 0))] = np.sqrt(lam0)
        vec[profile.index_of((1, 1))] = np.sqrt(1 - lam0)
        rotated = np.kron(haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)) @ vec
        psi = PureState(profile, rotated)
        diff = abs(negativity_pure(psi, 1) - concurrence_pure(psi, 1))
        worst_eq = max(worst_eq, diff)
        if diff > 1e-12:
            failures.append(f"rank-2 state {k}: |N - C| = {diff} > 1e-12")
    print(f"  criterion 5: worst rank-2 |N - C| = {worst_eq:.2e}")
    report("5 (two-qubit and rank-2 equivalences)", failures)


def _criterion_6_specs():
    sym32 = WClassSpec.symmetric(3, 2)
    asym33 = WClassSpec(
        3,
        3,
        np.array(
            [
                [0.5, 0.1j],
                [0.3, 0.4],
                [0.2 - 0.3j, 0.5j],
            ],
            dtype=complex,
        )
        / np.linalg.norm([0.5, 0.1, 0.3, 0.4, np.abs(0.2 - 0.3j), 0.5]),
    )
    w42 = WClassSpec(4, 2, np.array([[0.6], [0.4], [0.5], [np.sqrt(1 - 0.77)]]))
    return ("sym n=3 d=2", sym32), ("asym n=3 d=3", asym33), ("n=4 d=2", w42)


def test_criterion_6_coherent_mixture_saturation():
    """Saturation and coherence invariance over a (p, lambda) grid."""
    failures = []
    p_grid = (0.1, 0.25, 0.5, 0.75, 0.9)
    lam_grid = (0.0, 0.5, 1.0)
    for name, wspec in _criterion_6_specs():
        for p in p_grid:
            per_lambda_global = []
            per_lambda_mean = []
            for lam in lam_grid:
                audit = analytic_w_audit(PCSSpec(wspec, p, lam), seed=0)
                if abs(audit.report.residual) > 1e-12:
                    failures.append(f"{name} p={p} lam={lam}: residual {audit.report.residual}")
                if audit.flatness_max_dev > 1e-9:
                    failures.append(
                        f"{name} p={p} lam={lam}: flatness dev {audit.flatness_max_dev}"
                    )
                rho = build_pcs_density(PCSSpec(wspec, p, lam))
                value = optimize(rho, 1, "min").value
                if abs(value - audit.values.global_cren) > 1e-3:
                    failures.append(
                        f"{name} p={p} lam={lam}: optimizer {value} vs analytic "
                        f"{audit.values.global_cren}"
                    )
                per_lambda_global.append(audit.values.global_cren)
                per_lambda_mean.append(audit.flatness_mean)
            if max(per_lambda_global) - min(per_lambda_global) > 1e-9:
                failures.append(f"{name} p={p}: analytic values vary across lambda")
            if max(per_lambda_mean) - min(per_lambda_mean) > 1e-9:
                failures.append(f"{name} p={p}: flatness means vary across lambda")
    report("6 (coherent W-mixture saturation)", failures)


def _partitions_into(n_parties: int, blocks: int):
    """All set partitions of 1..n into exactly `blocks` blocks."""
    parties = list(range(1, n_parties + 1))

    def rec(remaining, current):
        if not remaining:
            if len(current) == blocks:
                yield tuple(tuple(b) for b in current)
            return
        if len(current) > blocks:
            return
        head, rest = remaining[0], remaining[1:]
        for k in range(len(current)):
            yield from rec(rest, current[:k] + [current[k] + [head]] + current[k + 1 :])
        yield from rec(rest, current + [[head]])

    yield from rec(parties, [])


def test_criterion_7_partition_invariance():
    """Coarse-graining four parties into 2 or 3 blocks keeps saturation."""
    failures = []
    wspec = WClassSpec.symmetric(4, 2)

    count = 0
    for blocks in (2, 3):
        for partition_blocks in _partitions_into(4, blocks):
            count += 1
            partition = PartitionSpec(partition_blocks)
            audit = analytic_w_audit(PCSSpec(wspec, 0.7, 0.5), partition, seed=0)
            if abs(audit.report.residual) > 1e-12:
                failures.append(f"{partition_blocks}: residual {audit.report.residual}")
            rebuilt = expand_coarse_state(wspec, partition)
            original = build_w_state(wspec)
            fidelity = abs(np.vdot(original.amplitudes, rebuilt.amplitudes)) ** 2
            if abs(fidelity - 1.0) > 1e-10:
                failures.append(f"{partition_blocks}: fidelity {fidelity}")
    if count != 13:
        failures.append(f"enumerated {count} partitions, expected 13")
    report("7 (partition invariance)", failures)


def test_criterion_8_kernel_properties():
    """Transpose-side symmetry, path agreement, reconstruction, sandwich."""
    failures = []
    rng = np.random.default_rng(808)
    light = OptConfig(starts=2, max_sweeps=40)

    profiles = ((2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 3))
    for k in range(50):
        dims = profiles[k % len(profiles)]
        rho = rand_dm(dims, 1 + k % 4, rng)
        n = len(dims)
        side = (1,) if n == 2 else (1, 2)
        comp = tuple(p for p in range(1, n + 1) if p not in side)
        e1 = np.sort(np.linalg.eigvalsh(partial_transpose(rho, side)))
        e2 = np.sort(np.linalg.eigvalsh(partial_transpose(rho, comp)))
        if np.max(np.abs(e1 - e2)) > 1e-9:
            failures.append(f"state {k}: transpose-side spectra differ")

        cut = Bipartition((1,), n)
        nmix = negativity_mixed(rho, cut)
        averages = []
        for _ in range(4):
            dec = decomposition_from_unitary(rho, haar_unitary(rho.rank() + 1, rng))
            if np.max(np.abs(dec.reconstruct() - rho.matrix)) > 1e-8:
                failures.append(f"state {k}: decomposition reconstruction broke")
            averages.append(average_negativity(dec, cut))
        if any(avg < nmix - 1e-9 for avg in averages):
            failures.append(f"state {k}: sampled average fell below the transpose bound")
        if optimize(rho, cut, "min", light).value < nmix - 1e-9:
            failures.append(f"state {k}: roof minimum fell below the transpose bound")

    pure_profiles = ((2, 2), (3, 3), (4, 4), (2, 2, 2), (4, 4, 4))
    for k in range(50):
        dims = pure_profiles[k % len(pure_profiles)]
        psi = rand_pure(dims, rng)
        cut = Bipartition((1,), len(dims))
        mat = cut_matrix(psi, cut)
        s = np.linalg.svd(mat, compute_uv=False)
        via_schmidt = 2.0 * float(np.sum(np.tril(np.outer(s, s), -1)))
        w = np.clip(np.linalg.eigvalsh(mat @ mat.conj().T), 0.0, None)
        via_marginal = float(np.sum(np.sqrt(w))) ** 2 - 1.0
        via_pt = (
            np.abs(np.linalg.eigvalsh(partial_transpose(to_density(psi), cut.side_b))).sum()
            - 1.0
        )
        paths = (via_schmidt, via_marginal, via_pt, negativity_pure(psi, cut))
        spread = max(paths) - min(paths)
        if spread > 1e-9:
            failures.append(f"pure state {k} {dims}: path spread {spread} > 1e-9")
    report("8 (kernel properties)", failures)


def test_criterion_9_channel_identity():
    """Phase damping of the coherent superposition rebuilds the mixture."""
    failures = []
    specs = [spec for _, spec in _criterion_6_specs()]
    for wspec in specs:
        for p in (0.25, 0.6, 0.9):
            psi = coherent_superposition(PCSSpec(wspec, p, 1.0))
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                damped = apply_phase_damping(psi, lam)
                direct = build_pcs_density(PCSSpec(wspec, p, lam))
                dev = float(np.max(np.abs(damped.matrix - direct.matrix)))
                if dev > 1e-12:
                    failures.append(f"n={wspec.n} d={wspec.d} p={p} lam={lam}: dev {dev}")
    report("9 (phase damping identity)", failures)


def test_criterion_10_cli_determinism(tmp_path):
    """Identical invocation and seed give byte-identical CSV output."""
    failures = []
    runs = [
        ["audit", "--family", "ou", "--format", "csv", "--seed", "0"],
        ["audit", "--family", "kim_sanders", "--format", "csv", "--seed", "0"],
        [
            "sweep", "--n", "3", "--d", "2", "--p-grid", "0.25,0.75",
            "--lambda-grid", "0,1", "--format", "csv", "--seed", "0",
        ],
        ["hunt", "--profile", "2,2,2", "--trials", "5", "--seed", "0"],
    ]
    for idx, argv in enumerate(runs):
        a = tmp_path / f"{idx}a.csv"
        b = tmp_path / f"{idx}b.csv"
        if main(argv + ["--output", str(a)]) != 0 or main(argv + ["--output", str(b)]) != 0:
            failures.append(f"run {idx}: nonzero exit")
            continue
        if a.read_bytes() != b.read_bytes():
            failures.append(f"run {idx}: outputs differ between identical invocations")
    report("10 (CLI determinism)", failures)
