"""Monogamy-of-entanglement audits and the analytic W-class oracle.

An audit compares the squared entanglement of one focus party with the
rest of a pure multipartite state against the sum of its squared pairwise
entanglements.  Pair terms carry explicit bound semantics (exact, upper,
or lower), and a violation is only reported as certified when the verdict
survives substituting one-sided lower bounds for every pair term:

* convex-roof extended negativity: the partial-transpose negativity of a
  pair marginal never exceeds its convex roof, so it certifies one-sidedly;
* concurrence: for a pair with a two-dimensional side the convex roofs of
  concurrence and negativity coincide, and in general the concurrence of a
  mixed pair is bounded below by the smallest concurrence over unit vectors
  in its range (every decomposition member lives there).  That range floor
  is located by a deterministic sampled grid search, so it is a numerical
  certificate rather than a proof.

Verdict boundaries use ``TOL_SAT``; anything within it counts as saturation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .convexroof import OptConfig, flatness_scan, optimize
from .measures import (
    concurrence_pure,
    negativity_mixed,
    negativity_pure,
    pure_concurrences,
    pure_negativities,
    wootters_concurrence_2q,
)
from .qlinalg import (
    TOL_RANK,
    Bipartition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    NumericalError,
    PureState,
    cut_matrices,
    partial_trace,
)
from .states import ExcitationWeights, PCSSpec, PartitionSpec, WClassSpec, build_pcs_density, coarse_grain

TOL_SAT = 1e-7

VERDICT_HOLDS = "holds"
VERDICT_SATURATED = "saturated"
VERDICT_CANDIDATE = "candidate_violation"
VERDICT_CERTIFIED = "certified_violation"


@dataclass(frozen=True)
class AuditReport:
    """One monogamy (or dual) inequality evaluated on one state."""

    state_id: str
    focus: int
    measure: str                      # cren | ckw | coa | crenoa | negativity
    lhs_sq: float
    partners: tuple[int, ...]
    rhs_terms_sq: tuple[float, ...]
    rhs_bound_kinds: tuple[str, ...]  # exact | upper | lower, per term
    rhs_lower_sq: tuple[float, ...]   # one-sided bounds backing certification
    residual: float                   # lhs_sq - sum(rhs_terms_sq)
    verdict: str

    @property
    def rhs_sq_sum(self) -> float:
        return float(sum(self.rhs_terms_sq))


@dataclass(frozen=True)
class AnalyticWValues:
    """Closed-form pairwise and global roof values of a W-class mixture.

    ``global_cren`` is 2p sqrt(A(1-A)) with A the excitation weight off the
    focus party; ``pair_cren[k]`` (for party k+2) is 2p sqrt((1-A)(A-A_i)).
    The squares of the pair values sum to the square of the global value.
    """

    global_cren: float
    pair_cren: tuple[float, ...]


@dataclass(frozen=True)
class AnalyticWAudit:
    values: AnalyticWValues
    report: AuditReport
    flatness_mean: float
    flatness_max_dev: float


def random_pure_state(profile: DimensionProfile, rng: np.random.Generator) -> PureState:
    """Normalized complex-normal amplitudes: the standard Haar surrogate."""
    z = rng.standard_normal(profile.size) + 1j * rng.standard_normal(profile.size)
    return PureState(profile, z / np.linalg.norm(z))


def average_concurrence(dec, cut) -> float:
    """Weighted average pure-state concurrence over a decomposition."""
    mats = cut_matrices(dec.members, dec.states[0].profile, cut)
    return float(pure_concurrences(mats).sum())


def _require_pure(psi) -> PureState:
    if not isinstance(psi, PureState):
        raise DomainError("monogamy audits apply to pure states only")
    return psi


def _audit_opt_cfg(rank: int, seed: int) -> OptConfig:
    # Pair marginals are small; a handful of starts on a rank-sized chart
    # already brackets the roof to well inside TOL_SAT at this scale.
    return OptConfig(size=max(4, rank), starts=3, max_sweeps=80, tol_rel=1e-9, seed=seed)


def _pair_marginals(psi: PureState, focus: int):
    profile = psi.profile
    if not 1 <= focus <= profile.n:
        raise DomainError(f"focus party {focus} out of range 1..{profile.n}")
    if profile.n < 3:
        raise DomainError("audits need at least 3 parties")
    rho = psi.to_density()
    out = []
    for i in profile.parties:
        if i == focus:
            continue
        pair = partial_trace(rho, (focus, i))
        out.append((i, pair))
    return out


def _verdict_monogamy(lhs_sq: float, terms_sq, lower_sq) -> tuple[float, str]:
    residual = float(lhs_sq - sum(terms_sq))
    if abs(residual) <= TOL_SAT:
        return residual, VERDICT_SATURATED
    if residual > 0.0:
        return residual, VERDICT_HOLDS
    if lhs_sq - float(sum(lower_sq)) < -TOL_SAT:
        return residual, VERDICT_CERTIFIED
    return residual, VERDICT_CANDIDATE


def _verdict_dual(lhs_sq: float, terms_sq) -> tuple[float, str]:
    residual = float(lhs_sq - sum(terms_sq))
    if abs(residual) <= TOL_SAT:
        return residual, VERDICT_SATURATED
    if residual < 0.0:
        return residual, VERDICT_HOLDS
    return residual, VERDICT_CANDIDATE


def _sample_range_values(basis: np.ndarray, dims: tuple[int, int], coeffs: np.ndarray, measure: str) -> np.ndarray:
    """Measure values of normalized range vectors given by coefficient rows."""
    mats = (coeffs @ basis.T).reshape(-1, *dims)
    return pure_negativities(mats) if measure == "negativity" else pure_concurrences(mats)


def range_floor(rho: DensityOperator, measure: str = "concurrence") -> float | None:
    """Smallest measure value over sampled unit vectors in the range of rho.

    Every pure state appearing in any decomposition of rho lies in its
    range, so this floors the corresponding convex roof.  Implemented for
    range dimension up to 3 via an iteratively refined deterministic grid;
    returns None when no floor is available.
    """
    if rho.profile.n != 2:
        raise DomainError("range_floor expects a two-party state")
    if measure not in ("concurrence", "negativity"):
        raise DomainError(f"unknown measure {measure!r}")
    w, v = np.linalg.eigh(rho.matrix)
    basis = v[:, w > TOL_RANK]
    rank = basis.shape[1]
    dims = rho.profile.dims
    if rank == 1:
        vals = _sample_range_values(basis, dims, np.ones((1, 1), dtype=complex), measure)
        return float(vals[0])
    if rank > 3:
        return None

    if rank == 2:
        centers = np.array([np.pi / 4, np.pi])
        spans = np.array([np.pi / 4, np.pi])
        counts = (41, 61)

        def coeff_rows(grid):
            t, p = grid
            return np.stack([np.cos(t), np.sin(t) * np.exp(1j * p)], axis=-1)

    else:
        centers = np.array([np.pi / 4, np.pi / 4, np.pi, np.pi])
        spans = np.array([np.pi / 4, np.pi / 4, np.pi, np.pi])
        counts = (13, 13, 17, 17)

        def coeff_rows(grid):
            t1, t2, p1, p2 = grid
            return np.stack(
                [
                    np.cos(t1),
                    np.sin(t1) * np.cos(t2) * np.exp(1j * p1),
                    np.sin(t1) * np.sin(t2) * np.exp(1j * p2),
                ],
                axis=-1,
            )

    best = None
    for _ in range(3):
        axes = [
            np.linspace(c - s, c + s, k)
            for c, s, k in zip(centers, spans, counts)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = [m.ravel() for m in mesh]
        vals = _sample_range_values(basis, dims, coeff_rows(grid), measure)
        k = int(np.argmin(vals))
        best = float(vals[k])
        centers = np.array([g[k] for g in grid])
        spans = spans / 8.0
    # A sampled minimum can only overestimate the true one; subtract the
    # residual grid resolution so the returned floor stays a lower bound.
    return max(0.0, best - 1e-3 * (1.0 + best))


def _pair_term_roof(rho_pair: DensityOperator, measure: str, cfg: OptConfig, direction: str):
    """(value, bound kind, certification lower bound) for one pair marginal.

    measure is the roof being audited for this pair: 'cren', 'concurrence',
    'crenoa' or 'coa'.
    """
    two_qubit = rho_pair.profile.dims == (2, 2)
    if two_qubit and direction == "min":
        value = wootters_concurrence_2q(rho_pair)
        # Certification for the negativity roof is defined against the
        # partial-transpose bound, even where the exact value is known.
        lower = negativity_mixed(rho_pair, 1) if measure == "cren" else value
        return value, "exact", lower
    res = optimize(rho_pair, 1, direction, cfg)
    if measure in ("concurrence", "coa"):
        value = average_concurrence(res.decomposition, 1)
    else:
        value = res.value
    if direction == "max":
        return value, "lower", value
    # Minimization: the decomposition average is an upper bound of the roof.
    if measure == "cren":
        lower = negativity_mixed(rho_pair, 1)
    else:
        floor = None
        if min(rho_pair.profile.dims) == 2:
            # Two-dimensional side: every member has Schmidt rank <= 2, so
            # the concurrence roof equals the negativity roof and the
            # partial-transpose negativity floors it.
            floor = negativity_mixed(rho_pair, 1)
        range_min = range_floor(rho_pair, "concurrence")
        if range_min is not None:
            floor = range_min if floor is None else max(floor, range_min)
        lower = 0.0 if floor is None else floor
    return value, "upper", lower


def _build_report(state_id, focus, measure, lhs_sq, rows, dual=False) -> AuditReport:
    partners = tuple(r[0] for r in rows)
    terms_sq = tuple(float(r[1]) ** 2 for r in rows)
    kinds = tuple(r[2] for r in rows)
    lowers_sq = tuple(float(r[3]) ** 2 for r in rows)
    if dual:
        residual, verdict = _verdict_dual(lhs_sq, terms_sq)
    else:
        residual, verdict = _verdict_monogamy(lhs_sq, terms_sq, lowers_sq)
    return AuditReport(
        state_id=state_id,
        focus=focus,
        measure=measure,
        lhs_sq=float(lhs_sq),
        partners=partners,
        rhs_terms_sq=terms_sq,
        rhs_bound_kinds=kinds,
        rhs_lower_sq=lowers_sq,
        residual=residual,
        verdict=verdict,
    )


def cren_audit(
    psi: PureState,
    focus: int,
    *,
    state_id: str = "state",
    opt_cfg: OptConfig | None = None,
    seed: int = 0,
) -> AuditReport:
    """Audit the convex-roof-negativity monogamy inequality on a pure state.

    Pair terms are exact for qubit pairs (two-qubit roof equals the
    spin-flip concurrence) and optimizer upper bounds otherwise; a
    violation is certified only if it survives replacing every pair term
    by its partial-transpose negativity.
    """
    psi = _require_pure(psi)
    lhs = negativity_pure(psi, Bipartition((focus,), psi.profile.n))
    rows = []
    for i, pair in _pair_marginals(psi, focus):
        cfg = opt_cfg or _audit_opt_cfg(pair.rank(), seed)
        value, kind, lower = _pair_term_roof(pair, "cren", cfg, "min")
        rows.append((i, value, kind, lower))
    return _build_report(state_id, focus, "cren", lhs * lhs, rows)


def ckw_audit(
    psi: PureState,
    focus: int,
    *,
    state_id: str = "state",
    opt_cfg: OptConfig | None = None,
    seed: int = 0,
) -> AuditReport:
    """Audit the concurrence monogamy inequality on a pure state."""
    psi = _require_pure(psi)
    lhs = concurrence_pure(psi, Bipartition((focus,), psi.profile.n))
    rows = []
    for i, pair in _pair_marginals(psi, focus):
        cfg = opt_cfg or _audit_opt_cfg(pair.rank(), seed)
        value, kind, lower = _pair_term_roof(pair, "concurrence", cfg, "min")
        rows.append((i, value, kind, lower))
    return _build_report(state_id, focus, "ckw", lhs * lhs, rows)


def dual_audit(
    psi: PureState,
    focus: int,
    measure: str = "crenoa",
    *,
    state_id: str = "state",
    opt_cfg: OptConfig | None = None,
    seed: int = 0,
) -> AuditReport:
    """Audit the assistance dual: lhs^2 <= sum of squared pair maxima.

    Pair terms are optimizer lower bounds of the true maxima, so a holds
    verdict is conservative; apparent violations stay candidates because a
    lower bound cannot certify them.
    """
    psi = _require_pure(psi)
    if measure not in ("coa", "crenoa"):
        raise DomainError(f"dual measure must be 'coa' or 'crenoa', got {measure!r}")
    cut = Bipartition((focus,), psi.profile.n)
    lhs = concurrence_pure(psi, cut) if measure == "coa" else negativity_pure(psi, cut)
    rows = []
    for i, pair in _pair_marginals(psi, focus):
        cfg = opt_cfg or _audit_opt_cfg(pair.rank(), seed)
        value, kind, lower = _pair_term_roof(pair, measure, cfg, "max")
        rows.append((i, value, kind, lower))
    return _build_report(state_id, focus, measure, lhs * lhs, rows, dual=True)


def negativity_audit(
    psi: PureState,
    focus: int,
    *,
    state_id: str = "state",
) -> AuditReport:
    """Audit the plain partial-transpose negativity monogamy inequality."""
    psi = _require_pure(psi)
    lhs = negativity_pure(psi, Bipartition((focus,), psi.profile.n))
    rows = []
    for i, pair in _pair_marginals(psi, focus):
        value = negativity_mixed(pair, 1)
        rows.append((i, value, "exact", value))
    return _build_report(state_id, focus, "negativity", lhs * lhs, rows)


def analytic_w_values(spec: WClassSpec, p: float) -> AnalyticWValues:
    """Closed-form roof values of a W-class/vacuum mixture with weight p."""
    weights = ExcitationWeights.from_spec(spec)
    a = weights.off_focus
    global_cren = 2.0 * p * np.sqrt(max(a * (1.0 - a), 0.0))
    pair = tuple(
        2.0 * p * np.sqrt(max((1.0 - a) * (a - weights.off_pair[i]), 0.0))
        for i in range(2, spec.n + 1)
    )
    return AnalyticWValues(global_cren=float(global_cren), pair_cren=pair)


def analytic_w_audit(
    spec: PCSSpec,
    partition: PartitionSpec | None = None,
    *,
    state_id: str | None = None,
    samples: int = 64,
    seed: int = 0,
) -> AnalyticWAudit:
    """Saturation audit of a partially coherent W-class/vacuum state.

    Computes the closed-form global and pairwise roof values (after
    coarse-graining when a partition is given) and cross-validates the
    global value against a flatness scan of the built density operator.
    """
    wspec = coarse_grain(spec.w, partition) if partition is not None else spec.w
    values = analytic_w_values(wspec, spec.p)
    flat = flatness_scan(
        build_pcs_density(PCSSpec(wspec, spec.p, spec.lam)),
        Bipartition((1,), wspec.n),
        samples=samples,
        seed=seed,
    )
    if abs(flat.mean - values.global_cren) > 1e-6:
        raise NumericalError(
            f"flatness mean {flat.mean} disagrees with the analytic value {values.global_cren}"
        )
    if state_id is None:
        state_id = f"pcs(n={spec.w.n},d={spec.w.d},p={spec.p:g},lam={spec.lam:g})"
    rows = [
        (i + 2, v, "exact", v)
        for i, v in enumerate(values.pair_cren)
    ]
    report = _build_report(state_id, 1, "cren", values.global_cren ** 2, rows)
    return AnalyticWAudit(
        values=values,
        report=report,
        flatness_mean=flat.mean,
        flatness_max_dev=flat.max_abs_dev,
    )


def hunt(
    profile: DimensionProfile,
    trials: int,
    seed: int = 0,
    *,
    focus: int = 1,
) -> list[AuditReport]:
    """Sample random pure states and return any monogamy-violation findings.

    Only candidate or certified reports are returned; an empty list is the
    expected outcome.  Findings are data for further study, not errors.
    """
    if trials < 0:
        raise DomainError("trials must be >= 0")
    rng = np.random.default_rng(seed)
    findings = []
    for t in range(trials):
        psi = random_pure_state(profile, rng)
        report = cren_audit(psi, focus, state_id=f"hunt-{t:05d}", seed=seed + t)
        if report.verdict in (VERDICT_CANDIDATE, VERDICT_CERTIFIED):
            findings.append(report)
    return findings


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

AUDIT_COLUMNS = (
    "state_id",
    "measure",
    "focus",
    "lhs_sq",
    "rhs_sq_sum",
    "residual",
    "verdict",
    "bound_kinds",
)


def fmt(value: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{value:.12g}"


def report_row(report: AuditReport) -> dict[str, str]:
    return {
        "state_id": report.state_id,
        "measure": report.measure,
        "focus": str(report.focus),
        "lhs_sq": fmt(report.lhs_sq),
        "rhs_sq_sum": fmt(report.rhs_sq_sum),
        "residual": fmt(report.residual),
        "verdict": report.verdict,
        "bound_kinds": ";".join(report.rhs_bound_kinds),
    }


def _sorted_reports(reports) -> list[AuditReport]:
    return sorted(reports, key=lambda r: (r.state_id, r.measure, r.focus))


def rows_to_csv(rows, columns) -> str:
    """CSV text with a header line, one line per row dict, newline-terminated."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports) -> str:
    return rows_to_csv([report_row(r) for r in _sorted_reports(reports)], AUDIT_COLUMNS)


def reports_to_json(reports) -> str:
    docs = []
    for report in _sorted_reports(reports):
        docs.append(
            {
                "state_id": report.state_id,
                "measure": report.measure,
                "focus": report.focus,
                "lhs_sq": float(fmt(report.lhs_sq)),
                "partners": list(report.partners),
                "rhs_terms_sq": [float(fmt(v)) for v in report.rhs_terms_sq],
                "rhs_sq_sum": float(fmt(report.rhs_sq_sum)),
                "bound_kinds": list(report.rhs_bound_kinds),
                "residual": float(fmt(report.residual)),
                "verdict": report.verdict,
            }
        )
    return json.dumps(docs, indent=2, sort_keys=True)
