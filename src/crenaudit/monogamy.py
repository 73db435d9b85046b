"""Pair terms, monogamy-of-entanglement audits and the analytic W-class oracle.

``pair_terms`` brackets each pair term by one straight-line rule,
``_bracket``, before a search and, where the bounds leave it open, after
one: the term is ``exact`` once its largest floor meets its least
ceiling, and otherwise ``upper`` (an optimizer minimum) or ``lower`` (an
optimizer maximum).  So no qubit or W-class audit poses a search, the
Kim-Sanders qutrit-qubit pairs are exact from their minor tables, and
Ou's pairs close their ``cren`` terms at their spectral decompositions,
before any search.
``audits`` read each monogamy inequality, or its assistance dual, from the
brackets of its terms (``_verdict``), within ``TOL_SAT``; ``pair_term``
and ``audit`` are the one-item calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexroof import OptConfig, optimize_many, require_seed
from .measures import (
    local_supports,
    negativity_mixed,
    pure_concurrences,
    pure_negativities,
    range_bracket,
    spin_flip_closes,
    spin_flip_values,
)
from .qlinalg import (
    Bipartition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    NumericalError,
    PureState,
    as_bipartition,
    cut_matrices,
    memoized,
    partial_trace,
)
from .states import PCSSpec, PartitionSpec, WClassSpec, build_pcs_density, coarse_grain

TOL_SAT = 1e-7
# A pair_terms row whose bracket is this narrow, relative to max(1, floor),
# is closed, before its search or after it, and reported exact at its
# ceiling.  On a range of constant concurrence the minor table's floor and
# ceiling, twice the extreme singular values of one SVD of products of
# unit-norm coefficients, differ by a few ulps (3e-16 on the Kim-Sanders
# pairs), and a flat decomposition's average meets the floor to rounding
# (both are 1 - 2.2e-16 on Ou's pairs, whose spectral decompositions close
# their cren rows).  The constant leaves that a margin of over 10^3 and is
# 10^5 below TOL_SAT, the resolution of every verdict.
_TABLE_CLOSED = 1e-12

VERDICT_HOLDS = "holds"
VERDICT_SATURATED = "saturated"
VERDICT_CANDIDATE = "candidate_violation"
VERDICT_CERTIFIED = "certified_violation"

# Pair measure -> (pure-state kernel, roof direction): on mixed states "min"
# is the kernel's convex roof, "max" its assistance dual, None the PT negativity.
PAIR_MEASURES = {
    "concurrence": (pure_concurrences, "min"),
    "negativity": (pure_negativities, None),
    "cren": (pure_negativities, "min"),
    "crenoa": (pure_negativities, "max"),
    "coa": (pure_concurrences, "max"),
}
# Audit measure -> the pair_term measure of both of its sides.
AUDIT_MEASURES = {
    "cren": "cren",
    "ckw": "concurrence",
    "negativity": "negativity",
    "crenoa": "crenoa",
    "coa": "coa",
}


@dataclass(frozen=True)
class PairTerm:
    """One measure across one cut and how it was obtained (see ``pair_term``)."""

    value: float
    lower: float      # [lower, upper] holds the true value
    upper: float
    kind: str         # exact | upper | lower: how value relates to the true value
    method: str       # closed_form | trace_norm | minor_table | spectral | optimizer


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
    rhs_lower_sq: tuple[float, ...]   # with rhs_upper_sq, the brackets the verdict reads
    residual: float                   # lhs_sq - sum(rhs_terms_sq)
    verdict: str
    rhs_upper_sq: tuple[float, ...]   # inf where a term has no upper bound

    @property
    def rhs_sq_sum(self) -> float:
        return float(sum(self.rhs_terms_sq))


@dataclass(frozen=True)
class AnalyticWValues:
    """Closed-form pairwise and global roof values of a W-class mixture.

    With w_j = sum_k |a[j-1, k-1]|^2 the excitation weight of party j,
    ``global_cren`` is 2p sqrt(w_1(1-w_1)) = 2p sqrt(w_1 sum_{j>=2} w_j) and
    ``pair_cren[k]`` (for party j = k+2) is 2p sqrt(w_1 w_j), so the squares
    of the pair values sum to the square of the global value.
    """

    global_cren: float
    pair_cren: tuple[float, ...]


@dataclass(frozen=True)
class AnalyticWAudit:
    """The closed-form audit of a W-class/vacuum mixture and its certificate.

    ``flatness_mean`` and ``flatness_max_dev`` are the midpoint and half-width
    of [roof, assistance dual] of the focus|rest cut, both exact.  Every
    decomposition's average lies there, so the half-width bounds its deviation.
    """

    values: AnalyticWValues
    report: AuditReport
    flatness_mean: float
    flatness_max_dev: float


def random_pure_state(profile: DimensionProfile, rng: np.random.Generator) -> PureState:
    """Normalized complex-normal amplitudes: the standard Haar surrogate."""
    z = rng.standard_normal(profile.size) + 1j * rng.standard_normal(profile.size)
    return PureState(profile, z / np.linalg.norm(z))


def _require_pure(psi) -> PureState:
    if not isinstance(psi, PureState):
        raise DomainError("monogamy audits apply to pure states only")
    return psi


# Party 1 of a pair marginal against party 2.
_PAIR_CUT = Bipartition((1,), 2)


def _audit_opt_cfg(rank: int, seed: int) -> OptConfig:
    # A handful of starts on a rank-sized chart.  Against a reference of
    # size 12, 24 starts and 300 sweeps, its minimum ends at most 4e-10
    # above the reference on (3,2) marginals, but a median 4.1e-4 and up to
    # 1.6e-2 above it on (3,3) marginals: there it misses the roof.
    return OptConfig(size=max(4, rank), starts=3, max_sweeps=80, tol_rel=1e-9, seed=seed)


def _require_focus(profile: DimensionProfile, focus: int) -> None:
    if not 1 <= focus <= profile.n:
        raise DomainError(f"focus party {focus} out of range 1..{profile.n}")
    if profile.n < 3:
        raise DomainError("audits need at least 3 parties")


def _pair_marginals(psi: PureState, focus: int):
    _require_focus(psi.profile, focus)
    return memoized(psi, ("pair_marginals", focus), lambda: tuple(
        (i, partial_trace(psi, (focus, i))) for i in psi.profile.parties if i != focus
    ))


def _verdict(lhs_sq: float, terms_sq, lower_sq, upper_sq, dual: bool) -> tuple[float, str]:
    """Residual and verdict of an audit whose squared terms lie in ``[lower_sq, upper_sq]``.

    Monogamy asks lhs_sq >= the sum of the squared terms, a ``dual`` audit
    lhs_sq <= it.  Saturation is read from the terms' own residual first;
    then the inequality holds if every point of the brackets satisfies it
    by more than ``TOL_SAT``, is certified violated if every point violates
    it by more, and is otherwise a candidate violation.
    """
    residual = float(lhs_sq - sum(terms_sq))
    if abs(residual) <= TOL_SAT:
        return residual, VERDICT_SATURATED
    # The least and the most the inequality's margin can be over the brackets.
    least, most = lhs_sq - float(sum(upper_sq)), lhs_sq - float(sum(lower_sq))
    if dual:
        least, most = -most, -least
    if least > TOL_SAT:
        return residual, VERDICT_HOLDS
    if most < -TOL_SAT:
        return residual, VERDICT_CERTIFIED
    return residual, VERDICT_CANDIDATE


def _is_dual(measure: str) -> bool:
    """Whether audit ``measure`` is an assistance dual: its pair terms are maxima."""
    return PAIR_MEASURES[AUDIT_MEASURES[measure]][1] == "max"


def range_floor(rho: DensityOperator, cut) -> float:
    """A lower bound of the concurrence across the cut of every unit vector in the range of rho.

    The floor of ``measures.range_bracket``: twice the smallest singular
    value of the range's minor table, or 0 where the table is wide.
    """
    return range_bracket(rho, cut)[0]


def _spectral_ceiling(state, cut, kernel) -> float:
    # The spectral decomposition's average, a decomposition's, so a minimum's
    # ceiling.  Every member's C is at least the C floor, and N >= C, so the
    # average can meet that floor only where the members' concurrences are
    # equal: elsewhere it is +inf, which bounds nothing.  It tests their
    # squares, C^2 = 2 - 2 tr G^2 / (tr G)^2 with G = M M^H, equal within
    # _TABLE_CLOSED, which takes no SVD.
    def flat_average():
        mats = local_supports(state, cut)
        gram = np.einsum("kij,klj->kil", mats, mats.conj())
        purity = np.einsum("kij,kji->k", gram, gram).real / np.einsum("kii->k", gram).real ** 2
        purity = purity.tolist()  # a few members: Python's min and max are the cheaper
        if 2.0 * (max(purity) - min(purity)) > _TABLE_CLOSED:
            return np.inf
        return float(kernel(mats).sum())

    return memoized(state, ("spectral", kernel, cut), flat_average)


def _closes(floor: float, ceiling: float) -> bool:
    return ceiling - floor <= _TABLE_CLOSED * max(1.0, floor)


def _exact(value: float, method: str) -> PairTerm:
    return PairTerm(value, value, value, "exact", method)


def _bracket(state, cut, kernel, direction, res=None) -> PairTerm | None:
    """The bracket rule of ``pair_terms``: one row's term, or None where the
    row is open before its search; ``res`` is the row's search result."""
    if res is None:
        # The closed forms: a pure state, or a density of rank 1, is its one
        # root's kernel value, and a negativity row is the trace norm's.
        if isinstance(state, PureState) or state.rank() == 1:
            root = state.amplitudes if isinstance(state, PureState) else state.roots
            return _exact(memoized(state, ("pure", kernel, cut), lambda: float(
                kernel(cut_matrices(root, state.profile, cut))[0])), "closed_form")
        if direction is None:
            value = memoized(state, ("pt_negativity", cut), lambda: negativity_mixed(state, cut))
            return _exact(value, "trace_norm")
        if spin_flip_closes(local_supports(state, cut)):
            # Wootters' value for a minimum, the concurrence of assistance for a maximum.
            values = memoized(state, ("spin_flip", cut), lambda: spin_flip_values(state, cut))
            return _exact(values[direction == "max"], "closed_form")
        floor, ceiling = -np.inf, np.inf
    else:
        # The search's value is a minimum's ceiling, or a maximum's floor in
        # place of every other.  It is a negativity average: concurrence rows
        # rescore its decomposition.
        found = res.value if kernel is pure_negativities else float(
            kernel(cut_matrices(res.decomposition.members, state.profile, cut)).sum())
        floor, ceiling = (found, np.inf) if direction == "max" else (-np.inf, found)
    method = "optimizer"
    # Where the short (first) local support is two-dimensional, every member
    # has Schmidt rank <= 2, so N = C: a bound on either kernel bounds both.
    n_is_c = local_supports(state, cut).shape[1] == 2
    if kernel is pure_concurrences or n_is_c:
        # The minor table brackets the concurrence of every unit vector in
        # the range, so of every member.
        table = memoized(state, ("range_bracket", cut), lambda: range_bracket(state, cut))
        if table[1] < ceiling:
            ceiling, method = table[1], "minor_table"
        if _closes(floor, ceiling):  # only a searched maximum has a floor yet
            return _exact(ceiling, method)
    if direction == "min" and ceiling == np.inf:  # still +inf unless the spectral members are flat
        ceiling, method = _spectral_ceiling(state, cut, kernel), "spectral"
    # Only a finite ceiling can close, so only then are the floors read; a
    # searched maximum's floor is its search's value.
    if ceiling < np.inf and (res is None or direction == "min"):
        # N >= C on every pure state, so the C floor floors both kernels' roofs.
        table = memoized(state, ("range_bracket", cut), lambda: range_bracket(state, cut))
        floor = max(floor, table[0])
        if _closes(floor, ceiling):
            return _exact(ceiling, method)
        if kernel is pure_negativities or n_is_c:
            # Negativity is convex, so the trace norm's value floors the negativity roofs.
            value = memoized(state, ("pt_negativity", cut), lambda: negativity_mixed(state, cut))
            floor = max(floor, value)
            if _closes(floor, ceiling):
                return _exact(ceiling, method)
    if res is None:
        return None
    if direction == "max":
        return PairTerm(floor, floor, ceiling, "lower", "optimizer")
    return PairTerm(ceiling, floor, ceiling, "upper", method)


def pair_terms(rows, *, stop=None) -> list[PairTerm | None]:
    """One measure of each state across its cut, by the one bracket rule, ``_bracket``.

    ``rows`` holds ``(state, cut, measure, cfg)`` tuples, the arguments of
    ``pair_term``; ``PAIR_MEASURES`` gives each measure's kernel and roof
    direction.  On a pure state, or a density of rank 1, every measure is
    its kernel's value on the cut matrix of the state (of its one root).

    ===========================================  ===========  =====  ==================
    input                                        method       kind   [lower, upper]
    ===========================================  ===========  =====  ==================
    pure or rank 1                               closed_form  exact  [value, value]
    mixed, negativity                            trace_norm   exact  [value, value]
    2x2 local supports, min or max               closed_form  exact  [value, value]
    mixed roof, table closed                     minor_table  exact  [ceiling, ceiling]
    flat spectral decomposition meets its floor  spectral     exact  [value, value]
    roof search meets its floor                  optimizer    exact  [value, value]
    other roof minimum                           optimizer    upper  [floor, value]
    other roof maximum                           optimizer    lower  [value, ceiling]
    ===========================================  ===========  =====  ==================

    ``_bracket`` reads a row's bounds in one order, each only while the
    row is open: the closed forms; the minor table's ceiling, where the
    kernel is the concurrence or the short local support is
    two-dimensional; for a minimum with no ceiling yet, its spectral
    decomposition's average, where that decomposition's members have equal
    concurrences (are flat), the only place where it can meet the C floor;
    and, only where the ceiling is finite, the C floor and then the
    partial-transpose negativity.  Its bracket, which holds the true value
    up to floating point, is the largest floor and the least ceiling read,
    and it is closed, ``exact`` at its ceiling, once ceiling - floor is at
    most ``_TABLE_CLOSED * max(1, floor)``.  An open row is searched; the
    search's value is a minimum's ceiling, or a maximum's floor in place of
    every other, and the rule runs again.  So a ``cren`` row with no
    two-dimensional support and no flat spectral decomposition reads its
    floors only after its search, and none if its search is stopped, and a
    maximum whose ceiling is +inf reads none.  A row still open reports the
    search's value.  ``method`` names the source of the reported value.

    Each search runs under its own row's cfg (None means ``OptConfig()``;
    other rows ignore theirs) and gives what ``optimize`` gives for that row
    alone.  A state keeps every search in its memo, keyed by the unordered
    cut (``Bipartition.canonical``), direction and cfg, so a ``cren`` and a
    ``concurrence`` row of one state share a minimum, and a ``crenoa`` and
    a ``coa`` row a maximum, in one call or across calls, and so do rows
    naming a cut and its complement.  A search runs on the cut as the first
    row posing it names it, so a call naming one side only gets what
    ``optimize`` gives on that naming.  The searches no memo holds run in
    one ``optimize_many`` call, on the roots on the local supports.  A
    concurrence row scores the decomposition that its negativity search
    found.

    ``stop``, if given, is ``optimize_many``'s stop rule over the rows: it
    takes an array of every row's value so far (its term's, or its search's
    so far, which never rises for a minimum) and returns a mask of the rows
    whose searches may stop.  A minimum's search stops once every row that
    poses it may, and a maximum's never does.  The rows of a stopped search
    get None in place of a term, and nothing is kept in the state's memo
    for it, so a later call searches again.
    """

    terms: list = [None] * len(rows)
    # The rows of the searches no memo holds yet, and ``solve``, in row order,
    # their (state, key) searches, each under the cut as the first row posing
    # it names it: each runs once however many rows pose it.
    searches, solve = [], {}
    for k, (state, cut, measure, cfg) in enumerate(rows):
        if measure not in PAIR_MEASURES:
            raise DomainError(f"unknown measure {measure!r}")
        cut = as_bipartition(cut, state.profile.n)
        kernel, direction = PAIR_MEASURES[measure]
        terms[k] = _bracket(state, cut, kernel, direction)
        if terms[k] is None:
            key = ("search", cut.canonical(), direction, cfg or OptConfig())
            if key in state._memo:
                terms[k] = _bracket(state, cut, kernel, direction, state._memo[key])
            else:
                solve.setdefault((state, key), cut)
                searches.append((k, state, cut, kernel, direction, key))
    problem_stop = None
    if stop is not None:
        # The rows at their values so far: every term as it is, and each
        # row of a search at its problem's value.
        values = np.array([np.nan if t is None else t.value for t in terms])
        order = {problem: j for j, problem in enumerate(solve)}
        posing = np.array([k for k, *_ in searches], dtype=int)
        owner = np.array([order[state, key] for _, state, *_, key in searches], dtype=int)

        def problem_stop(best):
            values[posing] = best[owner]
            needed = np.zeros(len(solve), dtype=bool)
            needed[owner[~stop(values)[posing]]] = True
            return ~needed

    results = optimize_many([(s, cut, *key[2:]) for (s, key), cut in solve.items()], stop=problem_stop)
    for (state, key), res in zip(solve, results):
        if res is not None:
            state._memo[key] = res
    for k, state, cut, kernel, direction, key in searches:
        if key in state._memo:  # not where its search was stopped
            terms[k] = _bracket(state, cut, kernel, direction, state._memo[key])
    return terms


def pair_term(
    state: PureState | DensityOperator,
    cut,
    measure: str,
    cfg: OptConfig | None = None,
) -> PairTerm:
    """One measure of a state across a cut: the one-item call of ``pair_terms``.

    ``pair_terms`` holds the table that picks the method and the bound
    kind; ``cfg`` controls the optimizer, and other rows ignore it.
    """
    return pair_terms([(state, cut, measure, cfg)])[0]


def _build_report(state_id, focus, measure, lhs_sq, partners, terms) -> AuditReport:
    terms_sq = tuple(float(t.value) ** 2 for t in terms)
    lowers_sq = tuple(float(t.lower) ** 2 for t in terms)
    uppers_sq = tuple(float(t.upper) ** 2 for t in terms)
    residual, verdict = _verdict(lhs_sq, terms_sq, lowers_sq, uppers_sq, _is_dual(measure))
    return AuditReport(
        state_id=state_id,
        focus=focus,
        measure=measure,
        lhs_sq=float(lhs_sq),
        partners=tuple(partners),
        rhs_terms_sq=terms_sq,
        rhs_bound_kinds=tuple(t.kind for t in terms),
        rhs_lower_sq=lowers_sq,
        residual=residual,
        verdict=verdict,
        rhs_upper_sq=uppers_sq,
    )


def audit(
    psi: PureState,
    focus: int,
    measure: str,
    *,
    state_id: str = "state",
    opt_cfg: OptConfig | None = None,
    seed: int = 0,
) -> AuditReport:
    """Audit one monogamy inequality, or its assistance dual, on a pure state.

    ``measure`` is a key of ``AUDIT_MEASURES``.  The left side is the
    squared pure-state value of the focus party against the rest, and the
    right side sums the squared pair term of each pair marginal of the
    focus party.  Monogamy (``cren``, ``ckw``, ``negativity``) holds when
    the left side is at least the sum, the duals (``crenoa``, ``coa``)
    when it is at most the sum of pair maxima.  The verdict reads the
    terms' brackets (``_verdict``), so a dual violation is certified only
    where the minor tables of the pair ranges bound every maximum from
    above, as on the Kim-Sanders state.  Without ``opt_cfg`` each optimizer
    term searches a rank-sized decomposition from three starts seeded by
    ``seed``, which must pass ``require_seed`` whether or not a term searches.
    This is the one-item call of ``audits``.
    """
    return audits([(psi, state_id, seed)], focus, [measure], opt_cfg)[0]


def audits(rows, focus: int, measures, opt_cfg: OptConfig | None = None) -> list[AuditReport]:
    """The ``audit`` of each ``(psi, state_id, seed)`` row under each measure.

    ``state_id`` labels a row's reports and ``seed`` seeds its default
    searches, as in ``audit``; every row's seed is checked before any
    marginal is built.  Reports come measure by measure, and
    within a measure in row order.  One ``pair_terms`` call resolves every
    term of all the rows under all the measures, so the searches of every
    state run in one batch.  Each state keeps its pair marginals, so each
    is built and decomposed at most once, and the measures share their
    searches: one minimum of each marginal serves ``cren`` and ``ckw``,
    one maximum ``crenoa`` and ``coa``.  The marginals keep their
    searches, so separate calls on the same state object share them too.
    """
    marginals, term_rows = _audit_rows(rows, focus, measures, opt_cfg)
    return _audit_reports(rows, focus, measures, marginals, pair_terms(term_rows))


def _audit_rows(rows, focus: int, measures, opt_cfg: OptConfig | None):
    """Each audit row's pair marginals, and the ``pair_terms`` rows of all its audits.

    The term rows run measure by measure, and within a measure audit row by
    audit row: the focus|rest row, then one row per pair marginal.
    """
    for psi, _, seed in rows:
        _require_pure(psi)
        require_seed(seed)
    for measure in measures:
        if measure not in AUDIT_MEASURES:
            raise DomainError(f"unknown audit measure {measure!r}")
    marginals = [_pair_marginals(psi, focus) for psi, _, _ in rows]
    # Built once a call, not once a measure: each row's focus cut, and each
    # pair's search cfg where some measure searches and the pair's supports
    # pose no spin-flip closed form (other rows ignore it).
    cuts = [Bipartition((focus,), psi.profile.n) for psi, _, _ in rows]
    searched = opt_cfg is None and any(PAIR_MEASURES[AUDIT_MEASURES[m]][1] for m in measures)
    cfgs = [[_audit_opt_cfg(pair.rank(), seed)
             if searched and not spin_flip_closes(local_supports(pair, _PAIR_CUT)) else opt_cfg
             for _, pair in pairs]
            for (_, _, seed), pairs in zip(rows, marginals)]
    term_rows = []
    for measure in measures:
        term_measure = AUDIT_MEASURES[measure]
        for (psi, _, _), cut, pairs, pair_cfgs in zip(rows, cuts, marginals, cfgs):
            term_rows.append((psi, cut, term_measure, None))
            for (_, pair), cfg in zip(pairs, pair_cfgs):
                term_rows.append((pair, _PAIR_CUT, term_measure, cfg))
    return marginals, term_rows


def _audit_reports(rows, focus: int, measures, marginals, terms) -> list[AuditReport]:
    """The reports of ``_audit_rows``' audits from the terms of its rows, in its order;
    an audit missing a term (its search stopped) gets none."""
    terms = iter(terms)
    reports = []
    for measure in measures:
        for (_, state_id, _), pairs in zip(rows, marginals):
            lhs = next(terms).value
            terms_of_pairs = [next(terms) for _ in pairs]
            if None not in terms_of_pairs:
                partners = [i for i, _ in pairs]
                reports.append(_build_report(state_id, focus, measure, lhs * lhs, partners, terms_of_pairs))
    return reports


def cren_audit(psi, focus, *, state_id="state", opt_cfg=None, seed=0) -> AuditReport:
    """The convex-roof-negativity monogamy audit (see ``audit``)."""
    return audit(psi, focus, "cren", state_id=state_id, opt_cfg=opt_cfg, seed=seed)


def ckw_audit(psi, focus, *, state_id="state", opt_cfg=None, seed=0) -> AuditReport:
    """The concurrence (Coffman-Kundu-Wootters) monogamy audit (see ``audit``)."""
    return audit(psi, focus, "ckw", state_id=state_id, opt_cfg=opt_cfg, seed=seed)


def dual_audit(
    psi, focus, measure="crenoa", *, state_id="state", opt_cfg=None, seed=0
) -> AuditReport:
    """The assistance-dual audit for ``measure`` 'crenoa' or 'coa' (see ``audit``)."""
    if measure not in AUDIT_MEASURES or not _is_dual(measure):
        raise DomainError(f"dual measure must be 'coa' or 'crenoa', got {measure!r}")
    return audit(psi, focus, measure, state_id=state_id, opt_cfg=opt_cfg, seed=seed)


def negativity_audit(psi, focus, *, state_id="state") -> AuditReport:
    """The partial-transpose negativity monogamy audit (see ``audit``)."""
    return audit(psi, focus, "negativity", state_id=state_id)


def analytic_w_values(spec: WClassSpec, p: float) -> AnalyticWValues:
    """Closed-form roof values of a W-class/vacuum mixture with weight p."""
    w = np.sum(np.abs(spec.a) ** 2, axis=1)
    # The sum of the other weights, not 1 - w_1, which cancels as w_1 nears 1.
    global_cren = 2.0 * p * np.sqrt(w[0] * np.sum(w[1:]))
    pair = tuple(2.0 * p * np.sqrt(w[0] * w[1:]))
    return AnalyticWValues(global_cren=float(global_cren), pair_cren=pair)


def analytic_w_audit(
    spec: PCSSpec, partition: PartitionSpec | None = None, *, seed: int = 0
) -> AnalyticWAudit:
    """Saturation audit of a partially coherent W-class/vacuum state.

    Computes the closed-form global and pairwise roof values (after
    coarse-graining when a partition is given) and certifies the global
    value: on the built density's focus|rest cut, whose local supports are
    2x2, ``pair_terms`` gives the ``cren`` roof and ``crenoa`` dual exactly,
    and both must meet it to 1e-12 * max(1, value), else NumericalError.
    The certificate draws nothing; ``seed`` need only pass ``require_seed``.
    """
    require_seed(seed)
    wspec = coarse_grain(spec.w, partition) if partition is not None else spec.w
    values = analytic_w_values(wspec, spec.p)
    rho = build_pcs_density(PCSSpec(wspec, spec.p, spec.lam))
    cut = Bipartition((1,), wspec.n)
    roof, dual = pair_terms([(rho, cut, "cren", None), (rho, cut, "crenoa", None)])
    tol = 1e-12 * max(1.0, values.global_cren)
    for t in (roof, dual):
        if t.kind != "exact" or abs(t.value - values.global_cren) > tol:
            raise NumericalError(f"{t.kind} {t.method} value {t.value} disagrees with the analytic"
                                 f" value {values.global_cren}")
    state_id = f"pcs(n={spec.w.n},d={spec.w.d},p={spec.p:g},lam={spec.lam:g})"
    terms = [_exact(v, "closed_form") for v in values.pair_cren]
    partners = range(2, len(terms) + 2)
    report = _build_report(state_id, 1, "cren", values.global_cren ** 2, partners, terms)
    return AnalyticWAudit(
        values=values,
        report=report,
        flatness_mean=(roof.value + dual.value) / 2.0,
        flatness_max_dev=abs(dual.value - roof.value) / 2.0,
    )


# Trials a hunt audits per pair_terms call: large enough that the batched
# searches amortize their per-call overhead, small enough to bound memory
# at any trial count.
_HUNT_BLOCK = 64
# Slack on the proof that a hunt trial is no finding, for the rounding
# between a search's own values and the reported ones.
_STOP_MARGIN = 1e-12


def _no_finding(sq: np.ndarray) -> np.ndarray:
    """Per trial row of squared values (lhs, then pair upper bounds): no violation is reachable."""
    return sq[:, 0] - sq[:, 1:].sum(axis=1) >= -TOL_SAT + _STOP_MARGIN


def _slice_values(amps: np.ndarray, profile: DimensionProfile, focus: int) -> np.ndarray:
    """Each stacked state's focus|rest value, then an upper bound of each pair's ``cren``.

    The slices of psi at the basis states of the parties outside pair
    (focus, j) decompose its marginal, so their average negativity, read
    from the columns of the pair's cut matrix, bounds the pair's roof from above.
    """
    values = [pure_negativities(cut_matrices(amps, profile, (focus,)))]
    for j in profile.parties:
        if j != focus:
            slices = np.swapaxes(cut_matrices(amps, profile, (focus, j)), 1, 2)
            pair = slices.reshape((-1,) + profile.restrict((focus, j)).dims)
            values.append(pure_negativities(pair).reshape(len(amps), -1).sum(axis=1))
    return np.stack(values, axis=1)


class HuntFindings(list):
    """``hunt``'s findings, and how many trials it screened, stopped and searched (audited to the end)."""

    screened = stopped = searched = 0


def hunt(
    profile: DimensionProfile,
    trials: int,
    seed: int = 0,
    *,
    focus: int = 1,
) -> HuntFindings:
    """Sample random pure states and return any monogamy-violation findings.

    Only candidate or certified reports are returned; an empty list is the
    expected outcome.  Findings are data for further study, not errors.
    Trial t is the ``cren_audit`` of the t-th state drawn from ``seed``,
    with seed ``seed + t``.  The trials run in blocks of ``_HUNT_BLOCK``:
    a block draws its states in order and first screens them: the slices
    of a state decompose each of its pair marginals, so their average
    negativities bound the pair terms from above (``_slice_values``), and
    a trial whose bounds already prove it no finding is dropped before any
    marginal is built.  The rest resolve all their terms in one
    ``pair_terms`` call, whose batched searches stop the searches of a
    trial once it can no longer be a finding.  A pair's value never rises
    as its search runs, from the spectral decomposition on, so lhs_sq
    minus the sum of the squared values so far bounds the trial's final
    residual from below.  Once that bound (or the screen's) is
    ``_STOP_MARGIN`` or more above -``TOL_SAT``, no violation is reachable
    (``_no_finding``).  A stopped trial gets no report, and a trial
    neither screened nor stopped gets exactly its ``cren_audit`` report.
    A screened trial is never a finding, even where its audit's search,
    which does not start from the slices, would end above their bound and
    call it a candidate violation: the slice decomposition refutes that
    candidate.  The returned list also counts the trials of each kind.
    """
    if trials < 0:
        raise DomainError("trials must be >= 0")
    require_seed(seed)
    _require_focus(profile, focus)
    rng = np.random.default_rng(seed)
    findings = HuntFindings()
    for start in range(0, trials, _HUNT_BLOCK):
        rows = [
            (random_pure_state(profile, rng), f"hunt-{t:05d}", seed + t)
            for t in range(start, min(start + _HUNT_BLOCK, trials))
        ]
        amps = np.stack([psi.amplitudes for psi, _, _ in rows])
        screened = _no_finding(np.square(_slice_values(amps, profile, focus)))
        findings.screened += int(screened.sum())
        rows = [row for row, proven in zip(rows, screened) if not proven]
        if not rows:
            continue
        marginals, term_rows = _audit_rows(rows, focus, ["cren"], None)

        def stop(values):
            # Each trial's rows are its focus|rest value, then its pair values.
            return np.repeat(_no_finding(np.square(values).reshape(len(rows), profile.n)), profile.n)

        reports = _audit_reports(rows, focus, ["cren"], marginals, pair_terms(term_rows, stop=stop))
        findings.stopped += len(rows) - len(reports)
        findings.searched += len(reports)
        findings += [r for r in reports if r.verdict in (VERDICT_CANDIDATE, VERDICT_CERTIFIED)]
    return findings
