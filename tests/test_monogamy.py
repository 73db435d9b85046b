import dataclasses
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from crenaudit import (
    Bipartition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    NumericalError,
    OptConfig,
    PCSSpec,
    PartitionSpec,
    WClassSpec,
    analytic_w_audit,
    apply_phase_damping,
    audit,
    average_negativity,
    audits,
    build_pcs_density,
    build_w_state,
    ckw_audit,
    coarse_grain,
    coherent_superposition,
    concurrence_pure,
    cren_audit,
    dual_audit,
    flatness_scan,
    ghz_state,
    hunt,
    kim_sanders_state,
    negativity_audit,
    negativity_mixed,
    negativity_pure,
    ou_state,
    pair_term,
    pair_terms,
    partial_trace,
    random_pure_state,
)
from crenaudit import convexroof, measures, monogamy, qlinalg
from crenaudit.cli import main
from crenaudit.measures import pure_concurrences, pure_negativities, spin_flip_values
from crenaudit.monogamy import TOL_SAT, analytic_w_values, range_bracket, range_floor
from crenaudit.qlinalg import cut_matrices

from conftest import rand_dm, rand_pure
from oracles import tensor_product, three_tangle, to_density


class TestCounterexampleAudits:
    def test_antisymmetric_cren_holds(self):
        report = cren_audit(ou_state(), 1, state_id="ou")
        assert report.lhs_sq == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(report.rhs_terms_sq, [1.0, 1.0], atol=1e-6)
        assert report.residual == pytest.approx(2.0, abs=1e-6)
        assert report.verdict == "holds"

    def test_antisymmetric_ckw_certified(self):
        report = ckw_audit(ou_state(), 1, state_id="ou")
        assert report.lhs_sq == pytest.approx(4 / 3, abs=1e-9)
        assert sum(report.rhs_terms_sq) == pytest.approx(2.0, abs=1e-3)
        assert report.verdict == "certified_violation"
        # Certification is sound: the lower bounds alone beat the lhs.
        assert sum(report.rhs_lower_sq) > report.lhs_sq + 1e-6

    def test_mixed_dimension_cren_holds(self):
        report = cren_audit(kim_sanders_state(), 1, state_id="ks")
        assert report.lhs_sq == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(report.rhs_terms_sq, [8 / 9, 8 / 9], atol=1e-3)
        assert report.residual == pytest.approx(4 - 16 / 9, abs=1e-6)
        assert report.verdict == "holds"

    def test_mixed_dimension_ckw_certified(self):
        report = ckw_audit(kim_sanders_state(), 1, state_id="ks")
        assert report.lhs_sq == pytest.approx(12 / 9, abs=1e-9)
        assert np.allclose(report.rhs_terms_sq, [8 / 9, 8 / 9], atol=1e-3)
        assert report.verdict == "certified_violation"
        assert sum(report.rhs_lower_sq) > report.lhs_sq + 1e-6

    def test_audits_match_one_measure_calls(self):
        measures = ["cren", "ckw", "coa", "crenoa", "negativity"]
        for psi in (kim_sanders_state(), ou_state()):
            reports = audits([(psi, "ks", 3)], 1, measures)
            assert reports == [audit(psi, 1, m, state_id="ks", seed=3) for m in measures]

    def test_negativity_audit_on_antisymmetric(self):
        report = negativity_audit(ou_state(), 1)
        assert report.residual >= 2.0 - 1e-6
        assert report.verdict == "holds"
        assert report.rhs_bound_kinds == ("exact", "exact")

    def test_negativity_audit_product_state_saturates(self, rng):
        psi = tensor_product(
            tensor_product(rand_pure((2,), rng), rand_pure((2,), rng)),
            rand_pure((2,), rng),
        )
        report = negativity_audit(psi, 1)
        assert report.verdict == "saturated"
        assert all(t <= 1e-12 for t in report.rhs_terms_sq)


class TestQubitCorpora:
    def test_random_three_qubit_states(self, rng):
        for t in range(15):
            psi = random_pure_state(DimensionProfile((2, 2, 2)), rng)
            assert cren_audit(psi, 1, seed=t).residual >= -1e-6
            assert ckw_audit(psi, 1, seed=t).residual >= -1e-6
            assert negativity_audit(psi, 1).residual >= -1e-9
            dual = dual_audit(psi, 1, "crenoa", seed=t)
            assert dual.verdict in ("holds", "saturated")

    def test_exact_pair_oracles_for_qubits(self, rng):
        psi = random_pure_state(DimensionProfile((2, 2, 2)), rng)
        report = cren_audit(psi, 1)
        assert report.rhs_bound_kinds == ("exact", "exact")

    def test_ghz_pair_terms_vanish(self):
        ghz = ghz_state(3)
        report = cren_audit(ghz, 1, state_id="ghz")
        assert report.lhs_sq == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(report.rhs_terms_sq, [0.0, 0.0], atol=1e-12)
        assert report.residual == pytest.approx(1.0, abs=1e-9)

    def test_ghz_dual_assistance(self):
        # Each pair marginal (|00><00| + |11><11|)/2 reaches average
        # concurrence 1 with the balanced superposition decomposition.
        ghz = ghz_state(3)
        report = dual_audit(ghz, 1, "crenoa", state_id="ghz")
        assert report.lhs_sq == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(report.rhs_terms_sq, [1.0, 1.0], atol=1e-3)
        assert report.verdict == "holds"

    def test_symmetric_w_dual_holds(self):
        from crenaudit import build_w_state

        psi = build_w_state(WClassSpec.symmetric(3, 2))
        report = dual_audit(psi, 1, "coa")
        assert report.verdict in ("holds", "saturated")

    def test_product_state_dual_trivial(self, rng):
        psi = tensor_product(
            tensor_product(rand_pure((2,), rng), rand_pure((2,), rng)),
            rand_pure((2,), rng),
        )
        report = dual_audit(psi, 1, "crenoa")
        assert report.lhs_sq <= 1e-9
        assert report.verdict in ("holds", "saturated")

    def test_mixed_input_rejected(self, rng):
        with pytest.raises(DomainError):
            cren_audit(rand_dm((2, 2, 2), 2, rng), 1)


def _term_inputs():
    # Cut 1 of each: 1|23 of the pure OU state and of a W mixture on three
    # qubits, 1|2 of a W pair (roof 2/3), of a qutrit W pair (roof 2/3),
    # of a Kim-Sanders (3, 2) pair, whose range has constant concurrence
    # sqrt(8/9), and of a seeded rank-2 (3, 2) marginal, whose range does
    # not.  Both W mixtures have two-dimensional local supports.
    w3_pair = partial_trace(to_density(build_w_state(WClassSpec.symmetric(3, 2))), (1, 2))
    w4_triple = partial_trace(to_density(build_w_state(WClassSpec.symmetric(4, 2))), (1, 2, 3))
    return {
        "pure": ou_state(),
        "qubit_pair": w3_pair,
        "qutrit_w_pair": partial_trace(build_w_state(WClassSpec.symmetric(3, 3)), (1, 2)),
        "qutrit_qubit_pair": partial_trace(to_density(kim_sanders_state()), (1, 2)),
        "qutrit_qubit_mix": rand_dm((3, 2), 2, np.random.default_rng(4)),
        "qubit_triple": w4_triple,
    }


# A search far larger than the table rows' own, for the roofs of inputs
# with no closed form.
_REFERENCE = OptConfig(size=12, starts=24, max_sweeps=300, seed=7)

# (input, measure, method, kind, true value); None means the trace-norm
# value, and "min" or "max" the _REFERENCE search's.
_TABLE_ROWS = [
    ("pure", "concurrence", "closed_form", "exact", np.sqrt(4 / 3)),
    ("pure", "negativity", "closed_form", "exact", 2.0),
    ("pure", "cren", "closed_form", "exact", 2.0),
    ("pure", "crenoa", "closed_form", "exact", 2.0),
    ("pure", "coa", "closed_form", "exact", np.sqrt(4 / 3)),
    ("qubit_pair", "negativity", "trace_norm", "exact", None),
    ("qutrit_qubit_pair", "negativity", "trace_norm", "exact", None),
    ("qubit_pair", "cren", "closed_form", "exact", 2 / 3),
    ("qubit_pair", "concurrence", "closed_form", "exact", 2 / 3),
    ("qutrit_qubit_pair", "cren", "minor_table", "exact", np.sqrt(8 / 9)),
    ("qutrit_qubit_pair", "concurrence", "minor_table", "exact", np.sqrt(8 / 9)),
    ("qutrit_qubit_pair", "crenoa", "minor_table", "exact", np.sqrt(8 / 9)),
    ("qutrit_qubit_pair", "coa", "minor_table", "exact", np.sqrt(8 / 9)),
    ("qutrit_qubit_mix", "cren", "optimizer", "upper", "min"),
    ("qutrit_qubit_mix", "concurrence", "optimizer", "upper", "min"),
    ("qubit_triple", "cren", "closed_form", "exact", np.sqrt(2) / 2),
    ("qubit_triple", "concurrence", "closed_form", "exact", np.sqrt(2) / 2),
    ("qutrit_w_pair", "cren", "closed_form", "exact", 2 / 3),
    ("qutrit_w_pair", "concurrence", "closed_form", "exact", 2 / 3),
    ("qutrit_w_pair", "crenoa", "closed_form", "exact", 2 / 3),
    ("qutrit_w_pair", "coa", "closed_form", "exact", 2 / 3),
    ("qubit_pair", "crenoa", "closed_form", "exact", 2 / 3),
    ("qutrit_qubit_mix", "coa", "optimizer", "lower", "max"),
    ("qutrit_qubit_mix", "crenoa", "optimizer", "lower", "max"),
    ("qubit_triple", "crenoa", "closed_form", "exact", np.sqrt(2) / 2),
]


def _assert_bracket_holds(term):
    if term.kind == "exact":
        assert term.lower == term.value == term.upper
        return
    # A minimum is its bracket's top, a maximum its bottom; a maximum's
    # ceiling is the minor table's where it proves one, else +inf.
    assert term.upper == term.value if term.kind == "upper" else term.lower == term.value
    # A floor that meets the roof (a flat range's, as on the Ou pairs) may
    # round a few ulps above the value; clamping it would hide an unsound
    # floor as well.
    assert term.lower <= term.value + 1e-12
    assert term.value <= term.upper


class TestPairTerm:
    @pytest.mark.parametrize("name, measure, method, kind, true", _TABLE_ROWS)
    def test_table_row(self, name, measure, method, kind, true):
        state = _term_inputs()[name]
        term = pair_term(state, 1, measure, OptConfig(starts=3))
        assert (term.method, term.kind) == (method, kind)
        if true is None:
            true = negativity_mixed(state, 1)
        elif isinstance(true, str):
            true = convexroof.optimize(state, 1, true, _REFERENCE).value
        # Every test input has a flat decomposition landscape, or is a
        # (3, 2) pair, where the rows' own search meets the reference's, so
        # even the optimizer's one-sided values meet the true value.
        assert term.value == pytest.approx(true, abs=1e-6)
        # Every mixed roof row here has a two-dimensional side, so its
        # bracket is the minor table's, floored by the partial-transpose
        # negativity.
        if kind == "upper":
            assert term.lower == max(negativity_mixed(state, 1), range_floor(state, 1))
        elif kind == "lower":
            assert (term.lower, term.upper) == (term.value, range_bracket(state, 1)[1])
        else:
            assert term.lower == term.value
        _assert_bracket_holds(term)

    def test_hardest_separable_qubit_pair_is_exactly_zero(self):
        # State 31 of seed 99: separable and full rank, where the search
        # stopped about 7e-4 above the true roof before two-qubit roofs
        # were closed forms in the optimizer too.
        rng = np.random.default_rng(99)
        hard = [rand_dm((2, 2), 1 + k % 4, rng) for k in range(32)][-1]
        for measure in ("cren", "concurrence"):
            term = pair_term(hard, 1, measure, OptConfig())
            assert (term.value, term.kind, term.method) == (0.0, "exact", "closed_form")

    def test_separable_qutrit_pair_reads_zero_negativity(self):
        # The pair marginal of the qutrit GHZ state mixes |ii><ii|, so its
        # partial transpose's trace norm is 1 up to rounding (1 + 2.2e-16),
        # which must not floor the cren roof above its search's 0.
        pair = partial_trace(ghz_state(3, 3), (1, 2))
        assert negativity_mixed(pair, 1) == 0.0
        assert pair_term(pair, 1, "negativity").value == 0.0
        term = pair_term(pair, 1, "cren")
        assert term.value == 0.0 and term.lower <= term.upper

    def test_batch_matches_one_item_calls(self):
        # Every input twice in one call, under distinct seeds, so the
        # optimizer rows of one shape share a search.
        states = list(_term_inputs().values()) * 2
        cuts = [1] * len(states)
        cfgs = [OptConfig(starts=3, seed=k) for k in range(len(states))]
        for measure in ("cren", "concurrence", "crenoa"):
            measures = [measure] * len(states)
            alone = [pair_term(s, c, measure, cfg) for s, c, cfg in zip(states, cuts, cfgs)]
            assert pair_terms(list(zip(states, cuts, measures, cfgs))) == alone

    def test_mixed_measure_batch_matches_one_item_calls(self):
        # Every measure of every input in one call, so rows of one state
        # share searches and the per-state closed forms, and rows of one
        # shape share a batched search.
        rows = [
            (state, 1, measure, OptConfig(starts=3, seed=k))
            for k, state in enumerate(_term_inputs().values())
            for measure in monogamy.PAIR_MEASURES
        ]
        alone = [pair_term(*row) for row in rows]
        assert pair_terms(rows) == alone

    def test_pure_rows_equal_the_closed_forms(self, rng):
        # A pure row is its kernel on the state's cut matrix, which is what
        # concurrence_pure and negativity_pure compute.
        closed = {"concurrence": concurrence_pure, "coa": concurrence_pure}
        inputs = [(ou_state(), 1), (kim_sanders_state(), 2), (rand_pure((2, 3, 4), rng), (1, 3))]
        rows = [(psi, cut, measure, None) for psi, cut in inputs for measure in monogamy.PAIR_MEASURES]
        terms = pair_terms(rows)
        for (psi, cut, measure, _), term in zip(rows, terms):
            assert term.value == closed.get(measure, negativity_pure)(psi, cut)

    def test_optimizer_concurrence_rows_score_the_negativity_search(self):
        # A concurrence or coa row is the average concurrence of the
        # decomposition that optimize finds for the negativity roof.  The
        # qubit mixture, unlike the W triple, has full local supports, so
        # its rows are searched.
        inputs = {**_term_inputs(), "qubit_triple_mix": rand_dm((2, 2, 2), 2, np.random.default_rng(6))}
        cfg = OptConfig(starts=3, seed=5)
        rows = [("qutrit_qubit_mix", "concurrence", "min"), ("qutrit_qubit_mix", "coa", "max"),
                ("qubit_triple_mix", "concurrence", "min"), ("qubit_triple_mix", "coa", "max")]
        for name, measure, direction in rows:
            rho = inputs[name]
            members = convexroof.optimize(rho, 1, direction, cfg).decomposition.members
            want = float(pure_concurrences(cut_matrices(members, rho.profile, 1)).sum())
            assert pair_term(rho, 1, measure, cfg).value == want

    def test_unknown_measures_rejected(self):
        with pytest.raises(DomainError, match="sorcery"):
            pair_term(ou_state(), 1, "sorcery")
        with pytest.raises(DomainError, match="sorcery"):
            audit(ou_state(), 1, "sorcery")
        with pytest.raises(DomainError, match="sorcery"):
            audits([(ou_state(), "ou", 0)], 1, ["cren", "sorcery"])
        with pytest.raises(DomainError):
            dual_audit(ou_state(), 1, "cren")


def _audited_states():
    """(name, psi, focus) of the acceptance audits, a Haar state, and states with rank-1 pair marginals.

    The Haar 3x3x3 state's (3, 3) pairs leave their searches open, so its
    minima are ``upper``.  The others are products of a random 3x2 or 3x3
    pair with a qubit, whose (1, 2) marginal is pure; their floors are
    exact, so rounding can put them above the value.
    """
    states = [("ou", ou_state(), 1)]
    states += [("haar333", random_pure_state(DimensionProfile((3, 3, 3)), np.random.default_rng(2)), 1)]
    states += [(f"ks-{focus}", kim_sanders_state(), focus) for focus in (1, 2, 3)]
    states += [("w4", build_w_state(WClassSpec.symmetric(4, 2)), 1),
               ("w3x3", build_w_state(WClassSpec.symmetric(3, 3)), 1),
               ("ghz4x3", ghz_state(4, 3), 1)]
    rng = np.random.default_rng(1)
    states += [(f"product-{k}", tensor_product(rand_pure((3, 2 + k % 2), rng), rand_pure((2,), rng)), 1)
               for k in range(16)]
    return states


class TestBrackets:
    """Every audit term's bracket [lower, upper] holds its value (the table
    rows are checked in TestPairTerm), and every report holds the brackets
    its verdict was read from."""

    def test_audit_terms(self):
        measures = list(monogamy.AUDIT_MEASURES)
        kinds = set()
        for name, psi, focus in _audited_states():
            _, rows = monogamy._audit_rows([(psi, name, 0)], focus, measures, None)
            for term in pair_terms(rows):
                _assert_bracket_holds(term)
                kinds.add(term.kind)
        assert kinds == {"exact", "upper", "lower"}

    def test_reports_reproduce_their_verdicts(self):
        measures = list(monogamy.AUDIT_MEASURES)
        reports = [report for name, psi, focus in _audited_states()
                   for report in audits([(psi, name, 0)], focus, measures)]
        reports += [analytic_w_audit(PCSSpec(WClassSpec.symmetric(n, d), 0.6, 0.3)).report
                    for n, d in ((3, 2), (4, 3))]
        verdicts = set()
        for r in reports:
            dual = monogamy._is_dual(r.measure)
            got = monogamy._verdict(r.lhs_sq, r.rhs_terms_sq, r.rhs_lower_sq, r.rhs_upper_sq, dual)
            assert got == (r.residual, r.verdict)
            verdicts.add(r.verdict)
        assert verdicts == {"holds", "saturated", "certified_violation", "candidate_violation"}


def _haar_qutrits():
    """A fresh object of one seeded Haar 3x3x3 state, whose (3, 3) pair marginals are searched."""
    return random_pure_state(DimensionProfile((3, 3, 3)), np.random.default_rng(11))


# The five named audits of focus party 1, by audit measure.
_NAMED_AUDITS = {
    "cren": lambda psi: cren_audit(psi, 1),
    "ckw": lambda psi: ckw_audit(psi, 1),
    "coa": lambda psi: dual_audit(psi, 1, "coa"),
    "crenoa": lambda psi: dual_audit(psi, 1, "crenoa"),
    "negativity": lambda psi: negativity_audit(psi, 1),
}


class TestSharedSearches:
    """Rows posing the same roof problem share one search, and rows of one
    state one copy of its closed forms, in one call or across calls on the
    same state object."""

    @pytest.fixture
    def problems(self, monkeypatch):
        calls = []

        def counted(problems, _original=monogamy.optimize_many, **kwargs):
            calls.append([(id(rho), cut, direction, cfg) for rho, cut, direction, cfg in problems])
            return _original(problems, **kwargs)

        monkeypatch.setattr(monogamy, "optimize_many", counted)
        return calls

    def test_all_five_audits_search_each_marginal_once_per_direction(self, problems):
        # The Haar state has two (3, 3) pair marginals: cren and ckw share
        # each one's minimum, crenoa and coa its maximum.
        audits([(_haar_qutrits(), "haar", 0)], 1, ["cren", "ckw", "coa", "crenoa", "negativity"])
        [call] = problems
        assert sorted(direction for _, _, direction, _ in call) == ["max", "max", "min", "min"]
        assert len(set(call)) == 4

    def test_named_audits_search_each_marginal_once_per_direction(self, problems):
        # Separate calls on one state object: its two (3, 3) pair marginals
        # each get one minimum and one maximum across the four roof audits.
        psi = _haar_qutrits()
        for run in _NAMED_AUDITS.values():
            run(psi)
        posed = [problem for call in problems for problem in call]
        assert sorted(direction for _, _, direction, _ in posed) == ["max", "max", "min", "min"]
        assert len({(rho, direction) for rho, _, direction, _ in posed}) == 4

    def test_new_seed_cfg_or_object_searches_again(self, problems):
        psi = _haar_qutrits()
        cren_audit(psi, 1)
        cren_audit(psi, 1, seed=1)
        cren_audit(psi, 1, opt_cfg=OptConfig(starts=2))
        cren_audit(_haar_qutrits(), 1)  # equal values, a distinct object
        cren_audit(psi, 1)
        ckw_audit(psi, 1, seed=1)
        cren_audit(psi, 1, opt_cfg=OptConfig(starts=2))
        assert [len(call) for call in problems] == [2, 2, 2, 2, 0, 0, 0]

    def test_default_cfg_shares_the_search_of_an_explicit_default(self, problems):
        rho = _term_inputs()["qutrit_qubit_mix"]
        pair_term(rho, 1, "cren")
        pair_term(rho, 1, "concurrence", OptConfig())
        assert [len(call) for call in problems] == [1, 0]

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (3, 2, 2), (3, 3, 3)])
    @pytest.mark.parametrize("order", [
        ["cren", "ckw", "coa", "crenoa", "negativity"],
        ["crenoa", "negativity", "ckw", "coa", "cren"],
    ])
    def test_separate_audits_equal_reports_on_fresh_objects(self, dims, order):
        psi = random_pure_state(DimensionProfile(dims), np.random.default_rng(11))
        fresh = {m: run(qlinalg.PureState(psi.profile, psi.amplitudes))
                 for m, run in _NAMED_AUDITS.items()}
        assert {m: _NAMED_AUDITS[m](psi) for m in order} == fresh

    @pytest.mark.parametrize("first", [1, 2])
    def test_a_cut_and_its_complement_share_one_search(self, problems, first):
        # One problem, posed under the first row's naming; both rows read it.
        def fresh():
            return rand_dm((3, 3), 3, np.random.default_rng(5), factor=True)

        rho, cfg = fresh(), OptConfig(starts=2)
        one, two = pair_terms([(rho, first, "cren", cfg), (rho, 3 - first, "cren", cfg)])
        [call] = problems
        assert [(cut, direction) for _, cut, direction, _ in call] == [(Bipartition((first,), 2), "min")]
        assert one == two
        assert one.value == convexroof.optimize(fresh(), first, "min", cfg).value
        # A later call naming either side reads the kept search.
        assert pair_terms([(rho, 3 - first, "concurrence", cfg)])[0].kind == "upper"
        assert [len(call) for call in problems] == [1, 0]

    def test_audit_rows_build_each_search_cfg_once(self, monkeypatch):
        # One cfg per pair marginal and call, not one per roof measure.
        built = []

        def counted(rank, seed, _original=monogamy._audit_opt_cfg):
            built.append((rank, seed))
            return _original(rank, seed)

        monkeypatch.setattr(monogamy, "_audit_opt_cfg", counted)
        _, rows = monogamy._audit_rows([(ou_state(), "ou", 0)], 1, list(monogamy.AUDIT_MEASURES), None)
        assert built == [(3, 0), (3, 0)]
        assert len(rows) == 5 * 3
        monogamy._audit_rows([(ou_state(), "ou", 0)], 1, ["negativity"], None)
        assert len(built) == 2

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2)])
    def test_qubit_audits_build_no_search_cfg(self, monkeypatch, dims):
        # Pairs with 2x2 supports close at their spin-flip values, so none
        # gets a search cfg, and the reports are those of any cfg.
        built = []

        def counted(*args, _original=monogamy.OptConfig, **kwargs):
            built.append(args or kwargs)
            return _original(*args, **kwargs)

        def fresh():
            return random_pure_state(DimensionProfile(dims), np.random.default_rng(3))

        monkeypatch.setattr(monogamy, "OptConfig", counted)
        reports = audits([(fresh(), "qubits", 0)], 1, list(monogamy.AUDIT_MEASURES))
        assert built == []
        assert audits([(fresh(), "qubits", 0)], 1, list(monogamy.AUDIT_MEASURES), OptConfig(starts=2)) == reports

    def test_negativity_audit_searches_nothing(self, problems):
        audits([(ou_state(), "ou", 0)], 1, ["negativity"])
        assert not any(problems)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2)])
    def test_qubit_audits_search_nothing(self, problems, dims):
        # Every pair marginal is a (2, 2) state, whose four roof terms are
        # closed forms in both directions.
        psi = random_pure_state(DimensionProfile(dims), np.random.default_rng(3))
        reports = audits([(psi, "qubits", 0)], 1, list(monogamy.AUDIT_MEASURES))
        assert not any(problems)
        assert {kind for r in reports for kind in r.rhs_bound_kinds} == {"exact"}
        # Minima read Wootters' value, maxima the concurrence of assistance.
        pairs = dict(monogamy._pair_marginals(psi, 1))
        for r in reports:
            if r.measure != "negativity":
                values = [spin_flip_values(pairs[j])[monogamy._is_dual(r.measure)] for j in r.partners]
                assert r.rhs_terms_sq == tuple(v * v for v in values)

    def test_closed_forms_computed_once_per_state(self, monkeypatch):
        calls = {"spin_flip_values": 0, "negativity_mixed": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(monogamy, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(monogamy, name, counted)
        # The two-qubit rows read one spin-flip SVD, in both directions, and
        # one partial-transpose negativity; the qutrit-qubit rows one
        # negativity, as the floor of their minor-table bracket and as the term.
        inputs = _term_inputs()
        pair_terms([(inputs[name], 1, m, OptConfig(starts=2))
                    for name in ("qubit_pair", "qutrit_qubit_pair")
                    for m in ("cren", "concurrence", "negativity", "cren", "crenoa", "coa")])
        assert calls == {"spin_flip_values": 1, "negativity_mixed": 2}

    def test_local_supports_computed_once_per_state_and_cut(self, monkeypatch):
        # The bracket's roots on the supports feed the spin-flip values and
        # the search alike: one computation each, a closed form and a
        # searched row included, with the supports of a qutrit W pair compressed.
        calls, original = [], measures._compressed_roots

        def counted(rho, cut):
            calls.append((id(rho), cut))
            return original(rho, cut)

        monkeypatch.setattr(measures, "_compressed_roots", counted)
        inputs = _term_inputs()
        terms = pair_terms([(inputs[name], 1, m, OptConfig(starts=2))
                            for name in ("qubit_pair", "qutrit_w_pair", "qutrit_qubit_mix")
                            for m in ("cren", "concurrence", "crenoa", "coa")])
        assert {t.method for t in terms} == {"closed_form", "optimizer"}
        assert len(calls) == len(set(calls)) == 3

    def test_pure_rows_computed_once_per_kernel(self, monkeypatch):
        # The five audits read the Ou state's (3, 9) focus cut matrix
        # through two kernels: one values-only SVD each.
        shapes = []

        def counted(a, *args, _original=np.linalg.svd, **kwargs):
            if kwargs.get("compute_uv") is False:
                shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        audits([(ou_state(), "ou", 0)], 1, ["cren", "ckw", "coa", "crenoa", "negativity"])
        assert shapes.count((1, 3, 9)) == 2


class TestRangeFloor:
    def test_flat_rank_three_range(self):
        rho = partial_trace(to_density(ou_state()), (1, 2))
        assert range_floor(rho, 1) == pytest.approx(1.0, abs=1e-12)

    def test_flat_rank_two_range(self):
        rho = partial_trace(to_density(kim_sanders_state()), (1, 2))
        assert range_floor(rho, 1) == pytest.approx(np.sqrt(8 / 9), abs=1e-12)

    def test_separable_range_floors_to_zero(self, rng):
        # A rank-2 mixture of two product states has product states in its
        # range, so the floor must come out zero.
        a = tensor_product(rand_pure((2,), rng), rand_pure((2,), rng))
        b = tensor_product(rand_pure((2,), rng), rand_pure((2,), rng))
        mat = 0.5 * to_density(a).matrix + 0.5 * to_density(b).matrix
        from crenaudit import DensityOperator

        rho = DensityOperator(DimensionProfile((2, 2)), mat)
        assert range_floor(rho, 1) == 0.0

    def test_range_wider_than_the_minor_table_floors_to_zero(self, rng):
        # Rank 4 of (2, 2): ten columns against one minor, so some unit y
        # has A y = 0 and the floor is 0.
        assert range_floor(rand_dm((2, 2), 4, rng), 1) == 0.0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)])
    def test_floor_is_below_every_sampled_range_vector(self, dims):
        # Four seeded ranges a shape, and ranks 4 and 5 on (3, 4), 26 in all:
        # the basis vectors and 2048 Haar-random unit vectors of each range.
        cases = [(2, 0), (2, 1), (2, 2), (3, 0)] + ([(4, 0), (5, 0)] if dims == (3, 4) else [])
        for rank, seed in cases:
            rho = rand_dm(dims, rank, np.random.default_rng(100 * seed + rank))
            rng = np.random.default_rng(seed)
            coeffs = rng.standard_normal((2048, rank)) + 1j * rng.standard_normal((2048, rank))
            coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
            vecs = np.vstack([np.eye(rank), coeffs]) @ rho.range_basis.T
            sampled = pure_concurrences(cut_matrices(vecs, rho.profile, 1))
            assert range_floor(rho, 1) <= sampled.min()

    def test_range_meeting_the_product_vectors_floors_to_zero(self):
        # A 3-dimensional range of 2 (x) 3 generically meets the product
        # vectors, a 3-dimensional variety of the 5-dimensional projective space.
        assert range_floor(rand_dm((2, 3), 3, np.random.default_rng(18)), 1) == 0.0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_rank_one_floor_is_the_pure_concurrence(self, dims, rng):
        rho = rand_dm(dims, 1, rng)
        mats = cut_matrices(rho.range_basis.T, rho.profile, 1)
        assert range_floor(rho, 1) == pytest.approx(pure_concurrences(mats)[0], abs=1e-14)

    def test_concurrence_builds_the_cut_matrices_once(self, monkeypatch, rng):
        # The floor comes from the cut matrices of the range basis alone.
        calls = []

        def counted(*args, _original=qlinalg.cut_matrices, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        for module in (qlinalg, measures, monogamy, convexroof):
            monkeypatch.setattr(module, "cut_matrices", counted)
        for rank in (1, 2, 3):
            calls.clear()
            range_floor(rand_dm((3, 3), rank, rng), 1)
            assert len(calls) == 1


# Shapes the bracket rule tells apart: a two-dimensional side first or
# second, and none.
_BRACKET_SHAPES = [(3, 2), (2, 3), (2, 4), (3, 3), (4, 3)]


def _bracket_marginal(dims, rank):
    return rand_dm(dims, rank, np.random.default_rng([rank, *dims]))


def _range_samples(rho, count, seed):
    """Cut 1 of the basis vectors and of ``count`` Haar-random unit vectors of rho's range."""
    rank = rho.rank()
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((count, rank)) + 1j * rng.standard_normal((count, rank))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return cut_matrices(np.vstack([np.eye(rank), coeffs]) @ rho.range_basis.T, rho.profile, 1)


def _assert_flat_range_bracket_is_tight():
    # Every unit vector of a Kim-Sanders (3, 2) pair's range has
    # concurrence sqrt(8/9), so the table's floor and ceiling both meet it.
    rho = partial_trace(to_density(kim_sanders_state()), (1, 2))
    sampled = pure_concurrences(_range_samples(rho, 10_000, 0))
    floor, ceiling = range_bracket(rho, 1)
    assert sampled.min() - 1e-12 <= floor and ceiling <= sampled.max() + 1e-12
    assert floor == pytest.approx(np.sqrt(8 / 9), abs=1e-12)
    assert ceiling == pytest.approx(np.sqrt(8 / 9), abs=1e-12)


def _assert_kim_sanders_pairs_exact(focus):
    """The Kim-Sanders audits of ``focus`` under all five measures, by measure,
    after asserting that every roof term of a (3, 2) pair is exact at sqrt(8/9)."""
    reports = audits([(kim_sanders_state(), "ks", 0)], focus, list(monogamy.AUDIT_MEASURES))
    for report in reports:
        if report.measure == "negativity":
            continue
        # Party 1 is the qutrit: its pairs are the (3, 2) marginals.
        for partner, kind, term_sq in zip(report.partners, report.rhs_bound_kinds, report.rhs_terms_sq):
            if 1 in (focus, partner):
                assert kind == "exact"
                assert np.sqrt(term_sq) == pytest.approx(np.sqrt(8 / 9), abs=1e-12)
    return {r.measure: r for r in reports}


class TestRangeBracket:
    """The minor table's [floor, ceiling] holds the concurrence of every
    range vector, and its negativity too where a side is two-dimensional,
    and every default search lies inside its row's bracket."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("dims", _BRACKET_SHAPES)
    def test_sampled_range_vectors_lie_in_the_bracket(self, dims, rank):
        rho = _bracket_marginal(dims, rank)
        floor, ceiling = range_bracket(rho, 1)
        mats = _range_samples(rho, 10_000, rank)
        sampled = [pure_concurrences(mats)]
        if 2 in dims:
            # Schmidt rank <= 2 on every vector: N = C.
            sampled.append(pure_negativities(mats))
        for values in sampled:
            assert floor - 1e-12 <= values.min()
            assert values.max() <= ceiling + 1e-12

    @pytest.mark.parametrize("dims", _BRACKET_SHAPES)
    def test_default_searches_lie_in_their_rows_brackets(self, dims):
        roof_measures = ("cren", "concurrence", "crenoa", "coa")
        for rank in (1, 2, 3, 4):
            rho = _bracket_marginal(dims, rank)
            terms = pair_terms([(rho, 1, m, None) for m in roof_measures])
            for measure, term in zip(roof_measures, terms):
                # A searched row's value is its default search's.
                _assert_bracket_holds(term)
                if term.kind == "exact":
                    # A closed row posed no search: run the one it skipped.
                    kernel, direction = monogamy.PAIR_MEASURES[measure]
                    members = convexroof.optimize(rho, 1, direction, OptConfig()).decomposition.members
                    value = float(kernel(cut_matrices(members, rho.profile, 1)).sum())
                    assert term.lower - 1e-12 <= value <= term.upper + 1e-12

    def test_flat_range_bracket_is_tight(self):
        _assert_flat_range_bracket_is_tight()

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_a_perturbed_table_fails_on_the_flat_range(self, monkeypatch, column):
        def perturbed(basis_mats, _original=measures.minor_table):
            table = _original(basis_mats)
            table[:, column] *= 1 + 1e-6
            return table

        monkeypatch.setattr(measures, "minor_table", perturbed)
        with pytest.raises(AssertionError):
            _assert_flat_range_bracket_is_tight()
        with pytest.raises(AssertionError):
            _assert_kim_sanders_pairs_exact(focus=1)


class TestCounterexampleBrackets:
    """The paper's qudit counterexamples under all five audits.  The
    Kim-Sanders (3, 2) pairs close their minor-table brackets at sqrt(8/9),
    so their four roof terms are exact and pose no search; the Ou pairs'
    ranges have constant concurrence 1, which closes their ckw and coa terms,
    and their spectral decompositions meet it, which closes cren."""

    @pytest.mark.parametrize("focus", [1, 2, 3])
    def test_kim_sanders_pair_terms_are_exact(self, focus, searches):
        reports = _assert_kim_sanders_pairs_exact(focus)
        # The (3, 2) pairs close their minor tables and the (2, 2) pair of
        # foci 2 and 3 reads its spin-flip values: no search at any focus.
        assert not [problem for problems, _ in searches for problem in problems]
        verdicts = {m: r.verdict for m, r in reports.items()}
        if focus == 1:
            assert verdicts == {"cren": "holds", "ckw": "certified_violation", "negativity": "holds",
                                "crenoa": "certified_violation", "coa": "holds"}
        else:
            assert set(verdicts.values()) == {"holds"}

    def test_ou_closes_ckw_coa_and_cren_but_searches_crenoa(self, searches):
        reports = {r.measure: r for r in audits([(ou_state(), "ou", 0)], 1, list(monogamy.AUDIT_MEASURES))}
        for measure in ("ckw", "coa"):
            assert reports[measure].rhs_bound_kinds == ("exact", "exact")
            assert reports[measure].rhs_terms_sq == pytest.approx([1.0, 1.0], abs=1e-12)
        # The concurrence floor 1 floors cren too, and the spectral
        # decomposition meets it: the bracket closes before any search.
        # crenoa has no ceiling.
        assert reports["cren"].rhs_bound_kinds == ("exact", "exact")
        assert reports["crenoa"].rhs_bound_kinds == ("lower", "lower")
        assert reports["cren"].rhs_lower_sq == pytest.approx([1.0, 1.0], abs=1e-12)
        [(problems, _)] = searches
        assert [direction for _, _, direction, _ in problems] == ["max", "max"]
        verdicts = {m: r.verdict for m, r in reports.items()}
        assert verdicts == {"cren": "holds", "ckw": "certified_violation", "negativity": "holds",
                            "crenoa": "candidate_violation", "coa": "holds"}


@pytest.fixture
def floor_reads(monkeypatch):
    """Calls of what the floors read: the minor table and the partial-transpose negativity."""
    calls = {"range_bracket": 0, "negativity_mixed": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(monogamy, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(monogamy, name, counted)
    return calls


def _audited_pair(psi):
    """The (1, 2) marginal of psi and the search config its audits give it."""
    rho = partial_trace(psi, (1, 2))
    return rho, monogamy._audit_opt_cfg(rho.rank(), 0)


class TestBracketRule:
    """One rule brackets every row: the largest floor and the least ceiling
    of its sources, closed before its search and again after it, with the
    floors read only where the row's ceiling is finite."""

    def test_searches_that_meet_their_floors_close(self, searches):
        # The Ou pair's range has N = C = 1 on every unit vector, and the
        # qutrit GHZ pair is separable: their cren rows close at their
        # spectral decompositions before any search.  The GHZ pair's
        # concurrence row has the minor table's finite ceiling, so it is
        # searched, meets its floor and closes at the search's value.
        (ou, ou_cfg), (ghz, ghz_cfg) = _audited_pair(ou_state()), _audited_pair(ghz_state(3, 3))
        rows = [(ou, 1, "cren", ou_cfg), (ghz, 1, "cren", ghz_cfg), (ghz, 1, "concurrence", ghz_cfg)]
        terms = pair_terms(rows)
        [(problems, _)] = searches
        assert [(rho, direction) for rho, _, direction, _ in problems] == [(ghz, "min")]
        assert [(t.kind, t.method) for t in terms] == [
            ("exact", "spectral"), ("exact", "spectral"), ("exact", "optimizer")]
        assert terms[0].value == pytest.approx(1.0, abs=1e-12)
        assert terms[1].value == terms[2].value == 0.0
        for term in terms:
            _assert_bracket_holds(term)

    def test_a_floor_short_of_the_search_leaves_the_row_open(self, monkeypatch):
        def lowered(rho, cut, _original=monogamy.range_bracket):
            floor, ceiling = _original(rho, cut)
            return floor - 1e-9, ceiling

        monkeypatch.setattr(monogamy, "range_bracket", lowered)
        rho, cfg = _audited_pair(ou_state())
        term = pair_term(rho, 1, "cren", cfg)
        assert (term.kind, term.method) == ("upper", "optimizer")
        assert term.upper == term.value == pytest.approx(1.0, abs=1e-12)
        assert term.lower == pytest.approx(1.0 - 1e-9, abs=1e-12)

    def test_a_maximum_reports_its_search_in_place_of_every_floor(self, monkeypatch):
        # The C ceiling bounds coa on a Haar (3, 3) pair before its search,
        # so the row reads its floors; a floor raised above the search's
        # value (as rounding may raise one on a flat range) still gives way
        # to that value, so the reported maximum is its bracket's bottom.
        def raised(rho, cut, _original=monogamy.range_bracket):
            ceiling = _original(rho, cut)[1]
            return ceiling - 1e-6, ceiling

        monkeypatch.setattr(monogamy, "range_bracket", raised)
        rho, cfg = _audited_pair(random_pure_state(DimensionProfile((3, 3, 3)), np.random.default_rng(2)))
        term = pair_term(rho, 1, "coa", cfg)
        assert (term.kind, term.method) == ("lower", "optimizer")
        assert term.lower == term.value < term.upper - 1e-6

    def test_a_kept_search_gives_an_equal_term(self, searches):
        rho, cfg = _audited_pair(_haar_qutrits())
        first = [pair_term(rho, 1, measure, cfg) for measure in ("cren", "crenoa")]
        # The second call reads both searches from the state's memo.
        assert [pair_term(rho, 1, measure, cfg) for measure in ("cren", "crenoa")] == first
        assert [len(problems) for problems, _ in searches] == [1, 1, 0, 0]

    def test_a_maximum_with_no_ceiling_reads_no_floor(self, floor_reads):
        # No (3, 3) support is two-dimensional, so nothing bounds crenoa from
        # above, and its search's value replaces every floor.
        rho, cfg = _audited_pair(ou_state())
        term = pair_term(rho, 1, "crenoa", cfg)
        assert (term.kind, term.upper) == ("lower", np.inf)
        assert floor_reads == {"range_bracket": 0, "negativity_mixed": 0}

    def test_rank_one_pairs_close_before_any_search(self, searches):
        # A pure (3, 3) pair marginal is its one root's kernel value under
        # every roof, as a pure state is, so no audit measure searches it.
        rng = np.random.default_rng(1)
        phi = rand_pure((3, 3), rng)
        psi = tensor_product(phi, rand_pure((2,), rng))
        reports = audits([(psi, "product", 0)], 1, list(monogamy.AUDIT_MEASURES))
        assert not [problem for problems, _ in searches for problem in problems]
        assert {kind for r in reports for kind in r.rhs_bound_kinds} == {"exact"}
        pair = dict(monogamy._pair_marginals(psi, 1))[2]
        assert pair.rank() == 1
        for measure in ("cren", "crenoa", "negativity"):
            term = pair_term(pair, 1, measure)
            assert term.method == "closed_form"
            assert term.value == pytest.approx(negativity_pure(phi, 1), abs=1e-12)

    @pytest.mark.parametrize("dims, reads", [((3, 3, 3), 0), ((2, 3, 4), 124)])
    def test_hunts_read_floors_only_where_a_ceiling_is_finite(self, floor_reads, dims, reads):
        # Every unscreened 3x3x3 trial is stopped, and its (3, 3) cren rows
        # have no ceiling before their searches (their spectral members are
        # not flat), so no floor is read.  A
        # 2x3x4 trial's pairs have a two-dimensional side, so their minor
        # tables bound cren from above before the search, and are read.
        findings = hunt(DimensionProfile(dims), 64, 5)
        assert findings.stopped > 0 and findings.searched == 0
        assert floor_reads == {"range_bracket": reads, "negativity_mixed": reads}


class TestSpectralSource:
    """A minimum with no ceiling before its search takes its spectral
    decomposition's average as one where the members are flat, and so
    closes where that average meets the floor; elsewhere it searches as a
    row with no ceiling does."""

    @pytest.mark.parametrize("psi, value", [(ou_state(), 1.0), (ghz_state(3, 3), 0.0)], ids=["ou", "ghz"])
    def test_flat_spectral_decompositions_close_before_any_search(self, searches, psi, value):
        rho, cfg = _audited_pair(psi)
        term = pair_term(rho, 1, "cren", cfg)
        assert not [problem for problems, _ in searches for problem in problems]
        assert (term.kind, term.method) == ("exact", "spectral")
        assert term.value == pytest.approx(value, abs=1e-12)
        _assert_bracket_holds(term)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_haar_rows_read_no_floor_and_no_svd_before_their_search(self, monkeypatch, floor_reads, rank):
        def fresh():
            return rand_dm((3, 3), rank, np.random.default_rng(23), factor=True)

        rho, cfg = fresh(), OptConfig(starts=2, seed=3)
        measures.local_supports(rho, 1)  # the search's supports, read before the row
        svds, at_search = [], []

        def counted_svd(a, *args, _original=np.linalg.svd, **kwargs):
            svds.append(np.shape(a))
            return _original(a, *args, **kwargs)

        def spied(problems, _original=monogamy.optimize_many, **kwargs):
            at_search.append((dict(floor_reads), len(svds)))
            return _original(problems, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(monogamy, "optimize_many", spied)
        term = pair_term(rho, 1, "cren", cfg)
        assert at_search == [({"range_bracket": 0, "negativity_mixed": 0}, 0)]
        assert (term.kind, term.method) == ("upper", "optimizer")
        assert term.value == convexroof.optimize(fresh(), 1, "min", cfg).value
        assert term.lower == max(range_floor(rho, 1), negativity_mixed(rho, 1))

    def test_a_depolarized_ou_marginal_is_searched(self, searches):
        # Mixed with 1e-3 of white noise, the range is the whole space and
        # the spectral members are no longer flat: the row searches.
        def fresh():
            ou = partial_trace(ou_state(), (1, 2))
            return DensityOperator(ou.profile, 0.999 * ou.matrix + 0.001 * np.eye(9) / 9)

        rho = fresh()
        cfg = monogamy._audit_opt_cfg(rho.rank(), 0)
        term = pair_term(rho, 1, "cren", cfg)
        [(problems, _)] = searches
        assert [direction for _, _, direction, _ in problems] == ["min"]
        assert (term.kind, term.method) == ("upper", "optimizer")
        assert term.value == convexroof.optimize(fresh(), 1, "min", cfg).value
        _assert_bracket_holds(term)


def _werner(d, f, rng):
    """The d x d Werner state with <F> = f (F the swap), under a seeded Haar U (x) V."""
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    matrix = ((d - f) * np.eye(d * d) + (d * f - 1) * swap) / (d ** 3 - d)
    local = np.kron(*convexroof.haar_unitaries(2, d, rng))
    return DensityOperator(DimensionProfile((d, d)), local @ matrix @ local.conj().T)


class TestWernerOracle:
    """A d x d Werner state's cren roof is max(0, -f): a pure state's
    negativity is at least minus its swap average <F>, the U (x) U twirl
    keeps f, and a|01> - b|10> with 2ab = -f meets the bound.  Local
    unitaries keep the roof, so a rotated Werner state is an exact oracle
    for the bracket rule on (3, 3) pairs, full-rank ones included, which no
    audit poses."""

    @pytest.mark.parametrize("f", [-1.0, -0.5, -0.2])
    def test_the_cren_bracket_holds_the_roof(self, f):
        rho = _werner(3, f, np.random.default_rng(7))
        term = pair_term(rho, 1, "cren", monogamy._audit_opt_cfg(rho.rank(), 0))
        roof = max(0.0, -f)
        _assert_bracket_holds(term)
        assert term.lower - 1e-9 <= roof <= term.upper + 1e-9
        if f == -1.0:
            # The antisymmetric projector: every member has two equal Schmidt
            # coefficients, so its spectral decomposition is flat and meets the floor.
            assert (rho.rank(), term.kind, term.method) == (3, "exact", "spectral")
        else:
            assert (rho.rank(), term.kind, term.method) == (9, "upper", "optimizer")


class TestEigendecompositionCount:
    """A density operator is decomposed once, at construction, however many callers read its spectrum."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"eigh": [], "eigvalsh": []}
        for name, log in calls.items():
            solver = getattr(np.linalg, name)

            def counted(a, *args, _solver=solver, _log=log, **kwargs):
                _log.append(np.shape(a))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.fixture
    def factor_svds(self, monkeypatch):
        # The input shapes of the SVDs run by DensityOperator construction;
        # the optimizer's and the measures' SVDs are not decompositions of a density.
        shapes = []

        def counted(a, *args, _solver=np.linalg.svd, **kwargs):
            caller = sys._getframe(1)
            if caller.f_code is qlinalg.DensityOperator.__init__.__code__:
                shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return shapes

    def test_a_matrix_density_runs_one_eigh(self, calls, factor_svds):
        amps = ou_state().amplitudes
        rho = DensityOperator(DimensionProfile((3, 3, 3)), np.outer(amps, amps.conj()))
        assert rho.rank() == 1
        assert rho.roots.shape == (1, 27) and rho.range_basis.shape == (27, 1)
        assert (rho.trace(), rho.purity()) == pytest.approx((1.0, 1.0), abs=1e-14)
        assert calls == {"eigh": [(27, 27)], "eigvalsh": []}
        assert factor_svds == []

    def test_pure_pair_marginals_run_one_thin_svd_each(self, calls, factor_svds):
        rho = partial_trace(ou_state(), (1, 2))
        assert rho.rank() == 3
        assert rho.roots.shape == (3, 9) and rho.range_basis.shape == (9, 3)
        assert calls == {"eigh": [], "eigvalsh": []}
        assert factor_svds == [(9, 3)]

    def test_ckw_audit_decomposes_each_pair_marginal_once(self, calls, factor_svds):
        # The optimizer's chart and the range floor share each marginal's SVD.
        ckw_audit(ou_state(), 1)
        assert calls == {"eigh": [], "eigvalsh": []}
        assert factor_svds == [(9, 3), (9, 3)]

    def test_cli_audit_decomposes_each_pair_marginal_once(self, calls, factor_svds, capsys):
        # The default measures cren, ckw and negativity share the marginals.
        # The two eigvalsh are trace_norm's, of the negativity terms' partial
        # transposes, not decompositions of a density.
        assert main(["audit", "--family", "ou"]) == 0
        assert calls == {"eigh": [], "eigvalsh": [(9, 9), (9, 9)]}
        assert factor_svds == [(9, 3), (9, 3)]

    def test_named_audits_decompose_each_pair_marginal_once(self, calls, factor_svds):
        # Separate calls on one state object share its pair marginals.
        psi = ou_state()
        for run in _NAMED_AUDITS.values():
            run(psi)
        # trace_norm of each negativity term's partial transpose, as above.
        assert calls == {"eigh": [], "eigvalsh": [(9, 9), (9, 9)]}
        assert factor_svds == [(9, 3), (9, 3)]

    def test_two_qubit_hunt_decomposes_nothing(self, calls):
        # Two-qubit pair terms are Wootters' closed form: no chart, no floor.
        hunt(DimensionProfile((2, 2, 2)), 10, seed=0)
        assert calls["eigh"] == []

    @pytest.mark.parametrize("n, d, lam", [(3, 2, 0.4), (4, 3, 0.0), (8, 2, 1.0)])
    def test_w_vacuum_scans_run_no_eigensolve(self, calls, n, d, lam):
        # The W/vacuum density comes from its rank-2 factor, whose thin SVD
        # gives the spectrum: neither the scan nor the audit runs eigh or eigvalsh.
        spec = PCSSpec(WClassSpec.symmetric(n, d), 0.6, lam)
        flatness_scan(apply_phase_damping(coherent_superposition(spec), lam), 1, 8)
        analytic_w_audit(spec)
        assert calls == {"eigh": [], "eigvalsh": []}


class TestSupportClosedForms:
    """Roof rows whose local supports are at most 2 x 2 are spin-flip closed
    forms, in both directions, and pose no search."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_w_vacuum_mixtures_meet_the_analytic_values(self, n, d, searches):
        rng = np.random.default_rng(100 + 10 * n + d)
        z = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
        spec = WClassSpec(n, d, z / np.linalg.norm(z))
        p = rng.uniform(0.1, 1.0)
        rho = build_pcs_density(PCSSpec(spec, p, rng.uniform(0.0, 1.0)))
        values = analytic_w_values(spec, p)
        cases = [(rho, Bipartition((1,), n), values.global_cren)]
        cases += [(partial_trace(rho, (1, j)), 1, want) for j, want in enumerate(values.pair_cren, 2)]
        rows = [(state, cut, measure, None) for state, cut, _ in cases
                for measure in ("cren", "concurrence", "crenoa", "coa")]
        terms = pair_terms(rows)
        assert not any(problems for problems, _ in searches)
        for (_, _, want), four in zip(cases, np.reshape(np.array(terms, dtype=object), (-1, 4))):
            for term in four:
                assert (term.kind, term.method) == ("exact", "closed_form")
                assert abs(term.value - want) <= 1e-14

    @pytest.mark.parametrize("n, d, blocks", [
        (4, 2, ((1, 2), (3,), (4,))), (4, 3, ((1,), (2, 3), (4,))), (5, 2, ((1, 2, 3), (4, 5))),
    ])
    def test_coarse_grained_blocks_keep_two_dimensional_supports(self, n, d, blocks, searches):
        # Across cuts between blocks of parties, the fine-grained W/vacuum
        # mixture has two-dimensional block supports, so its terms are the
        # closed forms of the coarse-grained spec, as the partition sweeps read them.
        rng = np.random.default_rng(n + d)
        z = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
        spec, p = WClassSpec(n, d, z / np.linalg.norm(z)), 0.7
        rho = build_pcs_density(PCSSpec(spec, p, 0.4))
        values = analytic_w_values(coarse_grain(spec, PartitionSpec(blocks)), p)
        first = blocks[0]
        cases = [(rho, Bipartition(first, n), values.global_cren)]
        for block, want in zip(blocks[1:], values.pair_cren, strict=True):
            kept = sorted(first + block)
            cut = Bipartition(tuple(kept.index(q) + 1 for q in first), len(kept))
            cases.append((partial_trace(rho, kept), cut, want))
        for state, cut, want in cases:
            for term in pair_terms([(state, cut, measure, None) for measure in ("cren", "crenoa")]):
                assert (term.kind, term.method) == ("exact", "closed_form")
                assert abs(term.value - want) <= 1e-14
        assert not any(problems for problems, _ in searches)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_w_states_moved_off_the_class_are_searched(self, eps, searches):
        # Exact qutrit W pair marginals are closed forms; moved by eps, they
        # leave out about eps^2 of their weight beyond two dimensions, far
        # above SUPPORT_DROP, and are searched.
        for step, method in ((0.0, "closed_form"), (eps, "optimizer")):
            psi = _w_qutrit_states(1, step, np.random.default_rng(8))[0]
            pair = partial_trace(psi, (1, 2))
            rows = [(pair, 1, measure, OptConfig(starts=2, max_sweeps=10)) for measure in ("cren", "crenoa")]
            assert {term.method for term in pair_terms(rows)} == {method}
        assert [len(problems) for problems, _ in searches] == [0, 2]

    def test_qutrit_w_audits_search_nothing(self, searches):
        # Every pair marginal of a qutrit W state has two-dimensional local
        # supports, so all its roof terms are exact and no audit searches.
        psi = build_w_state(WClassSpec.symmetric(3, 3))
        reports = audits([(psi, "w", 0)], 1, list(monogamy.AUDIT_MEASURES))
        assert not any(problems for problems, _ in searches)
        assert {kind for r in reports for kind in r.rhs_bound_kinds} == {"exact"}
        assert {r.verdict for r in reports if r.measure in ("cren", "crenoa")} == {"saturated"}

    def test_a_two_dimensional_support_gives_the_minor_table_bracket(self):
        # A (3, 3) marginal with one side's support two-dimensional: every
        # member has Schmidt rank <= 2, so cren and crenoa share the
        # concurrence bracket of the range's minor table, as where a side
        # of the profile is two-dimensional.
        rng = np.random.default_rng(12)
        g = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
        g[2] = 0.0  # party 1 never at level 2
        rho = DensityOperator(DimensionProfile((3, 3)), factor=g.reshape(9, 2) / np.linalg.norm(g))
        assert measures.local_supports(rho, 1).shape[1:] == (2, 3)
        floor, ceiling = range_bracket(rho, 1)
        cren, crenoa = pair_terms([(rho, 1, "cren", OptConfig(starts=2)), (rho, 1, "crenoa", OptConfig(starts=2))])
        assert (cren.lower, cren.upper) == (max(negativity_mixed(rho, 1), floor), cren.value)
        assert (crenoa.lower, crenoa.upper) == (crenoa.value, ceiling)


class TestAnalyticWAudit:
    def test_symmetric_qubit_values(self):
        values = analytic_w_values(WClassSpec.symmetric(3, 2), 1.0)
        assert values.global_cren == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-12)
        assert np.allclose(values.pair_cren, [2 / 3, 2 / 3], atol=1e-12)
        values = analytic_w_values(WClassSpec.symmetric(3, 2), 0.5)
        assert values.global_cren == pytest.approx(np.sqrt(2) / 3, abs=1e-12)
        assert np.allclose(values.pair_cren, [1 / 3, 1 / 3], atol=1e-12)

    def test_skewed_table_keeps_its_digits(self):
        # A focus weight of 1e-8 must not cancel against 1: each value agrees
        # with 2p sqrt(w_1(1-w_1)) and 2p sqrt(w_1 w_j), 2p = 1, evaluated in
        # 50-digit decimals from the same (renormalized) table.
        spec = WClassSpec(3, 2, np.array([[1e-4], [0.7], [0.71414284285]]))
        values = analytic_w_values(spec, 0.5)
        with localcontext() as ctx:
            ctx.prec = 50
            w = [sum(Decimal(z.real) ** 2 + Decimal(z.imag) ** 2 for z in row) for row in spec.a]
            want = [(w[0] * (1 - w[0])).sqrt()] + [(w[0] * wj).sqrt() for wj in w[1:]]
            for got, exact in zip([values.global_cren, *values.pair_cren], want):
                assert abs(Decimal(got) - exact) <= Decimal("1e-14") * exact

    def test_focus_weight_near_one_keeps_its_digits(self):
        # w_1 = 1 - 2e-8: the global value must not come from 1 - w_1, which
        # cancels; it agrees with 2p sqrt(w_1 (w_2 + w_3)), p = 1, evaluated in
        # 50-digit decimals from the same table.
        spec = WClassSpec(3, 2, np.array([[np.sqrt(1 - 2e-8)], [1e-4], [1e-4]]))
        values = analytic_w_values(spec, 1.0)
        with localcontext() as ctx:
            ctx.prec = 50
            w = [sum(Decimal(z.real) ** 2 + Decimal(z.imag) ** 2 for z in row) for row in spec.a]
            exact = 2 * (w[0] * (w[1] + w[2])).sqrt()
            assert abs(Decimal(values.global_cren) - exact) <= Decimal("1e-15") * exact

    def test_saturation_and_flatness(self):
        audit = analytic_w_audit(PCSSpec(WClassSpec.symmetric(3, 2), 0.5, 0.5))
        assert abs(audit.report.residual) <= 1e-12
        assert audit.report.verdict == "saturated"
        assert audit.flatness_max_dev <= 1e-9
        assert audit.flatness_mean == pytest.approx(audit.values.global_cren, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
    def test_values_invariant_in_coherence(self, lam):
        audit = analytic_w_audit(PCSSpec(WClassSpec.symmetric(3, 2), 0.4, lam))
        ref = analytic_w_audit(PCSSpec(WClassSpec.symmetric(3, 2), 0.4, 0.0))
        assert audit.values.global_cren == pytest.approx(ref.values.global_cren, abs=1e-12)
        assert audit.flatness_mean == pytest.approx(ref.flatness_mean, abs=1e-9)

    @pytest.mark.parametrize(
        "blocks",
        [((1,), (2, 3), (4,)), ((1, 2), (3, 4)), ((1,), (2, 3, 4)), ((2, 4), (1, 3))],
    )
    def test_partition_saturation(self, blocks, rng):
        a = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        spec = WClassSpec(4, 2, a / np.linalg.norm(a))
        audit = analytic_w_audit(PCSSpec(spec, 0.7, 0.5), PartitionSpec(blocks))
        assert abs(audit.report.residual) <= 1e-12
        assert audit.report.verdict == "saturated"


def _complex_table(n, d, seed):
    a = np.random.default_rng(seed).standard_normal((n, d - 1, 2)) @ [1, 1j]
    return WClassSpec(n, d, a / np.linalg.norm(a))


# Mixtures whose certificate must meet the formula: the skewed tables of
# test_skewed_table_keeps_its_digits and test_focus_weight_near_one_keeps_its_digits,
# random complex tables at d = 2, 3 and 4, and coarse-grained partitions.
_CERTIFIED = {
    "skewed_focus_1e-8": (WClassSpec(3, 2, np.array([[1e-4], [0.7], [0.71414284285]])), None),
    "skewed_focus_near_1": (WClassSpec(3, 2, np.array([[np.sqrt(1 - 2e-8)], [1e-4], [1e-4]])), None),
    "d2": (_complex_table(4, 2, 1), None),
    "d3": (_complex_table(3, 3, 2), None),
    "d4": (_complex_table(5, 4, 3), None),
    "1|23|4": (_complex_table(4, 2, 4), PartitionSpec(((1,), (2, 3), (4,)))),
    "24|13": (_complex_table(4, 3, 5), PartitionSpec(((2, 4), (1, 3)))),
    "12|3|45": (_complex_table(5, 4, 6), PartitionSpec(((1, 2), (3,), (4, 5)))),
}


class TestWCertificate:
    """analytic_w_audit's exact roof and dual of the focus|rest cut meet the
    closed-form global value, or it raises."""

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("case", sorted(_CERTIFIED))
    def test_meets_the_formula(self, case, p, lam):
        spec, partition = _CERTIFIED[case]
        audit = analytic_w_audit(PCSSpec(spec, p, lam), partition)
        assert audit.report.verdict == "saturated"
        assert abs(audit.flatness_mean - audit.values.global_cren) <= 1e-12
        assert 0.0 <= audit.flatness_max_dev <= 1e-12

    def test_a_formula_off_by_1e_9_raises(self, monkeypatch):
        exact = monogamy.analytic_w_values

        def scaled(spec, p):
            values = exact(spec, p)
            return dataclasses.replace(values, global_cren=values.global_cren * (1 + 1e-9))

        monkeypatch.setattr(monogamy, "analytic_w_values", scaled)
        with pytest.raises(NumericalError, match="disagrees with the analytic value"):
            analytic_w_audit(PCSSpec(WClassSpec.symmetric(3, 2), 0.5, 0.5))


class TestHunt:
    def test_zero_trials(self):
        assert hunt(DimensionProfile((2, 2, 2)), 0) == []

    def test_qubit_regime_is_clean(self):
        findings = hunt(DimensionProfile((2, 2, 2)), 25, seed=0)
        assert findings == []

    def test_qutrit_regime_reports_no_certified(self):
        findings = hunt(DimensionProfile((3, 2, 2)), 25, seed=0)
        assert all(f.verdict != "certified_violation" for f in findings)

    def test_blocks_return_the_per_trial_audits(self, monkeypatch):
        # Random states almost never come out as candidates, so count every
        # holding report as a finding to compare all of them.  70 trials
        # span two blocks.
        from crenaudit import monogamy

        monkeypatch.setattr(monogamy, "VERDICT_CANDIDATE", "holds")
        # Holding trials are the ones hunt screens and stops, so screen none
        # and run every search to its end.
        monkeypatch.setattr(monogamy, "_no_finding", lambda sq: np.zeros(len(sq), dtype=bool))
        unstopped = monogamy.pair_terms
        monkeypatch.setattr(monogamy, "pair_terms", lambda rows, stop=None: unstopped(rows))
        profile, seed = DimensionProfile((3, 2, 2)), 5
        rng = np.random.default_rng(seed)
        expected = [
            cren_audit(random_pure_state(profile, rng), 1, state_id=f"hunt-{t:05d}", seed=seed + t)
            for t in range(70)
        ]
        expected = [r for r in expected if r.verdict in ("holds", "certified_violation")]
        assert len(expected) > 64
        assert hunt(profile, 70, seed) == expected


def _qubit_pcs():
    return PCSSpec(WClassSpec.symmetric(3, 2), 0.5, 0.3)


# Every library entry that takes a seed, on inputs where the W audit's
# (3, 3) pair terms close without a search and the 2,2,2 state's do not.
_SEEDED_ENTRIES = {
    "audit_w": lambda seed: audit(build_w_state(WClassSpec.symmetric(3, 3)), 1, "cren", seed=seed),
    "audit_222": lambda seed: audit(
        random_pure_state(DimensionProfile((2, 2, 2)), np.random.default_rng(0)), 1, "cren",
        seed=seed,
    ),
    "hunt": lambda seed: hunt(DimensionProfile((3, 2, 2)), 2, seed),
    "flatness_scan": lambda seed: flatness_scan(
        build_pcs_density(_qubit_pcs()), Bipartition((1,), 3), samples=4, seed=seed
    ),
    "analytic_w_audit": lambda seed: analytic_w_audit(_qubit_pcs(), seed=seed),
}


class TestSeedRule:
    """One rule, OptConfig's, for the seed of every entry that takes one."""

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
    ])
    @pytest.mark.parametrize("entry", sorted(_SEEDED_ENTRIES))
    def test_bad_seed_raises_domain_error(self, entry, seed, message):
        with pytest.raises(DomainError) as exc:
            _SEEDED_ENTRIES[entry](seed)
        assert str(exc.value) == message


@pytest.fixture
def searches(monkeypatch):
    """Each optimize_many call's problems and results."""
    calls = []

    def spied(problems, _original=monogamy.optimize_many, **kwargs):
        results = _original(problems, **kwargs)
        calls.append((problems, results))
        return results

    monkeypatch.setattr(monogamy, "optimize_many", spied)
    return calls


@pytest.fixture
def audited_ids(monkeypatch):
    """The state ids of the rows passed to ``_audit_rows``: the trials hunt did not screen."""
    ids = []

    def spied(rows, *args, _original=monogamy._audit_rows):
        ids.extend(state_id for _, state_id, _ in rows)
        return _original(rows, *args)

    monkeypatch.setattr(monogamy, "_audit_rows", spied)
    return ids


def _w_qutrit_states(count, eps, rng):
    """Random W-class three-qutrit states, each moved by eps along a random direction."""
    states = []
    for _ in range(count):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        w = build_w_state(WClassSpec(3, 3, a / np.linalg.norm(a)))
        z = rng.standard_normal(w.profile.size) + 1j * rng.standard_normal(w.profile.size)
        v = w.amplitudes + eps * z / np.linalg.norm(z)
        states.append(qlinalg.PureState(w.profile, v / np.linalg.norm(v)))
    return states


class TestHuntStop:
    """A hunt trial's searches stop once its verdict is proven unreported,
    and this never changes what the hunt reports."""

    SEED = 3

    def _hunt(self, states, monkeypatch):
        """hunt over fresh copies of ``states``, drawn in order in place of random ones."""
        copies = iter([qlinalg.PureState(s.profile, s.amplitudes) for s in states])
        monkeypatch.setattr(monogamy, "random_pure_state", lambda profile, rng: next(copies))
        return hunt(states[0].profile, len(states), self.SEED)

    def _audited(self, states):
        """The cren reports of hunt's trials, from audits of fresh copies with no stop rule."""
        rows = [(qlinalg.PureState(s.profile, s.amplitudes), f"hunt-{t:05d}", self.SEED + t)
                for t, s in enumerate(states)]
        return audits(rows, 1, ["cren"])

    @pytest.mark.parametrize("kind", ["haar", "perturbed_w"])
    def test_findings_equal_the_unstopped_audits(self, kind, searches, audited_ids, monkeypatch):
        if kind == "haar":
            rng = np.random.default_rng(self.SEED)
            states = [random_pure_state(DimensionProfile((3, 3, 3)), rng) for _ in range(12)]
            findings = hunt(states[0].profile, len(states), self.SEED)
        else:
            states = _w_qutrit_states(12, 1e-6, np.random.default_rng(8))
            findings = self._hunt(states, monkeypatch)
        [(problems, results)] = searches
        # The rule-free audits below pass their own rows to _audit_rows.
        hunted = set(audited_ids)
        reports = self._audited(states)
        reported = ("candidate_violation", "certified_violation")
        assert findings == [r for r in reports if r.verdict in reported]
        # Screened trials pose no search, and each unscreened trial poses
        # its two pair marginals' searches, in order.
        unscreened = [r for r in reports if r.state_id in hunted]
        assert 0 < len(unscreened) < len(reports)
        assert all(r.verdict not in reported for r in reports if r not in unscreened)
        assert len(problems) == 2 * len(unscreened)
        # Every trial the rule stops is no finding of its rule-free audit.
        stopped = [r for t, r in enumerate(unscreened) if None in results[2 * t:2 * t + 2]]
        assert stopped
        assert all(r.verdict not in reported for r in stopped)
        assert (findings.screened, findings.stopped, findings.searched) == (
            len(reports) - len(unscreened), len(stopped), len(unscreened) - len(stopped))

    def test_exact_w_states_stop_before_any_step(self, searches, monkeypatch):
        # Saturated to rounding, and every decomposition of their pair
        # marginals gives the roof, so their slices prove saturation.
        states = _w_qutrit_states(12, 0.0, np.random.default_rng(8))
        findings = self._hunt(states, monkeypatch)
        assert findings == []
        assert (findings.screened, findings.stopped, findings.searched) == (12, 0, 0)
        assert searches == []
        assert {r.verdict for r in self._audited(states)} == {"saturated"}

    def test_rows_left_running_get_their_rule_free_terms(self, searches):
        # A row rule that stops the Haar trials' rows at once and never the
        # W-class trials' rows: those run to the end, beside stopped
        # searches of the same shape, and end where no rule would.  The
        # W-class states are moved off the class, since exact ones have
        # two-dimensional local supports and pose no search.
        rng = np.random.default_rng(self.SEED)
        haar = [random_pure_state(DimensionProfile((3, 3, 3)), rng) for _ in range(4)]
        states = _w_qutrit_states(4, 1e-3, np.random.default_rng(8)) + haar

        def audit_rows():
            # Three term rows per trial: its focus|rest row, then its two pairs.
            rows = [(qlinalg.PureState(s.profile, s.amplitudes), f"hunt-{t:05d}", self.SEED + t)
                    for t, s in enumerate(states)]
            return rows, *monogamy._audit_rows(rows, 1, ["cren"], None)

        rows, marginals, term_rows = audit_rows()
        terms = pair_terms(term_rows, stop=lambda values: np.arange(len(values)) >= 12)
        [(_, results)] = searches
        assert [res is None for res in results] == [False] * 8 + [True] * 8
        # The Haar trials' focus|rest rows are closed forms; their pair rows get None.
        assert [t is None for t in terms[12:]] == [False, True, True] * 4
        assert terms[:12] == pair_terms(audit_rows()[2])[:12]
        # Trials with a missing term get no report.
        reports = monogamy._audit_reports(rows, 1, ["cren"], marginals, terms)
        assert [r.state_id for r in reports] == [f"hunt-{t:05d}" for t in range(4)]

    def test_stopped_searches_get_none_and_are_not_kept(self, searches):
        # A stopped search is not the search's end: both rows posing it get
        # None, the maximum beside it runs to its end, and a later call on
        # the same marginal searches again and gets what a fresh object gets.
        def fresh():
            return rand_dm((3, 3), 3, np.random.default_rng(5))

        rho, cfg = fresh(), OptConfig(starts=2)
        rows = [(rho, 1, "cren", cfg), (rho, 1, "concurrence", cfg), (rho, 1, "crenoa", cfg)]
        cren, concurrence, crenoa = pair_terms(rows, stop=lambda values: np.ones(3, dtype=bool))
        assert cren is None and concurrence is None
        assert crenoa == pair_term(fresh(), 1, "crenoa", cfg)
        assert searches[0][1][0] is None and searches[0][1][1] is not None
        assert not any(key[0] == "search" and key[2] == "min" for key in rho._memo)
        again = pair_terms(rows[:2])
        # The third call searches the minimum alone, to its end.
        assert len(searches) == 3 and len(searches[2][0]) == 1 and searches[2][1][0] is not None
        assert again == pair_terms([(fresh(), *row[1:]) for row in rows[:2]])
        assert again[0].method == again[1].method == "optimizer"


class TestHuntScreen:
    """hunt drops a trial before any marginal exists when the slices of its
    state, a decomposition of each pair marginal, prove it no finding."""

    SEED = 4
    REPORTED = ("candidate_violation", "certified_violation")

    @staticmethod
    def _slices(psi, focus, j):
        """The (focus, j) slices of psi at each basis state of the other parties, as rows."""
        a, b = sorted((focus, j))
        tensor = np.moveaxis(psi.amplitudes.reshape(psi.profile.dims), [a - 1, b - 1], [0, 1])
        return tensor.reshape(psi.profile.dims[a - 1] * psi.profile.dims[b - 1], -1).T

    @pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 4), (4, 2, 3), (3, 3, 2, 2)])
    def test_slice_values_are_slice_decomposition_averages(self, dims):
        profile = DimensionProfile(dims)
        rng = np.random.default_rng(self.SEED)
        states = [random_pure_state(profile, rng) for _ in range(4)]
        amps = np.stack([psi.amplitudes for psi in states])
        for focus in profile.parties:
            values = monogamy._slice_values(amps, profile, focus)
            partners = [j for j in profile.parties if j != focus]
            for psi, row in zip(states, values, strict=True):
                assert abs(row[0] - pair_term(psi, focus, "cren").value) <= 1e-12
                for j, c in zip(partners, row[1:], strict=True):
                    pair = profile.restrict((focus, j))
                    slices = convexroof.Decomposition(pair, self._slices(psi, focus, j))
                    assert abs(c - average_negativity(slices, 1)) <= 1e-12
                    assert c >= negativity_mixed(partial_trace(psi, (focus, j)), 1) - 1e-12

    def test_screen_proves_only_beyond_the_stop_margin(self):
        # The screen and the stop rule share one boundary:
        # lhs_sq - sum(terms_sq) >= -TOL_SAT + _STOP_MARGIN.
        margin = monogamy._STOP_MARGIN
        sq = np.array([[0.0, TOL_SAT - 2 * margin], [0.0, TOL_SAT - margin / 2], [1.0, 0.5]])
        assert monogamy._no_finding(sq).tolist() == [True, False, True]

    def _hunt_states(self, states, focus, monkeypatch):
        """hunt at ``focus`` over fresh copies of ``states``, drawn in order."""
        copies = iter([qlinalg.PureState(s.profile, s.amplitudes) for s in states])
        monkeypatch.setattr(monogamy, "random_pure_state", lambda profile, rng: next(copies))
        return hunt(states[0].profile, len(states), self.SEED, focus=focus)

    def _rule_free(self, states, focus, ids):
        """The cren reports of the trials named by ``ids``, from audits with no stop rule."""
        rows = [(qlinalg.PureState(s.profile, s.amplitudes), f"hunt-{t:05d}", self.SEED + t)
                for t, s in enumerate(states) if f"hunt-{t:05d}" in ids]
        return audits(rows, focus, ["cren"])

    def test_screened_trials_are_no_findings(self, audited_ids, monkeypatch):
        rng = np.random.default_rng(self.SEED)
        cases = [
            ([random_pure_state(DimensionProfile(dims), rng) for _ in range(12)], focus)
            for dims in [(3, 2, 2), (3, 3, 3), (4, 3, 3), (2, 3, 4)] for focus in (1, 2)
        ]
        cases += [(_w_qutrit_states(12, eps, rng), 1) for eps in (1e-6, 1e-3)]
        screened = 0
        for states, focus in cases:
            audited_ids.clear()
            self._hunt_states(states, focus, monkeypatch)
            ids = {f"hunt-{t:05d}" for t in range(len(states))} - set(audited_ids)
            assert all(r.verdict not in self.REPORTED for r in self._rule_free(states, focus, ids))
            screened += len(ids)
        assert screened >= 40

    def test_a_state_its_slices_cannot_prove_is_searched(self, audited_ids, searches, monkeypatch):
        # (1/2) sum_k |Bell_k>|k> on 2,2,4: every (1,2) slice is maximally
        # entangled, so the slices bound that pair's term by 1, yet the
        # marginal is I/4, which is separable.
        bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
        psi = qlinalg.PureState(DimensionProfile((2, 2, 4)), (bell.T / 2).reshape(-1))
        assert np.allclose(partial_trace(psi, (1, 2)).matrix, np.eye(4) / 4)
        findings = self._hunt_states([psi], 1, monkeypatch)
        assert audited_ids == ["hunt-00000"]
        assert len(searches) == 1
        reports = self._rule_free([psi], 1, {"hunt-00000"})
        assert findings == [r for r in reports if r.verdict in self.REPORTED]


class TestThreeTangle:
    def test_cren_residual_is_the_three_tangle_at_every_focus(self):
        # Both pair terms are Wootters' concurrence and the left side the
        # focus's squared concurrence: the CKW residual, which is the 3-tangle.
        rng = np.random.default_rng(17)
        states = [random_pure_state(DimensionProfile((2, 2, 2)), rng) for _ in range(60)]
        states += [ghz_state(3), build_w_state(WClassSpec.symmetric(3))]
        for focus in (1, 2, 3):
            reports = audits([(psi, "x", 0) for psi in states], focus, ["cren"])
            for psi, report in zip(states, reports, strict=True):
                assert abs(report.residual - three_tangle(psi)) <= 1e-12


class TestVerdictLogic:
    # (lhs_sq, terms_sq, lower_sq, upper_sq) -> (monogamy verdict, dual verdict).
    # Monogamy holds when lhs_sq is at least the sum of the squared terms,
    # a dual when it is at most the sum; a verdict is proven only where
    # every point of the brackets gives it.
    TABLE = [
        # Exact terms: the point is the whole bracket.
        ((4.0, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]), ("holds", "certified_violation")),
        ((2.0, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]), ("saturated", "saturated")),
        ((1.0, [0.8, 0.8], [0.8, 0.8], [0.8, 0.8]), ("certified_violation", "holds")),
        # Roof minima [floor, value]: a monogamy violation is certified only
        # if the floors violate it too.
        ((4.0, [1.0, 1.0], [0.5, 0.5], [1.0, 1.0]), ("holds", "certified_violation")),
        ((1.0, [0.8, 0.8], [0.3, 0.3], [0.8, 0.8]), ("candidate_violation", "candidate_violation")),
        ((1.0, [0.8, 0.8], [0.7, 0.7], [0.8, 0.8]), ("certified_violation", "holds")),
        # Maxima [value, inf]: a dual violation is never certified, and a
        # monogamy violation still can be.
        ((1.0, [0.8, 0.8], [0.8, 0.8], [np.inf, np.inf]), ("certified_violation", "holds")),
        ((1.6, [0.8, 0.8], [0.8, 0.8], [np.inf, np.inf]), ("saturated", "saturated")),
        ((2.0, [0.8, 0.8], [0.8, 0.8], [np.inf, np.inf]), ("candidate_violation", "candidate_violation")),
        # Within TOL_SAT of a bracket's end proves nothing.
        ((2.0 + 5e-8, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0 + 1e-7]), ("saturated", "saturated")),
        ((2.0 + 2e-7, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0 + 1.5e-7]), ("candidate_violation", "candidate_violation")),
    ]

    @pytest.mark.parametrize("args, verdicts", TABLE)
    def test_table(self, args, verdicts):
        from crenaudit.monogamy import _verdict

        lhs_sq, terms_sq = args[:2]
        for dual, verdict in zip((False, True), verdicts):
            assert _verdict(*args, dual) == (lhs_sq - sum(terms_sq), verdict)
