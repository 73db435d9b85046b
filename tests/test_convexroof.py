import weakref

import numpy as np
import pytest

from crenaudit import (
    Bipartition,
    Decomposition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    NumericalError,
    OptConfig,
    WClassSpec,
    PCSSpec,
    PureState,
    average_negativity,
    build_pcs_density,
    build_w_state,
    decomposition_from_unitary,
    flatness_scan,
    haar_unitaries,
    haar_unitary,
    negativity_mixed,
    negativity_pure,
    optimize,
    optimize_many,
    ou_state,
    partial_trace,
    wootters_concurrence_2q,
)

from crenaudit.convexroof import (
    _PLAIN_STEPS,
    _SMOOTHING,
    _checked_decomposition,
    _closed_form_isometry,
    _descent,
    _objective,
    _polar,
    _polar_ascent,
    _roof_phases,
    _starts,
    _two_row_roof,
)
from crenaudit.measures import local_supports, pure_negativities, spin_flip_takagi, spin_flip_values
from crenaudit.monogamy import _audit_opt_cfg, analytic_w_values
from crenaudit.qlinalg import as_bipartition, cut_matrices
from crenaudit.states import kim_sanders_state

from conftest import rand_dm, rand_pure
from oracles import pair_marginal_analytic, tensor_product, to_density


@pytest.fixture
def ou_pair():
    return partial_trace(to_density(ou_state()), (1, 2))


@pytest.fixture
def full_rank_qutrit_pair():
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = rand_dm((3, 3), 9, rng)
    return rho


def _searched_max(mats, cfg):
    """The polar ascent optimize runs from its starts on root matrices: the best start's trace and flag.

    optimize solves two-qubit and W-class maxima in closed form, so the
    search itself is run here on their (uncompressed) root matrices.
    """
    starts = _starts(cfg, len(mats))
    evaluate = _objective(mats[None], np.zeros(len(starts), dtype=int))
    _, traces, converged = _polar_ascent(evaluate, starts, cfg.max_sweeps * starts.shape[1], cfg.tol_rel)
    final = np.array([t[-1] for t in traces])
    best = int(np.flatnonzero(final >= final.max() - 1e-15)[0])
    return traces[best], converged[best]


class TestHaarUnitaries:
    """A batched draw is the per-sample stream, so seeded results stay put."""

    @pytest.mark.parametrize("count", [0, 1, 7, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9, 16])
    def test_batch_is_the_per_sample_stream(self, count, dim):
        batched, looped = np.random.default_rng(5), np.random.default_rng(5)
        got = haar_unitaries(count, dim, batched)
        assert got.shape == (count, dim, dim)
        for u, one in zip(got, [haar_unitary(dim, looped) for _ in range(count)], strict=True):
            assert np.array_equal(u, one)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12
        assert np.array_equal(batched.standard_normal(3), looped.standard_normal(3))

    @pytest.mark.parametrize("starts", [1, 8])
    def test_starts_match_the_per_start_loop(self, starts):
        cfg = OptConfig(starts=starts, seed=3)
        for rank in (1, 2, 3):
            size = cfg.resolve_size(rank)
            rng = np.random.default_rng(3)
            reference = np.stack([np.eye(size, rank, dtype=complex)]
                                 + [haar_unitary(size, rng)[:, :rank] for _ in range(starts - 1)])
            assert np.array_equal(_starts(cfg, rank), reference)

    def test_flatness_scan_matches_the_per_sample_loop(self, rng):
        rho = rand_dm((2, 3), 2, rng)
        cut = as_bipartition(1, 2)
        draw = np.random.default_rng(4)
        isometries = np.stack([haar_unitary(3, draw)[:, :2] for _ in range(16)])
        values = pure_negativities(cut_matrices(isometries @ rho.roots, rho.profile, cut))
        values = values.reshape(16, 3).sum(axis=1)
        mean = float(values.mean())
        flat = flatness_scan(rho, 1, samples=16, seed=4, size=3)
        assert flat.mean == mean
        assert flat.max_abs_dev == float(np.max(np.abs(values - mean)))


class TestRootsAndDecompositions:
    def test_roots_rebuild_the_operator(self, rng):
        rho = rand_dm((2, 3), 4, rng)
        assert rho.rank() == 4
        assert np.max(np.abs(rho.roots.T @ rho.roots.conj() - rho.matrix)) <= 1e-9

    def test_identity_recovers_spectral_decomposition(self, rng):
        rho = rand_dm((2, 2), 3, rng)
        dec = decomposition_from_unitary(rho, np.eye(3))
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1][:3]
        assert np.allclose(np.sort(dec.weights)[::-1], evals, atol=1e-10)

    def test_balanced_rotation_on_rank_two(self, rng):
        rho = rand_dm((2, 2), 2, rng)
        c = 1 / np.sqrt(2)
        u = np.array([[c, -c], [c, c]])
        dec = decomposition_from_unitary(rho, u)
        assert np.max(np.abs(dec.reconstruct() - rho.matrix)) <= 1e-8

    def test_members_are_the_rotated_roots(self, rng):
        rho = rand_dm((2, 3), 3, rng)
        u = haar_unitary(4, rng)
        dec = decomposition_from_unitary(rho, u)
        assert np.array_equal(dec.members, u[:, :3] @ rho.roots)
        assert not dec.members.flags.writeable
        states = np.stack([phi.amplitudes for phi in dec.states])
        assert np.allclose(np.sqrt(dec.weights)[:, None] * states, dec.members, atol=1e-15)

    def test_padded_unitary_grows_the_ensemble(self, rng):
        rho = rand_dm((2, 2), 2, rng)
        dec = decomposition_from_unitary(rho, haar_unitary(5, rng))
        assert len(dec.members) > 2
        assert np.max(np.abs(dec.reconstruct() - rho.matrix)) <= 1e-8

    def test_non_unitary_rejected(self, rng):
        rho = rand_dm((2, 2), 2, rng)
        with pytest.raises(DomainError):
            decomposition_from_unitary(rho, np.eye(2) * 1.001)
        with pytest.raises(DomainError):
            decomposition_from_unitary(rho, np.eye(1))
        nan = np.eye(2, dtype=complex)
        nan[0, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            decomposition_from_unitary(rho, nan)

    @pytest.mark.parametrize("members, message", [
        (np.full((2, 4), np.nan), "non-finite"),
        (np.full(4, 0.5), "shape"),
        (np.full((1, 2), 0.5 ** 0.5), "shape"),
        (np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]), "positive"),
        (np.full((2, 4), 0.5), "sum to 2"),
    ])
    def test_bad_members_rejected(self, members, message):
        with pytest.raises(DomainError, match=message):
            Decomposition(DimensionProfile((2, 2)), members)


class TestAverageNegativity:
    def test_spectral_average_of_flat_marginal(self, ou_pair):
        dec = decomposition_from_unitary(ou_pair, np.eye(ou_pair.rank()))
        assert average_negativity(dec, 1) == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_equals_pure_value(self, rng):
        psi = rand_pure((2, 3), rng)
        dec = decomposition_from_unitary(to_density(psi), np.eye(1))
        assert average_negativity(dec, 1) == pytest.approx(
            negativity_pure(psi, 1), abs=1e-10
        )

    def test_product_decomposition_averages_to_zero(self, rng):
        # A separable mixture decomposed into its product members.
        members = [
            tensor_product(rand_pure((2,), rng), rand_pure((2,), rng))
            for _ in range(3)
        ]
        dec = Decomposition(members[0].profile,
                            np.stack([phi.amplitudes for phi in members]) / np.sqrt(3))
        assert average_negativity(dec, 1) == pytest.approx(0.0, abs=1e-8)


class TestOptimize:
    def test_pure_state_value_is_fixed(self, rng):
        psi = rand_pure((3, 3), rng)
        res = optimize(to_density(psi), 1, "min")
        assert res.value == pytest.approx(negativity_pure(psi, 1), abs=1e-9)
        res = optimize(to_density(psi), 1, "max", OptConfig(starts=2))
        assert res.value == pytest.approx(negativity_pure(psi, 1), abs=1e-9)

    def test_flat_marginal_minimum(self, ou_pair):
        res = optimize(ou_pair, 1, "min")
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_two_qubit_matches_closed_form(self, rng):
        for rank in (2, 3):
            rho = rand_dm((2, 2), rank, rng)
            res = optimize(rho, 1, "min")
            assert abs(res.value - wootters_concurrence_2q(rho)) <= 1e-12

    def test_monotone_trace_both_directions(self, rng):
        for dims in ((2, 3), (3, 3)):
            rho = rand_dm(dims, 3, rng)
            lo = optimize(rho, 1, "min")
            assert all(a >= b - 1e-12 for a, b in zip(lo.objective_trace, lo.objective_trace[1:]))
            hi = optimize(rho, 1, "max")
            assert all(a <= b + 1e-12 for a, b in zip(hi.objective_trace, hi.objective_trace[1:]))
            assert hi.value >= lo.value - 1e-12

    def test_min_respects_ppt_floor(self, rng):
        for dims in ((2, 3), (3, 2)):
            rho = rand_dm(dims, 2, rng)
            assert optimize(rho, 1, "min").value >= negativity_mixed(rho, 1) - 1e-9

    def test_sampled_averages_upper_bound_the_minimum(self, rng):
        rho = rand_dm((2, 3), 2, rng)
        best = optimize(rho, 1, "min").value
        for _ in range(10):
            dec = decomposition_from_unitary(rho, haar_unitary(4, rng))
            assert average_negativity(dec, 1) >= best - 1e-9

    def test_deterministic_for_fixed_seed(self, rng):
        rho = rand_dm((2, 3), 3, rng)
        a = optimize(rho, 1, "min", OptConfig(seed=7))
        b = optimize(rho, 1, "min", OptConfig(seed=7))
        assert a.value == b.value
        assert a.objective_trace == b.objective_trace
        assert a.best_start == b.best_start

    def test_size_below_rank_rejected(self, rng):
        rho = rand_dm((2, 2), 3, rng)
        with pytest.raises(DomainError):
            optimize(rho, 1, "min", OptConfig(size=2))

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_tolerance_rejected(self, tol):
        # inf would stop every ascent after one step and call it converged,
        # nan would run every start to the step cap.
        with pytest.raises(DomainError, match=f"tol_rel must be finite, got {tol}"):
            OptConfig(tol_rel=tol)

    @pytest.mark.parametrize("field, value", [
        ("size", 4.0), ("size", True), ("starts", 2.5), ("max_sweeps", 2.5), ("seed", 1.0), ("seed", False),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        # A float or bool would pass construction and fail deep in a search.
        with pytest.raises(DomainError, match=f"{field} must be an integer, got {value!r}"):
            OptConfig(**{field: value})

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_below_one_rejected(self, size):
        # Rejected at construction, whether or not a search resolves it.
        with pytest.raises(DomainError, match=f"size must be >= 1, got {size}"):
            OptConfig(size=size)

    def test_negative_seed_rejected(self):
        # Rejected at construction, whether or not a search draws from it.
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            OptConfig(seed=-1)

    def test_numpy_integers_accepted(self):
        cfg = OptConfig(size=np.int64(4), starts=np.int32(2), max_sweeps=np.int64(3), seed=np.uint8(5))
        assert cfg.resolve_size(2) == 4

    def test_reconstruction_of_returned_decomposition(self, rng):
        rho = rand_dm((3, 2), 3, rng)
        res = optimize(rho, 1, "min", OptConfig(starts=2, max_sweeps=30))
        assert np.max(np.abs(res.decomposition.reconstruct() - rho.matrix)) <= 1e-8

    @pytest.mark.parametrize("corrupt", ["scaled", "sheared"])
    def test_a_corrupted_isometry_raises(self, corrupt, monkeypatch, rng):
        # The check reads the isometry's deviation, not the D x D
        # reconstruction.  A closed form's isometry V is scaled by 1 + 1e-6,
        # or sheared to V (I + 1e-6 H) with H zero on its diagonal, which
        # moves the members' total weight by 1e-12 only: both are refused.
        rho = rand_dm((2, 2), 3, rng)
        shear = np.eye(3) + 1e-6 * (np.ones((3, 3)) - np.eye(3))
        original = _closed_form_isometry

        def corrupted(mats, direction):
            v = original(mats, direction)
            return (1.0 + 1e-6) * v if corrupt == "scaled" else v @ shear

        monkeypatch.setattr("crenaudit.convexroof._closed_form_isometry", corrupted)
        for direction in ("min", "max"):
            with pytest.raises(NumericalError, match="isometry by"):
                optimize(rho, 1, direction)

    def test_dropped_weight_raises(self, monkeypatch, rng):
        # Members dropped for a weight at or below ZERO_WEIGHT move the
        # reconstruction by their weight; raised to 0.1 here, that is refused.
        rho = rand_dm((2, 3), 4, rng)
        v = haar_unitary(6, np.random.default_rng(2))[:, :4]
        monkeypatch.setattr("crenaudit.convexroof.ZERO_WEIGHT", 0.1)
        with pytest.raises(NumericalError, match="dropped weight"):
            _checked_decomposition(rho, v)

    def test_the_isometry_check_bounds_the_reconstruction(self, rng):
        # With no member dropped, |reconstruct - rho| <= ||V^H V - I||_F entrywise.
        rho = rand_dm((3, 3), 5, rng)
        for eps in (1e-12, 1e-11, 1e-10):
            z = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
            v = haar_unitary(8, rng)[:, :5] + eps * z
            dec = _checked_decomposition(rho, v)
            assert len(dec.members) == 8
            dev = np.max(np.abs(dec.reconstruct() - rho.matrix))
            assert dev <= np.linalg.norm(v.conj().T @ v - np.eye(5)) + 1e-15

    def test_max_attains_two_qubit_assistance_ceiling(self, rng):
        # For two-qubit states the maximum average negativity is the
        # concurrence of assistance, the sum of the sqrt eigenvalues of
        # rho rho-tilde, at every rank (Laustsen, Verstraete & van Enk 2003).
        sy = np.array(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
        )

        def ceiling(rho):
            r = rho.matrix @ sy @ rho.matrix.conj() @ sy
            return float(np.sum(np.sqrt(np.abs(np.real(np.linalg.eigvals(r))))))

        # optimize returns the closed form, so the ascent runs on the roots.
        for rank in (1, 2, 3, 4):
            rho = rand_dm((2, 2), rank, rng)
            for cfg in (OptConfig(), _audit_opt_cfg(rank, seed=0)):
                trace, converged = _searched_max(cut_matrices(rho.roots, rho.profile, 1), cfg)
                assert abs(trace[-1] - ceiling(rho)) <= 1e-6
                assert converged

    def test_max_stops_at_once_on_a_flat_landscape(self):
        # Every decomposition of a W/vacuum mixture averages to
        # 2p sqrt(A(1-A)), A the excitation weight of party 1.  Local
        # unitaries keep that value but move the starting decompositions.
        # Its supports are 2 x 2, so optimize returns the closed form, and
        # the ascent runs on the uncompressed (3, 9) root matrices.
        rng = np.random.default_rng(7)
        table = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        spec = PCSSpec(WClassSpec(3, 3, table / np.linalg.norm(table)), 0.6, 0.4)
        rho = build_pcs_density(spec)
        weight = float(np.sum(np.abs(spec.w.a[0]) ** 2))
        expected = 2 * spec.p * np.sqrt(weight * (1 - weight))
        for _ in range(3):
            u = np.kron(np.kron(haar_unitary(3, rng), haar_unitary(3, rng)), haar_unitary(3, rng))
            rotated = DensityOperator(rho.profile, u @ rho.matrix @ u.conj().T)
            trace, converged = _searched_max(cut_matrices(rotated.roots, rho.profile, 1), OptConfig())
            assert abs(trace[-1] - expected) <= 1e-9
            assert converged
            assert len(trace) <= 3
            assert abs(optimize(rotated, 1, "max").value - expected) <= 1e-9

    def test_min_stops_at_once_on_a_flat_landscape(self):
        # Every decomposition of these rank-2 (3,2) pair marginals averages
        # to 2 sqrt(2) / 3, so every start is stationary at every stage.
        psi = to_density(kim_sanders_state())
        for keep in ((1, 2), (1, 3)):
            pair = partial_trace(psi, keep)
            for cfg in (OptConfig(), _audit_opt_cfg(pair.rank(), seed=0)):
                res = optimize(pair, 1, "min", cfg)
                assert abs(res.value - 2 * np.sqrt(2) / 3) <= 1e-12
                assert res.converged
                assert len(res.objective_trace) == 1

    def test_max_not_below_earlier_engine(self):
        # Default-config maxima and minima of the coordinate-descent engine
        # these searches replaced, on states outside the two-qubit oracle's
        # reach.
        cases = (
            ((3, 3), 5, 5, 1.7100940814770167, 0.5410770017),
            ((2, 4), 4, 4, 0.9574621876770345, 0.4403191149),
        )
        for dims, rank, seed, earlier_max, earlier_min in cases:
            rho = rand_dm(dims, rank, np.random.default_rng(seed))
            assert optimize(rho, 1, "max").value >= earlier_max
            assert optimize(rho, 1, "min").value <= earlier_min

    def test_min_tight_on_full_rank_qutrit_pair(self, full_rank_qutrit_pair):
        # Coordinate descent returned 0.3295 with converged=True here; 32
        # starts in four local frames of it reached 0.2566.
        rho = full_rank_qutrit_pair
        res = optimize(rho, 1, "min")
        assert negativity_mixed(rho, 1) <= res.value <= 0.1190
        assert res.converged

    @pytest.mark.parametrize("search", [_descent, _polar_ascent], ids=["descent", "ascent"])
    def test_every_default_start_converges_alone(self, search, full_rank_qutrit_pair):
        # Each of optimize's default starts, run alone, must stop on its
        # search's tolerance before the cap, not only the best start.  The
        # ascent runs on the states of test_max_not_below_earlier_engine,
        # where plain polar steps alone crawl to the cap.
        cases = (((3, 3), 5, 5), ((2, 4), 4, 4))
        if search is _descent:
            rhos = [full_rank_qutrit_pair]
        else:
            rhos = [rand_dm(dims, rank, np.random.default_rng(seed)) for dims, rank, seed in cases]
        cfg = OptConfig()
        for rho in rhos:
            starts = _starts(cfg, rho.rank())
            evaluate = _objective(
                local_supports(rho, Bipartition((1,), 2))[None], np.zeros(len(starts), dtype=int)
            )
            for k in range(len(starts)):
                max_steps = cfg.max_sweeps * starts.shape[1]
                assert search(evaluate, starts[k : k + 1], max_steps, cfg.tol_rel)[2]

    def test_max_capped_before_convergence_reports_it(self, rng):
        rho = rand_dm((3, 2), 3, rng)
        for direction in ("max", "min"):
            assert not optimize(rho, 1, direction, OptConfig(max_sweeps=1)).converged

    def test_multiparty_side_cut(self, rng):
        # Roof over the (1,2)|(3) cut of a three-party state; sandwich and
        # duality must hold exactly as for single-party sides.
        rho = rand_dm((2, 2, 2), 2, rng)
        cut = Bipartition((1, 2), 3)
        lo = optimize(rho, cut, "min", OptConfig(starts=3))
        hi = optimize(rho, cut, "max", OptConfig(starts=3))
        assert lo.value >= negativity_mixed(rho, cut) - 1e-9
        assert hi.value >= lo.value - 1e-12


def _two_qubit_cases():
    """Two-qubit states at ranks 1-4, with degenerate or zero spin-flip values, by name."""
    profile = DimensionProfile((2, 2))
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    singlet = np.outer(bells[3], bells[3])
    cases = {
        f"werner-{p:.3f}": DensityOperator(profile, p * singlet + (1 - p) * np.eye(4) / 4)
        for p in (0.2, 1 / 3, 0.5, 0.8, 1.0)
    }
    for k in (2, 3, 4):
        cases[f"bell-diagonal-{k}"] = DensityOperator(profile, bells[:k].T @ bells[:k] / k)
    rng = np.random.default_rng(13)
    a, b, c, e = (rand_pure((2,), rng).amplitudes for _ in range(4))
    cases["product"] = DensityOperator(profile, factor=np.kron(a, b)[:, None])
    pair = np.stack([np.kron(a, b), np.kron(c, e)], axis=1) / np.sqrt(2)
    cases["product-mixture"] = DensityOperator(profile, factor=pair)
    cases["bell-and-product"] = DensityOperator(profile, (np.outer(bells[0], bells[0]) + np.diag([0, 1, 0, 0])) / 2)
    sides = [rand_dm((2,), 2, rng).matrix for _ in range(2)]
    cases["product-full-rank"] = DensityOperator(profile, np.kron(*sides))
    hard = np.random.default_rng(99)
    cases["seed-99-state-31"] = [rand_dm((2, 2), 1 + k % 4, hard) for k in range(32)][-1]
    for rank in (1, 2, 3, 4):
        cases[f"random-{rank}"] = rand_dm((2, 2), rank, rng)
    return cases


class TestClosedForm:
    """Roofs whose local supports are at most 2 x 2 are solved from the
    Takagi form of their spin-flip overlaps, with no search."""

    @pytest.mark.parametrize("name", list(_two_qubit_cases()))
    def test_two_qubit_decompositions_meet_the_spin_flip_values(self, name):
        rho = _two_qubit_cases()[name]
        roof, assistance = spin_flip_values(rho)
        rank = rho.rank()
        for direction, want in (("min", roof), ("max", assistance)):
            res = optimize(rho, 1, direction)
            assert abs(res.value - want) <= 1e-12
            assert np.max(np.abs(res.decomposition.reconstruct() - rho.matrix)) <= 1e-12
            assert res.objective_trace == res.start_values == (res.value,)
            assert res.converged and res.best_start == 0
            members = res.decomposition.members
            values = pure_negativities(cut_matrices(members, rho.profile, 1))
            if direction == "min":
                # Every member carries C / size, the size 1, 2 or 4.
                assert len(members) == {1: 1, 2: 2}.get(rank, 4)
                assert np.max(np.abs(values - roof / len(members))) <= 1e-12
            assert abs(values.sum() - res.value) <= 1e-15
        if rank > 1:
            with pytest.raises(DomainError, match="below rank"):
                optimize(rho, 1, "min", OptConfig(size=rank - 1))

    def test_degenerate_and_zero_values_are_present(self):
        # The cases reach every branch: a 3-fold degenerate Takagi value
        # (Werner), lambda_1 <= the rest at ranks 3 and 4 (the polygon), a
        # zero value beside a nonzero one, and all values zero.
        lams = {name: spin_flip_takagi(local_supports(rho, 1))[1]
                for name, rho in _two_qubit_cases().items()}
        assert np.ptp(lams["werner-0.500"][1:]) <= 1e-15
        assert lams["bell-diagonal-3"][0] <= lams["bell-diagonal-3"][1:].sum()
        assert lams["werner-0.200"][0] <= lams["werner-0.200"][1:].sum()
        assert lams["bell-and-product"][1] <= 1e-15 < lams["bell-and-product"][0]
        assert lams["product"][0] <= 1e-15

    @pytest.mark.parametrize("lam", [
        [0.5, 0.5, 0.0, 0.0], [0.4, 0.3, 0.2, 0.1], [0.3, 0.3, 0.3, 0.1], [0.25] * 4,
        [0.4, 0.2, 0.2, 0.2], [0.5, 0.3, 0.2, 0.0], [0.3, 0.3, 0.2, 0.2], [1.0, 0.0, 0.0, 0.0],
        [0.7, 0.3, 0.0, 0.0], [0.6, 0.3, 0.1], [0.6, 0.4],
    ])
    def test_phases_close_the_polygon_or_leave_the_roof(self, lam):
        lam = np.array(lam)
        z = _roof_phases(lam)
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15
        assert abs(np.sum(z * lam) - max(0.0, lam[0] - lam[1:].sum())) <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_w_vacuum_mixtures_meet_the_analytic_values(self, n, d):
        # Both cuts of every W/vacuum mixture have local supports of two
        # dimensions: the focus|rest cut (up to D = 4096 here) and every pair.
        rng = np.random.default_rng(10 * n + d)
        z = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
        spec = WClassSpec(n, d, z / np.linalg.norm(z))
        p = rng.uniform(0.1, 1.0)
        rho = build_pcs_density(PCSSpec(spec, p, rng.uniform(0.0, 1.0)))
        values = analytic_w_values(spec, p)
        problems = [(partial_trace(rho, (1, j)), 1, want) for j, want in enumerate(values.pair_cren, 2)]
        if rho.profile.size <= 4096:
            problems.append((rho, Bipartition((1,), n), values.global_cren))
        for state, cut, want in problems:
            assert local_supports(state, cut).shape[1:] == (2, 2)
            for direction in ("min", "max"):
                res = optimize(state, cut, direction)
                assert abs(res.value - want) <= 1e-14
                assert len(res.start_values) == 1

    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_w_states_moved_off_the_class_are_searched(self, eps):
        # A qutrit W pair marginal has two-dimensional supports; moved by
        # eps, its supports leave out about eps^2 of the weight, far above
        # SUPPORT_DROP, so its roofs are searched.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        w = build_w_state(WClassSpec(3, 3, a / np.linalg.norm(a)))
        z = rng.standard_normal(w.profile.size) + 1j * rng.standard_normal(w.profile.size)
        cfg = OptConfig(starts=2, max_sweeps=10)
        for step, starts in ((0.0, 1), (eps, cfg.starts)):
            v = w.amplitudes + step * z / np.linalg.norm(z)
            pair = partial_trace(PureState(w.profile, v / np.linalg.norm(v)), (1, 2))
            assert local_supports(pair, 1).shape[1:] == ((2, 2) if step == 0.0 else (3, 3))
            for direction in ("min", "max"):
                assert len(optimize(pair, 1, direction, cfg).start_values) == starts

    def test_a_two_dimensional_support_takes_the_two_row_objective(self, monkeypatch):
        # A (3, 3) marginal whose side-A support is two-dimensional is
        # searched on (2, 3) root matrices, by the two-row objective.
        rng = np.random.default_rng(4)
        embed = np.kron(haar_unitary(3, rng)[:, :2], np.eye(3))
        narrow = rand_dm((2, 3), 3, rng)
        rho = DensityOperator(DimensionProfile((3, 3)), embed @ narrow.matrix @ embed.conj().T)
        assert local_supports(rho, Bipartition((1,), 2)).shape == (3, 2, 3)
        shapes = []

        def counted(mats, mu, _original=_two_row_roof):
            shapes.append(mats.shape[-2:])
            return _original(mats, mu)

        monkeypatch.setattr("crenaudit.convexroof._two_row_roof", counted)
        lo, hi = optimize(rho, 1, "min"), optimize(rho, 1, "max")
        assert set(shapes) == {(2, 3)}
        assert len(lo.start_values) == len(hi.start_values) == OptConfig().starts
        assert negativity_mixed(rho, 1) - 1e-9 <= lo.value <= hi.value

    def test_full_support_search_is_unchanged(self):
        # A Haar (3, 3) marginal has full local supports: its root matrices
        # are its roots' cut matrices, and its searches end bit for bit where
        # they ended before the supports were compressed.
        rho = rand_dm((3, 3), 3, np.random.default_rng(21))
        cut = Bipartition((1,), 2)
        assert np.array_equal(local_supports(rho, cut), cut_matrices(rho.roots, rho.profile, cut))
        cfg = OptConfig(starts=3, max_sweeps=40, seed=2)
        pinned = {
            "min": ("0x1.be5dd9ab90578p-1", 93,
                    ("0x1.be5dd9ab90574p-1", "0x1.be6abd9fd63acp-1", "0x1.be64c65f5db34p-1")),
            "max": ("0x1.8fdd4314aa54dp+0", 39,
                    ("0x1.8fdd4314aa546p+0", "0x1.8fdd431276554p+0", "0x1.8fdd4313d4304p+0")),
        }
        for direction, (value, steps, finals) in pinned.items():
            res = optimize(rho, cut, direction, cfg)
            assert res.value == float.fromhex(value)
            assert len(res.objective_trace) == steps
            assert res.start_values == tuple(float.fromhex(x) for x in finals)


def _orthogonal_mixture(dims, members, weights, rng):
    """A density operator with the given orthonormal members plus one random member."""
    profile = DimensionProfile(tuple(dims))
    basis = np.zeros((len(members) + 1, profile.size), dtype=complex)
    for k, (labels, amps) in enumerate(members):
        for label, amp in zip(labels, amps):
            basis[k, np.ravel_multi_index(label, dims)] = amp
    z = rng.standard_normal(profile.size) + 1j * rng.standard_normal(profile.size)
    z -= basis[:-1].T @ (basis[:-1].conj() @ z)
    basis[-1] = z / np.linalg.norm(z)
    return DensityOperator(profile, (basis.T * weights) @ basis.conj())


def _svd_objective(root_mats, v, mu=0.0):
    """The objective smoothed by mu and its gradient from a full SVD of every member.

    Each nuclear norm is sum_i sqrt(s_i^2 + mu^2), with gradient
    U diag(s_i / sqrt(s_i^2 + mu^2)) W^H (U W^H at mu = 0).
    """
    rank, d_a, d_b = root_mats.shape
    roots = root_mats.reshape(rank, d_a * d_b)
    mats = (v @ roots).reshape(*v.shape[:2], d_a, d_b)
    u, sv, wh = np.linalg.svd(mats, full_matrices=False)
    smooth = np.sqrt(sv**2 + mu**2)
    nuc = smooth.sum(axis=-1)
    ratio = np.ones_like(sv) if mu == 0.0 else sv / smooth
    dirs = ((u * ratio[..., None, :]) @ wh).reshape(*v.shape[:2], d_a * d_b)
    return np.sum(nuc * nuc, axis=-1) - 1.0, 2.0 * nuc[..., None] * (dirs @ roots.conj().T), sv


def _plain_ascent(evaluate, v, max_steps, tol_rel):
    """The plain generalized power method, v = polar(gradient) at every step.

    Returns what ``_polar_ascent`` does: final isometries, traces and flags.
    """
    v, live = v.copy(), np.arange(len(v))
    f, _, gradient = evaluate(v, live)
    grad = gradient()
    traces, converged = [[x] for x in f], np.zeros(len(v), dtype=bool)
    for _ in range(max_steps):
        left, _, right_h = np.linalg.svd(grad, full_matrices=False)
        v[live] = left @ right_h
        f_new, _, gradient = evaluate(v[live], live)
        grad = gradient()
        for k, x in zip(live, f_new):
            traces[k].append(x)
        stalled = f_new - f <= tol_rel * np.maximum(1.0, np.abs(f_new))
        converged[live[stalled]] = True
        live, f, grad = live[~stalled], f_new[~stalled], grad[~stalled]
        if not live.size:
            break
    return v, [np.array(t) for t in traces], converged


@pytest.fixture(scope="module")
def ascent_corpus():
    """Three seeded states each of (3,2), (2,4) and (3,3) at ranks 2-4.

    One entry per shape and rank: the evaluator of its three problems, their
    default starts, the step cap and the ``_polar_ascent`` of them all.
    """
    rng, cfg, corpus = np.random.default_rng(41), OptConfig(), []
    for dims in ((3, 2), (2, 4), (3, 3)):
        for rank in (2, 3, 4):
            mats = [local_supports(rand_dm(dims, rank, rng), Bipartition((1,), 2)) for _ in range(3)]
            starts = _starts(cfg, rank)
            evaluate = _objective(np.stack(mats), np.repeat(np.arange(3), len(starts)))
            v0, max_steps = np.concatenate([starts] * 3), cfg.max_sweeps * starts.shape[1]
            corpus.append((evaluate, v0, max_steps, _polar_ascent(evaluate, v0, max_steps, cfg.tol_rel)))
    return corpus


class TestPolarAscent:
    def test_converged_means_a_plain_step_gains_no_more(self, ascent_corpus):
        # One more plain step from every returned isometry gains within the
        # tolerance, and every start stops before the cap.
        tol = OptConfig().tol_rel
        for evaluate, _, _, (v, _, converged) in ascent_corpus:
            rows = np.arange(len(v))
            f, _, gradient = evaluate(v, rows)
            f_next = evaluate(_polar(gradient()), rows)[0]
            assert converged.all()
            assert np.all(f_next - f <= tol * np.maximum(1.0, np.abs(f_next)))

    def test_never_below_the_plain_ascent(self, ascent_corpus):
        # Extrapolated steps lower no trace and no problem's maximum.
        for evaluate, v0, max_steps, (_, traces, _) in ascent_corpus:
            assert all(np.all(np.diff(t) >= -1e-12) for t in traces)
            plain = _plain_ascent(evaluate, v0, max_steps, OptConfig().tol_rel)[1]
            best = np.array([t[-1] for t in traces]).reshape(3, -1).max(axis=1)
            reference = np.array([t[-1] for t in plain]).reshape(3, -1).max(axis=1)
            assert np.all(best >= reference - 1e-12)

    def test_plain_phase_solves_are_the_plain_ascent(self, monkeypatch):
        # Two-qubit and Kim-Sanders pair marginals stop within the plain
        # phase, so their maxima are the plain ascent's bit for bit.
        # optimize solves two-qubit maxima in closed form, so their
        # ascents run here from optimize's starts on the same evaluator.
        rng, cfg = np.random.default_rng(3), OptConfig()
        for rho in [rand_dm((2, 2), rank, rng) for rank in (1, 2, 3, 4) for _ in range(3)]:
            starts = _starts(cfg, rho.rank())
            evaluate = _objective(
                local_supports(rho, Bipartition((1,), 2))[None], np.zeros(len(starts), dtype=int)
            )
            args = (evaluate, starts, cfg.max_sweeps * starts.shape[1], cfg.tol_rel)
            (v, traces, converged), plain = _polar_ascent(*args), _plain_ascent(*args)
            assert np.array_equal(v, plain[0]) and np.array_equal(converged, plain[2])
            assert all(np.array_equal(a, b) for a, b in zip(traces, plain[1], strict=True))
            assert max(len(t) for t in traces) <= _PLAIN_STEPS + 1
        rhos = []
        for psi in (ou_state(), kim_sanders_state()):
            rhos += [partial_trace(to_density(psi), keep) for keep in ((1, 2), (1, 3), (2, 3))]
        results = [optimize(rho, 1, "max") for rho in rhos]
        lengths = []

        def plain(*args):
            out = _plain_ascent(*args)
            lengths.extend(len(t) for t in out[1])
            return out

        monkeypatch.setattr("crenaudit.convexroof._polar_ascent", plain)
        for rho, res in zip(rhos, results):
            ref = optimize(rho, 1, "max")
            assert res.value == ref.value
            assert res.objective_trace == ref.objective_trace
            assert res.start_values == ref.start_values
        assert max(lengths) <= _PLAIN_STEPS + 1


class TestTwoRowObjective:
    def test_closed_form_matches_the_svd(self):
        # Each state mixes a maximally entangled member (s_1 = s_2), a
        # product member (rank one) and a random one; the spectral start
        # scores those roots as they are, the Haar starts mix them.
        rng = np.random.default_rng(17)
        bell = [(0, 0), (1, 1)], [2 ** -0.5] * 2
        ghz = [(0, 0, 0), (1, 1, 1)], [2 ** -0.5] * 2
        cases = [
            ((2, 2), [bell, ([(0, 1)], [1.0])], Bipartition((1,), 2)),
            ((3, 2), [bell, ([(2, 1)], [1.0])], Bipartition((1,), 2)),
            ((2, 4), [bell, ([(0, 3)], [1.0])], Bipartition((1,), 2)),
            ((2, 2, 2), [ghz, ([(0, 1, 0)], [1.0])], Bipartition((1,), 3)),
            ((2, 2, 2), [ghz, ([(0, 1, 0)], [1.0])], Bipartition((2, 3), 3)),
        ]
        for dims, members, cut in cases:
            rho = _orthogonal_mixture(dims, members, np.array([0.5, 0.3, 0.2]), rng)
            mats = local_supports(rho, cut)
            assert mats.shape[1] == 2
            v = _starts(OptConfig(starts=4, seed=3), rho.rank())
            evaluate = _objective(mats[None], np.zeros(len(v), dtype=int))
            unsmoothed = evaluate(v, np.arange(len(v)), 0.0)[0]
            for mu in _SMOOTHING:
                f, exact, gradient = evaluate(v, np.arange(len(v)), mu)
                grad = gradient()
                want_f, want_grad, sv = _svd_objective(mats, v, mu)
                spectral = sv[0, :3]
                assert np.any(np.abs(spectral[:, 0] - spectral[:, 1]) <= 1e-12)
                assert np.any(spectral[:, 1] <= 1e-12 * spectral[:, 0])
                assert np.array_equal(exact, unsmoothed)
                assert np.max(np.abs(f - want_f)) <= 1e-13
                assert np.max(np.abs(grad - want_grad)) <= 1e-12

    def test_zero_member_scores_the_smoothing_alone(self):
        # A zero 2 x 3 member beside a random one: its smoothed norm is
        # sqrt(mu^2) + sqrt(mu^2), with zero gradient, as the SVD gives.
        rng = np.random.default_rng(5)
        mats = np.zeros((2, 2, 3), dtype=complex)
        mats[1] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        for mu in _SMOOTHING[:-1]:
            smoothed, exact, gradient = _two_row_roof(mats, mu)
            grad = gradient()
            assert smoothed[0] == 4.0 * mu * mu
            assert exact[0] == 0.0
            assert np.all(grad[0] == 0.0)

    def test_product_spectral_start_leaves_the_product_members(self):
        # Every root of this classically correlated state is a product, so
        # the adjugate part of the gradient vanishes on the spectral start;
        # the SVD subgradient of its rank-one members lets it ascend.
        m = np.diag([0.4, 0.0, 0.0, 0.35, 0.0, 0.25]).astype(complex)
        rho = DensityOperator(DimensionProfile((3, 2)), m)
        res = optimize(rho, 1, "max")
        assert abs(res.start_values[0] - 0.9797958971) <= 1e-9
        cfg = OptConfig()
        starts = _starts(cfg, rho.rank())
        evaluate = _objective(
            local_supports(rho, Bipartition((1,), 2))[None], np.zeros(len(starts), dtype=int)
        )
        _, traces, _ = _polar_ascent(evaluate, starts, cfg.max_sweeps * starts.shape[1], cfg.tol_rel)
        assert all(np.all(np.diff(t) >= -1e-12) for t in traces)

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_solve_runs_no_svd_on_cut_matrices(self, direction, monkeypatch):
        # With a two-dimensional side only _polar's (size, rank) retractions
        # need singular vectors during the solve, at every smoothing stage.
        rho = rand_dm((3, 2), 3, np.random.default_rng(8))
        svd, calls = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            calls.append((a.shape, kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        optimize(rho, 1, direction)
        size = OptConfig().resolve_size(3)
        vectors = [shape for shape, compute_uv in calls if compute_uv]
        assert vectors and all(shape[-2:] == (size, 3) for shape in vectors)
        assert not [shape for shape, _ in calls if shape[-2:] == (2, 3)]


class TestSvdObjective:
    def test_mu_zero_matches_the_reference(self):
        # Neither side of a (3,3) cut is 2, so mu = 0 goes through the SVD.
        # The product member has zero singular values, and the spectral
        # start's members beyond the rank are zero matrices.
        rng = np.random.default_rng(23)
        phi = [(0, 0), (1, 1), (2, 2)], [3 ** -0.5] * 3
        weights = np.array([0.5, 0.3, 0.2])
        rho = _orthogonal_mixture((3, 3), [phi, ([(2, 1)], [1.0])], weights, rng)
        mats = local_supports(rho, Bipartition((1,), 2))
        v = _starts(OptConfig(starts=4, seed=3), rho.rank())
        evaluate = _objective(mats[None], np.zeros(len(v), dtype=int))
        f, exact, gradient = evaluate(v, np.arange(len(v)), 0.0)
        grad = gradient()
        want_f, want_grad, sv = _svd_objective(mats, v)
        spectral = sv[0]
        assert np.any(spectral[:3, 1] <= 1e-12 * spectral[:3, 0])
        assert np.all(spectral[3:] == 0.0)
        assert np.array_equal(f, exact)
        assert np.max(np.abs(f - want_f)) <= 1e-13
        assert np.max(np.abs(grad - want_grad)) <= 1e-12


def _counting(evaluate, calls):
    """The evaluator, recording each call's row count and the gradient rows asked of it."""

    def counted(v, rows, mu=0.0):
        f, exact, gradient = evaluate(v, rows, mu)
        call = {"rows": len(v), "mu": mu, "gradient_rows": 0}
        calls.append(call)

        def counted_gradient(keep=slice(None)):
            grad = gradient(keep)
            call["gradient_rows"] += len(grad)
            return grad

        return f, exact, counted_gradient

    return counted


class TestValueFirst:
    # The searches ask for a gradient only where they step: a rejected or
    # redone trial costs its value alone.
    @pytest.fixture
    def qutrit_pair(self):
        rho = rand_dm((3, 3), 2, np.random.default_rng(19))
        mats = local_supports(rho, Bipartition((1,), 2))
        assert mats.shape == (2, 3, 3)
        cfg = OptConfig()
        starts = _starts(cfg, rho.rank())
        calls = []
        evaluate = _counting(_objective(mats[None], np.zeros(len(starts), dtype=int)), calls)
        return evaluate, starts, cfg.max_sweeps * starts.shape[1], cfg.tol_rel, calls

    def test_descent_grades_stage_starts_and_accepted_trials_alone(self, qutrit_pair):
        evaluate, starts, max_steps, tol_rel, calls = qutrit_pair
        _, traces, _ = _descent(evaluate, starts, max_steps, tol_rel)
        # Each stage opens with one call on every start; the rest are trials.
        stage_rows = sum(c["rows"] for k, c in enumerate(calls) if k == 0 or c["mu"] != calls[k - 1]["mu"])
        assert stage_rows == len(_SMOOTHING) * len(starts)
        accepted = sum(len(t) - 1 for t in traces)
        trial_rows = sum(c["rows"] for c in calls) - stage_rows
        assert sum(c["gradient_rows"] for c in calls) == stage_rows + accepted
        assert trial_rows > accepted

    def test_ascent_grades_no_redone_extrapolation(self, qutrit_pair):
        evaluate, starts, max_steps, tol_rel, calls = qutrit_pair
        _, traces, converged = _polar_ascent(evaluate, starts, max_steps, tol_rel)
        # The first call grades every start; after that, each step grades
        # the starts that go on (all but the one step where a start stops),
        # at the point each took.
        steps = sum(len(t) - 1 for t in traces)
        assert converged.all()
        assert sum(c["gradient_rows"] for c in calls) == len(starts) + steps - len(starts)
        redone = sum(c["rows"] for c in calls) - len(starts) - steps
        assert redone > 0

    @pytest.mark.parametrize("search, held", [(_descent, 0), (_polar_ascent, 1)])
    def test_each_gradient_is_let_go_before_the_next_trial(self, qutrit_pair, search, held):
        # A gradient holds its call's factors; a search keeps none into its
        # next evaluation but the ascent's unredone rows while it redoes others.
        evaluate, starts, max_steps, tol_rel, _ = qutrit_pair
        refs, alive = [], []

        def watched(v, rows, mu=0.0):
            alive.append(sum(r() is not None for r in refs))
            f, exact, gradient = evaluate(v, rows, mu)
            refs.append(weakref.ref(gradient))
            return f, exact, gradient

        search(watched, starts, max_steps, tol_rel)
        assert len(alive) > 10
        assert max(alive) == held


class TestOptimizeMany:
    def test_batch_matches_one_problem_calls_bit_for_bit(self):
        # One mixed batch: both directions, four profiles with full local
        # supports, so every problem is searched, ranks 1-4, two configs,
        # and states of one shape that share a group under distinct seeds.
        rng = np.random.default_rng(31)
        problems = []
        for dims, ranks in (((2, 3), (4,)), ((3, 2), (2, 3)), ((2, 4), (2,)), ((3, 3), (1, 3))):
            for rank in ranks:
                for seed in (0, 1):
                    rho = rand_dm(dims, rank, rng)
                    for direction in ("min", "max"):
                        if rank % 2:
                            cfg = _audit_opt_cfg(rank, seed)
                        else:
                            cfg = OptConfig(starts=2, max_sweeps=20, seed=seed + 4)
                        problems.append((rho, 1, direction, cfg))
        batch = optimize_many(problems)
        assert len(batch) == len(problems)
        for problem, got in zip(problems, batch):
            alone = optimize(*problem)
            assert got.value == alone.value
            assert got.objective_trace == alone.objective_trace
            assert got.converged == alone.converged
            assert got.best_start == alone.best_start
            assert got.start_values == alone.start_values
            assert len(got.start_values) == problem[3].starts
            assert got.start_values[got.best_start] == got.objective_trace[-1]
            for a, b in zip(got.decomposition.states, alone.decomposition.states):
                assert np.array_equal(a.amplitudes, b.amplitudes)
            assert np.array_equal(got.decomposition.weights, alone.decomposition.weights)


class TestCutNaming:
    # A cut and its complement read one support array, so they pose one
    # problem: the same search, whose value each naming scores on its own cut.
    CASES = [((3, 3), (1,)), ((3, 2), (1,)), ((2, 4), (1,)), ((2, 3, 2), (1, 3))]

    @pytest.mark.parametrize("dims, side", CASES)
    def test_a_cut_and_its_complement_share_one_support_array(self, dims, side, rng):
        rho = rand_dm(dims, 3, rng)
        cut = Bipartition(side, len(dims))
        mats = local_supports(rho, cut)
        assert local_supports(rho, Bipartition(cut.side_b, cut.n)) is mats
        assert mats.flags.c_contiguous and not mats.flags.writeable
        assert mats.shape[1] <= mats.shape[2]

    @pytest.mark.parametrize("dims, side", CASES)
    def test_a_cut_and_its_complement_run_one_search(self, dims, side):
        rho = rand_dm(dims, 3, np.random.default_rng(5))
        cut = Bipartition(side, len(dims))
        cfg = OptConfig(starts=3, max_sweeps=20, seed=1)
        for direction in ("min", "max"):
            named = optimize(rho, cut, direction, cfg)
            other = optimize(rho, Bipartition(cut.side_b, cut.n), direction, cfg)
            assert named.objective_trace == other.objective_trace
            assert named.start_values == other.start_values
            assert np.array_equal(named.decomposition.members, other.decomposition.members)
            assert abs(named.value - other.value) <= 1e-15


def _same_result(a, b):
    return (a.value == b.value and a.objective_trace == b.objective_trace
            and a.converged == b.converged and a.best_start == b.best_start
            and a.start_values == b.start_values
            and np.array_equal(a.decomposition.members, b.decomposition.members))


class TestStopRule:
    @pytest.fixture
    def problems(self):
        # Two directions and three shape groups, one with a lone problem.
        # Minima 0, 2 and 3 are of shape (3, 2), 4 and 6-8 of (3, 3), 9 of
        # (2, 4); 1, 5 and 10 are maxima.
        rng = np.random.default_rng(41)
        problems = []
        for dims, rank, count in (((3, 2), 3, 3), ((3, 3), 3, 4), ((2, 4), 2, 1)):
            for k in range(count):
                rho = rand_dm(dims, rank, rng)
                problems.append((rho, 1, "min", _audit_opt_cfg(rank, k)))
                if k == 0:
                    problems.append((rho, 1, "max", OptConfig(starts=2, max_sweeps=20, seed=k)))
        return problems

    def test_rule_that_never_fires_changes_nothing(self, problems):
        calls = []

        def never(values):
            calls.append(values.copy())
            return np.zeros(values.shape, dtype=bool)

        for got, want in zip(optimize_many(problems, stop=never), optimize_many(problems), strict=True):
            assert got is not None and _same_result(got, want)
        assert len(calls) > 3  # before each descent step
        assert all(values.shape == (len(problems),) for values in calls)

    def test_stopped_minima_get_none_and_leave_the_others_bit_for_bit(self, problems):
        # Minimum 0 stops at its descent's first step, minima 2 and 6 once
        # they get below their spectral values; the rule asks for maximum 5
        # too, but a maximum never stops.
        spectral = np.array([
            average_negativity(decomposition_from_unitary(rho, np.eye(rho.rank())), cut)
            for rho, cut, _, _ in problems
        ])
        calls = []

        def rule(values):
            calls.append(values.copy())
            mask = np.zeros(values.shape, dtype=bool)
            mask[[0, 5]] = True
            mask[[2, 6]] = values[[2, 6]] < spectral[[2, 6]] - 1e-9
            return mask

        got, want = optimize_many(problems, stop=rule), optimize_many(problems)
        for i, (a, b) in enumerate(zip(got, want, strict=True)):
            if i in (0, 2, 6):
                assert a is None
                # The full search would have got below the spectral value too.
                assert b.value < spectral[i] - 1e-9
            else:
                assert _same_result(a, b)
        # Each value handed to the rule is a minimum's best so far: it never
        # rises, but for rounding between the search's values and the result's.
        mins = [i for i, p in enumerate(problems) if p[2] == "min"]
        for before, after in zip(calls, calls[1:]):
            assert np.all(after[mins] <= before[mins] + 1e-14)
        # Groups not yet run show their spectral values, and a stopped
        # minimum takes no further step, so its value stays where it stopped.
        assert np.allclose(calls[0][4:], spectral[4:], rtol=0.0, atol=1e-12)
        for i in (0, 2, 6):
            stopped_at = next(k for k, values in enumerate(calls) if i == 0 or values[i] < spectral[i] - 1e-9)
            assert all(values[i] == calls[stopped_at][i] for values in calls[stopped_at:])

    def test_rule_that_always_fires_stops_every_minimum_and_no_maximum(self, problems):
        got = optimize_many(problems, stop=lambda values: np.ones(values.shape, dtype=bool))
        for problem, a in zip(problems, got, strict=True):
            if problem[2] == "min":
                assert a is None
            else:
                assert _same_result(a, optimize(*problem))


class TestFlatnessScan:
    def test_coherent_w_mixture_is_flat(self):
        spec = PCSSpec(WClassSpec.symmetric(3, 2), 0.5, 0.5)
        rho = build_pcs_density(spec)
        flat = flatness_scan(rho, 1, samples=64, seed=0)
        assert flat.max_abs_dev <= 1e-9
        assert flat.mean == pytest.approx(2 * 0.5 * np.sqrt((2 / 3) * (1 / 3)), abs=1e-10)

    def test_pair_marginal_is_flat(self):
        spec = PCSSpec(WClassSpec.symmetric(3, 2), 0.6, 0.3)
        rho = pair_marginal_analytic(spec, 2)
        flat = flatness_scan(rho, 1, samples=64, seed=0)
        assert flat.max_abs_dev <= 1e-9
        expected = 2 * 0.6 * np.sqrt((1 / 3) * (1 / 3))
        assert flat.mean == pytest.approx(expected, abs=1e-10)

    def test_generic_state_is_not_flat(self, rng):
        rho = rand_dm((2, 2), 4, rng)
        for size in (None, 6):
            flat = flatness_scan(rho, 1, samples=32, seed=3, size=size)
            assert flat.max_abs_dev > 1e-6
            # The batched scan scores the decompositions a per-sample loop
            # builds from the same seed's unitaries, in the same order.
            draw = np.random.default_rng(3)
            values = np.array([
                average_negativity(
                    decomposition_from_unitary(rho, haar_unitary(size or rho.rank(), draw)), 1
                )
                for _ in range(32)
            ])
            assert abs(flat.mean - values.mean()) <= 1e-12
            assert abs(flat.max_abs_dev - np.max(np.abs(values - values.mean()))) <= 1e-12

    def test_needs_two_samples(self, rng):
        rho = rand_dm((2, 2), 2, rng)
        with pytest.raises(DomainError):
            flatness_scan(rho, 1, samples=1)

    @staticmethod
    def _full_cut_scan(rho, samples, seed, size):
        """Mean and spread of the scan's samples scored on the full cut matrices by their SVD."""
        rank = rho.rank()
        isometries = haar_unitaries(samples, size, np.random.default_rng(seed))[:, :, :rank]
        s = np.linalg.svd(cut_matrices(isometries @ rho.roots, rho.profile, 1), compute_uv=False)
        pairs = np.sum(s[..., 1:] * np.cumsum(s[..., :-1], axis=-1), axis=-1)
        values = 2.0 * pairs.reshape(samples, size).sum(axis=1)
        return values.mean(), np.max(np.abs(values - values.mean()))

    def test_w_vacuum_scan_on_the_supports_meets_the_full_cut_scan(self):
        # A (7, 4) W/vacuum density has 2 x 2 supports across 1|rest, D = 16384:
        # its members are scored there, not as 4 x 4096 cut matrices.
        rng = np.random.default_rng(74)
        z = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        rho = build_pcs_density(PCSSpec(WClassSpec(7, 4, z / np.linalg.norm(z)), 0.7, 0.4))
        assert local_supports(rho, 1).shape == (2, 2, 2)
        flat = flatness_scan(rho, 1, samples=64, seed=5)
        mean, dev = self._full_cut_scan(rho, 64, 5, 2)
        assert abs(flat.mean - mean) <= 1e-12
        assert abs(flat.max_abs_dev - dev) <= 1e-12

    @pytest.mark.parametrize("dims, rank", [((3, 3), 4), ((2, 4), 3), ((3, 4), 9)])
    def test_full_support_scan_is_unchanged(self, dims, rank, rng):
        # A full-support state's support matrices are its roots' cut matrices.
        rho = rand_dm(dims, rank, rng)
        assert np.array_equal(local_supports(rho, 1), cut_matrices(rho.roots, rho.profile, 1))
        flat = flatness_scan(rho, 1, samples=16, seed=2, size=rank + 1)
        mean, dev = self._full_cut_scan(rho, 16, 2, rank + 1)
        assert abs(flat.mean - mean) <= 1e-14
        assert abs(flat.max_abs_dev - dev) <= 1e-14

    def test_w_vacuum_scan_runs_no_wide_member_svd(self, monkeypatch):
        # The only SVDs with both sides above 2 are the supports' own frames,
        # one stacked matrix a side; no sample's member is a wide SVD.  The
        # frames are read on a second density of the same spec, since a
        # density keeps its supports once found.
        spec = PCSSpec(WClassSpec.symmetric(7, 4), 0.6, 0.3)
        rho, twin = build_pcs_density(spec), build_pcs_density(spec)
        shapes = []

        def counted(a, *args, _original=np.linalg.svd, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        local_supports(twin, 1)
        frames, shapes[:] = list(shapes), []
        flatness_scan(rho, 1, samples=64)
        assert frames and all(len(shape) == 2 for shape in frames)
        assert [shape for shape in shapes if min(shape[-2:]) > 2] == frames
