import tracemalloc

import numpy as np
import pytest

from crenaudit import (
    Bipartition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    OptConfig,
    PureState,
    WClassSpec,
    build_w_state,
    concurrence_pure,
    flatness_scan,
    ghz_state,
    haar_unitary,
    maximally_entangled,
    negativity_mixed,
    negativity_pure,
    optimize,
    ou_state,
    pair_terms,
    partial_trace,
    wootters_concurrence_2q,
)
from crenaudit import measures

from crenaudit.measures import (
    SUPPORT_DROP,
    local_supports,
    pure_concurrences,
    pure_negativities,
    spin_flip_values,
)
from crenaudit.qlinalg import cut_matrices, cut_matrix

from conftest import rand_dm, rand_pure
from oracles import spin_flip_lambdas, tensor_product, to_density

# Tolerated disagreement between routes to the same pure-state negativity.
PATH_TOL = 1e-9


def marginal_root_negativity(psi, cut) -> float:
    """(sum of the roots of rho_A's eigenvalues)^2 - 1.

    sqrt amplifies the solver's noise on exactly-zero eigenvalues
    (sqrt(1e-16) ~ 1e-8), so those are floored at rounding scale first.
    """
    mat = cut_matrix(psi, cut)
    w = np.linalg.eigvalsh(mat @ mat.conj().T)
    w = np.where(w > 64.0 * np.finfo(float).eps * w[-1], w, 0.0)
    return float(np.sum(np.sqrt(w))) ** 2 - 1.0


def two_term_state(lam0, rng, dims=(3, 4)):
    """Random state with Schmidt rank 2 and coefficients (lam0, 1-lam0)."""
    profile = DimensionProfile(dims)
    vec = np.zeros(profile.size, dtype=complex)
    vec[profile.index_of((0, 0))] = np.sqrt(lam0)
    vec[profile.index_of((1, 1))] = np.sqrt(1 - lam0)
    ua = haar_unitary(dims[0], rng)
    ub = haar_unitary(dims[1], rng)
    rotated = np.kron(ua, ub) @ vec
    return PureState(profile, rotated)


def werner(w):
    bell = to_density(maximally_entangled(2)).matrix
    return DensityOperator(DimensionProfile((2, 2)), w * bell + (1 - w) * np.eye(4) / 4)


class TestConcurrencePure:
    def test_bell(self):
        assert concurrence_pure(maximally_entangled(2), 1) == pytest.approx(1.0)

    def test_product_state(self, rng):
        joint = tensor_product(rand_pure((2,), rng), rand_pure((3,), rng))
        assert concurrence_pure(joint, 1) == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetric_qutrit(self):
        assert concurrence_pure(ou_state(), 1) == pytest.approx(np.sqrt(4 / 3), abs=1e-12)


class TestNegativityPure:
    def test_two_term_value(self):
        profile = DimensionProfile((2, 2))
        vec = np.zeros(4, dtype=complex)
        vec[0] = np.sqrt(0.8)
        vec[3] = np.sqrt(0.2)
        assert negativity_pure(PureState(profile, vec), 1) == pytest.approx(0.8, abs=1e-10)

    def test_maximally_entangled_qutrits(self):
        assert negativity_pure(maximally_entangled(3), 1) == pytest.approx(2.0, abs=1e-10)

    def test_rank_two_equals_concurrence(self, rng):
        for _ in range(20):
            psi = two_term_state(rng.uniform(0.05, 0.95), rng)
            n = negativity_pure(psi, 1)
            c = concurrence_pure(psi, 1)
            assert abs(n - c) <= 1e-12

    def test_three_paths_agree_on_random_states(self, rng):
        # The Schmidt form that negativity_pure computes must agree with the
        # partial-transpose and marginal-root routes.
        for dims in ((2, 2), (3, 2), (3, 3), (4, 4), (2, 2, 2), (4, 4, 4)):
            for _ in range(5):
                psi = rand_pure(dims, rng)
                cut = Bipartition((1,), len(dims))
                value = negativity_pure(psi, cut)
                assert value >= 0.0
                assert abs(value - negativity_mixed(to_density(psi), cut)) <= PATH_TOL
                assert abs(value - marginal_root_negativity(psi, cut)) <= PATH_TOL


class TestPureKernels:
    def test_stacked_members_match_the_pure_measures(self, rng):
        # Rows are sqrt(p_k) times the members' cut matrices, in both
        # orientations (d_a < d_b and d_a > d_b); the last member is a product.
        for dims in ((2, 3), (3, 2), (2, 4), (4, 3)):
            states = [rand_pure(dims, rng) for _ in range(3)]
            states.append(tensor_product(rand_pure(dims[:1], rng), rand_pure(dims[1:], rng)))
            weights = rng.dirichlet(np.ones(len(states)))
            mats = np.stack([np.sqrt(p) * cut_matrix(phi, 1) for p, phi in zip(weights, states)])
            negs, concs = pure_negativities(mats), pure_concurrences(mats)
            want_negs = [p * negativity_pure(phi, 1) for p, phi in zip(weights, states)]
            want_concs = [p * concurrence_pure(phi, 1) for p, phi in zip(weights, states)]
            assert np.max(np.abs(negs - want_negs)) <= 1e-12
            assert np.max(np.abs(concs[:-1] - want_concs[:-1])) <= 1e-12
            assert negs[-1] <= 1e-12
            assert concs[-1] <= 1e-12

    def test_concurrences_match_the_gram_form(self, rng):
        # Independent reference: sqrt(2 (p^2 - tr G^2)) with G = M M^H and
        # p = tr G, which cancels at product members, so those are checked
        # against zero instead.
        for dims in ((2, 3), (3, 2), (2, 4), (4, 3), (8, 8), (64, 64)):
            states = [rand_pure(dims, rng) for _ in range(3)]
            weights = rng.dirichlet(np.ones(len(states)))
            mats = np.stack([np.sqrt(p) * cut_matrix(phi, 1) for p, phi in zip(weights, states)])
            gram = mats @ np.conj(np.swapaxes(mats, -1, -2))
            p = np.trace(gram, axis1=-2, axis2=-1).real
            want = np.sqrt(2.0 * (p**2 - np.einsum("kij,kji->k", gram, gram).real))
            assert np.max(np.abs(pure_concurrences(mats) - want)) <= 1e-12
            product = tensor_product(rand_pure(dims[:1], rng), rand_pure(dims[1:], rng))
            assert pure_concurrences(cut_matrix(product, 1)[None])[0] <= 1e-12

    def test_square_cut_takes_one_singular_value_call(self, monkeypatch, rng):
        # Concurrence reads the Schmidt form as negativity does: one batched
        # values-only SVD per stack, with no loop over the rows of a square cut.
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        mats = cut_matrix(rand_pure((64, 64), rng), 1)[None]
        monkeypatch.setattr(np.linalg, "svd", counted)
        pure_concurrences(mats)
        assert calls == [False]

    def test_lopsided_cut_is_linear_in_the_long_side(self):
        # A 13-qubit GHZ cut 1|rest has a 2 x 4096 cut matrix; listing all
        # pairs of its long-side columns would take some 8 million entries.
        ghz = ghz_state(13)
        mats = cut_matrix(ghz, Bipartition((1,), 13))[None]
        assert mats.shape == (1, 2, 4096)
        tracemalloc.start()
        try:
            conc = pure_concurrences(mats)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        assert conc == pytest.approx(1.0, abs=1e-12)
        assert concurrence_pure(ghz, 1) == pytest.approx(1.0, abs=1e-12)
        assert pure_concurrences(np.swapaxes(mats, -1, -2))[0] == pytest.approx(1.0, abs=1e-12)
        assert pure_negativities(mats)[0] == pytest.approx(1.0, abs=1e-12)


def _svd_pair_products(mats):
    """2 s_1 s_2 of each stacked matrix, from its singular values."""
    s = np.linalg.svd(mats, compute_uv=False)
    return 2.0 * s[..., 0] * s[..., 1]


class TestTwoRowKernel:
    """Stacks whose short side is 2 are scored in closed form, 2 s_1 s_2 = 2 |a| |r|."""

    @staticmethod
    def _members(shape, rng):
        # sqrt(p_k) times unit members, weights from a Dirichlet draw.
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z /= np.linalg.norm(z, axis=(-2, -1), keepdims=True)
        return z * np.sqrt(rng.dirichlet(np.ones(shape[0])))[:, None, None]

    @staticmethod
    def _assert_matches_the_svd(mats):
        want = _svd_pair_products(mats)
        for kernel in (pure_negativities, pure_concurrences):
            assert np.all(np.abs(kernel(mats) - want) <= 1e-14 * np.maximum(1.0, want))

    @pytest.mark.parametrize("shape", [(32, 2, 2), (32, 2, 3), (32, 2, 9), (32, 3, 2), (32, 16, 2),
                                       (8, 2, 4096)])
    def test_random_stacks_match_the_svd(self, shape, rng):
        self._assert_matches_the_svd(self._members(shape, rng))

    @pytest.mark.parametrize("shape", [(6, 2, 5), (6, 5, 2)])
    def test_product_and_zero_members_match_the_svd(self, shape, rng):
        # s_2 = 0: rank-one members (one with a zero row) and zero members.
        mats = self._members(shape, rng)
        _, rows, cols = shape
        u = rng.standard_normal((3, rows)) + 1j * rng.standard_normal((3, rows))
        v = rng.standard_normal((3, cols)) + 1j * rng.standard_normal((3, cols))
        outer = u[:, :, None] * v[:, None, :]
        mats[:3] = outer / np.linalg.norm(outer, axis=(-2, -1), keepdims=True) / np.sqrt(6.0)
        # The first of the two rows (or columns) of the last product is zero: a = 0.
        if rows == 2:
            mats[2, 0, :] = 0.0
        else:
            mats[2, :, 0] = 0.0
        mats[3:5] = 0.0
        values = pure_negativities(mats)
        assert np.all(values[:5] <= 1e-15)
        assert np.all(values[3:5] == 0.0)
        self._assert_matches_the_svd(mats)

    @pytest.mark.parametrize("shape", [(8, 2, 3), (8, 4, 2)])
    def test_members_near_the_zero_weight_match_the_svd(self, shape, rng):
        # Members of weight about ZERO_WEIGHT, 1e-14, the least a decomposition keeps.
        mats = self._members(shape, rng)
        mats *= np.sqrt(1e-14 / np.linalg.norm(mats, axis=(-2, -1)) ** 2)[:, None, None]
        want = _svd_pair_products(mats)
        assert np.all(want > 1e-17)
        for kernel in (pure_negativities, pure_concurrences):
            assert np.all(np.abs(kernel(mats) - want) <= 1e-13 * want)

    def test_two_row_stacks_run_no_svd(self, monkeypatch, rng):
        # The closed form replaces the SVD on every stack whose short side is
        # 2, whatever its leading axes; every other shape keeps one SVD call.
        shapes = []

        def counted(a, *args, _original=np.linalg.svd, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for shape in ((8, 2, 5), (8, 5, 2), (3, 4, 2, 2), (1, 2, 4096)):
            mats = rng.standard_normal(shape) + 0j
            pure_negativities(mats)
            pure_concurrences(mats)
        assert shapes == []
        pure_negativities(np.ones((8, 3, 3), dtype=complex))
        assert shapes == [(8, 3, 3)]


class TestNegativityMixed:
    def test_separable_mixture_is_ppt(self, rng):
        profile = DimensionProfile((2, 3))
        mats = []
        for _ in range(4):
            mats.append(tensor_product(rand_dm((2,), 2, rng), rand_dm((3,), 2, rng)).matrix)
        weights = rng.dirichlet(np.ones(4))
        rho = DensityOperator(profile, sum(w * m for w, m in zip(weights, mats)))
        assert negativity_mixed(rho, 1) == 0.0

    def test_bell_projector(self):
        assert negativity_mixed(to_density(maximally_entangled(2)), 1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_werner_boundary(self):
        assert negativity_mixed(werner(1 / 3), 1) == pytest.approx(0.0, abs=1e-12)
        assert negativity_mixed(werner(0.5), 1) > 0.01

    def test_lower_bounds_every_decomposition_average(self, rng):
        # Convexity: the trace-norm negativity never exceeds the average
        # pure-state negativity of any decomposition.
        from crenaudit import average_negativity, decomposition_from_unitary

        for dims in ((2, 2), (3, 2)):
            rho = rand_dm(dims, 3, rng)
            floor = negativity_mixed(rho, 1)
            for _ in range(8):
                dec = decomposition_from_unitary(rho, haar_unitary(4, rng))
                assert average_negativity(dec, 1) >= floor - 1e-9


class TestWoottersConcurrence:
    def test_bell(self):
        assert wootters_concurrence_2q(to_density(maximally_entangled(2))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_werner_values(self):
        assert wootters_concurrence_2q(werner(1.0)) == pytest.approx(1.0, abs=1e-10)
        assert wootters_concurrence_2q(werner(1 / 3)) == pytest.approx(0.0, abs=1e-10)
        # Known closed form: C = max(0, (3w-1)/2) for Bell-diagonal Werner states.
        assert wootters_concurrence_2q(werner(0.8)) == pytest.approx(0.7, abs=1e-10)

    def test_maximally_mixed(self):
        rho = DensityOperator(DimensionProfile((2, 2)), np.eye(4) / 4)
        assert wootters_concurrence_2q(rho) == 0.0

    def test_wrong_profile_rejected(self, rng):
        with pytest.raises(DomainError):
            wootters_concurrence_2q(rand_dm((3, 2), 2, rng))

    def test_pure_input_matches_pure_concurrence(self, rng):
        # A pure state has one root, so its one singular value is the
        # concurrence, with no zero eigenvalues to take square roots of.
        for _ in range(10):
            psi = rand_pure((2, 2), rng)
            assert wootters_concurrence_2q(to_density(psi)) == pytest.approx(
                concurrence_pure(psi, 1), abs=1e-14
            )

    def test_w_marginals_to_rounding(self):
        # The qubit W marginal on parties (1, j) has concurrence 2|a_1 a_j|.
        # Its rank-2 roots give it to rounding: 700 marginals, n = 3..6.
        rng = np.random.default_rng(2024)
        errors = []
        for _ in range(50):
            for n in (3, 4, 5, 6):
                z = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
                spec = WClassSpec(n, 2, z / np.linalg.norm(z))
                psi = build_w_state(spec)
                for j in range(2, n + 1):
                    want = 2.0 * abs(spec.a[0, 0] * spec.a[j - 1, 0])
                    errors.append(abs(wootters_concurrence_2q(partial_trace(psi, (1, j))) - want))
        assert len(errors) == 700
        assert max(errors) <= 1e-15


class TestSpinFlipValues:
    """The two-qubit roof and assistance values from one SVD, against a
    general eigensolve of the spin-flipped product and against the optimizer."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_match_the_eigenvalue_oracle(self, rank):
        rng = np.random.default_rng(rank)
        for _ in range(16):
            rho = rand_dm((2, 2), rank, rng)
            lam = spin_flip_lambdas(rho)
            roof, assistance = spin_flip_values(rho)
            assert roof == pytest.approx(max(0.0, lam[0] - lam[1:].sum()), abs=1e-7)
            assert assistance == pytest.approx(lam.sum(), abs=1e-7)
            assert roof == wootters_concurrence_2q(rho)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_assistance_meets_the_maximum_search(self, rank):
        rng = np.random.default_rng(10 + rank)
        for _ in range(4):
            rho = rand_dm((2, 2), rank, rng)
            roof, assistance = spin_flip_values(rho)
            searched = optimize(rho, 1, "max").value
            # optimize returns the closed form's decomposition, built from
            # the Takagi factors; its average negativity must meet the
            # value.  The search's own maximum meets it in
            # test_convexroof's test_max_attains_two_qubit_assistance_ceiling.
            assert assistance >= searched - 1e-12
            assert assistance - searched <= 1e-8
            if rank >= 2:
                # Neither the roof nor the largest lambda alone is the
                # maximum, so a swapped formula fails here.
                assert assistance - roof > 1e-3
                assert assistance - spin_flip_lambdas(rho)[0] > 1e-3

    def test_pure_states_close_both_values_at_the_concurrence(self, rng):
        for _ in range(10):
            psi = rand_pure((2, 2), rng)
            roof, assistance = spin_flip_values(to_density(psi))
            want = concurrence_pure(psi, 1)
            assert roof == pytest.approx(want, abs=1e-14)
            assert assistance == pytest.approx(want, abs=1e-14)


def _two_level_leak(weight, rng):
    """A rank-2 (3, 3) density whose level 2 of each party carries exactly ``weight``.

    The factor's level-2 part sits on level 2 of both parties, orthogonal
    to the rest, so each side's marginal has the eigenvalue ``weight`` there.
    """
    g = np.zeros((3, 3, 2), dtype=complex)
    g[:2, :2] = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    g[:2, :2] *= np.sqrt(1.0 - weight) / np.linalg.norm(g)
    g[2, 2] = np.sqrt(weight / 2.0)
    return DensityOperator(DimensionProfile((3, 3)), factor=g.reshape(9, 2))


class TestLocalSupports:
    @pytest.mark.parametrize("dims, rank, side", [
        ((3, 3), 3, (1,)), ((2, 4), 2, (1,)), ((3, 2), 3, (1,)), ((2, 3, 2), 2, (1, 3)), ((3, 3), 1, (2,)),
    ])
    def test_full_supports_keep_the_roots_bit_for_bit(self, dims, rank, side, rng):
        # Under either naming: the cut's matrices with party 1 on side A,
        # short side first.
        rho = rand_dm(dims, rank, rng)
        cut = Bipartition(side, len(dims))
        ones = cut if 1 in side else Bipartition(cut.side_b, cut.n)
        want = cut_matrices(rho.roots, rho.profile, ones)
        if want.shape[1] > want.shape[2]:
            want = np.swapaxes(want, 1, 2)
        assert np.array_equal(local_supports(rho, cut), want)

    def test_compression_keeps_every_member_value(self, rng):
        # A qutrit W pair marginal lives on 2 x 2 supports: on them, every
        # combination of its roots has the singular values, so the
        # negativity and concurrence, of the full combination.
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        pair = partial_trace(build_w_state(WClassSpec(3, 3, a / np.linalg.norm(a))), (1, 2))
        mats = local_supports(pair, 1)
        assert mats.shape == (2, 2, 2)
        v = haar_unitary(4, rng)[:, :2]
        full = cut_matrices(v @ pair.roots, pair.profile, 1)
        small = (v @ mats.reshape(2, 4)).reshape(4, 2, 2)
        for kernel in (pure_negativities, pure_concurrences):
            assert np.max(np.abs(kernel(full) - kernel(small))) <= 1e-15

    @pytest.mark.parametrize("weight, shape", [
        (1e-20, (3, 3)), (1e-13, (3, 3)), (SUPPORT_DROP * 10, (3, 3)), (SUPPORT_DROP / 10, (2, 2)), (0.0, (2, 2)),
    ])
    def test_a_direction_counts_above_the_strict_threshold(self, weight, shape, rng):
        # TOL_RANK (1e-12) would drop a 1e-13 direction; the support keeps it.
        assert local_supports(_two_level_leak(weight, rng), 1).shape[1:] == shape

    def test_every_reader_of_a_density_shares_one_computation(self, monkeypatch, rng):
        # Both roof directions, a flatness scan and a pair term's search all
        # read a full-support (3, 3) density's supports; the density keeps
        # them, so they are computed once.  The other naming of the cut
        # reads the same array, with no second computation.
        calls, original = [], measures._compressed_roots

        def counted(rho, cut):
            calls.append(cut)
            return original(rho, cut)

        monkeypatch.setattr(measures, "_compressed_roots", counted)
        rho = rand_dm((3, 3), 2, rng)
        cheap = OptConfig(starts=2, max_sweeps=5)
        optimize(rho, 1, "min", cheap)
        optimize(rho, 1, "max", cheap)
        flatness_scan(rho, 1, samples=4)
        [term] = pair_terms([(rho, 1, "cren", cheap)])
        assert term.method == "optimizer"
        assert local_supports(rho, 2) is local_supports(rho, 1)
        assert calls == [Bipartition((1,), 2)]

    @pytest.mark.parametrize("weight", [SUPPORT_DROP / 10, 1e-13])
    def test_kept_supports_are_read_only(self, weight, rng):
        # Compressed or not, the matrices are shared by every later reader.
        rho = _two_level_leak(weight, rng)
        for cut in (1, 2):
            with pytest.raises(ValueError):
                local_supports(rho, cut)[0, 0, 0] = 1.0

    def test_two_qubit_values_keep_their_bits(self, rng):
        # On (2, 2) profiles the spin-flip values are those of the roots
        # themselves, bit for bit, under either naming of the cut.
        sy_sy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
        for rank in (1, 2, 3, 4):
            rho = rand_dm((2, 2), rank, rng)
            lam = np.linalg.svd(rho.roots @ sy_sy @ rho.roots.T, compute_uv=False)
            want = (float(max(0.0, lam[0] - np.sum(lam[1:]))), float(np.sum(lam)))
            assert spin_flip_values(rho) == spin_flip_values(rho, 2) == want

    def test_supports_wider_than_two_are_rejected(self, rng):
        with pytest.raises(DomainError, match="local supports"):
            spin_flip_values(_two_level_leak(1e-20, rng))
        roof, assistance = spin_flip_values(_two_level_leak(0.0, rng))
        assert 0.0 <= roof <= assistance
