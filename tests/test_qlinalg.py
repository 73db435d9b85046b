import gc
import itertools
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from crenaudit import (
    Bipartition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    OptConfig,
    PCSSpec,
    PureState,
    WClassSpec,
    build_pcs_density,
    decomposition_from_unitary,
    optimize,
    ou_state,
    flatness_scan,
    partial_trace,
    partial_transpose,
    trace_norm,
)
from crenaudit.qlinalg import TOL_PSD, TOL_RANK
from crenaudit.states import maximally_entangled

from conftest import rand_dm, rand_pure
from oracles import pair_marginal_analytic, tensor_product, to_density


def ket(profile, digits):
    vec = np.zeros(profile.size, dtype=complex)
    vec[profile.index_of(digits)] = 1.0
    return PureState(profile, vec)


class TestProfilesAndStates:
    def test_index_order_party_one_slowest(self):
        profile = DimensionProfile((2, 3))
        assert profile.index_of((0, 0)) == 0
        assert profile.index_of((0, 2)) == 2
        assert profile.index_of((1, 0)) == 3

    def test_profile_rejects_dimension_one(self):
        with pytest.raises(DomainError):
            DimensionProfile((2, 1))

    def test_pure_state_renormalizes_small_deviation(self):
        profile = DimensionProfile((2,))
        psi = PureState(profile, np.array([1.0 + 5e-9, 0.0]))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_pure_state_rejects_large_deviation(self):
        with pytest.raises(DomainError):
            PureState(DimensionProfile((2,)), np.array([1.1, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_pure_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            PureState(DimensionProfile((2, 2)), np.array([bad, 0, 0, 0]))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejects_non_finite_entries(self, where, bad):
        mat = np.eye(4, dtype=complex) / 4
        mat[where] = bad
        with pytest.raises(DomainError, match="non-finite"):
            DensityOperator(DimensionProfile((2, 2)), mat)

    def test_density_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            DensityOperator(DimensionProfile((2,)), mat)

    def test_density_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(DomainError):
            DensityOperator(DimensionProfile((2,)), mat)

    def test_bipartition_must_be_proper(self):
        with pytest.raises(DomainError):
            Bipartition((1, 2), 2)
        with pytest.raises(DomainError):
            Bipartition((), 2)
        assert Bipartition((2,), 3).side_b == (1, 3)

    def test_cut_coercion(self):
        from crenaudit import as_bipartition

        assert as_bipartition(2, 3).side_a == (2,)
        assert as_bipartition((1, 3), 4).side_b == (2, 4)
        with pytest.raises(DomainError):
            as_bipartition(Bipartition((1,), 2), 3)


class TestTensorProduct:
    def test_basis_kets(self):
        q = DimensionProfile((2,))
        out = tensor_product(ket(q, (0,)), ket(q, (1,)))
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_projector_with_maximally_mixed(self):
        q = DimensionProfile((2,))
        rho0 = to_density(ket(q, (0,)))
        mixed = DensityOperator(q, np.eye(2) / 2)
        out = tensor_product(rho0, mixed)
        assert np.allclose(out.matrix, np.diag([0.5, 0.5, 0, 0]))

    def test_plus_plus_is_uniform(self):
        q = DimensionProfile((2,))
        plus = PureState(q, np.array([1, 1]) / np.sqrt(2))
        out = tensor_product(plus, plus)
        assert np.allclose(out.amplitudes, np.full(4, 0.5))

    def test_mixed_kinds_rejected(self):
        q = DimensionProfile((2,))
        with pytest.raises(DomainError):
            tensor_product(ket(q, (0,)), to_density(ket(q, (0,))))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        bell = maximally_entangled(2)
        red = partial_trace(to_density(bell), (1,))
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes_exactly(self, rng):
        a = rand_dm((2,), 2, rng)
        b = rand_dm((3,), 3, rng)
        joint = tensor_product(a, b)
        assert np.max(np.abs(partial_trace(joint, (1,)).matrix - a.matrix)) <= 1e-12
        assert np.max(np.abs(partial_trace(joint, (2,)).matrix - b.matrix)) <= 1e-12

    def test_keep_order_is_ascending(self, rng):
        rho = rand_dm((2, 3, 2), 4, rng)
        red = partial_trace(rho, (3, 1))
        assert red.profile.dims == (2, 2)

    def test_invalid_keep_sets(self, rng):
        for state in (rand_dm((2, 2), 2, rng), rand_pure((2, 2), rng)):
            with pytest.raises(DomainError):
                partial_trace(state, ())
            with pytest.raises(DomainError):
                partial_trace(state, (3,))

    @pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 4), (2, 2, 2, 2), (3, 3, 3, 3)])
    def test_pure_input_matches_the_density_route(self, dims, rng):
        psi = rand_pure(dims, rng)
        rho = to_density(psi)
        n = len(dims)
        keeps = [k for r in (1, 2, 3) for k in itertools.permutations(range(1, n + 1), r)]
        for keep in keeps + [tuple(range(1, n + 1))]:
            red = partial_trace(psi, keep)
            want = partial_trace(rho, keep)
            assert red.profile == want.profile
            assert np.max(np.abs(red.matrix - want.matrix)) <= 1e-14

    @pytest.mark.parametrize("route", ["matrix", "factor"])
    @pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 4), (2, 2, 2, 2)])
    def test_density_input_matches_an_index_contraction(self, dims, route, rng):
        # rho_keep[i, i'] = sum over the rest's digits r of rho[(i, r), (i', r)].
        rho = rand_dm(dims, 3, rng, factor=route == "factor")
        n = len(dims)
        tensor = rho.matrix.reshape(dims + dims)
        rows = "abcd"[:n]
        for keep in [(1,), (3,), (3, 1), (2, 3), tuple(range(1, n + 1))]:
            kept = sorted(keep)
            cols = "".join("efgh"[p - 1] if p in kept else rows[p - 1] for p in range(1, n + 1))
            out = "".join(rows[p - 1] for p in kept) + "".join(cols[p - 1] for p in kept)
            want = np.einsum(f"{rows}{cols}->{out}", tensor)
            size = int(np.prod([dims[p - 1] for p in kept]))
            got = partial_trace(rho, keep).matrix
            assert np.max(np.abs(got - want.reshape(size, size))) <= 1e-15


    def test_w_vacuum_trace_forms_no_matrix(self):
        # The trace reads the density's two roots; its 4096 x 4096 matrix
        # alone would take 268 MB.
        spec = PCSSpec(WClassSpec.symmetric(6, 4), 0.6, 0.3)
        rho = build_pcs_density(spec)
        tracemalloc.start()
        try:
            pair = partial_trace(rho, [1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in rho.__dict__
        assert peak <= 2**20
        assert pair.rank() == 2
        assert np.max(np.abs(pair.matrix - pair_marginal_analytic(spec, 2).matrix)) <= 1e-15


class TestPartialTranspose:
    def test_bell_projector_eigenvalues(self):
        bell = maximally_entangled(2)
        pt = partial_transpose(to_density(bell), (2,))
        evals = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_stays_psd(self, rng):
        joint = tensor_product(rand_dm((2,), 2, rng), rand_dm((3,), 2, rng))
        pt = partial_transpose(joint, (2,))
        assert np.linalg.eigvalsh(pt)[0] >= -1e-12

    def test_schmidt_pair_eigenvectors(self, rng):
        # For sum_i sqrt(l_i)|ii>, the transposed projector has eigenvalue
        # -sqrt(l_i l_j) on (|ij> - |ji>)/sqrt(2).
        lam = rng.dirichlet(np.ones(3))
        profile = DimensionProfile((3, 3))
        vec = np.zeros(9, dtype=complex)
        for i in range(3):
            vec[profile.index_of((i, i))] = np.sqrt(lam[i])
        pt = partial_transpose(to_density(PureState(profile, vec)), (2,))
        for i in range(3):
            for j in range(i + 1, 3):
                v = np.zeros(9, dtype=complex)
                v[profile.index_of((i, j))] = 1 / np.sqrt(2)
                v[profile.index_of((j, i))] = -1 / np.sqrt(2)
                assert np.allclose(pt @ v, -np.sqrt(lam[i] * lam[j]) * v, atol=1e-10)

    def test_side_symmetry_of_spectrum(self, rng):
        for dims in ((2, 3), (2, 2, 2), (3, 2, 2)):
            rho = rand_dm(dims, 3, rng)
            n = len(dims)
            s = (1,) if n == 2 else (1, 2)
            comp = tuple(p for p in range(1, n + 1) if p not in s)
            e1 = np.sort(np.linalg.eigvalsh(partial_transpose(rho, s)))
            e2 = np.sort(np.linalg.eigvalsh(partial_transpose(rho, comp)))
            assert np.max(np.abs(e1 - e2)) <= 1e-9

    def test_full_and_empty_sets_rejected(self, rng):
        rho = rand_dm((2, 2), 2, rng)
        with pytest.raises(DomainError):
            partial_transpose(rho, (1, 2))
        with pytest.raises(DomainError):
            partial_transpose(rho, ())


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([3.0, -1.0])) == pytest.approx(4.0)

    def test_density_operator_is_one(self, rng):
        rho = rand_dm((2, 3), 4, rng)
        assert trace_norm(rho.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_bell_partial_transpose(self):
        pt = partial_transpose(to_density(maximally_entangled(2)), (2,))
        assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSchmidt:
    """Schmidt data across a cut read from the side-A marginal: its rank and
    its spectrum, descending."""

    @staticmethod
    def coefficients(psi, cut):
        marginal = partial_trace(psi, cut)
        return marginal.eigenvalues[::-1][: marginal.rank()]

    def test_already_diagonal(self):
        profile = DimensionProfile((2, 2))
        vec = np.zeros(4, dtype=complex)
        vec[profile.index_of((0, 0))] = np.sqrt(0.8)
        vec[profile.index_of((1, 1))] = np.sqrt(0.2)
        coeffs = self.coefficients(PureState(profile, vec), (1,))
        assert np.allclose(coeffs, [0.8, 0.2], atol=1e-12)
        assert len(coeffs) == 2

    def test_product_state_rank_one(self, rng):
        psi = rand_pure((2,), rng)
        chi = rand_pure((3,), rng)
        coeffs = self.coefficients(tensor_product(psi, chi), (1,))
        assert len(coeffs) == 1
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetric_qutrit_state_flat(self):
        coeffs = self.coefficients(ou_state(), (1,))
        assert len(coeffs) == 3
        assert np.allclose(coeffs, np.full(3, 1 / 3), atol=1e-12)

    def test_sum_and_reconstruction(self, rng):
        from crenaudit.qlinalg import cut_matrix

        for dims, cut in (((2, 3), (1,)), ((2, 2, 3), (1, 3)), ((4, 4), (1,))):
            psi = rand_pure(dims, rng)
            marginal = partial_trace(psi, cut)
            assert not marginal.eigenvalues.flags.writeable
            assert abs(float(np.sum(self.coefficients(psi, cut))) - 1.0) <= 1e-10
            # The roots sqrt(lambda_k) u_k rebuild the Gram matrix M M^H.
            mat = cut_matrix(psi, Bipartition(cut, len(dims)))
            rebuilt = marginal.roots.T @ marginal.roots.conj()
            assert np.max(np.abs(rebuilt - mat @ mat.conj().T)) <= 1e-12

    def test_stacked_unnormalized_cut_matrices(self, rng):
        from crenaudit.qlinalg import cut_matrices, cut_matrix

        profile = DimensionProfile((2, 3, 2))
        bip = Bipartition((1, 3), 3)
        states = [rand_pure(profile.dims, rng) for _ in range(3)]
        stacked = cut_matrices(np.stack([2.0 * s.amplitudes for s in states]), profile, bip)
        assert stacked.shape == (3, 4, 3)
        for mat, psi in zip(stacked, states):
            assert np.array_equal(mat, 2.0 * cut_matrix(psi, bip))


def root_eigenvalues(rho):
    """The eigenvalues e_i behind the spectral roots sqrt(e_i) v_i of rho."""
    return np.sum(np.abs(rho.roots) ** 2, axis=1)


class TestSpectralDecomposition:
    def test_pure_projector(self, rng):
        psi = rand_pure((2, 2), rng)
        rho = to_density(psi)
        assert rho.rank() == 1
        assert root_eigenvalues(rho) == pytest.approx([1.0], abs=1e-10)
        assert abs(np.vdot(rho.range_basis[:, 0], psi.amplitudes)) == pytest.approx(1.0, abs=1e-10)

    def test_antisymmetric_pair_marginal(self):
        rho = partial_trace(to_density(ou_state()), (1, 2))
        assert rho.rank() == 3
        assert np.allclose(root_eigenvalues(rho), [1 / 3] * 3, atol=1e-12)

    def test_maximally_mixed(self):
        rho = DensityOperator(DimensionProfile((3,)), np.eye(3) / 3)
        assert rho.rank() == 3
        assert np.allclose(root_eigenvalues(rho), [1 / 3] * 3)

    def test_reconstruction(self, rng):
        rho = rand_dm((2, 3), 4, rng)
        roots, basis = rho.roots, rho.range_basis
        assert roots.shape == (4, 6) and basis.shape == (6, 4)
        assert np.max(np.abs(roots.T @ roots.conj() - rho.matrix)) <= 1e-9
        # Roots descend and the basis ascends over the same eigenpairs.
        evals = root_eigenvalues(rho)
        assert np.all(np.diff(evals) <= 0.0)
        assert np.allclose(basis[:, ::-1].T * np.sqrt(evals)[:, None], roots, atol=1e-12)
        assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)


def assert_spectrum_consistent(rho):
    """Rank, roots and range basis agree with an independent eigvalsh of the matrix."""
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals[0] >= -TOL_PSD
    assert rho.rank() == int(np.sum(evals > TOL_RANK))
    assert np.max(np.abs(rho.roots.T @ rho.roots.conj() - rho.matrix)) <= 1e-14
    basis = rho.range_basis
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(rho.rank()))) <= 1e-14


class TestMatrixPath:
    """A density built from a matrix is decomposed by one eigh."""

    def test_spectrum_matches_separate_rank_and_range_solves(self):
        # The rank counted from an eigvalsh, and the range from a second,
        # eigh, solve of the same matrix: the one eigh gives the same bits.
        rng = np.random.default_rng(99)
        shapes = [(2,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (2, 3, 4)]
        for k in range(200):
            dims = shapes[k % len(shapes)]
            rho = rand_dm(dims, 1 + int(rng.integers(int(np.prod(dims)))), rng)
            rank = int(np.sum(np.linalg.eigvalsh(rho.matrix) > TOL_RANK))
            w, v = np.linalg.eigh(rho.matrix)
            top = w.size - rank
            rows = v[:, top:].T.copy()
            assert rho.rank() == rank
            assert np.array_equal(rho.range_basis, rows.T)
            assert np.array_equal(rho.roots, rows[::-1] * np.sqrt(w[top:][::-1, None]))


class TestFactorPath:
    """A density built from a factor X is X X^H, with its spectrum from the SVD of X."""

    @pytest.mark.parametrize("dims, k", [((2, 2), 1), ((2, 3), 2), ((3, 3, 2), 3), ((2, 2, 2, 2), 5)])
    def test_random_factor(self, dims, k, rng):
        profile = DimensionProfile(dims)
        x = rng.standard_normal((profile.size, k)) + 1j * rng.standard_normal((profile.size, k))
        x /= np.linalg.norm(x)
        rho = DensityOperator(profile, factor=x)
        assert np.max(np.abs(rho.matrix - x @ x.conj().T)) <= 1e-15
        assert rho.rank() == k
        assert_spectrum_consistent(rho)

    def test_dependent_columns_count_once(self, rng):
        # Two columns along one vector and a zero column: rank 1.
        psi = rand_pure((3, 2), rng).amplitudes
        x = np.stack([0.6 * psi, 0.8j * psi, np.zeros(6)], axis=1)
        rho = DensityOperator(DimensionProfile((3, 2)), factor=x)
        assert rho.rank() == 1
        assert_spectrum_consistent(rho)

    def test_matches_the_matrix_route(self, rng):
        profile = DimensionProfile((2, 3))
        x = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        x /= np.linalg.norm(x)
        a, b = DensityOperator(profile, factor=x), DensityOperator(profile, x @ x.conj().T)
        assert a.rank() == b.rank() == 2
        assert np.allclose(root_eigenvalues(a), root_eigenvalues(b), atol=1e-14)
        overlap = a.range_basis.conj().T @ b.range_basis
        assert np.allclose(np.abs(overlap), np.eye(2), atol=1e-12)

    def test_small_trace_slack_renormalizes(self, rng):
        psi = rand_pure((2, 2), rng).amplitudes
        rho = DensityOperator(DimensionProfile((2, 2)), factor=np.sqrt(1 + 1e-9) * psi[:, None])
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)
        assert root_eigenvalues(rho) == pytest.approx([1.0], abs=1e-15)

    def test_rejects_bad_inputs(self, rng):
        profile = DimensionProfile((2, 2))
        psi = rand_pure((2, 2), rng).amplitudes
        with pytest.raises(DomainError):
            DensityOperator(profile)
        with pytest.raises(DomainError):
            DensityOperator(profile, np.outer(psi, psi.conj()), factor=psi[:, None])
        with pytest.raises(DomainError, match=r"factor has shape \(3, 1\), expected \(4, k\)"):
            DensityOperator(profile, factor=psi[:3, None])
        with pytest.raises(DomainError, match=r"factor has shape \(4,\)"):
            DensityOperator(profile, factor=psi)
        with pytest.raises(DomainError, match="trace"):
            DensityOperator(profile, factor=2.0 * psi[:, None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_factors(self, bad, rng):
        x = np.stack([rand_pure((2, 2), rng).amplitudes, np.zeros(4)], axis=1)
        x[2, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            DensityOperator(DimensionProfile((2, 2)), factor=x)

    def test_matrix_is_formed_on_every_read_and_never_kept(self, rng):
        profile = DimensionProfile((2, 3, 2))
        x = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        x /= np.linalg.norm(x)
        rho = DensityOperator(profile, factor=x)

        def square_arrays():
            return [name for name, value in vars(rho).items()
                    if isinstance(value, np.ndarray) and value.shape == (12, 12)]

        flatness_scan(rho, 1, 4)
        assert square_arrays() == []
        first, second = rho.matrix, rho.matrix
        assert np.max(np.abs(first - x @ x.conj().T)) <= 1e-15
        assert first.tobytes() == second.tobytes()
        assert first is not second
        assert not first.flags.writeable and not second.flags.writeable
        assert square_arrays() == []

    def test_matrix_is_the_symmetrized_product_bit_for_bit(self):
        # The in-place form equals (m + m^H) / 2.0 on every bit, signed
        # zeros included: the factors hold exact zeros, sign flips and
        # rows down to 1e-200 beside rows of order one.
        rng = np.random.default_rng(17)
        for _ in range(100):
            profile = DimensionProfile(tuple(int(d) for d in rng.integers(2, 5, int(rng.integers(1, 4)))))
            k = int(rng.integers(1, 4))
            x = rng.standard_normal((profile.size, k)) + 1j * rng.standard_normal((profile.size, k))
            x[rng.random(x.shape) < 0.3] = 0.0
            x[rng.random(x.shape) < 0.2] *= -1.0
            x[1:] *= 10.0 ** -rng.integers(0, 201, (profile.size - 1, 1))
            x[0, 0] = 1.0
            x /= np.linalg.norm(x)
            m = x @ x.conj().T
            want = (m + m.conj().T) / 2.0
            assert DensityOperator(profile, factor=x).matrix.tobytes() == want.tobytes()

    def test_a_read_matrix_leaves_nothing_behind(self):
        # D = 1024: one matrix is 16 MiB, the density's factor 32 KiB.
        rho = build_pcs_density(PCSSpec(WClassSpec.symmetric(5, 4), 0.6, 0.3))
        size = rho.profile.size
        gc.collect()
        tracemalloc.start()
        try:
            assert rho.matrix.shape == (size, size)
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 2**20
        # At most two D x D arrays live while it is formed.
        assert peak <= 2 * 16 * size * size + 2**20

    def test_factor_is_copied(self, rng):
        x = rand_pure((2, 2), rng).amplitudes[:, None].copy()
        rho = DensityOperator(DimensionProfile((2, 2)), factor=x)
        want = x @ x.conj().T
        x[:] = 0.0
        assert np.max(np.abs(rho.matrix - want)) <= 1e-15

    @pytest.mark.parametrize("route", ["matrix", "factor"])
    def test_purity_and_trace_come_from_the_spectrum(self, route, rng):
        profile = DimensionProfile((2, 3))
        x = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x /= np.linalg.norm(x)
        rho = (DensityOperator(profile, factor=x) if route == "factor"
               else DensityOperator(profile, x @ x.conj().T))
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        mat = x @ x.conj().T
        assert rho.purity() == pytest.approx(np.trace(mat @ mat).real, abs=1e-14)
        if route == "factor":
            assert "matrix" not in vars(rho)


class TestIdentity:
    """States compare and hash by identity; repr never forms a D x D matrix."""

    def test_equality_is_identity(self, rng):
        psi = rand_pure((2, 2), rng)
        twin = PureState(psi.profile, psi.amplitudes)
        rho, rho_twin = to_density(psi), to_density(twin)
        assert psi == psi and rho == rho
        assert psi != twin and rho != rho_twin
        assert len({psi, twin, rho, rho_twin}) == 4

    def test_array_holding_values_compare_by_identity(self, rng):
        rho = rand_dm((2, 2), 2, rng)
        spec = WClassSpec.symmetric(3)
        pairs = [
            (decomposition_from_unitary(rho, np.eye(2)), decomposition_from_unitary(rho, np.eye(2))),
            tuple(optimize(rho, 1, "max", OptConfig(starts=1, max_sweeps=1)) for _ in range(2)),
            (spec, WClassSpec(spec.n, spec.d, spec.a)),
            (PCSSpec(spec, 0.5, 0.5), PCSSpec(spec, 0.5, 0.5)),
        ]
        for value, twin in pairs:
            assert value == value and value != twin
            assert len({value, twin}) == 2

    def test_density_is_immutable(self, rng):
        rho = to_density(rand_pure((2, 2), rng))
        with pytest.raises(FrozenInstanceError):
            rho.profile = DimensionProfile((4,))
        with pytest.raises(FrozenInstanceError):
            del rho.matrix

    def test_repr_of_a_factor_density_forms_no_matrix(self):
        # The 4096 x 4096 matrix would take 268 MB.
        profile = DimensionProfile((4,) * 6)
        x = np.zeros((profile.size, 2), dtype=complex)
        x[0, 0], x[1, 1] = 0.6, 0.8
        rho = DensityOperator(profile, factor=x)
        tracemalloc.start()
        try:
            text = repr(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "DensityOperator(profile=DimensionProfile(dims=(4, 4, 4, 4, 4, 4)), rank=2)"
        assert "matrix" not in vars(rho)
        assert peak <= 2**20
