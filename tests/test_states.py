import numpy as np
import pytest

from crenaudit import (
    DensityOperator,
    DomainError,
    PCSSpec,
    PartitionSpec,
    SpecFormatError,
    WClassSpec,
    apply_phase_damping,
    build_pcs_density,
    build_w_state,
    coarse_grain,
    coherent_superposition,
    concurrence_pure,
    flatness_scan,
    ghz_state,
    kim_sanders_state,
    maximally_entangled,
    negativity_pure,
    ou_state,
    parse_state_spec,
    partial_trace,
)
from crenaudit.qlinalg import TOL_PSD, TOL_RANK

from conftest import rand_pure
from oracles import expand_coarse_state, pair_marginal_analytic, to_density


def random_w_spec(n, d, rng) -> WClassSpec:
    a = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
    return WClassSpec(n, d, a / np.linalg.norm(a))


class TestWState:
    def test_symmetric_three_qubit(self):
        psi = build_w_state(WClassSpec.symmetric(3, 2))
        profile = psi.profile
        expected = np.zeros(8, dtype=complex)
        for digits in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            expected[profile.index_of(digits)] = 1 / np.sqrt(3)
        assert np.allclose(psi.amplitudes, expected)

    def test_two_qutrit_placement(self):
        a = np.array([[1 / np.sqrt(2), 0.0], [0.0, 1 / np.sqrt(2)]], dtype=complex)
        psi = build_w_state(WClassSpec(2, 3, a))
        profile = psi.profile
        assert psi.amplitudes[profile.index_of((1, 0))] == pytest.approx(1 / np.sqrt(2))
        assert psi.amplitudes[profile.index_of((0, 2))] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(np.abs(psi.amplitudes) > 1e-14) == 2

    def test_focus_marginal_spectrum(self, rng):
        # The party-1 marginal has eigenvalues {w_1, 1 - w_1}, w_1 = sum_k |a_1k|^2.
        spec = random_w_spec(4, 3, rng)
        w1 = float(np.sum(np.abs(spec.a[0]) ** 2))
        rho1 = partial_trace(to_density(build_w_state(spec)), (1,))
        evals = np.sort(np.linalg.eigvalsh(rho1.matrix))[::-1]
        expected = sorted([w1, 1 - w1], reverse=True)
        assert np.allclose(evals[:2], expected, atol=1e-12)
        assert np.all(evals[2:] < 1e-12)

    def test_unnormalized_table_rejected(self):
        with pytest.raises(DomainError):
            WClassSpec(3, 2, np.full((3, 1), 1.0))

    def test_non_finite_table_rejected(self):
        # abs(nan - 1) > tol is False, so the norm test alone lets NaN through.
        with pytest.raises(DomainError, match="non-finite"):
            WClassSpec(2, 2, np.array([[np.nan], [1.0]]))


class TestPcsDensity:
    def test_fully_coherent_is_pure(self, rng):
        spec = PCSSpec(random_w_spec(3, 2, rng), 0.6, 1.0)
        rho = build_pcs_density(spec)
        psi = coherent_superposition(spec)
        assert np.max(np.abs(rho.matrix - to_density(psi).matrix)) <= 1e-12

    def test_incoherent_is_rank_two_mixture(self, rng):
        spec = PCSSpec(random_w_spec(3, 2, rng), 0.6, 0.0)
        rho = build_pcs_density(spec)
        assert rho.rank() == 2
        w = build_w_state(spec.w).amplitudes
        expected = 0.6 * np.outer(w, w.conj())
        expected[0, 0] += 0.4
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12

    def test_full_weight_ignores_coherence(self, rng):
        wspec = random_w_spec(3, 3, rng)
        a = build_pcs_density(PCSSpec(wspec, 1.0, 0.2))
        b = to_density(build_w_state(wspec))
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12


def outer_product_density(spec: PCSSpec) -> np.ndarray:
    """p|W><W| + (1-p)|vac><vac| + lam sqrt(p(1-p)) (|W><vac| + h.c.), from outer products."""
    w = build_w_state(spec.w).amplitudes
    vac = np.zeros_like(w)
    vac[0] = 1.0
    cross = np.outer(w, vac)
    return (spec.p * np.outer(w, w.conj()) + (1 - spec.p) * np.outer(vac, vac)
            + spec.lam * np.sqrt(spec.p * (1 - spec.p)) * (cross + cross.conj().T))


class TestFactorBuiltDensity:
    """W/vacuum densities come from a rank-2 factor; the spectrum from its SVD."""

    @pytest.mark.parametrize("n, d", [(3, 2), (4, 3), (8, 2), (5, 3)])
    @pytest.mark.parametrize("p, lam", [(0.6, 0.3), (0.2, 0.0), (0.7, 1.0), (0.0, 0.5), (1.0, 0.5)])
    def test_matches_the_outer_product_form(self, n, d, p, lam, rng):
        spec = PCSSpec(random_w_spec(n, d, rng), p, lam)
        rho = build_pcs_density(spec)
        assert np.max(np.abs(rho.matrix - outer_product_density(spec))) <= 1e-15
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals[0] >= -TOL_PSD
        # lam = 1, p = 0 and p = 1 are the rank-1 edges.
        assert rho.rank() == int(np.sum(evals > TOL_RANK)) == (1 if lam == 1 or p in (0, 1) else 2)
        assert np.max(np.abs(rho.roots.T @ rho.roots.conj() - rho.matrix)) <= 1e-14
        basis = rho.range_basis
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(rho.rank()))) <= 1e-14

    @pytest.mark.parametrize("n, d, size", [(3, 2, 2), (4, 3, 4), (5, 3, 3)])
    def test_flatness_agrees_with_the_matrix_route(self, n, d, size, rng):
        spec = PCSSpec(random_w_spec(n, d, rng), 0.55, 0.4)
        rho = build_pcs_density(spec)
        by_matrix = DensityOperator(rho.profile, rho.matrix)
        a = flatness_scan(rho, 1, 16, seed=2, size=size)
        b = flatness_scan(by_matrix, 1, 16, seed=2, size=size)
        assert abs(a.mean - b.mean) <= 1e-12


class TestPhaseDamping:
    def test_identity_channel(self, rng):
        psi = rand_pure((2, 2, 2), rng)
        out = apply_phase_damping(psi, 1.0)
        assert np.max(np.abs(out.matrix - to_density(psi).matrix)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_direct_construction(self, lam, rng):
        wspec = random_w_spec(3, 3, rng)
        spec = PCSSpec(wspec, 0.7, lam)
        damped = apply_phase_damping(coherent_superposition(PCSSpec(wspec, 0.7, 1.0)), lam)
        assert np.max(np.abs(damped.matrix - build_pcs_density(spec).matrix)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_matches_kraus_sum_on_a_random_state(self, lam, rng):
        psi = rand_pure((2, 2, 2), rng)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        p_vac = np.zeros((8, 8))
        p_vac[0, 0] = 1.0
        kraus = [np.sqrt(lam) * np.eye(8), np.sqrt(1 - lam) * (np.eye(8) - p_vac),
                 np.sqrt(1 - lam) * p_vac]
        want = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.max(np.abs(apply_phase_damping(psi, lam).matrix - want)) <= 1e-15

    def test_full_damping_kills_vacuum_coherences(self, rng):
        wspec = random_w_spec(3, 2, rng)
        damped = apply_phase_damping(coherent_superposition(PCSSpec(wspec, 0.5, 1.0)), 0.0)
        assert np.max(np.abs(damped.matrix[0, 1:])) == 0.0
        assert np.max(np.abs(damped.matrix[1:, 0])) == 0.0

    def test_out_of_range_rejected(self, rng):
        with pytest.raises(DomainError):
            apply_phase_damping(rand_pure((2, 2), rng), 1.5)


class TestCounterexampleStates:
    def test_antisymmetric_state_values(self):
        psi = ou_state()
        assert concurrence_pure(psi, 1) ** 2 == pytest.approx(4 / 3, abs=1e-12)
        assert negativity_pure(psi, 1) == pytest.approx(2.0, abs=1e-10)
        roots = partial_trace(to_density(psi), (1, 2)).roots
        assert np.allclose(np.sum(np.abs(roots) ** 2, axis=1), [1 / 3] * 3, atol=1e-12)

    def test_antisymmetric_marginal_range_is_flat(self, rng):
        # Every unit vector in the range of either pair marginal has
        # one-party spectrum {1/2, 1/2, 0}.
        psi = ou_state()
        for keep in ((1, 2), (1, 3)):
            rho = partial_trace(to_density(psi), keep)
            basis = rho.range_basis.T
            for _ in range(64):
                c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                c /= np.linalg.norm(c)
                vec = sum(ci * b for ci, b in zip(c, basis))
                mat = vec.reshape(3, 3)
                s = np.linalg.svd(mat, compute_uv=False)
                assert np.allclose(s**2, [0.5, 0.5, 0.0], atol=1e-9)

    def test_mixed_dimension_state_values(self):
        psi = kim_sanders_state()
        assert psi.profile.dims == (3, 2, 2)
        assert concurrence_pure(psi, 1) ** 2 == pytest.approx(12 / 9, abs=1e-12)
        assert negativity_pure(psi, 1) ** 2 == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("d,expected", [(2, 1.0), (3, 2.0), (4, 3.0)])
    def test_maximally_entangled_negativity(self, d, expected):
        assert negativity_pure(maximally_entangled(d), 1) == pytest.approx(
            expected, abs=1e-10
        )

    def test_maximally_entangled_rejects_small_dim(self):
        with pytest.raises(DomainError):
            maximally_entangled(1)

    def test_ghz_pair_marginals_unentangled(self):
        ghz = ghz_state(3)
        pair = partial_trace(to_density(ghz), (1, 2))
        assert np.allclose(pair.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


class TestCoarseGrain:
    def test_identity_partition_keeps_magnitudes(self, rng):
        spec = random_w_spec(3, 3, rng)
        out = coarse_grain(spec, PartitionSpec(((1,), (2,), (3,))))
        assert np.allclose(np.abs(out.a), np.abs(spec.a), atol=1e-12)

    def test_symmetric_w_two_blocks(self):
        spec = WClassSpec.symmetric(3, 2)
        out = coarse_grain(spec, PartitionSpec(((1,), (2, 3))))
        assert out.n == 2
        assert abs(out.a[0, 0]) ** 2 == pytest.approx(1 / 3, abs=1e-12)
        assert abs(out.a[1, 0]) ** 2 == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "blocks",
        [((1,), (2, 3)), ((1, 2), (3,)), ((2,), (1, 3))],
    )
    def test_block_embedding_reproduces_state(self, blocks, rng):
        spec = random_w_spec(3, 3, rng)
        partition = PartitionSpec(blocks)
        rebuilt = expand_coarse_state(spec, partition)
        original = build_w_state(spec)
        fidelity = abs(np.vdot(original.amplitudes, rebuilt.amplitudes)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_partition_validation(self):
        with pytest.raises(DomainError):
            PartitionSpec(((1,), (1, 2)))
        with pytest.raises(DomainError):
            PartitionSpec(((1,), (3,)))


class TestPairMarginal:
    @pytest.mark.parametrize("p,lam", [(0.0, 0.5), (0.3, 0.0), (0.7, 0.6), (1.0, 1.0),
                                       (0.4, 0.3), (0.9, 0.8), (1.0, 0.5)])
    def test_matches_partial_trace(self, p, lam, rng):
        # Each table also runs with party 1, party 3 and both zero-weight.
        a = random_w_spec(4, 3, rng).a
        for zero in ((), (0,), (2,), (0, 2)):
            table = a.copy()
            table[list(zero)] = 0.0
            spec = PCSSpec(WClassSpec(4, 3, table / np.linalg.norm(table)), p, lam)
            rho = build_pcs_density(spec)
            for i in (2, 3, 4):
                direct = pair_marginal_analytic(spec, i)
                traced = partial_trace(rho, (1, i))
                assert np.max(np.abs(direct.matrix - traced.matrix)) <= 1e-12

    def test_pure_symmetric_case(self):
        spec = PCSSpec(WClassSpec.symmetric(3, 2), 1.0, 0.0)
        rho = pair_marginal_analytic(spec, 2)
        assert rho.rank() == 2
        assert rho.matrix[0, 0].real == pytest.approx(1 / 3, abs=1e-12)

    def test_vacuum_only(self, rng):
        spec = PCSSpec(random_w_spec(3, 2, rng), 0.0, 0.7)
        rho = pair_marginal_analytic(spec, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12

    def test_party_range_checked(self, rng):
        spec = PCSSpec(random_w_spec(3, 2, rng), 0.5, 0.5)
        with pytest.raises(DomainError):
            pair_marginal_analytic(spec, 1)
        with pytest.raises(DomainError):
            pair_marginal_analytic(spec, 4)


class TestSpecDocuments:
    def test_w_class_roundtrip(self):
        text = """
kind: w_class
coefficients:
  - [0.5773502691896258]
  - [0.5773502691896258]
  - [0.5773502691896258]
"""
        psi = parse_state_spec(text)
        expected = build_w_state(WClassSpec.symmetric(3, 2))
        assert np.max(np.abs(psi.amplitudes - expected.amplitudes)) <= 1e-9

    def test_amplitudes_document(self):
        text = """
kind: amplitudes
profile: [2, 2]
amplitudes:
  - ["00", 0.7071067811865476, 0.0]
  - ["11", 0.0, 0.7071067811865476]
"""
        psi = parse_state_spec(text)
        assert abs(psi.amplitudes[0] - 1 / np.sqrt(2)) < 1e-12
        assert abs(psi.amplitudes[3] - 1j / np.sqrt(2)) < 1e-12

    def test_pcs_document_builds_density(self):
        text = """
kind: pcs
coefficients:
  - [[0.5773502691896258, 0.0]]
  - [0.5773502691896258]
  - [0.5773502691896258]
p: 0.5
lambda: 0.25
"""
        rho = parse_state_spec(text)
        expected = build_pcs_density(PCSSpec(WClassSpec.symmetric(3, 2), 0.5, 0.25))
        assert np.max(np.abs(rho.matrix - expected.matrix)) <= 1e-9

    def test_builtin_families(self):
        assert parse_state_spec("kind: ou").profile.dims == (3, 3, 3)
        assert parse_state_spec("kind: kim_sanders").profile.dims == (3, 2, 2)
        assert parse_state_spec("kind: max_entangled\nd: 3").profile.dims == (3, 3)

    def test_rejects_unnormalized_amplitudes(self):
        text = """
kind: amplitudes
profile: [2]
amplitudes:
  - ["0", 0.9, 0.0]
"""
        with pytest.raises(SpecFormatError, match="amplitudes"):
            parse_state_spec(text)

    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecFormatError, match="kind"):
            parse_state_spec("kind: banana")

    def test_rejects_bad_profile(self):
        with pytest.raises(SpecFormatError, match="profile"):
            parse_state_spec("kind: amplitudes\nprofile: [1]\namplitudes:\n  - ['0', 1, 0]")

    @pytest.mark.parametrize("text, message", [
        ("kind: amplitudes\nprofile: [true, 2]\namplitudes:\n  - ['00', 1, 0]",
         "field 'profile': expected a list of integers"),
        ("kind: max_entangled\nd: true", "field 'd': expected an integer"),
    ])
    def test_rejects_booleans_as_integers(self, text, message):
        # YAML's true is a bool, and bool is a subclass of int.
        with pytest.raises(SpecFormatError, match=message):
            parse_state_spec(text)

    @pytest.mark.parametrize("digits", ["'05'", "'0x'", "[0, 1.5]", "[true, 0]"])
    def test_rejects_bad_digits_naming_the_field(self, digits):
        # Out of range, not a digit, fractional, and a YAML boolean.
        text = f"kind: amplitudes\nprofile: [2, 2]\namplitudes:\n  - [{digits}, 1.0, 0.0]\n"
        with pytest.raises(SpecFormatError, match="field 'amplitudes'"):
            parse_state_spec(text)

    def test_rejects_mismatched_digits(self):
        text = """
kind: amplitudes
profile: [2, 2]
amplitudes:
  - ["0", 1.0, 0.0]
"""
        with pytest.raises(SpecFormatError, match="digits"):
            parse_state_spec(text)
