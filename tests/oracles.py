"""Independent constructions that the tests check the package against.

None of them is needed by the package itself: it traces a pure state
through its cut matrix rather than its D x D density, never forms tensor
products, and reads pair marginals of W/vacuum mixtures from their factor.
They stay here as plain, direct formulas, so a test that compares with
one compares two different routes to the same value.
"""

import numpy as np

from crenaudit import DensityOperator, DimensionProfile, DomainError, PureState
from crenaudit.states import PCSSpec, PartitionSpec, WClassSpec, build_w_state, coarse_grain


def to_density(psi: PureState) -> DensityOperator:
    """The density |psi><psi|, built from its D x D matrix."""
    return DensityOperator(psi.profile, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def tensor_product(a, b):
    """Kronecker product of two pure states or two density operators.

    The resulting profile is the concatenation of the operands' profiles,
    with the first operand's parties slowest-varying.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        profile = DimensionProfile(a.profile.dims + b.profile.dims)
        return PureState(profile, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        profile = DimensionProfile(a.profile.dims + b.profile.dims)
        return DensityOperator(profile, np.kron(a.matrix, b.matrix))
    raise DomainError("tensor_product requires two operands of the same kind")


def block_isometry(spec: WClassSpec, partition: PartitionSpec, s: int) -> np.ndarray:
    """Isometry from block s's merged qudit into the block's physical space.

    Column 0 is the block vacuum; column i (1 <= i <= d-1) is the block's
    normalized one-excitation component at level i, or an arbitrary unit
    vector orthogonal to the previous columns when the block carries no
    weight at that level.
    """
    block = partition.blocks[s]
    block_profile = DimensionProfile((spec.d,) * len(block))
    size = block_profile.size
    cols = np.zeros((size, spec.d), dtype=complex)
    cols[0, 0] = 1.0
    for i in range(1, spec.d):
        v = np.zeros(size, dtype=complex)
        for pos, party in enumerate(block):
            digits = [0] * len(block)
            digits[pos] = i
            v[block_profile.index_of(digits)] = spec.a[party - 1, i - 1]
        nrm = np.linalg.norm(v)
        if nrm > 1e-15:
            cols[:, i] = v / nrm
        else:
            # Zero-weight level: complete with any unit vector orthogonal
            # to the columns chosen so far.
            for k in range(size):
                cand = np.zeros(size, dtype=complex)
                cand[k] = 1.0
                cand -= cols @ (cols.conj().T @ cand)
                if np.linalg.norm(cand) > 1e-7:
                    cols[:, i] = cand / np.linalg.norm(cand)
                    break
    return cols


def expand_coarse_state(spec: WClassSpec, partition: PartitionSpec) -> PureState:
    """Embed the coarse-grained state back into the original party space."""
    coarse = coarse_grain(spec, partition)
    coarse_state = build_w_state(coarse).amplitudes
    iso = block_isometry(spec, partition, 0)
    for s in range(1, partition.m):
        iso = np.kron(iso, block_isometry(spec, partition, s))
    expanded = iso @ coarse_state
    # Blocks list parties in ascending order, but the partition's block
    # order may interleave them; permute back to party order 1..n.
    order = [p for b in partition.blocks for p in b]
    perm = np.argsort(order)
    dims = tuple(spec.d for _ in range(spec.n))
    tensor = expanded.reshape(dims).transpose(perm)
    return PureState(DimensionProfile(dims), tensor.reshape(-1))


def pair_marginal_analytic(spec: PCSSpec, i: int) -> DensityOperator:
    """Marginal of the partially coherent state on parties (1, i), closed form.

    With phi = sum_k a[0, k-1] |k0> + a[i-1, k-1] |0k> (k = 1..d-1) the
    marginal is p|phi><phi| + (1 - p w)|00><00| + lam sqrt(p(1-p)) (|phi><00|
    + h.c.), where w = ||phi||^2 = w_1 + w_i and w_j = sum_k |a[j-1, k-1]|^2
    is party j's excitation weight.  The weight p(1 - w) of the traced-out
    parties' excitations joins the vacuum.
    """
    w = spec.w
    if not 2 <= i <= w.n:
        raise DomainError(f"party {i} out of range 2..{w.n}")
    phi = np.zeros((w.d, w.d), dtype=complex)
    phi[1:, 0] = w.a[0]
    phi[0, 1:] = w.a[i - 1]
    phi = phi.reshape(-1)
    vac = np.zeros_like(phi)
    vac[0] = 1.0
    cross = np.outer(phi, vac)
    mat = (
        spec.p * np.outer(phi, phi.conj())
        + (1.0 - spec.p * np.vdot(phi, phi).real) * np.outer(vac, vac)
        + spec.lam * np.sqrt(spec.p * (1.0 - spec.p)) * (cross + cross.conj().T)
    )
    return DensityOperator(DimensionProfile((w.d, w.d)), mat)


def three_tangle(psi: PureState) -> float:
    """The 3-tangle 4|d1 - 2 d2 + 4 d3| of a three-qubit pure state.

    Coffman, Kundu & Wootters, PRA 61, 052306 (2000), eq. (29), in the
    amplitudes a_ijk: it is the CKW residual C_A(BC)^2 - C_AB^2 - C_AC^2
    at every focus party.
    """
    if psi.profile.dims != (2, 2, 2):
        raise DomainError("the 3-tangle is defined for three qubits")
    a = psi.amplitudes.reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def spin_flip_lambdas(rho: DensityOperator) -> np.ndarray:
    """The spin-flip values of a two-qubit density, in decreasing order.

    The square roots of the eigenvalues of the 4 x 4 non-Hermitian
    R = rho (sy sy) rho* (sy sy), from a general eigensolve.  Wootters'
    concurrence is max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4), the
    concurrence of assistance sum_i lambda_i.
    """
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    m = rho.matrix
    eig = np.linalg.eigvals(m @ flip @ m.conj() @ flip)
    return np.sort(np.sqrt(np.clip(eig.real, 0.0, None)))[::-1]
