"""Closed-form pure-state entanglement measures and mixed-state negativity.

Pure-state concurrence and negativity come from one batched kernel each,
on stacked cut matrices: for a pure state both are functions of the
Schmidt coefficients alone (Vidal & Werner, PRA 65, 032314 (2002)), so a
decomposition's members, a flatness scan's samples or a range grid are
scored in one call.  Beside them: the trace-norm negativity of mixed
states, and the exact two-qubit concurrence that ``monogamy.pair_term``
uses for two-qubit roof minima (for two-qubit states the convex-roof
extended negativity coincides with the concurrence, so the closed form
serves both).
"""

from __future__ import annotations

import numpy as np

from .qlinalg import (
    DensityOperator,
    DomainError,
    NumericalError,
    PureState,
    as_bipartition,
    cut_matrices,
    partial_transpose,
    trace_norm,
)

# Trace-norm rounding noise reported as exactly zero.
NEGATIVITY_CLAMP = 1e-10


def pure_negativities(mats: np.ndarray) -> np.ndarray:
    """p_k N(phi_k) for stacked cut matrices M_k = sqrt(p_k) (cut matrix of phi_k).

    With s the singular values of M_k, from one batched SVD, this is
    ||M_k||_*^2 - ||M_k||_F^2 = 2 sum_{i<j} s_i s_j, summed in the second
    form: its terms are nonnegative, so nothing cancels near product states.
    """
    s = np.linalg.svd(mats, compute_uv=False)
    return 2.0 * np.sum(s[..., 1:] * np.cumsum(s[..., :-1], axis=-1), axis=-1)


def _norm_sq(z: np.ndarray) -> np.ndarray:
    """Squared norms of the complex vectors along the last axis."""
    return np.einsum("...x,...x->...", z.real, z.real) + np.einsum("...x,...x->...", z.imag, z.imag)


def pure_concurrences(mats: np.ndarray) -> np.ndarray:
    """p_k C(phi_k) for a (k, d_a, d_b) stack of cut matrices M_k = sqrt(p_k) (cut matrix of phi_k).

    With G_k = M_k M_k^H, so that tr G_k = ||M_k||_F^2 = p_k, this is
    sqrt(2 ((tr G_k)^2 - tr G_k^2)).  The difference is twice the sum over
    pairs i < j of short-side rows a_i, a_j of M_k of
    ||a_i||^2 ||a_j||^2 - |<a_i, a_j>|^2 = ||a_i||^2 ||a_j - (<a_i, a_j> / ||a_i||^2) a_i||^2
    (0 where a_i = 0), summed in the second form: its terms are
    nonnegative, so nothing cancels near product states.  Each row a_i is
    taken against all later rows at once, so the cost is linear in the
    long side.
    """
    if mats.shape[-2] > mats.shape[-1]:
        mats = np.swapaxes(mats, -1, -2)
    sq = np.zeros(mats.shape[:-2])
    for i in range(mats.shape[-2] - 1):
        a, rest = mats[..., i, :], mats[..., i + 1 :, :]
        norm_sq = _norm_sq(a)
        coef = np.einsum("...rx,...x->...r", rest, a.conj()) / np.where(
            norm_sq > 0, norm_sq, np.inf
        )[..., None]
        sq += norm_sq * _norm_sq(rest - coef[..., None] * a[..., None, :]).sum(axis=-1)
    return 2.0 * np.sqrt(sq)


def concurrence_pure(phi: PureState, cut) -> float:
    """sqrt(2 (1 - tr rho_A^2)) for the marginal on side A of the cut."""
    return float(pure_concurrences(cut_matrices(phi.amplitudes, phi.profile, cut))[0])


def negativity_pure(phi: PureState, cut) -> float:
    """Pure-state negativity across a cut: (sum_i s_i)^2 - 1.

    The s_i are the singular values of the cut matrix, the roots of the
    Schmidt coefficients; this Schmidt form is the only one computed.  The
    value equals the partial-transpose negativity of the state's density
    operator and the squared root trace of its marginal minus one; the
    tests check both, so it raises no NumericalError.
    """
    return float(pure_negativities(cut_matrices(phi.amplitudes, phi.profile, cut))[0])


def negativity_mixed(rho: DensityOperator, cut) -> float:
    """Trace norm of the partial transpose minus one, clamped at zero."""
    cut = as_bipartition(cut, rho.profile.n)
    value = trace_norm(partial_transpose(rho, cut.side_b)) - 1.0
    if value < -NEGATIVITY_CLAMP:
        raise NumericalError(f"negativity {value} below the clamp threshold")
    return max(value, 0.0)


_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def wootters_concurrence_2q(rho: DensityOperator) -> float:
    """Exact concurrence of a two-qubit mixed state (spin-flip formula).

    For two-qubit states this is also the exact convex-roof extended
    negativity, since every two-qubit pure state has Schmidt rank <= 2.
    """
    if rho.profile.dims != (2, 2):
        raise DomainError(f"expected a (2, 2) profile, got {rho.profile.dims}")
    r = rho.matrix @ _SY_SY @ rho.matrix.conj() @ _SY_SY
    evals = np.sort(np.abs(np.real(np.linalg.eigvals(r))))
    roots = np.sqrt(evals)
    return float(max(0.0, roots[3] - roots[2] - roots[1] - roots[0]))
