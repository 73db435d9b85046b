"""Closed-form pure-state entanglement measures and mixed-state negativity.

Pure-state concurrence and negativity are functions of the Schmidt
coefficients alone (Vidal & Werner, PRA 65, 032314 (2002)), so both score
stacked cut matrices at once: a decomposition's members or a flatness
scan's samples.  Where a stack's short side is 2, every member has Schmidt
rank <= 2 and N = C = 2 s_1 s_2, twice the norm of its one 2x2 minor
(Mintert, Kus & Buchleitner, PRL 92, 167902 (2004)), which the two rows'
Gram-Schmidt data give in closed form (``two_row_gram``, the lines the
optimizer's two-row objective reads too); every other shape takes one
batched singular-value call.
Beside them: the concurrence floor and ceiling over a mixed state's range
(``range_bracket``), the trace-norm negativity of mixed states, a
density's roots on its local supports across a cut (``local_supports``),
and, where both supports are at most two-dimensional (``spin_flip_closes``,
the one test of that), the exact roof and assistance values
(``spin_flip_values``) and the Takagi form that gives their optimal
decompositions (``spin_flip_takagi``); there every member has Schmidt
rank <= 2, so the convex-roof extended negativity equals the
concurrence, and ``monogamy.pair_terms`` and ``convexroof.optimize_many``
read them for every such roof.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np

from .qlinalg import (
    Bipartition,
    DensityOperator,
    DomainError,
    NumericalError,
    PureState,
    as_bipartition,
    cut_matrices,
    memoized,
    norm_sq,
    partial_transpose,
    trace_norm,
)

# Trace-norm rounding noise reported as exactly zero.
NEGATIVITY_CLAMP = 1e-10
# The most weight of a marginal that its local support may leave out.  A
# support counts a direction only above it, far below TOL_RANK: exact
# W-class marginals leave out about 1e-33, and those moved off them by 1e-6
# about 1e-13, whose roofs would close about sqrt(1e-13) off if compressed.
SUPPORT_DROP = 1e-26


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """sum_{i<j} x_i x_j along the last axis, from the cumulative sums of x.

    For nonnegative x every term is nonnegative, so nothing cancels when
    all but one entry are near zero, as at product states.
    """
    return np.sum(x[..., 1:] * np.cumsum(x[..., :-1], axis=-1), axis=-1)


def two_row_gram(a: np.ndarray, b: np.ndarray):
    """Gram-Schmidt data (|a|^2, c, r, |r|^2) of the rows a, b of stacked 2 x d matrices.

    r = b - c a with c = <a,b>/|a|^2 (0 where a is 0), so det G = |a|^2
    |r|^2 for G = M M^H, free of the cancellation in |a|^2 |b|^2 -
    |<a,b>|^2, and s_1 s_2 = |a| |r|.
    """
    g = norm_sq(a)
    ab = np.sum(a.conj() * b, axis=-1)
    c = np.divide(ab, g, out=np.zeros_like(ab), where=g > 0.0)
    r = b - c[..., None] * a
    return g, c, r, norm_sq(r)


def _two_row_values(mats: np.ndarray) -> np.ndarray | None:
    """2 s_1 s_2 = 2 |a| |r| of each stacked matrix whose short side is 2, or None for other shapes.

    A (k, d, 2) stack is transposed first, which leaves its singular values.
    """
    if min(mats.shape[-2:]) != 2:
        return None
    if mats.shape[-2] != 2:
        mats = np.swapaxes(mats, -1, -2)
    g, _, _, rr = two_row_gram(mats[..., 0, :], mats[..., 1, :])
    return 2.0 * np.sqrt(g * rr)


def pure_negativities(mats: np.ndarray) -> np.ndarray:
    """p_k N(phi_k) for stacked cut matrices M_k = sqrt(p_k) (cut matrix of phi_k).

    With s the singular values of M_k this is ||M_k||_*^2 - ||M_k||_F^2 =
    2 sum_{i<j} s_i s_j: 2 s_1 s_2 in closed form where the short side is
    2, else from one batched SVD.
    """
    two_row = _two_row_values(mats)
    if two_row is not None:
        return two_row
    s = np.linalg.svd(mats, compute_uv=False)
    return 2.0 * _pair_sum(s)


def pure_concurrences(mats: np.ndarray) -> np.ndarray:
    """p_k C(phi_k) for stacked cut matrices M_k = sqrt(p_k) (cut matrix of phi_k).

    With s the singular values of M_k this is sqrt(2 ((tr G_k)^2 -
    tr G_k^2)) for G_k = M_k M_k^H, that is 2 sqrt(sum_{i<j} s_i^2 s_j^2):
    where the short side is 2, the closed form 2 s_1 s_2 that
    ``pure_negativities`` gives too; else from one batched SVD, summed from
    its nonnegative terms, never as the cancelling difference.
    """
    two_row = _two_row_values(mats)
    if two_row is not None:
        return two_row
    s = np.linalg.svd(mats, compute_uv=False)
    return 2.0 * np.sqrt(_pair_sum(s * s))


def minor_table(basis_mats: np.ndarray) -> np.ndarray:
    """The table A of the 2x2 minors of a range, one column per pair p <= q of its basis.

    ``basis_mats`` stacks the cut matrices B_p of an orthonormal basis of
    the range.  The concurrence of sum_p c_p B_p is twice the norm of its
    2x2 minors (Mintert, Kus & Buchleitner, PRL 92, 167902 (2004)), and
    those minors are sum_{p <= q} c_p c_q T_pq.  With y_pp = c_p^2 and
    y_pq = sqrt(2) c_p c_q (p < q) they are A y, where A holds the columns
    T_pp and T_pq / sqrt(2); a unit c gives ||y||^2 = (sum_p |c_p|^2)^2 = 1.
    A has C(d_a, 2) C(d_b, 2) rows and r (r + 1) / 2 columns at rank r.
    """
    r, d_a, d_b = basis_mats.shape
    (i, j), (k, l) = _pairs(d_a, 1), _pairs(d_b, 1)
    ik, il = basis_mats[:, i[:, None], k], basis_mats[:, i[:, None], l]
    jk, jl = basis_mats[:, j[:, None], k], basis_mats[:, j[:, None], l]
    # cross[p, q] holds the minors M_ik M_jl - M_il M_jk of the term c_p c_q (B_p, B_q):
    # T_pq = cross[p, q] + cross[q, p] for p < q, and that sum is 2 T_pp on the diagonal.
    cross = (ik[:, None] * jl - il[:, None] * jk).reshape(r, r, -1)
    p, q = _pairs(r, 0)
    return ((cross[p, q] + cross[q, p]) / np.where(p < q, np.sqrt(2.0), 2.0)[:, None]).T


def _pairs(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, offset)`` for offset 0 or 1, without its n x n mask."""
    pick = combinations if offset else combinations_with_replacement
    return tuple(np.array(list(pick(range(n), 2))).T)


def range_bracket(rho: DensityOperator, cut) -> tuple[float, float]:
    """A lower and an upper bound of the concurrence across the cut of every unit vector in the range of rho.

    Every member of every decomposition of rho lies in its range.  With A
    the ``minor_table`` of the range basis' cut matrices, every unit
    vector's concurrence is 2 ||A y|| for a unit y, and sigma_min(A) <=
    ||A y|| <= sigma_max(A).  So the floor 2 sigma_min(A) and the ceiling
    2 sigma_max(A), from one SVD, bracket the concurrence over the whole
    range, up to floating point; at rank 1 A is one column and both equal
    it.  When A has fewer rows than columns, that is r (r + 1) / 2 >
    C(d_a, 2) C(d_b, 2) at rank r, some unit y has A y = 0 and the floor
    is 0; the table is built all the same, since its ceiling still holds.
    """
    cut = as_bipartition(cut, rho.profile.n)
    table = minor_table(cut_matrices(rho.range_basis.T, rho.profile, cut))
    s = np.linalg.svd(table, compute_uv=False)
    # A wide A (fewer singular values than columns) maps some unit y to 0.
    floor = 0.0 if len(s) < table.shape[1] else 2.0 * float(s[-1])
    return floor, 2.0 * float(s[0])


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
    """Trace norm of the partial transpose minus one; within ``NEGATIVITY_CLAMP`` of 0, 0."""
    cut = as_bipartition(cut, rho.profile.n)
    value = trace_norm(partial_transpose(rho, cut.side_b)) - 1.0
    if value < -NEGATIVITY_CLAMP:
        raise NumericalError(f"negativity {value} below the clamp threshold")
    return value if value > NEGATIVITY_CLAMP else 0.0


def _support_frame(stacked: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns spanning the column space of ``stacked`` but for at most ``SUPPORT_DROP`` of its weight.

    The squared singular values of ``stacked`` are the spectrum of the
    marginal it factors; the smallest of them whose sum stays within
    ``SUPPORT_DROP`` are left out, but at least two columns are kept.
    None where that keeps every dimension: the side needs no frame.  The
    values come first, alone, so a full-support side takes no SVD with
    singular vectors.
    """
    d = stacked.shape[0]
    s = np.linalg.svd(stacked, compute_uv=False)
    # left_out[k]: the weight outside the top k directions, summed from the smallest.
    left_out = np.cumsum((s * s)[::-1])[::-1]
    k = max(2, int(np.sum(left_out > SUPPORT_DROP)))
    if k >= d:
        return None
    return np.linalg.svd(stacked, full_matrices=False)[0][:, :k]


def local_supports(rho: DensityOperator, cut) -> np.ndarray:
    """The roots of rho across the cut, as (rank, k_short, k_long) matrices on its local supports.

    Every member of every decomposition of rho lies in its range, so in
    supp(rho_A) (x) supp(rho_B), and local isometries change no pure-state
    measure: a roof is the roof of the roots on the supports.  Each side's
    support comes from a thin SVD of its stacked reshape of the roots
    R_j, [R_1 R_2 ...] for side A (the factor of rho_A), and with U_A, U_B
    orthonormal bases of the supports R_j becomes U_A^H R_j conj(U_B).  A
    side is compressed only where it has more than two dimensions and its
    support, of at least two, leaves out at most ``SUPPORT_DROP`` of the
    weight; every other side keeps its basis, so a full-support state's
    matrices are its roots' ``cut_matrices`` bit for bit, short side first
    (on a tie, party 1's).  A cut and its complement name one read-only,
    C-contiguous array, found once per density and kept in rho's memo, so
    every reader of it (the spin-flip values, the roof searches, flatness
    scans and ``monogamy.pair_terms``) shares one computation.
    """
    cut = as_bipartition(cut, rho.profile.n).canonical()
    return memoized(rho, ("local_supports", cut), lambda: _compressed_roots(rho, cut))


def _compressed_roots(rho: DensityOperator, cut: Bipartition) -> np.ndarray:
    # ``local_supports``' computation, for a cut with party 1 on side A.
    mats = cut_matrices(rho.roots, rho.profile, cut)
    _, d_a, d_b = mats.shape
    frame = _support_frame(np.swapaxes(mats, 0, 1).reshape(d_a, -1)) if d_a > 2 else None
    if frame is not None:
        mats = frame.conj().T @ mats
    frame = _support_frame(np.swapaxes(mats, 0, 2).reshape(d_b, -1)) if d_b > 2 else None
    if frame is not None:
        mats = mats @ frame.conj()
    # The nuclear norm is transpose invariant; put the short side first.
    if mats.shape[1] > mats.shape[2]:
        mats = np.swapaxes(mats, 1, 2)
    mats = np.ascontiguousarray(mats)
    # Read-only: every reader of rho's supports shares this one array.
    mats.setflags(write=False)
    return mats


def spin_flip_closes(mats: np.ndarray) -> bool:
    """Whether roots on their ``local_supports`` pose a spin-flip closed form: both supports at most two-dimensional.

    ``local_supports`` keeps at least two dimensions a side, so these are
    the (rank, 2, 2) matrices.  ``spin_flip_values``,
    ``monogamy.pair_terms`` and ``convexroof.optimize_many`` all take their
    closed forms by this one test.
    """
    return mats.shape[1:] == (2, 2)


_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def _spin_flip_matrix(mats: np.ndarray) -> np.ndarray:
    """tau = X (sy sy) X^T for the rows X of (rank, 2, 2) root matrices: the roots' spin-flip overlaps."""
    x = mats.reshape(len(mats), 4)
    return x @ _SY_SY @ x.T


def spin_flip_values(rho: DensityOperator, cut=1) -> tuple[float, float]:
    """Exact concurrence roof and concurrence of assistance of a state with two-dimensional local supports.

    Every two-qubit state qualifies, and so does every state whose
    ``local_supports`` across the cut are at most two-dimensional, such as
    the pair marginals of W-class states.  With lambda_i the square roots
    of the eigenvalues of rho (sy sy) rho* (sy sy) on the supports, in
    decreasing order, these are max(0, lambda_1 - sum_{i>=2} lambda_i)
    (Wootters, PRL 80, 2245 (1998)) and sum_i lambda_i (Laustsen,
    Verstraete & van Enk, QIC 3, 64 (2003)).  With X the roots on the
    supports (rho = X^T X^*, one row each), the lambda_i are the singular
    values of the symmetric X (sy sy) X^T (rank x rank), so one SVD gives
    both, with no non-Hermitian eigensolve and no D x D matrix.  Every
    member has Schmidt rank <= 2, so these are also the convex-roof
    extended negativity and its assistance dual.
    """
    cut = as_bipartition(cut, rho.profile.n)
    mats = local_supports(rho, cut)
    if not spin_flip_closes(mats):
        raise DomainError(f"local supports across {cut} are {mats.shape[1:]}, not at most 2 x 2")
    lam = np.linalg.svd(_spin_flip_matrix(mats), compute_uv=False)
    return float(max(0.0, lam[0] - np.sum(lam[1:]))), float(np.sum(lam))


def spin_flip_takagi(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi form tau = W diag(lambda) W^T of the spin-flip overlaps of (rank, 2, 2) root matrices.

    W is unitary and lambda descending, so the rows of W^H @ roots have
    spin-flip overlaps lambda_i and no others: their concurrences are
    lambda_i.  As a real-linear map of w = x + iy, w -> tau conj(w) is a
    real symmetric H of eigenvalues +-lambda_i: the Takagi vectors, tau
    conj(w) = lambda_i w, at +lambda_i, and i w at -lambda_i.  Shifted by
    2 lambda_1, the top singular value of tau, H is positive semidefinite,
    so the top singular vectors of its SVD are its top eigenvectors, the
    Takagi vectors, however lambda is degenerate (as on Werner states).
    The vector of a small lambda_i stays at least lambda_j apart from
    every i w_j but its own, and mixing w_i with i w_i only turns its
    phase.  A last polar step makes W unitary where lambda has zeros,
    whose vectors that SVD leaves mixed with their i w; the others it
    leaves as they are.
    """
    tau = _spin_flip_matrix(mats)
    rank = len(tau)
    lam = np.linalg.svd(tau, compute_uv=False)
    shift = 2.0 * lam[0] * np.eye(rank)
    h = np.block([[tau.real + shift, tau.imag], [tau.imag, shift - tau.real]])
    top = np.linalg.svd(h)[0][:, :rank]
    left, _, right_h = np.linalg.svd(top[:rank] + 1j * top[rank:])
    return left @ right_h, lam


def wootters_concurrence_2q(rho: DensityOperator) -> float:
    """Exact concurrence of a two-qubit mixed state: the roof of ``spin_flip_values``."""
    return spin_flip_values(rho)[0]
