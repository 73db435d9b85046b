"""Convex-roof engine for negativity over pure-state decompositions.

Every size-r pure-state decomposition of a density operator arises from an
r x r unitary acting on the spectral root vectors (the HJW chart); only its
first rank columns matter, an r x rank isometry V.  With R_j the roots
reshaped across the cut, the average negativity is
sum_k ||sum_j V_kj R_j||_*^2 - 1.

The minimization (convex-roof extended negativity) runs coordinate descent
over the unitary group, parametrized as a product of two-level complex
Givens rotations swept cyclically, with a bracketed one-dimensional search
per rotation angle and per phase.  The maximization (its assistance dual)
uses that the objective is convex in V: a batched polar ascent on the
isometries (the generalized power method of Journee, Nesterov, Richtarik
& Sepulchre, JMLR 11, 517 (2010)) raises it at every step.

Reported minima are upper bounds of the true minimum and reported maxima
are lower bounds of the true maximum; audits that need certified verdicts
must pair them with one-sided bounds (see ``monogamy``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import negativity_pure
from .qlinalg import (
    TOL_RANK,
    Bipartition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    NumericalError,
    PureState,
    as_bipartition,
)

ZERO_WEIGHT = 1e-14       # decomposition members below this weight are dropped
DEFAULT_SIZE_CAP = 16     # cap for the rank**2 default decomposition size
UNITARY_TOL = 1e-10


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class RootSet:
    """Unnormalized spectral root vectors sqrt(e_i) v_i of a density operator."""

    profile: DimensionProfile
    roots: np.ndarray  # (rank, D), one root per row

    @property
    def rank(self) -> int:
        return self.roots.shape[0]

    @classmethod
    def from_density(cls, rho: DensityOperator, tol: float = TOL_RANK) -> "RootSet":
        w, v = np.linalg.eigh(rho.matrix)
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        keep = w > tol
        roots = (v[:, keep] * np.sqrt(w[keep])).T
        return cls(rho.profile, roots)

    def reconstruct(self) -> np.ndarray:
        """Sum of |root><root| over the roots."""
        return np.einsum("ka,kb->ab", self.roots, self.roots.conj())


@dataclass(frozen=True)
class Decomposition:
    """Weights and normalized pure states reconstructing a density operator."""

    weights: np.ndarray
    states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != len(self.states):
            raise DomainError("weights and states must have matching lengths")
        if np.any(w <= 0.0):
            raise DomainError("weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-8:
            raise DomainError(f"weights sum to {w.sum()}, expected 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def size(self) -> int:
        return len(self.states)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.states[0].dim, self.states[0].dim), dtype=complex)
        for p, phi in zip(self.weights, self.states):
            out += p * np.outer(phi.amplitudes, phi.amplitudes.conj())
        return out


def _isometry_decomposition(roots: RootSet, v: np.ndarray) -> Decomposition:
    """Decomposition whose unnormalized members are the rows of v @ roots."""
    combos = v @ roots.roots
    weights = np.sum(np.abs(combos) ** 2, axis=1)
    keep = weights > ZERO_WEIGHT
    states = tuple(
        PureState(roots.profile, combos[k] / np.sqrt(weights[k]))
        for k in range(v.shape[0])
        if keep[k]
    )
    return Decomposition(weights[keep], states)


def decomposition_from_unitary(roots: RootSet, u: np.ndarray) -> Decomposition:
    """Decomposition realized by an r x r unitary on the (zero-padded) roots."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError(f"expected a square unitary, got shape {u.shape}")
    r = u.shape[0]
    if r < roots.rank:
        raise DomainError(f"unitary size {r} below the root count {roots.rank}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(r))))
    if dev > UNITARY_TOL:
        raise DomainError(f"matrix deviates from unitarity by {dev}")
    return _isometry_decomposition(roots, u[:, : roots.rank])


def average_negativity(dec: Decomposition, cut) -> float:
    """Weighted average pure-state negativity over the decomposition."""
    return float(
        sum(p * negativity_pure(phi, cut) for p, phi in zip(dec.weights, dec.states))
    )


@dataclass(frozen=True)
class OptConfig:
    """Search controls for the decomposition optimizer.

    ``size`` is the decomposition cardinality; the default rank**2 (capped
    at 16, floored at the rank) is adequate for convex roofs at this scale.
    ``max_sweeps`` caps the search of each start: for the minimum, sweeps of
    coordinate descent over every row pair; for the maximum, the polar
    ascent runs at most ``max_sweeps * size`` steps.  A start has converged
    when a sweep (minimum) or a step (maximum) gains no more than
    ``tol_rel * max(1, |value|)`` before that cap.
    """

    size: int | None = None
    starts: int = 8
    max_sweeps: int = 200
    tol_rel: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise DomainError("starts must be >= 1")
        if self.tol_rel <= 0.0:
            raise DomainError("tol_rel must be positive")
        if self.max_sweeps < 1:
            raise DomainError("max_sweeps must be >= 1")

    def resolve_size(self, rank: int) -> int:
        if self.size is not None:
            if self.size < rank:
                raise DomainError(f"decomposition size {self.size} below rank {rank}")
            return self.size
        return max(rank, min(rank * rank, DEFAULT_SIZE_CAP))


@dataclass(frozen=True)
class OptResult:
    """Best endpoint of the decomposition search."""

    value: float
    decomposition: Decomposition
    direction: str               # min | max
    objective_trace: tuple[float, ...]
    bound_kind: str              # upper_bound_of_min | lower_bound_of_max
    converged: bool
    best_start: int


# ---------------------------------------------------------------------------
# Fast nuclear-norm-squared kernels for the line searches
# ---------------------------------------------------------------------------


def _nuc2_gram(g: np.ndarray) -> np.ndarray:
    """(sum of sqrt eigenvalues)^2 for stacked Hermitian PSD matrices.

    Closed forms for sides 1-3 keep the optimizer's inner loop free of
    per-element LAPACK calls; larger sides fall back to eigvalsh.
    """
    a = g.shape[-1]
    if a == 1:
        return np.clip(g[..., 0, 0].real, 0.0, None)
    if a == 2:
        tr = g[..., 0, 0].real + g[..., 1, 1].real
        det = g[..., 0, 0].real * g[..., 1, 1].real - np.abs(g[..., 0, 1]) ** 2
        return tr + 2.0 * np.sqrt(np.maximum(det, 0.0))
    if a == 3:
        return _nuc2_gram_3(g)
    w = np.clip(np.linalg.eigvalsh(g), 0.0, None)
    return np.sum(np.sqrt(w), axis=-1) ** 2


def _nuc2_gram_3(g: np.ndarray) -> np.ndarray:
    # Trigonometric eigenvalues of stacked Hermitian 3x3 matrices.
    g00 = g[..., 0, 0].real
    g11 = g[..., 1, 1].real
    g22 = g[..., 2, 2].real
    g01 = g[..., 0, 1]
    g02 = g[..., 0, 2]
    g12 = g[..., 1, 2]
    q = (g00 + g11 + g22) / 3.0
    p1 = np.abs(g01) ** 2 + np.abs(g02) ** 2 + np.abs(g12) ** 2
    p2 = (g00 - q) ** 2 + (g11 - q) ** 2 + (g22 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.clip(p2 / 6.0, 0.0, None))
    safe = np.where(p > 1e-300, p, 1.0)
    b00, b11, b22 = (g00 - q) / safe, (g11 - q) / safe, (g22 - q) / safe
    b01, b02, b12 = g01 / safe, g02 / safe, g12 / safe
    det_b = (
        b00 * b11 * b22
        - b00 * np.abs(b12) ** 2
        - b11 * np.abs(b02) ** 2
        - b22 * np.abs(b01) ** 2
        + 2.0 * (b01 * b12 * np.conj(b02)).real
    )
    ang = np.arccos(np.clip(det_b / 2.0, -1.0, 1.0)) / 3.0
    e1 = q + 2.0 * p * np.cos(ang)
    e3 = q + 2.0 * p * np.cos(ang + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    s = (
        np.sqrt(np.clip(e1, 0.0, None))
        + np.sqrt(np.clip(e2, 0.0, None))
        + np.sqrt(np.clip(e3, 0.0, None))
    )
    return s * s


def _row_grams(rows: np.ndarray) -> np.ndarray:
    """Per-row Gram matrices of a (r, a, b) stack of matrices."""
    return rows @ np.conj(np.swapaxes(rows, -1, -2))


class _RoofSearch:
    """One optimization problem: roots reshaped across the cut, starts, pair sweeps."""

    def __init__(self, cut: Bipartition, size: int, roots: RootSet):
        self.rank = roots.rank
        self.size = size

        dims = roots.profile.dims
        order = cut.side_a + cut.side_b
        perm = [p - 1 for p in order]
        d_a = 1
        for p in cut.side_a:
            d_a *= dims[p - 1]
        d_b = roots.profile.size // d_a
        shaped = roots.roots.reshape((self.rank,) + dims).transpose([0] + [q + 1 for q in perm])
        mats = shaped.reshape(self.rank, d_a, d_b)
        # The nuclear norm only needs the Gram on the smaller side.
        if d_a > d_b:
            mats = np.swapaxes(mats, -1, -2)
        self.root_mats = np.ascontiguousarray(mats)

    def start(self, u0: np.ndarray | None) -> np.ndarray:
        """Initial (size, rank) combination matrix: padded identity, rotated by u0."""
        v = np.zeros((self.size, self.rank), dtype=complex)
        v[: self.rank, : self.rank] = np.eye(self.rank)
        if u0 is not None:
            v = u0 @ v
        return v

    def sweep_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in range(i + 1, self.size)]

    def pair_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = self.sweep_pairs()
        return (
            np.array([p[0] for p in pairs], dtype=int),
            np.array([p[1] for p in pairs], dtype=int),
        )


# Rows of very different weight put the improving rotations at very
# different angular scales, so the angle mesh is geometric rather than
# uniform; the phase period is pi because (theta, phi+pi) = (-theta, phi).
_THETA_LADDER = np.array([0.0015, 0.005, 0.015, 0.04, 0.1, 0.25, 0.55, 1.0, 1.47])
_THETA_COARSE = np.concatenate([-_THETA_LADDER[::-1], _THETA_LADDER])
_PHI_COARSE = np.linspace(0.0, np.pi, 9)[:-1]
_MESH_T, _MESH_P = (np.ascontiguousarray(m.ravel()) for m in np.meshgrid(_THETA_COARSE, _PHI_COARSE))

# Unit offsets for the local joint refinement meshes.
_FINE_T, _FINE_P = (
    np.ascontiguousarray(m.ravel())
    for m in np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 7))
)


def _pair_objective(a, bg, c, theta, phi):
    """Objective of rotating rows i, j by angle theta and phase phi.

    Row update: Mi' = cos t Mi - e^{i phi} sin t Mj,
                Mj' = e^{-i phi} sin t Mi + cos t Mj.
    """
    theta = np.asarray(theta, dtype=float)
    ct = np.cos(theta)
    st = np.sin(theta)
    w = np.exp(1j * np.asarray(phi, dtype=float))
    x = np.conj(w)[..., None, None] * c + w[..., None, None] * np.conj(np.swapaxes(c, -1, -2))
    c2 = (ct * ct)[..., None, None]
    s2 = (st * st)[..., None, None]
    cs = (ct * st)[..., None, None]
    gi = c2 * a - cs * x + s2 * bg
    gj = s2 * a + cs * x + c2 * bg
    return _nuc2_gram(gi) + _nuc2_gram(gj)


def _screen_pairs(mats, cache, idx_i, idx_j):
    """Best coarse-mesh objective for many pairs in one batched evaluation.

    Returns (best value per pair, current value per pair) so the caller can
    flag the pairs worth refining.  Uses the sweep-start rows, so a flagged
    pair is re-searched fresh before being applied.
    """
    mi = mats[idx_i]
    mj = mats[idx_j]
    mjh = np.conj(np.swapaxes(mj, -1, -2))
    a = (mi @ np.conj(np.swapaxes(mi, -1, -2)))[:, None]
    bg = (mj @ mjh)[:, None]
    c = (mi @ mjh)[:, None]
    vals = _pair_objective(a, bg, c, _MESH_T, _MESH_P)
    return vals.min(axis=1), cache[idx_i] + cache[idx_j]


def _optimize_pair(mats, cache, i, j, skip_tol):
    """Search one two-level rotation; apply it in place when it improves.

    Returns the rotation (cos, sin, phase factor) or None when no
    improving rotation was found.
    """
    mi, mj = mats[i], mats[j]
    a = mi @ mi.conj().T
    bg = mj @ mj.conj().T
    c = mi @ mj.conj().T
    f0 = cache[i] + cache[j]

    coarse = _pair_objective(a, bg, c, _MESH_T, _MESH_P)
    k = int(np.argmin(coarse))
    if coarse[k] >= f0 - skip_tol:
        return None
    theta, phi = float(_MESH_T[k]), float(_MESH_P[k])
    best = float(coarse[k])

    # Joint local meshes around the coarse winner, shrinking each round.
    # The angle bracket is proportional to the located angle because the
    # coarse ladder is geometric.  Tiny moves get a shallow refinement;
    # their rotation is nearly free to re-polish next sweep.
    rounds = 3 if f0 - best > 1e-6 * max(1.0, abs(f0)) else 1
    t_step = max(0.75 * abs(theta), 0.002)
    p_step = np.pi / 8.0
    for _ in range(rounds):
        mt = theta + t_step * _FINE_T
        mp = phi + p_step * _FINE_P
        vals = _pair_objective(a, bg, c, mt, mp)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best, theta, phi = float(vals[k]), float(mt[k]), float(mp[k])
        t_step /= 4.0
        p_step /= 3.0

    # Parabolic polish: the objective is locally quadratic near the bottom.
    xs = np.array([theta - t_step, theta, theta + t_step, theta, theta])
    ps = np.array([phi, phi, phi, phi - p_step, phi + p_step])
    fs = _pair_objective(a, bg, c, xs, ps)
    denom = fs[0] - 2.0 * fs[1] + fs[2]
    theta_c = theta + 0.5 * t_step * (fs[0] - fs[2]) / denom if denom > 0.0 else theta
    pden = fs[3] - 2.0 * fs[1] + fs[4]
    phi_c = phi + 0.5 * p_step * (fs[3] - fs[4]) / pden if pden > 0.0 else phi
    polish = _pair_objective(
        a, bg, c, np.array([theta_c, theta_c]), np.array([phi, phi_c])
    )
    kp = int(np.argmin(polish))
    if polish[kp] < best:
        best = float(polish[kp])
        theta = theta_c
        phi = phi if kp == 0 else phi_c
    k = int(np.argmin(fs))
    if fs[k] < best:
        best, theta, phi = float(fs[k]), float(xs[k]), float(ps[k])

    if f0 - best <= skip_tol:
        return None

    ct, st = np.cos(theta), np.sin(theta)
    w = complex(np.exp(1j * phi))
    new_i = ct * mi - w * st * mj
    new_j = np.conj(w) * st * mi + ct * mj
    mats[i], mats[j] = new_i, new_j
    grams = _row_grams(np.stack([new_i, new_j]))
    cache[i], cache[j] = (float(val) for val in _nuc2_gram(grams))
    return float(ct), float(st), w


def _run_start(problem: _RoofSearch, u0, max_sweeps, tol_rel):
    """Cyclic pair sweeps with batched screening and an active set.

    Each sweep screens its candidate pairs in one vectorized coarse-mesh
    pass and refines only the flagged ones.  After a productive sweep only
    pairs touching a changed row are revisited; convergence is declared
    only when a sweep over every pair makes no progress beyond the
    relative tolerance.
    """
    v = problem.start(u0)
    mats = np.tensordot(v, problem.root_mats, axes=(1, 0))
    cache = _nuc2_gram(_row_grams(mats)).astype(float)
    idx_i, idx_j = problem.pair_index_arrays()
    trace = [float(cache.sum()) - 1.0]
    converged = False
    full = True
    hot_rows: set[int] = set()
    for _ in range(max_sweeps):
        prev = trace[-1]
        if full:
            sel = np.arange(idx_i.size)
        else:
            hot = np.zeros(problem.size, dtype=bool)
            hot[list(hot_rows)] = True
            sel = np.flatnonzero(hot[idx_i] | hot[idx_j])
        skip_tol = max(1e-14, 1e-13 * abs(prev))
        touched: set[int] = set()
        if sel.size:
            best, f0 = _screen_pairs(mats, cache, idx_i[sel], idx_j[sel])
            gains = f0 - best
            flagged = np.flatnonzero(gains > skip_tol)
            # Refine the biggest movers first; the rest of the flagged
            # pairs are stale after those rotations and the active set
            # revisits them next sweep anyway.
            order = flagged[np.argsort(-gains[flagged], kind="stable")]
            cap = max(8, problem.size)
            for k in order[:cap]:
                i, j = int(idx_i[sel[k]]), int(idx_j[sel[k]])
                rot = _optimize_pair(mats, cache, i, j, skip_tol)
                if rot is None:
                    continue
                ct, st, w = rot
                vi = v[i].copy()
                v[i] = ct * vi - w * st * v[j]
                v[j] = np.conj(w) * st * vi + ct * v[j]
                touched.add(i)
                touched.add(j)
            if order.size > cap:
                for k in order[cap:]:
                    touched.add(int(idx_i[sel[k]]))
                    touched.add(int(idx_j[sel[k]]))
        cur = float(cache.sum()) - 1.0
        trace.append(cur)
        stalled = abs(prev - cur) <= tol_rel * max(1.0, abs(cur))
        if stalled and full:
            converged = True
            break
        if touched and not stalled:
            hot_rows = touched
            full = False
        else:
            full = True
    return v, trace, converged


def _polar_ascent(problem: _RoofSearch, v: np.ndarray, max_steps: int, tol_rel: float):
    """Batched generalized power iteration for the maximum, all starts at once.

    f(V) = sum_k ||M_k||_*^2 with M_k = sum_j V_kj R_j is convex in V, so
    with G its gradient, f(V') >= f(V) + Re<G, V' - V>, and the isometry
    maximizing Re<G, V'> -- the polar factor of G -- never lowers f: each
    step ascends with no step size to choose.  A start stops once a step
    gains no more than the relative tolerance.

    ``v`` holds one (size, rank) isometry per start.  Returns the best
    start's isometry, objective trace and convergence flag, and its index.
    """
    rank, d_a, d_b = problem.root_mats.shape
    roots = problem.root_mats.reshape(rank, d_a * d_b)
    roots_h = roots.conj().T
    v = v.copy()
    n_starts, size, _ = v.shape

    def value_and_gradient(w):
        mats = (w @ roots).reshape(w.shape[0], size, d_a, d_b)
        u, sv, wh = np.linalg.svd(mats, full_matrices=False)
        nuc = sv.sum(axis=-1)
        # d||M_k||_* = Re tr(W_k U_k^H dM_k), so df/dV_kj = 2 ||M_k||_* tr(R_j^H U_k W_k^H).
        polar = (u @ wh).reshape(w.shape[0], size, d_a * d_b)
        return np.sum(nuc * nuc, axis=-1) - 1.0, 2.0 * nuc[..., None] * (polar @ roots_h)

    f, grad = value_and_gradient(v)
    traces = [[float(x)] for x in f]
    converged = np.zeros(n_starts, dtype=bool)
    live = np.arange(n_starts)
    for _ in range(max_steps):
        a, _, bh = np.linalg.svd(grad, full_matrices=False)
        v[live] = a @ bh
        f_new, grad = value_and_gradient(v[live])
        for k, s in enumerate(live):
            traces[s].append(float(f_new[k]))
        stalled = f_new - f <= tol_rel * np.maximum(1.0, np.abs(f_new))
        converged[live[stalled]] = True
        live, f, grad = live[~stalled], f_new[~stalled], grad[~stalled]
        if not live.size:
            break
    final = np.array([t[-1] for t in traces])
    best = int(np.flatnonzero(final >= final.max() - 1e-15)[0])
    return v[best], traces[best], bool(converged[best]), best


def optimize(
    rho: DensityOperator,
    cut,
    direction: str,
    cfg: OptConfig | None = None,
) -> OptResult:
    """Minimize or maximize average negativity over pure-state decompositions.

    Both directions search the HJW chart from the same starts and are
    deterministic for a fixed seed: the first start is the spectral
    decomposition itself, the others are Haar-random unitaries.  The
    minimum runs coordinate descent over two-level rotations from each
    start in turn, at most ``max_sweeps`` sweeps over all row pairs.  The
    maximum runs a batched polar ascent over all starts at once, at most
    ``max_sweeps * size`` steps (one sweep visits every row).
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    cfg = cfg or OptConfig()
    cut = as_bipartition(cut, rho.profile.n)
    roots = RootSet.from_density(rho)
    if roots.rank < 1:
        raise DomainError("density operator has numerical rank 0")
    size = cfg.resolve_size(roots.rank)
    problem = _RoofSearch(cut, size, roots)
    rng = np.random.default_rng(cfg.seed)
    starts = [None] + [haar_unitary(size, rng) for _ in range(cfg.starts - 1)]

    if direction == "max":
        v0 = np.stack([problem.start(u0) for u0 in starts])
        v, trace, converged, best_start = _polar_ascent(
            problem, v0, cfg.max_sweeps * size, cfg.tol_rel
        )
    else:
        best = None
        for start, u0 in enumerate(starts):
            v, trace, converged = _run_start(problem, u0, cfg.max_sweeps, cfg.tol_rel)
            key = trace[-1]
            if best is None or key < best[0] - 1e-15:
                best = (key, v, trace, converged, start)
        _, v, trace, converged, best_start = best

    dec = _isometry_decomposition(roots, v)
    recon_dev = float(np.max(np.abs(dec.reconstruct() - rho.matrix)))
    if recon_dev > 1e-8:
        raise NumericalError(f"decomposition reconstruction off by {recon_dev}")
    return OptResult(
        value=average_negativity(dec, cut),
        decomposition=dec,
        direction=direction,
        objective_trace=tuple(trace),
        bound_kind="upper_bound_of_min" if direction == "min" else "lower_bound_of_max",
        converged=converged,
        best_start=best_start,
    )


def cren(rho: DensityOperator, cut, cfg: OptConfig | None = None) -> float:
    """Convex-roof extended negativity (an upper bound of the true minimum)."""
    return optimize(rho, cut, "min", cfg).value


def crenoa(rho: DensityOperator, cut, cfg: OptConfig | None = None) -> float:
    """Assistance dual of CREN (a lower bound of the true maximum)."""
    return optimize(rho, cut, "max", cfg).value


@dataclass(frozen=True)
class FlatnessResult:
    """Mean and spread of the average negativity over sampled decompositions."""

    mean: float
    max_abs_dev: float
    samples: int


def flatness_scan(
    rho: DensityOperator,
    cut,
    samples: int,
    seed: int = 0,
    size: int | None = None,
) -> FlatnessResult:
    """Average negativity over random HJW decompositions of the given size.

    A max_abs_dev at rounding level certifies (numerically) that the
    decomposition landscape is flat, i.e. the convex roof is decomposition
    independent for this state and cut.
    """
    if samples < 2:
        raise DomainError("flatness_scan needs at least 2 samples")
    cut = as_bipartition(cut, rho.profile.n)
    roots = RootSet.from_density(rho)
    r = size if size is not None else roots.rank
    if r < roots.rank:
        raise DomainError(f"size {r} below rank {roots.rank}")
    rng = np.random.default_rng(seed)
    values = np.empty(samples)
    for k in range(samples):
        dec = decomposition_from_unitary(roots, haar_unitary(r, rng))
        values[k] = average_negativity(dec, cut)
    mean = float(values.mean())
    return FlatnessResult(mean=mean, max_abs_dev=float(np.max(np.abs(values - mean))), samples=samples)
