"""Convex-roof engine for negativity over pure-state decompositions.

Every size-r pure-state decomposition of a density operator arises from an
r x r unitary acting on the spectral root vectors (the HJW chart); only its
first rank columns matter, an r x rank isometry V, and the rows of
V @ roots are the members sqrt(p_k) phi_k that a ``Decomposition`` holds.
With R_j the roots reshaped across the cut, the average negativity is
sum_k ||sum_j V_kj R_j||_*^2 - 1.  The roots are ``DensityOperator.roots``,
which the operator holds from its one decomposition at construction, so
the searches, ``flatness_scan`` and ``measures.range_bracket`` share it, and
``rank()`` sizes the chart with the same rank decision.

Both directions run all starts at once on the isometries (the Stiefel
manifold, as in Rothlisberger, Lehmann & Loss, PRA 80, 042301 (2009)) and
share one objective evaluator: a batched SVD of the stacked cut matrices
gives the smoothed value, the unsmoothed one being its mu = 0 case, and,
from the same factors, the gradient of only the rows a search steps from.
Where the short side of the cut is 2, the objective at every smoothing
(every ascent step and every stage of the descent) comes in closed form
from each member's 2 x 2 Gram data instead.
The minimization (convex-roof extended negativity) is a
Barzilai-Borwein gradient descent on the manifold (Wen & Yin, Math.
Program. 142, 397 (2013)) over nuclear norms smoothed as
sum_i sqrt(s_i^2 + mu^2), with mu shrunk to zero in stages so that the
search does not stall where singular values vanish.  The maximization
(its assistance dual) uses that the objective is convex in V: a polar
ascent (the generalized power method of Journee, Nesterov, Richtarik &
Sepulchre, JMLR 11, 517 (2010)) raises it at every step.  Its first
steps are plain polar steps; a start still live after them takes
Nesterov-extrapolated steps, redone as plain ones (with the momentum
restarted) wherever they gain too little, and it has converged only once a
plain step gains no more than the tolerance.

Every problem first has its roots compressed onto their local supports
across the cut (``measures.local_supports``, which the density keeps,
short side first), so a search runs on root matrices no larger than the
supports, and a cut and its complement run one search.  A problem whose
supports are both at most two-dimensional (every two-qubit state, and the
pair marginals of W-class states) runs no search: its optimal decomposition is explicit.
With tau = W diag(lambda) W^T the Takagi form of the roots' spin-flip
overlaps (``measures.spin_flip_takagi``), the rows of W^H @ roots have
concurrences lambda_i, and N = C on every member, so they give the
maximum, sum_i lambda_i (Laustsen, Verstraete & van Enk, QIC 3, 64
(2003)).  For the minimum the rows are phased so that their overlaps are
(lambda_1, -lambda_2, ...), or, where lambda_1 <= sum_{i>=2} lambda_i,
sum to zero, and mixed by a real 2 x 2 or 4 x 4 Hadamard, so that every
member carries C / size of Wootters' C = max(0, lambda_1 - sum_{i>=2}
lambda_i) (PRL 80, 2245 (1998)).  Such a result has one start
(``best_start`` 0), whose trace and ``start_values`` are its value alone,
and is converged; its value is the members' average negativity, as a
search's is.  ``monogamy.pair_terms`` settles every such row from
``measures.spin_flip_values`` and poses it no problem, so this closed form
serves direct ``optimize`` calls alone: library users, and perfbench's
roof corpus and its ``best_known.py``.

``optimize_many`` is the one entry point of both searches: it stacks the
roots of the problems of one shape, with each start's problem beside it,
and runs all their starts in one search, so a hunt or an audit pays the
Python and LAPACK call overhead once per step rather than once per
problem.  A lone problem is a stack of one, in the same layout.  Every
start steps as it would alone, so batched results are bit for bit those
of ``optimize``, its one-problem call.  A caller may pass a stop rule
that ends minimum searches whose outcome it no longer needs
(``monogamy.hunt`` alone does, once a trial's verdict is proven); a
stopped search returns no result, and every search the rule leaves
running still gets its results bit for bit.  Each Haar sample set (a
search's starts, a flatness scan) is one ``haar_unitaries`` draw.

Reported minima are upper bounds of the true minimum and reported maxima
are lower bounds of the true maximum; ``monogamy.pair_terms`` labels them
so and pairs them with one-sided bounds for certified verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    local_supports,
    pure_negativities,
    spin_flip_closes,
    spin_flip_takagi,
    two_row_gram,
)
from .qlinalg import (
    DensityOperator,
    DimensionProfile,
    DomainError,
    NumericalError,
    PureState,
    as_bipartition,
    cut_matrices,
    norm_sq,
    require_integer,
)

ZERO_WEIGHT = 1e-14       # decomposition members below this weight are dropped
DEFAULT_SIZE_CAP = 16     # cap for the rank**2 default decomposition size
UNITARY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8  # most a result's isometry deviates from one, and most weight it drops


def haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) Haar unitaries from one stacked QR with R's phases
    divided out (Mezzadri, Notices AMS 54, 592 (2007)).  Each sample draws its
    real block, then its imaginary one: the stream, bit for bit, of ``count``
    successive ``haar_unitary(dim, rng)`` calls."""
    z = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)[:, None, :]
    return q * (d / np.abs(d))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary, the one-item call of ``haar_unitaries``."""
    return haar_unitaries(1, dim, rng)[0]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A pure-state decomposition: ``members`` is the read-only (k, D) array of
    rows sqrt(p_k) phi_k, whose outer products sum to the density.  Equality
    is identity."""

    profile: DimensionProfile
    members: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.members, dtype=complex)
        if m.ndim != 2 or m.shape[1] != self.profile.size:
            raise DomainError(f"members have shape {m.shape}, expected (k, {self.profile.size})")
        if not np.isfinite(m).all():
            raise DomainError("members have non-finite entries")
        w = norm_sq(m)
        if not np.all(w > 0.0):
            raise DomainError("weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-8:
            raise DomainError(f"weights sum to {w.sum()}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @property
    def weights(self) -> np.ndarray:
        return norm_sq(self.members)

    @property
    def states(self) -> tuple[PureState, ...]:
        """The normalized phi_k, built on each read."""
        norms = np.sqrt(self.weights)
        return tuple(PureState(self.profile, m / r) for m, r in zip(self.members, norms))

    def reconstruct(self) -> np.ndarray:
        return self.members.T @ self.members.conj()


def _isometry_members(rho: DensityOperator, v: np.ndarray) -> tuple[np.ndarray, float]:
    """The rows of v @ rho.roots above ``ZERO_WEIGHT``, and the weight of those dropped."""
    combos = v @ rho.roots
    weights = norm_sq(combos)
    kept = weights > ZERO_WEIGHT
    return combos[kept], float(np.sum(weights[~kept]))


def decomposition_from_unitary(rho: DensityOperator, u: np.ndarray) -> Decomposition:
    """Decomposition realized by an r x r unitary on the (zero-padded) spectral roots.

    Its members are the rows of u[:, :rank] @ rho.roots, each sqrt(p_k)
    phi_k; members of weight below ``ZERO_WEIGHT`` are dropped.  The
    identity gives the spectral decomposition itself.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError(f"expected a square unitary, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise DomainError("unitary has non-finite entries")
    r, rank = u.shape[0], rho.rank()
    if r < rank:
        raise DomainError(f"unitary size {r} below the root count {rank}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(r))))
    if dev > UNITARY_TOL:
        raise DomainError(f"matrix deviates from unitarity by {dev}")
    return Decomposition(rho.profile, _isometry_members(rho, u[:, :rank])[0])


def average_negativity(dec: Decomposition, cut) -> float:
    """Weighted average pure-state negativity over the decomposition.

    One ``pure_negativities`` call scores all members, p_k N(phi_k) each.
    """
    mats = cut_matrices(dec.members, dec.profile, cut)
    return float(pure_negativities(mats).sum())


def require_seed(seed) -> None:
    """Raise DomainError unless ``seed`` is an integer, not a bool, and at least 0.

    The one seed rule of every entry that takes a seed: ``OptConfig``, the audits
    (each row's), ``hunt``, ``flatness_scan``, ``analytic_w_audit`` and ``cli.main``.
    """
    require_integer("seed", seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class OptConfig:
    """Search controls for the decomposition optimizer.

    ``size`` is the decomposition cardinality; the default rank**2 (capped
    at 16, floored at the rank) is adequate for convex roofs at this scale.
    ``max_sweeps * size`` caps the steps of each start: of the polar
    ascent for the maximum, and of each of the eight smoothing stages of
    the descent for the minimum, so at most 8 * max_sweeps * size steps in
    all.  A maximum has converged when a plain polar step gains no more
    than ``tol_rel * max(1, |value|)`` before that cap; a minimum when a step of
    its last, unsmoothed stage does, or when that stage finds it
    stationary.  ``size`` (unless None), ``starts``, ``max_sweeps`` and
    ``seed`` are integers, not bools, the counts at least 1 and ``seed``
    nonnegative; a ``size`` below the rank is caught only where a problem
    is posed (``resolve_size``).
    """

    size: int | None = None
    starts: int = 8
    max_sweeps: int = 200
    tol_rel: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        counts = (("size",) if self.size is not None else ()) + ("starts", "max_sweeps")
        for name in counts:
            require_integer(name, getattr(self, name))
        require_seed(self.seed)
        for name in counts:
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.tol_rel <= 0.0:
            raise DomainError("tol_rel must be positive")
        if not math.isfinite(self.tol_rel):
            raise DomainError(f"tol_rel must be finite, got {self.tol_rel}")

    def resolve_size(self, rank: int) -> int:
        if self.size is not None:
            if self.size < rank:
                raise DomainError(f"decomposition size {self.size} below rank {rank}")
            return self.size
        return max(rank, min(rank * rank, DEFAULT_SIZE_CAP))


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best point a decomposition search reached at its end.  Equality is identity."""

    value: float
    decomposition: Decomposition
    direction: str               # min | max
    objective_trace: tuple[float, ...]
    converged: bool
    best_start: int
    start_values: tuple[float, ...]  # final objective of every start, in start order


def _starts(cfg: OptConfig, rank: int) -> np.ndarray:
    """The (starts, size, rank) stack of start isometries of one problem.

    The first is the padded identity, the spectral decomposition itself;
    the others rotate it by one ``haar_unitaries`` draw from ``cfg.seed``.
    """
    size = cfg.resolve_size(rank)
    rotations = haar_unitaries(cfg.starts - 1, size, np.random.default_rng(cfg.seed))
    return np.concatenate([np.eye(size, rank, dtype=complex)[None], rotations[:, :, :rank]])


# Two-row members with s_2 <= about 1e-12 s_1 count as rank one.
_RANK_ONE = 1e-12


def _two_row_roof(mats: np.ndarray, mu: float):
    """Smoothed and exact squared nuclear norms of stacked 2 x d matrices, with no SVD.

    For rows a and b, Gram-Schmidt (``measures.two_row_gram``, which the
    pure kernels read too) gives r = b - c a with c = <a,b>/|a|^2, so
    det G = |a|^2 |r|^2 (G = M M^H) comes free of the cancellation in
    det G.  With q = sqrt(det(G + mu^2 I)) = sqrt(|a|^2 |r|^2 +
    mu^2 ||M||_F^2 + mu^4), the smoothed norm sum_i sqrt(s_i^2 + mu^2) has
    square ||M||_F^2 + 2 mu^2 + 2 q, and its gradient
    2 ||M||_mu (G + mu^2 I)^(-1/2) M is 2 ((1 + mu^2 / q) M + adj(G) M / q),
    where adj(G) M has rows |r|^2 a - conj(c) |a|^2 r and |a|^2 r.  The
    exact square ||M||_F^2 + 2 |a| |r| is the mu = 0 value; a zero member
    scores 4 mu^2 with zero gradient, as the SVD gives.  Returns
    (smoothed, exact, gradient): ``gradient(keep)`` forms the smoothed
    square's gradient of the rows ``keep`` (all by default) from this data.

    For mu >= 1e-8, q >= mu ||M||_F keeps every member of a trace-one
    decomposition (||M||_F <= 1) off the rank-one test.  At mu = 0, on a rank-one member (q <= _RANK_ONE * ||M||_F^2)
    the adjugate term vanishes, and a polar ascent started on product
    members would never leave them; those members take the SVD's
    subgradient, whose second singular pair points off the product.
    """
    a, b = mats[..., 0, :], mats[..., 1, :]
    g, c, r, rr = two_row_gram(a, b)
    fro = g + norm_sq(b)
    det, mu2 = g * rr, mu * mu
    q = np.sqrt(det + mu2 * fro + mu2 * mu2)

    def gradient(keep=slice(None)):
        m, q_k, fro_k = mats[keep], q[keep], fro[keep]
        rank_one = q_k <= _RANK_ONE * fro_k
        inv = np.divide(1.0, q_k, out=np.zeros_like(q_k), where=~rank_one)
        grad = np.empty_like(m)  # adj(G) M / q, then plus the scaled M, then doubled
        grad[..., 1, :] = (g[keep] * inv)[..., None] * r[keep]
        grad[..., 0, :] = (rr[keep] * inv)[..., None] * a[keep] - c[keep].conj()[..., None] * grad[..., 1, :]
        # At mu = 0 the scale 1 + mu^2 / q is 1 and the smoothed square is the
        # exact one, so every polar-ascent step skips both.
        grad += (1.0 + mu2 * inv)[..., None, None] * m if mu else m
        grad *= 2.0
        odd = rank_one & (fro_k > 0.0)
        if odd.any():
            u, sv, wh = np.linalg.svd(m[odd], full_matrices=False)
            grad[odd] = 2.0 * sv.sum(axis=-1)[..., None, None] * (u @ wh)
        return grad

    smoothed = fro + 2.0 * mu2 + 2.0 * q
    return smoothed, fro + 2.0 * np.sqrt(det) if mu else smoothed, gradient


def _objective(root_mats: np.ndarray, problem_of: np.ndarray):
    """Batched objective sum_k ||M_k||_*^2 - 1, M_k = sum_j V_kj R_j: values first, gradients on request.

    ``root_mats`` is the (problems, rank, d_a, d_b) stack of the problems'
    root matrices and ``problem_of`` gives the problem of each start.
    ``evaluate(v, rows, mu)`` takes the (size, rank) isometries of the
    starts ``rows`` and returns (f_mu, exact, gradient) of the stacked M_k,
    each built from its own start's roots (a lone problem's serve every
    start in one product).  f_mu replaces each nuclear norm by the smoothed
    sum_i sqrt(s_i^2 + mu^2), an upper bound equal to it at mu = 0, and
    exact is the unsmoothed value.  ``gradient(keep)`` forms the Euclidean
    gradient of f_mu of the rows ``keep`` (a mask; all by default) from the
    factors of the values: a row the caller discards costs its value alone,
    and a kept row's gradient is bit for bit its gradient among all rows.

    One batched SVD of the M_k gives them, except when the short side,
    which ``measures.local_supports`` puts first, is 2 (d_a = 2).  There
    ``_two_row_roof`` gives the smoothed and exact values and the gradient
    in closed form from each member's two rows, at every mu, with no SVD
    but for rank-one members at mu = 0.  It agrees with
    the SVD to rounding; the descent's endpoints on the hardest two-qubit
    states turn on such rounding, so they differ from the SVD's.
    """
    d_a, d_b = root_mats.shape[-2:]
    roots = root_mats.reshape(*root_mats.shape[:-2], d_a * d_b)
    # Laid out as its gathered copies, so that a lone problem's one product
    # gives each row what the gathered products give it (TestOptimizeMany
    # compares the two bit for bit).
    roots_h = np.ascontiguousarray(np.conj(np.swapaxes(roots, -1, -2)))
    lone = len(roots) == 1

    def evaluate(v, rows, mu=0.0):
        n, size, rank = v.shape
        if lone:  # one product for all starts
            mats = (v.reshape(n * size, rank) @ roots[0]).reshape(n, size, d_a, d_b)
        else:  # gather each start's own roots; take is cheaper than fancy indexing here
            own = problem_of.take(rows)
            mats = (v @ roots.take(own, axis=0)).reshape(n, size, d_a, d_b)

        def back(m, keep):  # the kept rows' member gradients m, times their roots' adjoints
            if lone:
                return (m.reshape(-1, d_a * d_b) @ roots_h[0]).reshape(-1, size, rank)
            return m.reshape(-1, size, d_a * d_b) @ roots_h.take(own[keep], axis=0)

        if d_a == 2:
            nuc_sq_mu, nuc_sq, grad = _two_row_roof(mats, mu)
            f_mu = nuc_sq_mu.sum(axis=-1) - 1.0
            exact = nuc_sq.sum(axis=-1) - 1.0 if mu else f_mu
            return f_mu, exact, lambda keep=slice(None): back(grad(keep), keep)
        u, sv, wh = np.linalg.svd(mats, full_matrices=False)
        nuc = sv.sum(axis=-1)
        smooth = np.sqrt(sv * sv + mu * mu)
        nuc_mu = smooth.sum(axis=-1)

        def gradient(keep=slice(None)):
            # df/dV_kj = 2 ||M_k||_mu tr(R_j^H U_k D_k W_k^H), D_k = diag(s_i / sqrt(s_i^2 + mu^2));
            # at mu = 0, D_k = 1 on every singular pair, a zero one too: the subgradient U_k W_k^H.
            sv_k, smooth_k = sv[keep], smooth[keep]
            ratio = np.divide(sv_k, smooth_k, out=np.ones_like(sv_k), where=smooth_k > 0)
            return 2.0 * nuc_mu[keep][..., None] * back((u[keep] * ratio[..., None, :]) @ wh[keep], keep)

        return (nuc_mu * nuc_mu).sum(axis=-1) - 1.0, (nuc * nuc).sum(axis=-1) - 1.0, gradient

    return evaluate


def _traces(first: np.ndarray, log) -> list[np.ndarray]:
    """Per-start objective traces: a start's first value, then its logged values in order.

    ``log`` holds the (starts, values) pairs a search recorded, in order.
    """
    starts = np.concatenate([np.arange(first.size)] + [s for s, _ in log])
    values = np.concatenate([first] + [x for _, x in log])
    order = np.argsort(starts, kind="stable")
    ends = np.cumsum(np.bincount(starts, minlength=first.size))
    return np.split(values[order], ends[:-1])


def _polar(a: np.ndarray) -> np.ndarray:
    """Polar factors (nearest isometries) of stacked matrices."""
    left, _, right_h = np.linalg.svd(a, full_matrices=False)
    return left @ right_h


_PLAIN_STEPS = 16  # polar-ascent steps before a live start extrapolates


def _polar_ascent(evaluate, v: np.ndarray, max_steps: int, tol_rel: float):
    """Batched generalized power iteration for the maximum, all starts at once.

    f(V) = sum_k ||M_k||_*^2 with M_k = sum_j V_kj R_j is convex in V, so
    with G its gradient, f(V') >= f(V) + Re<G, V' - V>, and the isometry
    maximizing Re<G, V'> -- the polar factor P of G -- never lowers f:
    each plain step V' = P ascends with no step size to choose.

    Every step goes to Y = polar(P + beta (P - P_prev)), P_prev the
    start's previous P, with Nesterov's beta = (t_k - 1) / t_{k+1} and
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2; at t = 1, beta = 0 and Y is P.
    The first ``_PLAIN_STEPS`` steps hold t at 1, so they are plain steps,
    and only a start still live after them (gaining at a linear rate)
    extrapolates.  Where Y gains no more than the relative tolerance, or
    loses, the start takes P instead and t restarts at 1 (adaptive restart:
    O'Donoghue & Candes, Found. Comput. Math. 15, 715 (2015)).  So values
    never fall, and a start stops, converged, only once a plain step gains
    no more than the tolerance.  Only the starts that go on get a gradient,
    of the point they took: a redone extrapolation costs its value alone.

    ``v`` holds one (size, rank) isometry per start.  Returns every start's
    final isometry, objective trace and convergence flag.
    """
    v = v.copy()
    live = np.arange(v.shape[0])
    f, _, gradient = evaluate(v, live)
    grad, first, log = gradient(), f, []
    del gradient
    converged = np.zeros(v.shape[0], dtype=bool)
    t, prev = np.ones(v.shape[0]), np.empty_like(v)
    for step in range(max_steps):
        p = _polar(grad)
        t_next = 0.5 + np.sqrt(0.25 + t[live] ** 2)
        beta = (t[live] - 1.0) / t_next
        moving = beta > 0.0
        y = p.copy()
        if moving.any():
            y[moving] = _polar(p[moving] + beta[moving, None, None] * (p[moving] - prev[live[moving]]))
        f_new, _, gradient = evaluate(y, live)
        redo = moving & (f_new - f <= tol_rel * np.maximum(1.0, np.abs(f_new)))
        if redo.any():
            y[redo] = p[redo]
            f_new[redo], _, redone = evaluate(p[redo], live[redo])
        v[live], prev[live] = y, p
        t[live] = np.where(redo | (step < _PLAIN_STEPS), 1.0, t_next)
        log.append((live, f_new))
        stalled = f_new - f <= tol_rel * np.maximum(1.0, np.abs(f_new))
        converged[live[stalled]] = True
        go = ~stalled
        live, f = live[go], f_new[go]
        if not live.size:
            break
        # Only the starts that go on need a gradient, each at the point it took;
        # then the factors are let go before the next evaluation.
        if not redo.any():
            grad = gradient(go) if stalled.any() else gradient()
        else:
            grad, took_p = np.empty((live.size, *v.shape[1:]), dtype=complex), redo[go]
            grad[~took_p] = gradient(go & ~redo)
            grad[took_p] = redone(go[redo])
            del redone
        del gradient
    return v, _traces(first, log), converged


# Smoothing continuation of the descent: without smoothing it stalls at the
# kinks where singular values vanish, and mu shrinks ten-fold a stage
# (Chen, Math. Program. 134, 71 (2012)) so that no start meets the exact
# stage far from its minimum.  Smoothed stages only steer the iterate, so
# they stop at a loose relative gain.
_SMOOTHING = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.0)
_STAGE_TOL = 1e-6
# Armijo sufficient decrease with a rounding slack (flat steps would
# otherwise backtrack until the step underflows), and the BB step range.
_ARMIJO = 1e-4
_ARMIJO_SLACK = 1e-14
_BACKTRACK = 0.3
_MAX_BACKTRACKS = 60
_FIRST_STEP = 0.05
_STEP_RANGE = (1e-6, 10.0)


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space of the isometries at v."""
    vg = np.conj(np.swapaxes(v, -1, -2)) @ g
    return g - v @ (0.5 * (vg + np.conj(np.swapaxes(vg, -1, -2))))


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real Frobenius inner products Re tr(a^H b) of stacked matrices."""
    return (np.conj(a) * b).real.sum(axis=(-2, -1))


def _descent(evaluate, v: np.ndarray, max_steps: int, tol_rel: float, halt=None):
    """Batched Riemannian gradient descent for the minimum, all starts at once.

    Each of the eight stages minimizes the objective with its nuclear norms
    smoothed by one mu of ``_SMOOTHING`` (1e-2 down to 1e-8 ten-fold, then
    0), by Barzilai-Borwein steps on the isometries (Wen & Yin, Math.
    Program. 142, 397 (2013)): the Euclidean gradient is projected on the
    tangent space, the step is retracted by the polar factor, and an
    Armijo test backtracks it; a trial step that the test rejects costs its
    value alone, and only a stage's starts and accepted steps get a
    gradient.  The stage tolerance is ``_STAGE_TOL`` (smoothed stages) or
    ``tol_rel`` (the exact last stage), relative to the value.  A start
    whose first trial step could gain no more than it,
    _FIRST_STEP * |projected gradient|^2, takes no step in the stage;
    otherwise the stage runs at most ``max_steps`` steps and stops the
    start once a step gains no more than it.

    Traces record the best exact value reached, so they never rise, and the
    returned isometry is the iterate that reached it.  A start has
    converged when its exact stage stopped on the tolerance before the cap,
    or took no step there.

    ``halt``, if given, is called with every start's best exact value
    before each step and returns a mask of the starts to stop; those take
    no further step or evaluation in any stage.
    Returns every start's best isometry, trace and convergence flag.
    """
    v = v.copy()
    n_starts = v.shape[0]
    active = np.arange(n_starts)
    best_v = v.copy()
    converged = np.zeros(n_starts, dtype=bool)
    f, grad_sq, step = np.empty(n_starts), np.empty(n_starts), np.empty(n_starts)
    grad = np.empty_like(v)
    log = []
    for mu in _SMOOTHING:
        tol = tol_rel if mu == 0.0 else _STAGE_TOL
        f[active], exact, gradient = evaluate(v[active], active, mu)
        if mu == _SMOOTHING[0]:
            best, first = exact, exact.copy()
        grad[active] = _tangent(v[active], gradient())
        del gradient
        grad_sq[active] = _inner(grad[active], grad[active])
        step[active] = _FIRST_STEP
        # To first order, a first trial step gains at most _FIRST_STEP * grad_sq.
        stationary = _FIRST_STEP * grad_sq[active] <= tol * np.maximum(1.0, np.abs(f[active]))
        if mu == 0.0:
            converged[active[stationary]] = True
        live = active[~stationary]
        for _ in range(max_steps):
            if halt is not None:
                keep = ~halt(best)
                active, live = active[keep[active]], live[keep[live]]
            if not live.size:
                break
            stalled = np.zeros(n_starts, dtype=bool)
            pending = live
            for _ in range(_MAX_BACKTRACKS):
                trial = _polar(v[pending] - step[pending, None, None] * grad[pending])
                f_new, exact, gradient = evaluate(trial, pending, mu)
                f_old = f[pending]
                decrease = _ARMIJO * step[pending] * grad_sq[pending]
                ok = f_new <= f_old - decrease + _ARMIJO_SLACK * np.maximum(1.0, np.abs(f_old))
                if ok.any():  # a rejected trial costs its value alone
                    done, moved = pending[ok], trial[ok]
                    g_new = _tangent(moved, gradient(ok))
                    s, y = moved - v[done], g_new - grad[done]
                    yy = _inner(y, y)
                    bb = np.full(done.size, _STEP_RANGE[1])
                    np.divide(np.abs(_inner(s, y)), yy, out=bb, where=yy > 0.0)
                    step[done] = np.clip(bb, *_STEP_RANGE)
                    stalled[done] = f_old[ok] - f_new[ok] <= tol * np.maximum(1.0, np.abs(f_new[ok]))
                    v[done], f[done], grad[done] = moved, f_new[ok], g_new
                    grad_sq[done] = _inner(g_new, g_new)
                    reached = exact[ok]
                    better = reached < best[done]
                    best[done[better]] = reached[better]
                    best_v[done[better]] = moved[better]
                    log.append((done, best[done]))
                del gradient  # its factors would otherwise live through the next trial
                pending = pending[~ok]
                if not pending.size:
                    break
                step[pending] *= _BACKTRACK
            if mu == 0.0:
                converged[stalled] = True
            # A start whose step backtracked to nothing stops unconverged.
            stalled[pending] = True
            live = live[~stalled[live]]
    return best_v, _traces(first, log), converged


_HADAMARD_2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# The real Hadamard matrix that mixes a minimum's rows, by rank: a rank-3
# minimum is padded with a zero row and mixed by the 4 x 4 one.
_HADAMARD = {1: np.ones((1, 1)), 2: _HADAMARD_2, 3: np.kron(_HADAMARD_2, _HADAMARD_2)}
_HADAMARD[4] = _HADAMARD[3]


def _arccos(num: float, den: float) -> float:
    """arccos(num / den), clipped to [-1, 1] for rounding; 0 where den is 0."""
    return float(np.arccos(np.clip(num / den, -1.0, 1.0))) if den > 0.0 else 0.0


def _unit(z: complex) -> complex:
    """z / |z|, or 1 where z is 0."""
    return z / abs(z) if z != 0 else 1.0


def _roof_phases(lam: np.ndarray) -> np.ndarray:
    """Unit z_i with sum_i z_i lambda_i = max(0, lambda_1 - sum_{i>=2} lambda_i), lambda descending.

    Where lambda_1 exceeds the rest, z = (1, -1, ...).  Otherwise the four
    lengths (a zero padding rank 3) close a polygon: with e = max(c - d, a -
    b) in [|c - d|, c + d] and in [a - b, a + b], a, b and e close a
    triangle and e, c and d another, whose angles the law of cosines gives.
    """
    if lam[0] >= lam[1:].sum():
        return np.array([1.0] + [-1.0] * (len(lam) - 1), dtype=complex)
    a, b, c, d = lam
    e = max(c - d, a - b)
    z_b = np.exp(1j * _arccos(e * e - a * a - b * b, 2.0 * a * b))
    z_e = _unit(-a - b * z_b)
    z_c = z_e * np.exp(1j * _arccos(e * e + c * c - d * d, 2.0 * e * c))
    return np.array([1.0, z_b, z_c, _unit(e * z_e - c * z_c)])


def _closed_form_isometry(mats: np.ndarray, direction: str) -> np.ndarray:
    """The optimal isometry of a problem whose (rank, 2, 2) root matrices are on its local supports.

    The rows of W^H, for the Takagi factor W of the roots' spin-flip
    overlaps, give members of concurrence lambda_i: the maximum.  For the
    minimum, row i is scaled by sqrt(z_i) (``_roof_phases``), so its
    overlap is z_i lambda_i, and a real Hadamard on the n = 1, 2 or 4 rows
    gives every member the overlap sum_i z_i lambda_i / n = C / n.
    """
    w, lam = spin_flip_takagi(mats)
    v = w.conj().T
    if direction == "max":
        return v
    rank = len(lam)
    hadamard = _HADAMARD[rank]
    n = len(hadamard)
    rows = np.zeros((n, rank), dtype=complex)
    rows[:rank] = np.sqrt(_roof_phases(np.pad(lam, (0, n - rank)))[:rank, None]) * v
    return hadamard @ rows


def _checked_decomposition(rho: DensityOperator, v: np.ndarray) -> Decomposition:
    """The decomposition of isometry v, checked to reconstruct rho with no D x D matrix.

    With V^H V = I + E, all the rows of V @ roots reconstruct rho + R^T
    conj(E) conj(R) for the roots R, whose entries are off by at most
    ||E||_2 ||R||_2^2 <= ||E||_F (||R||_2^2 is rho's top eigenvalue, at
    most 1); dropping members moves no entry by more than their weight.
    So ||E||_F and the dropped weight, each within ``RECONSTRUCTION_TOL``,
    bound the reconstruction's deviation from rho by their sum.
    """
    members, dropped = _isometry_members(rho, v)
    isometry_dev = float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
    if isometry_dev > RECONSTRUCTION_TOL or dropped > RECONSTRUCTION_TOL:
        raise NumericalError(
            f"decomposition reconstruction off: isometry by {isometry_dev}, dropped weight {dropped}"
        )
    return Decomposition(rho.profile, members)


def _closed_form_result(rho, cut, direction, mats) -> OptResult:
    """The closed form's result: one converged start, whose trace is its value."""
    dec = _checked_decomposition(rho, _closed_form_isometry(mats, direction))
    value = average_negativity(dec, cut)
    return OptResult(value, dec, direction, (value,), True, 0, (value,))


def _result(rho, cut, direction, v, traces, converged) -> OptResult:
    """One problem's result from its starts' isometries, traces and flags.

    The best start is the first whose final value is within 1e-15 of the
    best final value.
    """
    final = np.array([t[-1] for t in traces])
    if direction == "max":
        best = int(np.flatnonzero(final >= final.max() - 1e-15)[0])
    else:
        best = int(np.flatnonzero(final <= final.min() + 1e-15)[0])
    dec = _checked_decomposition(rho, v[best])
    return OptResult(
        value=average_negativity(dec, cut),
        decomposition=dec,
        direction=direction,
        objective_trace=tuple(traces[best].tolist()),
        converged=bool(converged[best]),
        best_start=best,
        start_values=tuple(final.tolist()),
    )


def optimize_many(problems, *, stop=None) -> list[OptResult | None]:
    """Solve roof problems in as few batched searches as their shapes allow.

    ``problems`` is a sequence of ``(rho, cut, direction, cfg)`` tuples,
    the arguments of ``optimize``.  Each runs on its roots on the density's
    ``local_supports``, which the density keeps, so no caller pays for them
    twice.  The problems of one direction, decomposition size, root-matrix
    shape (rank and cut), ``max_sweeps`` and ``tol_rel`` run all their
    starts in one ``_descent`` or ``_polar_ascent`` call; they may differ
    in ``starts`` and ``seed``.
    Every start steps as it would alone, so each result is bit for bit the
    one its problem gets alone.  A problem whose local supports are both
    at most two-dimensional (``measures.spin_flip_closes``) joins no
    group: its result is the closed form (``_closed_form_isometry``).
    Results come in the order of ``problems``.

    ``stop``, if given, ends minimum searches whose outcome the caller no
    longer needs.  Before each descent step it is called with every
    problem's value so far, indexed as ``problems``: the spectral
    decomposition's (every search's start 0) for a group not yet run, the
    best any start has reached in a running descent, the final value once
    solved (a closed form's from the start).  It returns a mask of the problems to stop; only the running
    descent's are, and a maximum never is.  A stopped problem takes no
    further step and gets None in place of a result.  Problems never
    stopped get their results bit for bit, as without a rule.
    """
    prepared, groups, results = [], {}, []
    for rho, cut, direction, cfg in problems:
        if direction not in ("min", "max"):
            raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
        cfg = cfg or OptConfig()
        cut = as_bipartition(cut, rho.profile.n)
        size = cfg.resolve_size(rho.rank())
        mats = local_supports(rho, cut)
        if spin_flip_closes(mats):
            results.append(_closed_form_result(rho, cut, direction, mats))
        else:
            key = (direction, size, mats.shape, cfg.max_sweeps, cfg.tol_rel)
            groups.setdefault(key, []).append(len(results))
            results.append(None)
        prepared.append((rho, cut, mats, cfg))

    values = np.array([np.nan if res is None else res.value for res in results])
    stopped = np.zeros(len(prepared), dtype=bool)
    if stop is not None:
        for members in groups.values():
            spectral = pure_negativities(np.stack([prepared[i][2] for i in members]))
            values[members] = spectral.sum(axis=-1)
    for (direction, size, _, max_sweeps, tol_rel), members in groups.items():
        rhos, cuts, mats, cfgs = zip(*(prepared[i] for i in members))
        starts = [_starts(cfg, rho.rank()) for rho, cfg in zip(rhos, cfgs)]
        counts = [v0.shape[0] for v0 in starts]
        evaluate = _objective(np.stack(mats), np.repeat(np.arange(len(members)), counts))
        ids, offsets = np.array(members), np.cumsum([0, *counts[:-1]])

        def halt(start_best):
            values[ids] = np.minimum.reduceat(start_best, offsets)
            stopped[ids] |= stop(values)[ids]
            return np.repeat(stopped[ids], counts)

        args = (evaluate, np.concatenate(starts), max_sweeps * size, tol_rel)
        if direction == "max":
            v, traces, converged = _polar_ascent(*args)
        else:
            v, traces, converged = _descent(*args, halt if stop else None)
        offset = 0
        for i, rho, cut, n in zip(members, rhos, cuts, counts):
            own = slice(offset, offset + n)
            if not stopped[i]:
                results[i] = _result(rho, cut, direction, v[own], traces[own], converged[own])
                values[i] = results[i].value
            offset += n
    return results


def optimize(
    rho: DensityOperator,
    cut,
    direction: str,
    cfg: OptConfig | None = None,
) -> OptResult:
    """Minimize or maximize average negativity over pure-state decompositions.

    Both directions search the HJW chart from the same starts, all at once,
    and are deterministic for a fixed seed: the first start is the spectral
    decomposition itself, the others are Haar-random unitaries.  The
    minimum runs a smoothed Riemannian descent in eight stages of at most
    ``max_sweeps * size`` steps each; the maximum runs a polar ascent of at
    most ``max_sweeps * size`` steps.  Where both local supports are at
    most two-dimensional neither runs: the result is the closed form.  This
    is the one-problem call of ``optimize_many``.
    """
    return optimize_many([(rho, cut, direction, cfg)])[0]


@dataclass(frozen=True)
class FlatnessResult:
    """Mean and spread of the average negativity over sampled decompositions."""

    mean: float
    max_abs_dev: float


def flatness_scan(
    rho: DensityOperator,
    cut,
    samples: int,
    seed: int = 0,
    size: int | None = None,
) -> FlatnessResult:
    """Average negativity over random HJW decompositions of the given size.

    Each sample is the decomposition ``decomposition_from_unitary`` builds
    from a Haar unitary on ``rho.roots``, the spectral roots ``rho`` holds
    (a W/vacuum state of ``states`` takes them from its rank-2 factor, so
    scanning it runs no D x D eigensolve and forms no D x D matrix); all
    ``samples`` unitaries are one ``haar_unitaries`` draw, in order.  The
    members are scored on the roots' ``local_supports`` across the cut,
    which local isometries leave every pure-state measure of: the
    isometries act on the (rank, k_a, k_b) support matrices, and the
    (samples * size, k_a, k_b) members of every sample are scored in one
    ``pure_negativities`` call.  A W/vacuum state's members are 2 x 2 there,
    scored in closed form with no wide SVD; a full-support state's are its
    roots' cut matrices mixed, as without the supports.  A max_abs_dev at
    rounding level certifies (numerically) that the decomposition landscape
    is flat, i.e. the convex roof is decomposition independent for this
    state and cut.
    """
    require_seed(seed)
    if samples < 2:
        raise DomainError("flatness_scan needs at least 2 samples")
    cut = as_bipartition(cut, rho.profile.n)
    rank = rho.rank()
    r = size if size is not None else rank
    if r < rank:
        raise DomainError(f"size {r} below rank {rank}")
    isometries = haar_unitaries(samples, r, np.random.default_rng(seed))[:, :, :rank]
    supports = local_supports(rho, cut)
    _, k_a, k_b = supports.shape
    mats = (isometries @ supports.reshape(rank, -1)).reshape(samples * r, k_a, k_b)
    values = pure_negativities(mats).reshape(samples, r).sum(axis=1)
    mean = float(values.mean())
    return FlatnessResult(mean=mean, max_abs_dev=float(np.max(np.abs(values - mean))))
