"""Dense complex tensor kernel for multipartite qudit systems.

Index bookkeeping, partial trace, partial transpose and trace norm for
states over a fixed tuple of local dimensions.  Party 1 is the slowest-varying index of the flattened amplitude vector
(row-major over parties); every module in this package relies on that
convention.  Cut matrices and partial traces share one kept | rest party
order, so the Schmidt coefficients of a pure state across a cut are the
``eigenvalues`` of its side-A marginal.

A ``DensityOperator`` is held as its range factor: the spectral roots
sqrt(e_i) v_i of its nonzero eigenvalues, which every pure-state
decomposition, range bracket and partial trace starts from.  It is the
only place the package decomposes a density, and it does so once, at
construction: a matrix by ``eigh``, a factor X (rho = X X^H) by a thin
SVD of X.  The partial trace of a pure state or a density reshapes those
rows kept | rest into the factor of the marginal, so no partial trace
forms a D x D matrix.  A factor-built density keeps no D x D matrix
either: it forms X X^H, at O(D^2 k), each time something (a partial
transpose) reads ``matrix``, so its resident size stays O(D k).

All values are immutable after construction and all operations are pure
functions, so they are safe to share between concurrent tasks.  A state's
private ``_memo`` (read and filled through ``memoized``) holds only values
derived deterministically from its immutable fields, so a race on it at
worst computes one value twice.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Tolerances for construction invariants and rank decisions.
TOL_NORM = 1e-10     # norm / trace deviation accepted after construction
TOL_RENORM = 1e-8    # larger deviations up to this are silently renormalized
TOL_HERM = 1e-12     # max elementwise deviation from the conjugate transpose
TOL_PSD = 1e-10      # most negative eigenvalue accepted for a density operator
TOL_RANK = 1e-12     # eigenvalues / Schmidt coefficients below this do not count


class DomainError(ValueError):
    """Input lies outside an operation's domain."""


class NumericalError(RuntimeError):
    """An internal numerical consistency check failed beyond tolerance."""


@dataclass(frozen=True)
class DimensionProfile:
    """Ordered local dimensions (d_1, ..., d_n) of the parties.

    Parties are labelled 1..n.  The flattened index of a digit string
    (i_1, ..., i_n) is sum_j i_j * stride_j with party 1 slowest, i.e.
    ``numpy.reshape(vec, dims)`` exposes party j on axis j-1.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise DomainError("profile needs at least one party")
        if any(d < 2 for d in dims):
            raise DomainError(f"every local dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def parties(self) -> range:
        """Party labels, 1-based."""
        return range(1, self.n + 1)

    def index_of(self, digits: Sequence[int]) -> int:
        """Flattened basis index of a digit string (one digit per party)."""
        if len(digits) != self.n:
            raise DomainError(f"expected {self.n} digits, got {len(digits)}")
        idx = 0
        for d, dim in zip(digits, self.dims):
            if not 0 <= d < dim:
                raise DomainError(f"digit {d} out of range for dimension {dim}")
            idx = idx * dim + d
        return idx

    def restrict(self, parties: Iterable[int]) -> "DimensionProfile":
        """Profile of the listed parties, in ascending party order."""
        kept = _sorted_parties(parties, self.n)
        return DimensionProfile(tuple(self.dims[p - 1] for p in kept))


def _sorted_parties(parties: Iterable[int], n: int) -> tuple[int, ...]:
    out = tuple(sorted({int(p) for p in parties}))
    if not out:
        raise DomainError("party set must be nonempty")
    for p in out:
        if not 1 <= p <= n:
            raise DomainError(f"party {p} out of range 1..{n}")
    return out


@dataclass(frozen=True)
class Bipartition:
    """A nonempty proper subset of parties versus its complement.

    Its hash is computed once, at construction: cuts key every memo.
    """

    side_a: tuple[int, ...]
    n: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        side = _sorted_parties(self.side_a, self.n)
        if len(side) >= self.n:
            raise DomainError("side_a must be a proper subset of the parties")
        object.__setattr__(self, "side_a", side)
        object.__setattr__(self, "_hash", hash((side, self.n)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def side_b(self) -> tuple[int, ...]:
        inside = set(self.side_a)
        return tuple(p for p in range(1, self.n + 1) if p not in inside)

    def canonical(self) -> "Bipartition":
        """The one name of this cut and its complement: party 1's side as side A."""
        return self if 1 in self.side_a else Bipartition(self.side_b, self.n)

    def __str__(self) -> str:
        # Digit runs such as "12" read as parties 1 and 2, so labels from
        # 10 up need a separator.
        sep = "," if self.n > 9 else ""
        return sep.join(map(str, self.side_a)) + "|" + sep.join(map(str, self.side_b))


def as_bipartition(cut: "Bipartition | int | Iterable[int]", n: int) -> Bipartition:
    """Coerce a cut given as a Bipartition, a party, or a party set."""
    if isinstance(cut, Bipartition):
        if cut.n != n:
            raise DomainError(f"cut is over {cut.n} parties, state has {n}")
        return cut
    if isinstance(cut, (int, np.integer)):
        return Bipartition((int(cut),), n)
    return Bipartition(tuple(cut), n)


def _checked_trace(tr: float) -> float:
    """The trace to divide by: 1.0 when within ``TOL_NORM`` of 1, else ``tr``.

    A trace further than ``TOL_RENORM`` from 1 raises ``DomainError``.
    """
    if abs(tr - 1.0) > TOL_RENORM:
        raise DomainError(f"trace {tr} deviates from 1 by more than {TOL_RENORM}")
    return tr if abs(tr - 1.0) > TOL_NORM else 1.0


def _as_unit_vector(amplitudes: np.ndarray, size: int) -> np.ndarray:
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.shape != (size,):
        raise DomainError(f"amplitude vector has length {vec.size}, expected {size}")
    nrm = float(np.linalg.norm(vec))
    if not math.isfinite(nrm):
        raise DomainError("amplitude vector has non-finite entries")
    if abs(nrm - 1.0) > TOL_RENORM:
        raise DomainError(f"state norm {nrm} deviates from 1 by more than {TOL_RENORM}")
    if abs(nrm - 1.0) > TOL_NORM:
        vec = vec / nrm
    vec = vec.copy()
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized amplitude vector over a DimensionProfile.

    Equality is identity.  ``_memo`` keeps what the package derives from
    the state (its pair marginals and pure-row values), so every later call
    on the same object reuses them (``memoized``).
    """

    profile: DimensionProfile
    amplitudes: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "amplitudes", _as_unit_vector(self.amplitudes, self.profile.size)
        )


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator over a profile.

    Give exactly one of ``matrix`` and ``factor``.  A matrix is decomposed
    once, by ``eigh``: its eigenvalues check positivity, those above
    ``TOL_RANK`` count the rank, and their eigenvectors span the range.  A
    factor X (D x k) stands for the matrix X X^H, positive and Hermitian by
    construction: its trace is ||X||_F^2, and its thin SVD gives the
    spectrum, eigenvalues s_i^2 with the left singular vectors, so no D x D
    eigensolve runs.  Either way the operator holds ``roots``, its range
    factor, ``range_basis``, and the read-only ``eigenvalues``: ascending,
    exactly as decomposed (min(D, k) of them for a D x k factor), those
    below ``TOL_RANK`` included.  A matrix-built operator keeps its
    symmetrized matrix; a factor-built one keeps X alone and forms
    ``matrix``, X X^H at O(D^2 k), afresh on every read, keeping none of
    it.  ``matrix`` is read-only either way.

    Instances are immutable, and equality is identity.  ``_memo`` keeps
    what the package derives from the operator (its local supports,
    pair-term values and roof searches), so every later call on the same
    object reuses them (``memoized``).
    """

    def __init__(
        self,
        profile: DimensionProfile,
        matrix: np.ndarray | None = None,
        factor: np.ndarray | None = None,
    ) -> None:
        if (matrix is None) == (factor is None):
            raise DomainError("give exactly one of a matrix and a factor")
        attrs = self.__dict__
        attrs["profile"] = profile
        attrs["_memo"] = {}
        size = profile.size
        if factor is None:
            mat = np.asarray(matrix, dtype=complex)
            if mat.shape != (size, size):
                raise DomainError(f"matrix has shape {mat.shape}, expected {(size, size)}")
            if not np.isfinite(mat).all():
                raise DomainError("matrix has non-finite entries")
            adjoint = mat.conj().T
            herm_dev = float(np.max(np.abs(mat - adjoint)))
            if herm_dev > TOL_HERM:
                raise DomainError(f"matrix deviates from Hermitian by {herm_dev}")
            # A new array, so the caller's matrix is neither kept nor changed.
            mat = (mat + adjoint) / 2.0
            tr = _checked_trace(float(np.trace(mat).real))
            if tr != 1.0:
                mat = mat / tr
            evals, vecs = np.linalg.eigh(mat)
            if evals[0] < -TOL_PSD:
                raise DomainError(f"matrix has negative eigenvalue {float(evals[0])}")
            mat.setflags(write=False)
            attrs["_matrix"] = mat
        else:
            x = np.array(factor, dtype=complex)
            if x.ndim != 2 or x.shape[0] != size:
                raise DomainError(f"factor has shape {x.shape}, expected ({size}, k)")
            tr = float(np.vdot(x, x).real)
            if not math.isfinite(tr):
                raise DomainError("factor has non-finite entries")
            tr = _checked_trace(tr)
            if tr != 1.0:
                x = x / np.sqrt(tr)
            x.setflags(write=False)
            attrs["_matrix"], attrs["_factor"] = None, x
            u, s, _ = np.linalg.svd(x, full_matrices=False)
            evals, vecs = s[::-1] ** 2, u[:, ::-1]
        top = evals.size - int(np.sum(evals > TOL_RANK))
        # A copy: a slice would keep the whole D x D eigenvector matrix alive.
        w, rows = evals[top:], vecs[:, top:].T.copy()
        roots = rows[::-1] * np.sqrt(w[::-1, None])
        for arr in (evals, rows, roots):
            arr.setflags(write=False)
        attrs["eigenvalues"] = evals
        # Orthonormal basis of the range, one column per eigenvalue, ascending.
        attrs["range_basis"] = rows.T
        # Spectral roots sqrt(e_i) v_i, one row each, eigenvalues descending:
        # every pure-state decomposition is an isometry applied to these rows
        # (the HJW chart).
        attrs["roots"] = roots

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"DensityOperator(profile={self.profile!r}, rank={self.rank()})"

    @property
    def matrix(self) -> np.ndarray:
        """The D x D matrix; for a factor X, X X^H formed on this read and not kept."""
        mat = self._matrix
        if mat is None:
            x = self._factor
            # (m + m^H) / 2 bit for bit, in place: at most two D x D arrays live.
            mat = x @ x.conj().T
            mat += mat.conj().T
            mat /= 2.0
            mat.setflags(write=False)
        return mat

    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues ** 2))

    def rank(self) -> int:
        return len(self.roots)


_MISSING = object()


def memoized(state: PureState | DensityOperator, key, compute):
    """``compute()``, kept in ``state``'s memo under ``key`` for every later call.

    A hit reads the memo once, so the key is hashed once.
    """
    value = state._memo.get(key, _MISSING)
    if value is _MISSING:
        value = state._memo[key] = compute()
    return value


def partial_trace(state: PureState | DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out all parties not in ``keep``, from a pure state or a density operator.

    The result's profile lists the kept parties in ascending party order.
    The input's factor rows R_j (a pure state's amplitudes, or a density's
    spectral ``roots``) are reshaped kept | rest as in ``cut_matrices`` and
    set side by side, M = [R_1 R_2 ...] (d_keep x k d_rest), and the
    marginal is the density with factor M, sum_j R_j R_j^H: no D x D
    matrix is read or formed.
    """
    profile = state.profile
    kept = _sorted_parties(keep, profile.n)
    rows = state.amplitudes if isinstance(state, PureState) else state.roots
    mats = _kept_rest(rows, profile, kept)
    # Kept index first, then the row and the rest: M's columns run over (row, rest).
    factor = np.swapaxes(mats, 0, 1).reshape(mats.shape[1], -1)
    return DensityOperator(profile.restrict(kept), factor=factor)


def partial_transpose(rho: DensityOperator, transposed: Iterable[int]) -> np.ndarray:
    """Transpose the listed parties' indices; returns a Hermitian matrix.

    The result is generally not positive semidefinite, so it is returned as
    a plain matrix rather than a DensityOperator.
    """
    parties = _sorted_parties(transposed, rho.profile.n)
    if len(parties) >= rho.profile.n:
        raise DomainError("transposed set must be a proper subset of the parties")
    dims = rho.profile.dims
    n = len(dims)
    tensor = rho.matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in parties:
        axes[p - 1], axes[n + p - 1] = axes[n + p - 1], axes[p - 1]
    size = rho.profile.size
    return np.transpose(tensor, axes).reshape(size, size)


def norm_sq(z: np.ndarray) -> np.ndarray:
    """Squared norms of the complex vectors along the last axis."""
    return np.einsum("...x,...x->...", z.real, z.real) + np.einsum("...x,...x->...", z.imag, z.imag)


def trace_norm(h: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of absolute eigenvalues."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {h.shape}")
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > 1e-9:
        raise DomainError(f"matrix deviates from Hermitian by {dev}")
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    return float(np.sum(np.abs(w)))


def _kept_rest(rows: np.ndarray, profile: DimensionProfile, kept: Sequence[int]) -> np.ndarray:
    """Stacked rows reshaped kept | rest to (k, d_kept, d_rest) matrices, parties ascending."""
    inside = set(kept)
    # Axis 0 stacks the rows, so party p is axis p of the tensor.
    axes = list(kept) + [p for p in profile.parties if p not in inside]
    tensor = np.asarray(rows).reshape((-1,) + profile.dims)
    d_kept = math.prod(profile.dims[p - 1] for p in kept)
    return np.transpose(tensor, [0] + axes).reshape(tensor.shape[0], d_kept, -1)


def cut_matrices(vectors: np.ndarray, profile: DimensionProfile, cut: Bipartition) -> np.ndarray:
    """Stacked amplitude vectors reshaped to (k, dim side_a, dim side_b) matrices.

    The vectors need not be normalized; a single vector gives k = 1.
    """
    return _kept_rest(vectors, profile, as_bipartition(cut, profile.n).side_a)


def cut_matrix(phi: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitudes of ``phi`` reshaped to a (dim side_a, dim side_b) matrix."""
    return cut_matrices(phi.amplitudes, phi.profile, cut)[0]

