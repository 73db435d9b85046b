"""Independent reference values for the benchmark's output checks.

Plain numpy on raw arrays; nothing here imports crenaudit, so a fault in
the package cannot hide in the value it is checked against.  Conventions
match the package's: party 1 is the slowest-varying index and a cut puts
the listed parties on side A.

Closed forms:

* two-qubit concurrence (Wootters, PRL 80, 2245 (1998)), equal to the
  convex-roof extended negativity for two qubits;
* two-qubit concurrence of assistance, sum of sqrt eig(rho rho~)
  (Laustsen, Verstraete & van Enk, QIC 3, 64 (2003));
* pure-state negativity (sum s)^2 - 1 and concurrence sqrt(2(1 - sum s^4))
  from the singular values s of the cut matrix;
* W-class/vacuum roof values 2p sqrt(A(1-A)) and 2p sqrt((1-A)(A-A_i));
* the partially coherent W/vacuum density from its definition.
"""

from __future__ import annotations

import numpy as np

_SYSY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def spin_flip(rho: np.ndarray) -> np.ndarray:
    return _SYSY @ rho.conj() @ _SYSY


def _sqrt_eigs_rho_flip(rho: np.ndarray) -> np.ndarray:
    # rho rho~ is similar to the PSD sqrt(rho) rho~ sqrt(rho), so its
    # eigenvalues are real and non-negative up to rounding.
    w = np.linalg.eigvals(rho @ spin_flip(rho))
    return np.sort(np.sqrt(np.clip(w.real, 0.0, None)))[::-1]


def wootters_concurrence(rho: np.ndarray) -> float:
    r = _sqrt_eigs_rho_flip(np.asarray(rho, dtype=complex))
    return float(max(0.0, r[0] - r[1] - r[2] - r[3]))


def two_qubit_assistance(rho: np.ndarray) -> float:
    return float(np.sum(_sqrt_eigs_rho_flip(np.asarray(rho, dtype=complex))))


def cut_singular_values(amplitudes: np.ndarray, dims, side_a) -> np.ndarray:
    """Singular values of the amplitude tensor split as side_a | rest."""
    side_a = sorted(side_a)
    side_b = [p for p in range(1, len(dims) + 1) if p not in side_a]
    tensor = np.asarray(amplitudes, dtype=complex).reshape(dims)
    mat = np.transpose(tensor, [p - 1 for p in side_a + side_b])
    d_a = int(np.prod([dims[p - 1] for p in side_a]))
    return np.linalg.svd(mat.reshape(d_a, -1), compute_uv=False)


def pure_negativity(amplitudes, dims, side_a) -> float:
    s = cut_singular_values(amplitudes, dims, side_a)
    return float(np.sum(s) ** 2 - 1.0)


def pure_concurrence(amplitudes, dims, side_a) -> float:
    s = cut_singular_values(amplitudes, dims, side_a)
    return float(np.sqrt(max(2.0 * (1.0 - np.sum(s ** 4)), 0.0)))


def pt_negativity(rho: np.ndarray, dims) -> float:
    """Trace norm of the partial transpose on party 2 of a two-party rho, minus 1."""
    da, db = dims
    pt = np.asarray(rho).reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, -1)
    return float(np.sum(np.abs(np.linalg.eigvalsh((pt + pt.conj().T) / 2))) - 1.0)


def pair_marginal(amplitudes, dims, i: int, j: int) -> np.ndarray:
    """Two-party marginal on parties i < j of a pure state."""
    n = len(dims)
    t = np.asarray(amplitudes, dtype=complex).reshape(dims)
    rest = [p for p in range(n) if p not in (i - 1, j - 1)]
    m = np.transpose(t, [i - 1, j - 1] + rest).reshape(dims[i - 1] * dims[j - 1], -1)
    return m @ m.conj().T


def local_unitary(dims, rng: np.random.Generator) -> np.ndarray:
    """Kronecker product of one Haar unitary per party."""
    out = np.ones((1, 1), dtype=complex)
    for d in dims:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        out = np.kron(out, q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    return out


def rotated(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u mat u^dagger, symmetrized against rounding."""
    m = u @ mat @ u.conj().T
    return (m + m.conj().T) / 2.0


def ginibre_density(size: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def w_vector(table: np.ndarray) -> np.ndarray:
    """One-excitation amplitudes: table[j, i-1] on digit i at party j+1."""
    n, levels = table.shape
    d = levels + 1
    vec = np.zeros(d ** n, dtype=complex)
    for j in range(n):
        for i in range(1, d):
            vec[i * d ** (n - 1 - j)] = table[j, i - 1]
    return vec


def pcs_density(table: np.ndarray, p: float, lam: float) -> np.ndarray:
    """p|W><W| + (1-p)|0><0| + lam sqrt(p(1-p)) (|W><0| + |0><W|)."""
    w = w_vector(table)
    vac = np.zeros_like(w)
    vac[0] = 1.0
    cross = np.outer(w, vac.conj())
    return (
        p * np.outer(w, w.conj())
        + (1.0 - p) * np.outer(vac, vac.conj())
        + lam * np.sqrt(p * (1.0 - p)) * (cross + cross.conj().T)
    )


def coarse_table(table: np.ndarray, blocks) -> np.ndarray:
    """Block-merged table: sqrt of each block's weight per level."""
    w = np.abs(table) ** 2
    return np.sqrt(np.array([w[[p - 1 for p in b]].sum(axis=0) for b in blocks]))


def w_values(table: np.ndarray, p: float) -> tuple[float, tuple[float, ...]]:
    """(2p sqrt(A(1-A)), pair values 2p sqrt((1-A)(A-A_i)) for parties 2..n)."""
    per_party = np.sum(np.abs(table) ** 2, axis=1)
    a = 1.0 - per_party[0]
    pairs = tuple(
        float(2.0 * p * np.sqrt(max((1.0 - a) * per_party[i], 0.0)))
        for i in range(1, table.shape[0])
    )
    return float(2.0 * p * np.sqrt(max(a * (1.0 - a), 0.0))), pairs


def self_check() -> list[str]:
    """Run every reference on textbook states; return the disagreements."""
    bad = []

    def expect(name, got, want, tol=1e-12):
        if not abs(got - want) <= tol:
            bad.append(f"{name}: got {got}, expected {want}")

    bell = np.zeros(4, dtype=complex)
    bell[[1, 2]] = [1 / np.sqrt(2), -1 / np.sqrt(2)]
    singlet = np.outer(bell, bell.conj())
    expect("Bell C", wootters_concurrence(singlet), 1.0)
    expect("Bell C_a", two_qubit_assistance(singlet), 1.0)
    expect("Bell pure N", pure_negativity(bell, (2, 2), [1]), 1.0)
    expect("Bell pure C", pure_concurrence(bell, (2, 2), [1]), 1.0)
    expect("Bell PT N", pt_negativity(singlet, (2, 2)), 1.0)
    for f in (0.1, 1 / 3, 0.5, 0.8, 1.0):
        werner = f * singlet + (1.0 - f) * np.eye(4) / 4.0
        expect(f"Werner F={f} C", wootters_concurrence(werner), max(0.0, (3 * f - 1) / 2), 1e-7)
        # Bell-diagonal states are their own spin flip, so C_a = tr rho = 1.
        expect(f"Werner F={f} C_a", two_qubit_assistance(werner), 1.0, 1e-7)
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    expect("product C", wootters_concurrence(product), 0.0, 1e-7)
    expect("product C_a", two_qubit_assistance(product), 0.0, 1e-7)
    expect("product pure N", pure_negativity(np.eye(4)[0], (2, 2), [1]), 0.0)
    # Three-qubit W state: C(1|23)^2 = 8/9 = 4 A (1 - A) with A = 2/3.
    table = np.full((3, 1), 1 / np.sqrt(3))
    w = w_vector(table)
    g, pairs = w_values(table, 1.0)
    expect("W global", g, pure_concurrence(w, (2, 2, 2), [1]))
    expect("W pair", pairs[0], 2.0 / 3.0)
    expect("W saturation", g ** 2 - sum(v * v for v in pairs), 0.0)
    expect("W pure N = C", pure_negativity(w, (2, 2, 2), [1]), g)
    rho = pcs_density(table, 0.3, 0.0)
    expect("PCS trace", float(np.trace(rho).real), 1.0)
    expect("PCS vacuum weight", float(rho[0, 0].real), 0.7)
    return bad
