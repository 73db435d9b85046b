"""Machine-speed probe: a fixed numpy computation timed between operations.

The speed of a shared machine drifts by 20-30 % over minutes, moving every
time of a run together; the roof corpus, whose work does not depend on the
seed, read 11.2-16.4 s for its min solves over ten runs.  The probe does the
same linear algebra on every run and imports nothing from crenaudit, so its
time follows the machine and not the program.  A run divides its times
(and multiplies its rates) by its slowdown, the mean probe time over
REFERENCE_S, which reports them at the usual speed of the box the
reference figures in README.md were measured on.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.03   # a typical probe on the reference box (0.023-0.04 s there)
LAPACK_REPEATS = 12
PAIRS = 40
PAIR_REPEATS = 10
SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


class SpeedProbe:
    """Half LAPACK on small and mid-sized matrices, half many small numpy calls.

    The second half is the spin-flip concurrence of 4x4 densities: the
    interpreter and call overhead that dominate the optimizer's pair
    kernels follow the machine somewhat differently from LAPACK itself.
    """

    def __init__(self):
        rng = np.random.default_rng(0)

        def herm(n):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return g @ g.conj().T

        self.small = [herm(6) for _ in range(24)]      # pair-kernel sized
        self.cut = rng.standard_normal((27, 9)) + 0j    # a (3,3,3) pure state's 1|23 cut
        self.mid = herm(81)
        self.pairs = [m / np.trace(m).real for m in (herm(4) for _ in range(PAIRS))]
        self.seconds = 0.0
        self.calls = 0

    def run(self) -> None:
        t0 = time.perf_counter()
        for _ in range(LAPACK_REPEATS):
            for m in self.small:
                np.linalg.eigvalsh(m @ m)
            for _ in range(4):
                np.linalg.svd(self.cut, compute_uv=False)
            np.linalg.eigvalsh(self.mid)
        for _ in range(PAIR_REPEATS):
            for rho in self.pairs:
                r = rho @ SIGMA_YY @ rho.conj() @ SIGMA_YY
                s = np.sort(np.sqrt(np.abs(np.linalg.eigvals(r))))[::-1]
                max(0.0, float(s[0] - s[1] - s[2] - s[3]))
        self.seconds += time.perf_counter() - t0
        self.calls += 1

    def slowdown(self) -> float:
        """Mean probe time since the last reset over REFERENCE_S."""
        return self.seconds / self.calls / REFERENCE_S

    def reset(self) -> None:
        self.seconds, self.calls = 0.0, 0
