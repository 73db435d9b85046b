import os
from pathlib import Path

import numpy as np
import pytest

from crenaudit import DensityOperator, DimensionProfile, PureState, random_pure_state

# pytest imports the package from src/ (pyproject's ``pythonpath``); the
# subprocesses some tests start (the console entry point) import it from there too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_pure(dims, rng) -> PureState:
    return random_pure_state(DimensionProfile(tuple(dims)), rng)


def rand_dm(dims, rank, rng, factor: bool = False) -> DensityOperator:
    """Rank-controlled random density operator (Ginibre construction).

    Built from its D x D matrix, or with ``factor`` from the Ginibre factor
    itself; both routes draw the same numbers.
    """
    profile = DimensionProfile(tuple(dims))
    g = rng.standard_normal((profile.size, rank)) + 1j * rng.standard_normal(
        (profile.size, rank)
    )
    if factor:
        return DensityOperator(profile, factor=g / np.linalg.norm(g))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(profile, m)
