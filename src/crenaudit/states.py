"""Constructors for the state families used throughout the package.

Covers one-excitation ("W-class") qudit states, their partially coherent
superpositions with the vacuum, the phase damping channel, the two known
counterexample states to the concurrence monogamy inequality, maximally
entangled pairs, GHZ states, and coarse-graining of parties into blocks.

Also defines the on-disk state-spec document format (YAML key-value tree)
consumed by the command line front end.  PyYAML is imported when a
document is read (``_load_doc``), so importing the package, or running a
command without ``--spec``, never loads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qlinalg import (
    TOL_NORM,
    TOL_RENORM,
    DensityOperator,
    DimensionProfile,
    DomainError,
    PureState,
)


class SpecFormatError(DomainError):
    """A state-spec document is malformed; the message names the field."""


def _check_counts(n: int, d: int) -> None:
    if n < 2:
        raise DomainError(f"need at least 2 parties, got {n}")
    if d < 2:
        raise DomainError(f"local dimension must be >= 2, got {d}")


@dataclass(frozen=True, eq=False)
class WClassSpec:
    """Coefficient table of an n-party, d-level one-excitation state.

    ``a[j-1, i-1]`` is the amplitude of the basis state with digit i at
    party j and zeros elsewhere (j in 1..n, i in 1..d-1).  The table is
    normalized: sum |a|^2 = 1.  Equality is identity.
    """

    n: int
    d: int
    a: np.ndarray

    def __post_init__(self) -> None:
        _check_counts(self.n, self.d)
        table = np.asarray(self.a, dtype=complex)
        if table.shape != (self.n, self.d - 1):
            raise DomainError(
                f"coefficient table has shape {table.shape}, expected {(self.n, self.d - 1)}"
            )
        if not np.isfinite(table).all():
            raise DomainError("coefficient table has non-finite entries")
        total = float(np.sum(np.abs(table) ** 2))
        if abs(total - 1.0) > TOL_RENORM:
            raise DomainError(f"coefficient table norm^2 {total} deviates from 1")
        if abs(total - 1.0) > TOL_NORM:
            table = table / np.sqrt(total)
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "a", table)

    @property
    def profile(self) -> DimensionProfile:
        return DimensionProfile((self.d,) * self.n)

    @classmethod
    def symmetric(cls, n: int, d: int = 2) -> "WClassSpec":
        """Uniform table: every party and level carries equal weight."""
        _check_counts(n, d)
        a = np.full((n, d - 1), 1.0 / np.sqrt(n * (d - 1)), dtype=complex)
        return cls(n, d, a)


@dataclass(frozen=True, eq=False)
class PCSSpec:
    """A one-excitation state in partially coherent superposition with the vacuum.

    ``p`` is the excitation weight and ``lam`` the degree of coherence of
    the cross terms between the excited component and the vacuum.  Equality
    is identity.
    """

    w: WClassSpec
    p: float
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {self.p}")
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lam must lie in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class PartitionSpec:
    """Ordered partition of the parties 1..n into disjoint blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(sorted(int(p) for p in b)) for b in self.blocks)
        flat = [p for b in blocks for p in b]
        if not blocks or any(len(b) == 0 for b in blocks):
            raise DomainError("every block must be nonempty")
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise DomainError(f"blocks {blocks} do not partition 1..{len(flat)}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)


def _basis_sum(profile: DimensionProfile, terms) -> PureState:
    """The pure state sum of amp |digits> over the (digits, amp) pairs of ``terms``."""
    vec = np.zeros(profile.size, dtype=complex)
    for digits, amp in terms:
        vec[profile.index_of(digits)] = amp
    return PureState(profile, vec)


def _w_amplitudes(spec: WClassSpec, scale: float) -> np.ndarray:
    """The amplitude vector with scale * a[j,i] on the basis state of digit i at party j.

    Party 1 varies slowest, so that basis state's index is i d^(n-j).
    """
    n, d = spec.n, spec.d
    index = np.arange(1, d) * d ** np.arange(n - 1, -1, -1)[:, None]
    vec = np.zeros(spec.profile.size, dtype=complex)
    vec[index] = scale * spec.a
    return vec


def build_w_state(spec: WClassSpec) -> PureState:
    """Pure state with amplitude a[j,i] on the basis state of digit i at party j."""
    return PureState(spec.profile, _w_amplitudes(spec, 1.0))


def build_pcs_density(spec: PCSSpec) -> DensityOperator:
    """Density operator p|W><W| + (1-p)|vac><vac| + lam sqrt(p(1-p)) cross terms.

    It is the phase-damped coherent superposition, so it is built from a
    rank-2 factor, takes its spectrum from that factor's SVD, and forms its
    D x D matrix only if something reads it.
    """
    return apply_phase_damping(coherent_superposition(spec), spec.lam)


def coherent_superposition(spec: PCSSpec) -> PureState:
    """The fully coherent case: sqrt(p)|W> + sqrt(1-p)|vac>."""
    vec = _w_amplitudes(spec.w, np.sqrt(spec.p))
    vec[0] = np.sqrt(1.0 - spec.p)
    return PureState(spec.w.profile, vec)


def apply_phase_damping(psi: PureState, lam: float) -> DensityOperator:
    """Phase damping of the coherences with the all-zero product state.

    Kraus operators: sqrt(lam) I, sqrt(1-lam)(I - P_vac), sqrt(1-lam) P_vac,
    where P_vac projects onto the vacuum of the full multi-party space.
    Their sum multiplies the vacuum coherences rho_0j and rho_j0 (j != 0)
    by lam and keeps every other entry of rho = |psi><psi|.

    With a = psi_0 e_0 the vacuum part and b = psi - a, the result is X X^H
    for the rank-2 factor X = [b + lam a, sqrt(1 - lam^2) a].  The density
    keeps X and takes its spectrum from the SVD of X, with no D x D
    eigensolve; its D x D matrix is formed only when something reads it.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lam must lie in [0, 1], got {lam}")
    a = np.zeros_like(psi.amplitudes)
    a[0] = psi.amplitudes[0]
    b = psi.amplitudes - a
    factor = np.stack([b + lam * a, np.sqrt(1.0 - lam * lam) * a], axis=1)
    return DensityOperator(psi.profile, factor=factor)


def ou_state() -> PureState:
    """The totally antisymmetric three-qutrit state.

    Levels are labelled 0..2 (the conventional 1..3 labels shifted down so
    the vacuum convention matches the rest of the package).
    """
    amp = 1.0 / np.sqrt(6.0)
    even, odd = ((0, 1, 2), (1, 2, 0), (2, 0, 1)), ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    terms = [(digits, amp) for digits in even] + [(digits, -amp) for digits in odd]
    return _basis_sum(DimensionProfile((3, 3, 3)), terms)


def kim_sanders_state() -> PureState:
    """The 3x2x2 counterexample state to the concurrence monogamy inequality."""
    amp = 1.0 / np.sqrt(6.0)
    terms = [((0, 1, 0), np.sqrt(2.0) * amp), ((1, 0, 1), np.sqrt(2.0) * amp),
             ((2, 0, 0), amp), ((2, 1, 1), amp)]
    return _basis_sum(DimensionProfile((3, 2, 2)), terms)


def maximally_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on a (d, d) profile."""
    if d < 2:
        raise DomainError(f"local dimension must be >= 2, got {d}")
    return _basis_sum(DimensionProfile((d, d)), [((i, i), 1.0 / np.sqrt(d)) for i in range(d)])


def ghz_state(n: int = 3, d: int = 2) -> PureState:
    """(1/sqrt(d)) sum_i |i...i> on n parties."""
    if n < 2 or d < 2:
        raise DomainError("GHZ state needs n >= 2 parties of dimension >= 2")
    return _basis_sum(DimensionProfile((d,) * n), [((i,) * n, 1.0 / np.sqrt(d)) for i in range(d)])


def coarse_grain(spec: WClassSpec, partition: PartitionSpec) -> WClassSpec:
    """Merge parties blockwise into an m-party one-excitation spec.

    The merged coefficient for block s at level i is sqrt(q_si) >= 0 with
    q_si the total squared weight the block's parties carry at level i;
    phases are absorbed into a block-local basis change, the isometry
    whose column i is the block's normalized one-excitation component at
    level i, which leaves every quantity across the blocks unchanged.
    """
    if partition.n != spec.n:
        raise DomainError(f"partition covers {partition.n} parties, spec has {spec.n}")
    merged = np.zeros((partition.m, spec.d - 1), dtype=complex)
    for s, block in enumerate(partition.blocks):
        weights = np.sum(np.abs(spec.a[[j - 1 for j in block], :]) ** 2, axis=0)
        merged[s, :] = np.sqrt(weights)
    return WClassSpec(partition.m, spec.d, merged)


# ---------------------------------------------------------------------------
# State-spec document format
# ---------------------------------------------------------------------------

_KINDS = ("amplitudes", "w_class", "pcs", "ou", "kim_sanders", "max_entangled")


# YAML's true and false load as bool, a subclass of int, so number fields test exact types.
_NUMBER = (int, float)


def _as_complex(value, field: str) -> complex:
    # abs(v) < inf is false for YAML's .nan and .inf as well as for overflowed 1e400.
    pair = value if isinstance(value, list) else [value, 0]
    if len(pair) == 2 and all(type(v) in _NUMBER and abs(v) < np.inf for v in pair):
        return complex(*pair)
    raise SpecFormatError(f"field '{field}': expected a number or [re, im] pair, got {value!r}")


def _parse_profile(doc: dict) -> DimensionProfile:
    dims = doc.get("profile")
    if not isinstance(dims, list) or not dims or not all(type(d) is int for d in dims):
        raise SpecFormatError("field 'profile': expected a list of integers")
    try:
        return DimensionProfile(tuple(dims))
    except DomainError as exc:
        raise SpecFormatError(f"field 'profile': {exc}") from exc


def _parse_digits(value, profile: DimensionProfile) -> Sequence[int]:
    if isinstance(value, str) and all(c.isdecimal() or c.isspace() for c in value):
        digits = [int(c) for c in value if not c.isspace()]
    elif isinstance(value, list) and all(type(v) is int for v in value):
        digits = value
    else:
        raise SpecFormatError(f"field 'amplitudes': bad index digits {value!r}")
    if len(digits) != profile.n:
        raise SpecFormatError(
            f"field 'amplitudes': index {value!r} has {len(digits)} digits, expected {profile.n}"
        )
    return digits


def _parse_w_doc(doc: dict) -> WClassSpec | PCSSpec:
    """The table of a w_class document, or the PCSSpec of a pcs one (its table
    with ``p`` and ``lambda``); a declared ``profile`` must match the table."""
    table = doc.get("coefficients")
    if not isinstance(table, list) or not table:
        raise SpecFormatError("field 'coefficients': expected a list of per-party rows")
    rows = []
    for j, row in enumerate(table, start=1):
        if not isinstance(row, list) or not row:
            raise SpecFormatError(f"field 'coefficients': party {j} row must be a nonempty list")
        rows.append([_as_complex(v, f"coefficients[{j}]") for v in row])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SpecFormatError("field 'coefficients': all rows must have the same length")
    try:
        wspec = WClassSpec(len(rows), width + 1, np.array(rows, dtype=complex))
    except DomainError as exc:
        raise SpecFormatError(f"field 'coefficients': {exc}") from exc
    if "profile" in doc:
        declared = _parse_profile(doc)
        if declared.dims != wspec.profile.dims:
            raise SpecFormatError(
                f"field 'profile': {declared.dims} does not match the coefficient table "
                f"({wspec.profile.dims})"
            )
    if doc["kind"] == "w_class":
        return wspec
    for key in ("p", "lambda"):
        if type(doc.get(key)) not in _NUMBER:
            raise SpecFormatError(f"field '{key}': expected a number in [0, 1]")
    try:
        return PCSSpec(wspec, float(doc["p"]), float(doc["lambda"]))
    except DomainError as exc:
        raise SpecFormatError(f"fields 'p'/'lambda': {exc}") from exc


def _load_doc(text: str) -> dict:
    """The key-value mapping of a state-spec document.

    PyYAML is imported here, so a process that reads no document never loads it.
    """
    import yaml

    class _SpecLoader(yaml.SafeLoader):
        """The safe loader, reading ``1e-4`` as a float as YAML 1.2 does (1.1 wants a dot)."""

    _SpecLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))
    try:
        doc = yaml.load(text, Loader=_SpecLoader)
    except yaml.YAMLError as exc:
        raise SpecFormatError(f"not a valid document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFormatError("document must be a key-value mapping")
    return doc


def parse_state_spec(text: str):
    """Parse a state-spec document into a PureState or DensityOperator.

    Inputs whose normalization deviates by more than 1e-8 are rejected.
    """
    doc = _load_doc(text)
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SpecFormatError(f"field 'kind': expected one of {_KINDS}, got {kind!r}")

    if kind == "ou":
        return ou_state()
    if kind == "kim_sanders":
        return kim_sanders_state()
    if kind == "max_entangled":
        d = doc.get("d")
        if type(d) is not int:
            raise SpecFormatError("field 'd': expected an integer")
        try:
            return maximally_entangled(d)
        except DomainError as exc:
            raise SpecFormatError(f"field 'd': {exc}") from exc
    if kind == "amplitudes":
        profile = _parse_profile(doc)
        entries = doc.get("amplitudes")
        if not isinstance(entries, list) or not entries:
            raise SpecFormatError("field 'amplitudes': expected a list of (digits, re, im) triples")
        terms = []
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 3:
                raise SpecFormatError(
                    f"field 'amplitudes': expected [digits, re, im] triple, got {entry!r}"
                )
            terms.append((_parse_digits(entry[0], profile), _as_complex(entry[1:], "amplitudes")))
        try:
            return _basis_sum(profile, terms)
        except DomainError as exc:
            raise SpecFormatError(f"field 'amplitudes': {exc}") from exc

    spec = _parse_w_doc(doc)
    return build_w_state(spec) if kind == "w_class" else build_pcs_density(spec)


def parse_w_spec(text: str) -> WClassSpec | PCSSpec:
    """The coefficient table of a w_class document, or the PCSSpec of a pcs one."""
    doc = _load_doc(text)
    kind = doc.get("kind")
    if kind not in ("w_class", "pcs"):
        raise SpecFormatError("field 'kind': expected w_class or pcs")
    return _parse_w_doc(doc)


def load_state_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state_spec(fh.read())


def load_w_spec(path: str) -> WClassSpec | PCSSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_w_spec(fh.read())
