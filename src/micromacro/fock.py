"""Truncated photon-number amplitudes, click detectors and splitter unitaries.

Amplitudes live on bosonic modes, each truncated at a caller-chosen photon
number ``n_max``.  The caller owns the truncation choice; ``TruncatedState``
checks the probability mass lost to the cutoff and fails loudly instead of
silently clipping tails.  The loss channel, density operators and click
POVMs that production no longer needs are test references
(``tests/references.py``).

Displaced states have closed forms: D(alpha)|0> = |alpha> and
D(alpha)|1> = (a^dag - alpha*)|alpha>, whose amplitudes are
c_n (n/alpha - alpha*) with c_n those of |alpha>.  No model path builds a
displacement matrix; ``displacement_operator`` remains for the consistency
checks.  The Fock-space unitaries that are built (splitters, displacements)
come from one exponential of a skew-Hermitian generator, ``_expm_skew``,
which diagonalises it with ``eigh``; the module needs numpy only.

Beam-splitter sign convention (fixed once, used everywhere): a transmittance-T
splitter maps coherent amplitudes ``(a, b) -> (sqrt(T) a + sqrt(1-T) b,
-sqrt(1-T) a + sqrt(T) b)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

#: numerical tolerance for unitarity / hermiticity / eigenvalue checks
TAU_NUM = 1e-10
#: acceptable probability mass lost to photon-number truncation
TAU_TRUNC = 1e-8


class TruncationError(ValueError):
    """The requested state does not fit in the truncated space."""


@dataclass(frozen=True)
class TruncatedState:
    """Pure state on photon-number-truncated modes.

    ``amplitudes`` carries one axis per mode, every axis of length
    ``n_max + 1``.  Construction enforces that the squared norm is within
    ``TAU_TRUNC`` of one, so a norm deficit from an overly small ``n_max``
    surfaces immediately.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim < 1 or amp.shape[0] < 2:
            raise ValueError("truncation level n_max must be >= 1")
        if any(s != amp.shape[0] for s in amp.shape):
            raise ValueError("all modes must share one truncation level")
        object.__setattr__(self, "amplitudes", amp)
        nrm2 = float(np.sum(np.abs(amp) ** 2))
        if not (1.0 - TAU_TRUNC) <= nrm2 <= (1.0 + TAU_TRUNC):
            raise TruncationError(
                f"squared norm {nrm2:.12g} outside [1 - {TAU_TRUNC}, 1]; "
                "increase n_max or renormalize the input"
            )


def check_density_matrix(m: np.ndarray, trace_tol: float) -> None:
    """Raise ValueError unless m is Hermitian, PSD (both within TAU_NUM) and
    has unit trace within ``trace_tol``."""
    herm = np.max(np.abs(m - m.conj().T))
    if herm > TAU_NUM:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3g}")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr:.12g} not within {trace_tol} of 1")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -TAU_NUM:
        raise ValueError(f"negative eigenvalue {lo:.3g}")


@dataclass(frozen=True)
class ModeTransform:
    """Linear-optics transform: a k x k unitary acting on mode operators."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mode matrix must be square")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev > TAU_NUM:
            raise ValueError(f"mode matrix not unitary: deviation {dev:.3g}")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]

    def fock_unitary(self, n_max: int) -> np.ndarray:
        """Unitary on the full truncated Fock space.

        Built as ``exp(sum_ij G_ij a_i^dag a_j)`` with ``G = log(S)`` taken
        from the eigendecomposition of S; the generator is skew-Hermitian
        even after truncation, so the result is exactly unitary
        (photon-number flow above n_max is reflected, not lost — callers
        keep support comfortably below the cutoff).
        """
        key = (self.matrix.tobytes(), n_max)
        cached = _FOCK_UNITARY_CACHE.get(key)
        if cached is not None:
            return cached
        k = self.n_modes
        phases, vecs = np.linalg.eig(self.matrix)
        gen_modes = (vecs * (1j * np.angle(phases))) @ np.linalg.inv(vecs)
        a = annihilation(n_max)
        d = n_max + 1
        eye = np.eye(d)
        gen = np.zeros((d**k, d**k), dtype=complex)
        for i in range(k):
            for j in range(k):
                if gen_modes[i, j] == 0:
                    continue
                ops = [eye] * k
                ops[j] = a
                ops[i] = a.T @ ops[i]  # a_i^dag a_j; a^dag a when i == j
                gen += gen_modes[i, j] * reduce(np.kron, ops)
        u = _expm_skew(gen)
        if len(_FOCK_UNITARY_CACHE) > 32:
            _FOCK_UNITARY_CACHE.clear()
        _FOCK_UNITARY_CACHE[key] = u
        return u


_FOCK_UNITARY_CACHE: dict = {}


def _expm_skew(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for skew-Hermitian gen: with 1j gen = V diag(lam) V^dag,
    exp(gen) = V diag(exp(-1j lam)) V^dag, unitary to rounding."""
    lam, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * lam)) @ v.conj().T


@dataclass(frozen=True)
class ClickDetector:
    """Non-photon-number-resolving detector: efficiency and dark-count probability."""

    eta_d: float
    p_dc: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta_d <= 1.0:
            raise ValueError("eta_d must be in [0, 1]")
        if not 0.0 <= self.p_dc < 1.0:
            raise ValueError("p_dc must be in [0, 1)")


def annihilation(n_max: int) -> np.ndarray:
    """Single-mode annihilation operator, a|n> = sqrt(n)|n-1>."""
    a = np.zeros((n_max + 1, n_max + 1))
    n = np.arange(1, n_max + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Coefficients e^{-|a|^2/2} a^n / sqrt(n!), computed in log space."""
    if alpha == 0:
        c = np.zeros(n_max + 1, dtype=complex)
        c[0] = 1.0
        return c
    n = np.arange(n_max + 1)
    logmag = (-abs(alpha) ** 2 / 2 + n * math.log(abs(alpha))
              - 0.5 * log_factorials(n_max))
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag) * phase


def log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max."""
    return np.array([math.lgamma(n + 1.0) for n in range(n_max + 1)])


def poisson_pmf(mean: float, n_max: int) -> np.ndarray:
    """Poisson(mean) probabilities of n = 0..n_max, evaluated in log form."""
    if mean == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    return np.exp(-mean + n * math.log(mean) - log_factorials(n_max))


def poisson_tail_mass(mean: float, n_max: int) -> float:
    """Probability mass of a Poisson(mean) above n_max (log-domain partial sum)."""
    return max(0.0, 1.0 - float(np.sum(poisson_pmf(mean, n_max))))


def displacement_operator(alpha: complex, n_max: int) -> np.ndarray:
    """Matrix of D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space.

    Dense reference for the closed forms; unitary within TAU_NUM on the
    low-photon-number block, so the caller must leave margin between the
    input state's support plus ``|alpha|**2`` and ``n_max``.
    """
    tail = poisson_tail_mass(abs(alpha) ** 2, n_max)
    if tail > TAU_TRUNC:
        raise TruncationError(
            f"displacement alpha={alpha} too large for n_max={n_max} "
            f"(vacuum-image tail mass {tail:.3g})"
        )
    a = annihilation(n_max)
    return _expm_skew(alpha * a.conj().T - np.conj(alpha) * a)


def displaced_single_photon(alpha: complex, n_max: int) -> TruncatedState:
    """D(alpha)|1> = (a^dag - alpha*)|alpha>, amplitudes c_n (n/alpha - alpha*).

    Evaluated as sqrt(n) c_{n-1} - alpha* c_n (c_n n / alpha = sqrt(n) c_{n-1}),
    which needs no division, so any complex alpha works and alpha = 0 gives
    |1>.  Raises TruncationError when the mass beyond ``n_max`` exceeds
    ``TAU_TRUNC``.
    """
    c = coherent_amplitudes(alpha, n_max)
    vec = -np.conj(alpha) * c
    vec[1:] += np.sqrt(np.arange(1, n_max + 1)) * c[:-1]
    return TruncatedState(vec)


def beam_splitter(transmittance: float) -> ModeTransform:
    """Two-mode beam splitter with the module-level sign convention."""
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    return ModeTransform(np.array([[t, r], [-r, t]]))
