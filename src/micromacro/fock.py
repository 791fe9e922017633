"""Truncated photon-number amplitudes, click detectors and the 50/50 splitter.

Amplitudes live on bosonic modes, each truncated at a caller-chosen photon
number ``n_max``.  The caller owns the truncation choice;
``displaced_single_photon`` checks the probability mass lost to the cutoff
and fails loudly instead of silently clipping tails.

Displaced states have closed forms: D(alpha)|0> = |alpha> and
D(alpha)|1> = (a^dag - alpha*)|alpha>, whose amplitudes are
c_n (n/alpha - alpha*) with c_n those of |alpha>.  No model path builds a
displacement matrix.

The splitter conserves the total photon number N = n_a + n_b, so its
unitary on the truncated two-mode space is one small block per N
(``splitter_blocks``, at most ``n_max + 1`` square).  The dense Fock-space
algebra it replaces (the k-mode ``ModeTransform``, the annihilation matrix
and the dense displacement operator) is the test reference
(``tests/references.py``), as are the loss channel, density operators and
click POVMs.  The module needs numpy only.

Beam-splitter sign convention (fixed once; the 50/50 blocks and the test
references follow it): a transmittance-T splitter maps coherent amplitudes
``(a, b) -> (sqrt(T) a + sqrt(1-T) b, -sqrt(1-T) a + sqrt(T) b)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .ranges import UNIT, Range, Ranged, ranged

#: numerical tolerance for unitarity / hermiticity / eigenvalue checks
TAU_NUM = 1e-10
#: acceptable probability mass lost to photon-number truncation
TAU_TRUNC = 1e-8


class TruncationError(ValueError):
    """The requested state does not fit in the truncated space."""


def check_density_matrix(m: np.ndarray) -> None:
    """Raise ValueError unless m is Hermitian, PSD and of unit trace, each
    within TAU_NUM."""
    herm = np.max(np.abs(m - m.conj().T))
    if herm > TAU_NUM:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3g}")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > TAU_NUM:
        raise ValueError(f"trace {tr:.12g} not within {TAU_NUM} of 1")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -TAU_NUM:
        raise ValueError(f"negative eigenvalue {lo:.3g}")


@dataclass(frozen=True)
class ClickDetector(Ranged):
    """Non-photon-number-resolving detector: efficiency and dark-count probability."""

    eta_d: float = ranged(UNIT)
    p_dc: float = ranged(Range(0.0, 1.0, "[)"), 0.0)


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Coefficients e^{-|a|^2/2} a^n / sqrt(n!): the root of the Poisson(|a|^2)
    probabilities times the phase e^{i n arg a}."""
    phase = np.exp(1j * np.arange(n_max + 1) * np.angle(alpha))
    return np.sqrt(poisson_pmf(abs(alpha) ** 2, n_max)) * phase


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


def displaced_single_photon(alpha: complex, n_max: int) -> np.ndarray:
    """D(alpha)|1> = (a^dag - alpha*)|alpha>, amplitudes c_n (n/alpha - alpha*).

    Evaluated as sqrt(n) c_{n-1} - alpha* c_n (c_n n / alpha = sqrt(n) c_{n-1}),
    which needs no division, so any complex alpha works and alpha = 0 gives
    |1>.  Raises TruncationError when the mass beyond ``n_max`` exceeds
    ``TAU_TRUNC``.
    """
    c = coherent_amplitudes(alpha, n_max)
    vec = -np.conj(alpha) * c
    vec[1:] += np.sqrt(np.arange(1, n_max + 1)) * c[:-1]
    nrm2 = float(np.sum(np.abs(vec) ** 2))
    if not nrm2 >= 1.0 - TAU_TRUNC:
        raise TruncationError(f"squared norm {nrm2:.12g} below 1 - {TAU_TRUNC}; "
                              "increase n_max")
    return vec


@cache
def splitter_blocks(n_max: int) -> tuple:
    """The 50/50 splitter on two modes truncated at n_max, one block per N.

    Entry N of the tuple (N = 0..2 n_max) is ``(n_a, u)``: the occupations
    n_a of mode a whose partner N - n_a also fits below the cutoff, and the
    unitary u[i, k] = <n_a[i], N - n_a[i]| U |n_a[k], N - n_a[k]>.  U is
    exp(pi/4 (a^dag b - a b^dag)) with the truncated a^dag, which cannot
    raise n_a or n_b past n_max, so for N > n_max photon flow at the cutoff
    is reflected, exactly as in the generator on the full truncated space.
    The tridiagonal generator is exponentiated as V diag(exp(-1j lam)) V^dag
    from ``eigh`` of 1j times it, unitary to rounding.  The arrays are
    read-only, since every caller shares the cached ones.
    """
    blocks = []
    for total in range(2 * n_max + 1):
        n_a = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        hop = math.pi / 4.0 * np.sqrt((n_a[:-1] + 1.0) * (total - n_a[:-1]))
        lam, v = np.linalg.eigh(1j * (np.diag(hop, -1) - np.diag(hop, 1)))
        u = (v * np.exp(-1j * lam)) @ v.conj().T
        n_a.flags.writeable = u.flags.writeable = False
        blocks.append((n_a, u))
    return tuple(blocks)


@cache
def splitter_weights(n_max: int) -> tuple:
    """The transition probabilities |u|^2 of ``splitter_blocks(n_max)``, one
    read-only ``(n_a, |u|^2)`` entry per N, cached like the blocks."""
    weights = []
    for n_a, u in splitter_blocks(n_max):
        w = np.abs(u) ** 2
        w.flags.writeable = False
        weights.append((n_a, w))
    return tuple(weights)
