"""Truncated photon-number amplitudes and the 50/50 splitter.

Amplitudes live on bosonic modes, each truncated at a caller-chosen photon
number ``n_max``.  The caller owns the truncation choice;
``displaced_single_photon`` checks the probability mass lost to the cutoff
and fails loudly instead of silently clipping tails.

The model displaces by a real alpha >= 0, so every amplitude is real.
Displaced states have closed forms: D(alpha)|0> = |alpha> and
D(alpha)|1> = (a^dag - alpha)|alpha>, whose amplitudes are
c_n (n/alpha - alpha) with c_n = sqrt(Pois(n; alpha^2)) those of |alpha>.
No model path builds a displacement matrix.

The splitter conserves the total photon number N = n_a + n_b, so its
unitary on the truncated two-mode space is one small block per N
(``splitter_blocks``, at most ``n_max + 1`` square), cached per cutoff
beside its transition probabilities |u|^2.  The dense Fock-space
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
from functools import cache

import numpy as np

from .ranges import NONNEGATIVE, ClickDetector  # only perfbench reads fock.ClickDetector

#: acceptable probability mass lost to photon-number truncation
TAU_TRUNC = 1e-8
_log_factorial_table = np.empty(0)   # log(n!), grown by ``log_factorials``


class TruncationError(ValueError):
    """The requested state does not fit in the truncated space."""


def coherent_amplitudes(alpha: float, n_max: int) -> np.ndarray:
    """Coefficients e^{-a^2/2} a^n / sqrt(n!) of |a> for real a >= 0: the root
    of the Poisson(a^2) probabilities.  A negative alpha is refused, since
    the root would drop its sign."""
    return np.sqrt(poisson_pmf(NONNEGATIVE.check(alpha, "alpha") ** 2, n_max))


def log_factorials(n_max: int) -> np.ndarray:
    """log(n!) = ``math.lgamma(n + 1.0)`` for n = 0..n_max, a read-only prefix
    view of one table built on first use, not at import.  A request past its
    end grows it to max(n_max + 1, twice its size), so it keeps at most
    2 (n_max + 1) floats: 16 MB at the cutoff of ``ranges.LAM``'s bound."""
    global _log_factorial_table
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise ValueError(f"n_max={n_max!r} must be an integer >= 0")
    if n_max >= (size := _log_factorial_table.size):
        _log_factorial_table = np.append(_log_factorial_table, [
            math.lgamma(n + 1.0) for n in range(size, max(n_max + 1, 2 * size))])
        _log_factorial_table.flags.writeable = False
    return _log_factorial_table[:n_max + 1]


def poisson_pmf(mean: float, n_max: int) -> np.ndarray:
    """Poisson(mean) probabilities of n = 0..n_max, evaluated in log form."""
    NONNEGATIVE.check(mean, "mean")
    log_fact = log_factorials(n_max)
    n = np.arange(n_max + 1)
    if mean == 0:
        return (n == 0) * 1.0
    return np.exp(-mean + n * math.log(mean) - log_fact)


def displaced_single_photon(alpha: float, c: np.ndarray) -> np.ndarray:
    """D(alpha)|1> = (a^dag - alpha)|alpha>, amplitudes c_n (n/alpha - alpha),
    from the amplitudes c of |alpha> (``coherent_amplitudes``), on their cutoff.

    Evaluated as sqrt(n) c_{n-1} - alpha c_n (c_n n / alpha = sqrt(n) c_{n-1}),
    which needs no division, so alpha = 0 gives |1>.  Raises TruncationError
    when the mass beyond the cutoff exceeds ``TAU_TRUNC``.
    """
    vec = -alpha * c
    vec[1:] += np.sqrt(np.arange(1, c.size)) * c[:-1]
    nrm2 = float(np.sum(vec**2))
    if not nrm2 >= 1.0 - TAU_TRUNC:
        raise TruncationError(f"squared norm {nrm2:.12g} below 1 - {TAU_TRUNC}; "
                              "increase n_max")
    return vec


@cache
def splitter_blocks(n_max: int) -> tuple:
    """The 50/50 splitter on two modes truncated at n_max, one block per N.

    Entry N of the tuple (N = 0..2 n_max) is ``(n_a, u, w)``: the occupations
    n_a of mode a whose partner N - n_a also fits below the cutoff, the
    unitary u[i, k] = <n_a[i], N - n_a[i]| U |n_a[k], N - n_a[k]> and its
    transition probabilities w = |u|^2.  U is
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
        w = np.abs(u) ** 2
        n_a.flags.writeable = u.flags.writeable = w.flags.writeable = False
        blocks.append((n_a, u, w))
    return tuple(blocks)
