"""Coarse-grained distinguishability of the two displaced macro components.

The two components are D(alpha)(|0> +- |1>)/sqrt(2).  A detector with
Gaussian resolution sigma sees their photon-number distributions convolved
with the kernel; the optimal single-shot guessing probability for equal
priors is P_g = 1/2 + (1/4) * L1 distance between the smoothed distributions
(maximum-likelihood decision).

Both components come from closed forms: D(alpha)|0> = |alpha> and
D(alpha)|1> = (a^dag - alpha*)|alpha> (see ``fock``), so no displacement
matrix is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (TAU_TRUNC, TruncationError, coherent_amplitudes,
                   displaced_single_photon)

#: fewest lattice points per photon of the Gaussian smoothing integral
GRID_POINTS = 20
#: default root tolerance (photons) of sigma_max
SIGMA_MAX_TOL = 1e-3


class UnattainableTargetError(ValueError):
    """Requested guessing probability exceeds the sigma = 0 value."""


@dataclass(frozen=True)
class MacroComponentPair:
    """Photon-number distributions of the two macro components."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    alpha: float

    def __post_init__(self):
        for p in (self.p_plus, self.p_minus):
            if abs(float(p.sum()) - 1.0) > TAU_TRUNC:
                raise TruncationError("component distribution does not sum to 1")
        sep = mean_photon(self.p_plus) - mean_photon(self.p_minus)
        if abs(sep - 2.0 * self.alpha) > 0.01 * (1.0 + self.alpha):
            raise ValueError(
                f"mean separation {sep:.4f} != 2 alpha = {2 * self.alpha:.4f}"
            )


@dataclass(frozen=True)
class SizeResult:
    p_g: float
    sigma_max: float
    n_eff: int


def default_n_max(mean: float) -> int:
    """Fock cutoff at mean photon number ``mean``.  At lam + 1 both
    ``macro_components`` at alpha^2 = lam in [0, 300] sum to 1 within 1e-12."""
    return int(mean + 10.0 * math.sqrt(mean + 1.0) + 25)


def mean_photon(p: np.ndarray) -> float:
    return float(np.dot(np.arange(p.size), p))


def macro_components(alpha: float, n_max: int) -> MacroComponentPair:
    """Number distributions of D(alpha)(|0> + |1>)/sqrt(2) and D(alpha)(|0> - |1>)/sqrt(2)."""
    if alpha < 0:
        raise ValueError("alpha must be real and >= 0")
    zero = coherent_amplitudes(alpha, n_max)
    one = displaced_single_photon(alpha, n_max)
    pp = np.abs((zero + one) / math.sqrt(2)) ** 2
    pm = np.abs((zero - one) / math.sqrt(2)) ** 2
    return MacroComponentPair(pp, pm, float(alpha))


def _l1_smoothed(p: np.ndarray, q: np.ndarray, sigma: float) -> float:
    """L1 distance between the sigma-smoothed distributions.

    sigma = 0 compares the raw distributions.  Smoothing places a Gaussian at
    every outcome n and sums |difference| * h over mean +- 8 sigma +- 8 sqrt(mean)
    widened to the support +- 8 sigma (no mass of a wide input is dropped), on
    a lattice of m = ceil(6 / sigma) points per photon clipped to
    [GRID_POINTS, 10000] (h = 1/20 for sigma >= 0.3).  Grid point k sees n
    through entry k - m n of one sampled kernel, so m residue-class
    correlations replace an exp per (n, k).  The error sits at the sign
    changes x0 of the difference d, h^2 sum |d'(x0)| / 6 to leading order
    (the tests allow 1.25 times that).  Against a 1/4000 grid, P_g is off by
    up to 1.2e-4 at sigma = 0.29, 6e-5 at 0.5, 1.5e-5 at 1 and 5e-7 at 5 for
    macro pairs with alpha in [0.3, 3]; point masses at 0 and N are off from
    Phi(N / 2 sigma) by 4.0e-5 at (N, sigma) = (3, 1) and 1.9e-6 at (8, 5).
    """
    diff = np.zeros(max(p.size, q.size))
    diff[:p.size] = p; diff[:q.size] -= q
    if sigma == 0.0:
        return float(np.abs(diff).sum())
    means = [mean_photon(p), mean_photon(q)]
    lo_mean, hi_mean = min(means), max(means)
    margin = 8.0 * sigma + 8.0 * math.sqrt(hi_mean + 1.0)
    # 1e-12 shave: sigma = 6/k keeps m = k despite rounding in 6/sigma
    m = min(10_000, max(GRID_POINTS, math.ceil(6.0 / sigma * (1.0 - 1e-12))))
    spacing = 1.0 / m
    # reach the support +- 8 sigma in whole lattice steps: the points stay put
    start = lo_mean - margin
    start -= spacing * max(0, math.ceil((start + 8.0 * sigma) / spacing))
    stop = max(hi_mean + margin, diff.size - 1 + 8.0 * sigma)
    n_x = math.ceil((stop + spacing - start) / spacing)
    kernel = spacing * np.arange(-m * (diff.size - 1), n_x)  # the largest array: in place
    kernel += start; kernel /= sigma; kernel *= -0.5 * kernel
    np.exp(kernel, out=kernel); kernel /= sigma * math.sqrt(2.0 * math.pi)
    d = np.empty(n_x)
    for r in range(m):
        d[r::m] = np.correlate(kernel[r::m], diff[::-1], "valid")
    return float(np.abs(d).sum() * spacing)


def guessing_probability(pair: MacroComponentPair, sigma: float) -> float:
    """P_g = 1/2 + (1/4) L1(smoothed p_plus, smoothed p_minus).

    For an ideal detector (sigma = 0) the components of ``macro_components``
    differ by |p_plus(n) - p_minus(n)| = 2 Pois(n; lam) |n - lam| / sqrt(lam),
    lam = alpha^2, and de Moivre's Poisson mean absolute deviation gives

        P_g(0) = 1/2 + e^-lam lam^(k + 1/2) / k!,   k = floor(lam)

    (1/2 + 2 sqrt(2) e^-2 = 0.882786 at lam = 2).  It is not monotone in lam:
    maxima at half-integer lam (0.9289 at 0.5, 0.9099 at 1.5) and kinked minima
    at integer lam, both tending to 1/2 + 1/sqrt(2 pi) = 0.898942.
    """
    return guessing_probability_dists(pair.p_plus, pair.p_minus, sigma)


def guessing_probability_dists(p: np.ndarray, q: np.ndarray, sigma: float) -> float:
    """Same figure for two arbitrary photon-number distributions."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return 0.5 + 0.25 * _l1_smoothed(np.asarray(p, float), np.asarray(q, float), sigma)


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f on [xa, xb] by Brent's method (Brent 1973, ch. 4), op for op
    scipy.optimize.brentq's brentq.c at rtol = 4 eps, maxiter = 100."""
    rtol = 4.0 * math.ulp(1.0)
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False  # interpolation step short enough to take; else bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 iterations")


def _sigma_max(pair: MacroComponentPair, target_p_g: float,
               tol: float) -> tuple[float, float]:
    """(P_g(0), largest sigma with P_g(sigma) >= target), one Brent search."""
    p0 = guessing_probability(pair, 0.0)
    if not 0.5 < target_p_g < p0:
        raise UnattainableTargetError(
            f"target {target_p_g} outside (1/2, P_g(0) = {p0:.6f})"
        )
    # memoized: _brentq reuses P_g(0) and the bracket search's last excess(hi)
    seen = {0.0: p0 - target_p_g}

    def excess(s):
        if s not in seen:
            seen[s] = guessing_probability(pair, s) - target_p_g
        return seen[s]

    hi = max(2.0, 2.0 * pair.alpha)
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("sigma_max search did not bracket the target")
    return p0, _brentq(excess, 0.0, hi, xtol=tol)


def size_analysis(alpha: float, target_p_g: float = 2.0 / 3.0) -> SizeResult:
    """P_g(0), sigma_max and the effective size N_eff of the pair at alpha.

    N_eff is the smallest N such that |0> vs |N> stays distinguishable at
    sigma_max, with the same detector model and decision rule as the pair.
    Two point masses smoothed by the width-sigma Gaussian cross at N / 2, so
    their guessing probability is exactly Phi(N / 2 sigma).
    """
    pair = macro_components(alpha, default_n_max(alpha**2 + 1.0))
    p_g, s_max = _sigma_max(pair, target_p_g, SIGMA_MAX_TOL)
    n = 1
    while 0.5 * math.erfc(-n / (2.0 * math.sqrt(2.0) * s_max)) < target_p_g:
        n += 1
    return SizeResult(p_g=p_g, sigma_max=s_max, n_eff=n)


def lossy_mixture_guessing(alpha: float, eta_h: float, eta_abs: float,
                           sigma_grid) -> np.ndarray:
    """P_g(sigma) for the loss-degraded mixture components.

    Conditioned on the idler diagonal-basis outcome, the stored state is
    q D(a)|+-><+-|D^dag + (1-q) |a><a| with a = sqrt(eta_abs) alpha and
    q = eta_h * eta_abs; the two conditional states share the coherent
    background and differ only in the entangled branch.
    """
    if not 0.0 <= eta_h <= 1.0 or not 0.0 <= eta_abs <= 1.0:
        raise ValueError("eta_h and eta_abs must be in [0, 1]")
    a_mem = math.sqrt(eta_abs) * alpha
    n_max = default_n_max(a_mem**2 + 1.0)
    q = eta_h * eta_abs
    pair = macro_components(a_mem, n_max)
    coh = np.abs(coherent_amplitudes(a_mem, n_max)) ** 2
    mix_p = q * pair.p_plus + (1.0 - q) * coh
    mix_m = q * pair.p_minus + (1.0 - q) * coh
    return np.array([
        guessing_probability_dists(mix_p, mix_m, s) for s in np.asarray(sigma_grid, float)
    ])
