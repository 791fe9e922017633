"""Coarse-grained distinguishability of the two displaced macro components.

The two components are D(alpha)(|0> +- |1>)/sqrt(2).  A detector with
Gaussian resolution sigma sees their photon-number distributions convolved
with the kernel; the optimal single-shot guessing probability for equal
priors is P_g = 1/2 + (1/4) * L1 distance between the smoothed distributions
(maximum-likelihood decision).

For the pure pair that L1 distance is closed (``window_guessing_probability``):
P_g is 1/2 plus sqrt(lam) times the heaviest unit window of Poisson(lam)
blurred by the detector, lam = alpha^2, so neither Fock amplitudes nor a
smoothing lattice enter P_g, sigma_max or N_eff.  sigma_max, the root of
P_g = target, and the window's end r inside each P_g both come from one
routine, Newton's method on a closed-form slope started from the Gaussian
limit and safeguarded by bisection (``_newton``).  The lattice
(``guessing_probability_dists``) serves only the loss-degraded mixture of
``lossy_mixture_guessing``, whose components have no such form here.  It
convolves p - q with a kernel band of WINDOW_SIGMAS sigma + 1 photons on
each side, leaving out below 2 Q(9) = 2.3e-19 per unit of |p - q|.  Both
forms take sigma <= SMALL_BLUR = 1/18 as sigma = 0, which moves L1 by at
most 4 Q(1 / (2 sigma)) L1_0 <= 4.5e-19 L1_0.  The components come from closed
forms: D(alpha)|0> = |alpha> and D(alpha)|1> = (a^dag - alpha)|alpha>
(see ``fock``), so no displacement matrix is built.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fock import (TAU_TRUNC, TruncationError, coherent_amplitudes,
                   displaced_single_photon)
from .ranges import LAM, Range

#: fewest lattice points per photon of the Gaussian smoothing integral
GRID_POINTS = 20
#: Toeplitz rows per matrix product of the lattice: a product's call cost is
#: amortised by then (32 rows took 1.5 times as long at lam = 1e4, sigma = 1),
#: and the copy of a block's rows, at most 18,000 columns at LATTICE_SIGMA's
#: bound, stays below 10 MB
BAND_ROWS = 64
#: root tolerance (photons) of sigma_max; P_g's own error over |dP_g/dsigma|
#: adds to it
SIGMA_MAX_TOL = 1e-12
#: half-width, in standard deviations, of the erfc sum of the window and of
#: the lattice's kernel band: each term left out is below Q(9) = 1.1e-19 of
#: its Poisson step, or of its |p - q| entry on each side
WINDOW_SIGMAS = 9.0
#: blur at or below which both P_g forms take sigma = 0: each outcome n then
#: lies WINDOW_SIGMAS sigma or more from both edges of its cell
#: [n - 1/2, n + 1/2), so L1 moves by at most 4 Q(1 / (2 sigma)) L1_0
#: <= 4 Q(9) L1_0 = 4.5e-19 L1_0
SMALL_BLUR = 0.5 / WINDOW_SIGMAS
#: alpha up to 1e3, the amplitude of LAM's bound
ALPHA = Range(0.0, math.sqrt(LAM.hi))
#: the lossy mixture's stored amplitude sqrt(eta_abs) alpha: ALPHA's bound
#: plus 2 eps, above the 3.5 half-ulps by which sqrt(eta_abs)
#: sqrt(beta^2 / eta_abs) can round past sqrt(beta^2), so ``size`` runs at
#: every beta*^2 in LAM whatever eta_abs
STORED_ALPHA = Range(0.0, ALPHA.hi * (1.0 + 2.0 * sys.float_info.epsilon))
#: blur up to 1e6 photons: the sigma_max search gives up on a target that
#: P_g still exceeds there
SIGMA = Range(0.0, 1e6)
#: the lattice's blur up to 1e3 photons: its kernel band grows by about 360
#: entries per photon of sigma (2.9 MB at 1e3), and each product copies
#: BAND_ROWS Toeplitz rows no wider than the band; a call at lam = 1e4 and
#: sigma = 1e3 peaks at 9.2 MB traced
LATTICE_SIGMA = Range(0.0, 1e3)


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
    """Number distributions of D(alpha)(|0> + |1>)/sqrt(2) and D(alpha)(|0> - |1>)/sqrt(2),
    for real alpha >= 0 (``fock.coherent_amplitudes`` refuses any other)."""
    zero = coherent_amplitudes(alpha, n_max)
    one = displaced_single_photon(alpha, zero)
    pp = ((zero + one) / math.sqrt(2)) ** 2
    pm = ((zero - one) / math.sqrt(2)) ** 2
    return MacroComponentPair(pp, pm, float(alpha))


def _l1_smoothed(p: np.ndarray, q: np.ndarray, sigma: float) -> float:
    """L1 distance between the sigma-smoothed distributions.

    sigma <= SMALL_BLUR = 1/18 compares the raw distributions.  A cellwise
    triangle inequality bounds what that drops:
    0 <= L1_0 - L1_sigma <= 4 Q(1 / (2 sigma)) L1_0 <= 4.5e-19 L1_0, Q the
    normal tail, since each cell [n - 1/2, n + 1/2) keeps all but 2 Q of its
    own Gaussian and receives at most what its neighbours lose.

    Above that, a Gaussian sits at every outcome n and |difference| * h is
    summed over mean +- 8 sigma +- 8 sqrt(mean) widened to the support
    +- 8 sigma (no mass of a wide input is dropped), on a lattice of
    m = max(GRID_POINTS, ceil(6 / sigma)) points per photon, at most 108
    (h = 1/20 for sigma >= 0.3).  Grid point k = r + m j (residue class r)
    sees n through the offset u = j - n, at distance start + r/m + u, so
    class r is the convolution of p - q with row r of one kernel band: the
    offsets within WINDOW_SIGMAS sigma + 1 of every class.  A term left out
    weighs below 2 Q(9) = 2.3e-19 per unit of |p - q|.  All m classes come
    from one matrix product, Toeplitz rows of the zero-padded p - q (a
    sliding window, no copy) times the (B, m) band, BAND_ROWS rows at a
    time and over only the columns where those rows hold p - q.  So the
    work is at most (len(p - q) + B) min(B, len(p - q) + BAND_ROWS) m
    multiply-adds, B = 18 sigma + 3, not the whole support.  The error sits
    at the sign changes x0 of the difference d, h^2 sum |d'(x0)| / 6 to
    leading order (the tests allow 1.25 times that).  Against a 1/4000
    grid, P_g is off by up to 1.2e-4 at sigma = 0.29, 6e-5 at 0.5, 1.5e-5
    at 1 and 5e-7 at 5 for macro pairs with alpha in [0.3, 3]; point masses
    at 0 and N are off from Phi(N / 2 sigma) by 4.0e-5 at (N, sigma) = (3, 1)
    and 1.9e-6 at (8, 5).
    """
    diff = np.zeros(max(p.size, q.size))
    diff[:p.size] = p; diff[:q.size] -= q
    if sigma <= SMALL_BLUR:
        return float(np.abs(diff).sum())
    means = [mean_photon(p), mean_photon(q)]
    lo_mean, hi_mean = min(means), max(means)
    margin = 8.0 * sigma + 8.0 * math.sqrt(hi_mean + 1.0)
    # 1e-12 shave: sigma = 6/k keeps m = k despite rounding in 6/sigma
    m = max(GRID_POINTS, math.ceil(6.0 / sigma * (1.0 - 1e-12)))
    spacing = 1.0 / m
    # reach the support +- 8 sigma in whole lattice steps: the points stay put
    start = lo_mean - margin
    start -= spacing * max(0, math.ceil((start + 8.0 * sigma) / spacing))
    stop = max(hi_mean + margin, diff.size - 1 + 8.0 * sigma)
    n_x = math.ceil((stop + spacing - start) / spacing)
    # one offset range u for all classes: each class's |start + r/m + u| <= reach
    # and up to one offset more on either side.  Band row s holds offset u[s],
    # descending, so a Toeplitz row of p - q times the band is a convolution
    reach = WINDOW_SIGMAS * sigma + 1.0
    u_lo = math.ceil(-reach - start - (m - 1) * spacing)
    u = np.arange(math.floor(reach - start), u_lo - 1, -1)
    band = spacing * (np.arange(m) + m * u[:, None])    # lattice index r + m u
    band += start; band /= sigma; band *= -0.5 * band
    np.exp(band, out=band); band /= sigma * math.sqrt(2.0 * math.pi)
    # rows[c, s] = padded[c + s], a sliding window viewed without a copy
    # (sliding_window_view's checks took 30 us a call, a fifth of a lattice at
    # perfbench's points).  Row c holds diff[c - t] at column b - 1 - t, so
    # point r + m j is entry (c, r) of the product, c = j - u_lo
    b = u.size
    padded = np.zeros(diff.size + 2 * (b - 1))
    padded[b - 1:b - 1 + diff.size] = diff
    rows = np.ndarray((padded.size - b + 1, b), buffer=padded,
                      strides=(padded.itemsize, padded.itemsize))
    n_j = -(-n_x // m)                  # rows j of points; the last may be short
    c_hi = min(rows.shape[0], n_j - u_lo)
    total = 0.0
    for c0 in range(max(0, -u_lo), c_hi, BAND_ROWS):
        c1 = min(c0 + BAND_ROWS, c_hi)
        s0, s1 = max(0, b - c1), min(b, b - 1 - c0 + diff.size)   # columns holding diff
        block = np.dot(rows[c0:c1, s0:s1], band[s0:s1])
        np.abs(block, out=block)
        if c1 + u_lo == n_j:
            block[-1, n_x - m * (n_j - 1):] = 0.0     # the points past n_x
        total += float(block.sum())
    return total * spacing


def guessing_probability(pair: MacroComponentPair, sigma: float) -> float:
    """P_g = 1/2 + (1/4) L1(smoothed p_plus, smoothed p_minus) of the pair:
    the window form at lam = alpha^2, without the pair's arrays."""
    return window_guessing_probability(pair.alpha**2, sigma)


def window_guessing_probability(lam: float, sigma: float) -> float:
    """P_g of D(alpha)|+> vs D(alpha)|-> at lam = alpha^2, detector blur sigma.

    The components differ by p_plus(n) - p_minus(n) = 2 Pois(n; lam)
    (n - lam) / sqrt(lam), and n Pois(n; lam) = lam Pois(n - 1; lam), so the
    smoothed difference is -2 sqrt(lam) times the window density
    f(x) - f(x - 1), f the density of Y = Poisson(lam) + N(0, sigma^2).  The
    Gaussian kernel is totally positive (Karlin 1968), so that density
    changes sign once, like Pois(n) - Pois(n - 1), and

        P_g = 1/2 + sqrt(lam) max_x P(x - 1 < Y <= x),

    the window's maximiser r being the one root of f(r) = f(r - 1).

    sigma = 0 gives the heaviest Poisson point, k = floor(lam), by de Moivre:

        P_g(0) = 1/2 + e^-lam lam^(k + 1/2) / k!

    (1/2 + 2 sqrt(2) e^-2 = 0.882786 at lam = 2).  It is not monotone in lam:
    maxima at half-integer lam (0.9289 at 0.5, 0.9099 at 1.5) and kinked
    minima at integer lam, both tending to 1/2 + 1/sqrt(2 pi) = 0.898942.
    It serves every sigma <= SMALL_BLUR = 1/18 too, within
    Q(1 / (2 sigma)) L1_0 <= 2.3e-19 (the cellwise bound of ``_l1_smoothed``),
    where sigma^2 could underflow.

    Larger sigma keeps Pois(m) for |m - lam| <= 10 sqrt(lam + 1) + 25, built
    outward from the mode in log form, and:

    1. solves f(r) = f(r - 1) by Newton's method (``_newton``) on the gap
       g(x) = sum_m d_m e_m, d_m = Pois(m) - Pois(m - 1),
       e_m = exp(-(x - m)^2 / 2 sigma^2), which is f(x) - f(x - 1) times
       sigma sqrt(2 pi), with the closed slope
       g'(x) = sum_m d_m (m - x) e_m / sigma^2 from the same exp.  It starts
       at the Gaussian limit lam + 1/2 inside the bracket (lam - 1,
       lam + 3/2), where g > 0 at the lower end and g < 0 at the upper (the
       tests check this over LAM and (SMALL_BLUR, SIGMA.hi]), neither end
       evaluated, and stops when the Newton step is within
       1e-8 sigma + 4 eps |x|, after 2 to 3 gap evaluations on average.
       g's rounding over |g'|, below 1/20 of 1e-8 sigma in 1,500 random
       (lam, sigma), is left out of that rule.  Plain probabilities are
       safe for sigma > 1/18: the outcome nearest any x lies within 1/2, so
       its Gaussian factor is at least e^-40.5 = 2.6e-18.
       W = P(r - 1 < Y <= r) is stationary at r, |W''| <= 1 / (2 sigma^2),
       so a root good to 1e-8 sigma moves W by under
       (1e-8 sigma)^2 / (4 sigma^2) = 2.5e-17 < 3e-17, and Newton's last
       step leaves it far better than that;
    2. sums by parts, W = sum_m d_m Phi((r - m) / sigma) with
       d_m = Pois(m) - Pois(m - 1): the d_m below r telescope to
       Pois(ceil(r) - 1), and every Phi left is a normal tail erfc(|z|) / 2,
       so no difference of two numbers near 1 is taken.  Terms beyond
       WINDOW_SIGMAS sigma of r are dropped.

    What is left is the rounding of log Pois(k), up to eps lam log lam
    (4e-13 at lam = 300): P_g is within 7e-14 of a 40-digit evaluation for
    lam up to 300 and sigma from 1e-3 to 37.  The sigma_max search keeps
    one ``_Window``, so it builds the Poisson table once per lam.
    """
    LAM.check(lam, "lam")
    SIGMA.check(sigma, "sigma")
    return _Window(lam)(sigma)


class _Window:
    """``window_guessing_probability`` at one lam, sigma -> P_g: k and
    log Pois(k) up front, the Poisson table on the first sigma > SMALL_BLUR.
    Each call finds the window's end r by ``_newton`` on the gap and its
    closed slope, from lam + 1/2 in (lam - 1, lam + 3/2) to 1e-8 sigma, and
    leaves dP_g/dsigma at that sigma in ``slope`` (see ``_sigma_max``), from
    the terms of the by-parts sum."""

    def __init__(self, lam: float):
        self.lam, self.table = lam, None
        if lam != 0.0:
            self.k, self.log_lam = math.floor(lam), math.log(lam)
            self.log_mode = -lam + self.k * self.log_lam - math.lgamma(self.k + 1)

    def _poisson_table(self) -> tuple:
        lam, k, log_lam, log_mode = self.lam, self.k, self.log_lam, self.log_mode
        half = 10.0 * math.sqrt(lam + 1.0) + 25.0
        lo, hi = max(0, math.floor(lam - half)), math.ceil(lam + half)
        # log Pois(m) for m = lo - 1 .. hi + 1, -inf at both ends (dropped mass)
        log_p = np.full(hi - lo + 3, -np.inf)
        mode = k - lo + 1
        log_p[mode] = log_mode
        log_p[mode + 1:-1] = log_mode + np.cumsum(log_lam - np.log(np.arange(k + 1, hi + 1)))
        log_p[mode - 1:0:-1] = log_mode + np.cumsum(np.log(np.arange(k, lo, -1)) - log_lam)
        p = np.exp(log_p)
        return lo, np.arange(lo, hi + 2), p, np.diff(p)  # edges m, Pois(m) - Pois(m - 1)

    def __call__(self, sigma: float) -> float:
        self.slope = 0.0                        # dP_g/dsigma, 0 where P_g is flat
        if self.lam == 0.0:
            return 0.5
        if sigma <= SMALL_BLUR:
            return 0.5 + math.exp(self.log_mode + 0.5 * self.log_lam)
        lo, m, p, d = self.table = self.table or self._poisson_table()
        scale = -0.5 / sigma**2

        def gap(x):                             # f(x) - f(x - 1) and its slope, scaled
            t = m - x
            e = t * t; e *= scale
            np.exp(e, out=e); t *= e
            return float(np.dot(d, e)), -2.0 * scale * float(np.dot(d, t))

        r = _newton(gap, self.lam + 0.5, self.lam - 1.0, self.lam + 1.5, 1e-8 * sigma, 0.0)
        w = float(p[math.ceil(r) - lo])         # Pois(ceil(r) - 1)
        near = slice(max(0, math.floor(r - WINDOW_SIGMAS * sigma) - lo),
                     max(0, math.ceil(r + WINDOW_SIGMAS * sigma) - lo + 1))
        z = (r - m[near]) / (sigma * math.sqrt(2.0))
        tails = np.array(list(map(math.erfc, np.abs(z).tolist())))
        w += 0.5 * float(np.dot(np.where(z > 0.0, -d[near], d[near]), tails))
        self.slope = -math.sqrt(self.lam / math.pi) / sigma * float(
            np.dot(d[near], z * np.exp(-z * z)))
        return 0.5 + math.sqrt(self.lam) * w


def guessing_probability_dists(p: np.ndarray, q: np.ndarray, sigma: float) -> float:
    """Same figure for two arbitrary photon-number distributions, by the
    smoothing lattice of ``_l1_smoothed``; only ``lossy_mixture_guessing``
    needs it, since the pure pair has the window form."""
    LATTICE_SIGMA.check(sigma, "sigma")
    return 0.5 + 0.25 * _l1_smoothed(np.asarray(p, float), np.asarray(q, float), sigma)


def _newton(f, x: float, lo: float, hi: float, tol: float, scale: float,
            cap: float = math.inf) -> float:
    """Root of f from x by Newton's method, safeguarded by bisection.

    f(x) returns f's value and slope at x.  f falls through its one root,
    and the sign bracket (lo, hi], f > 0 at lo and f <= 0 at hi (inf while
    unknown), narrows at each evaluation.  A Newton step that leaves it, or
    that is longer than half the previous move, or a slope >= 0 bisects it,
    or doubles x while hi is unknown; x never passes ``cap``.  The search
    stops when the Newton step is within tol + 4 eps (|x| + scale / |slope|),
    ``scale`` the rounding of f's value, and returns x minus that step; or
    when the bracket's half-width is within tol + 4 eps |x|, and returns its
    midpoint.  The step is tested first, since a converged step can round
    x - step to x itself, which may be the bracket's end.
    """
    eps4 = 4.0 * math.ulp(1.0)
    last = math.inf                         # the previous move
    while True:
        x = min(x, cap)
        value, slope = f(x)
        lo, hi = (x, hi) if value > 0.0 else (lo, x)
        step = value / slope if slope < 0.0 else math.inf
        if slope < 0.0 and abs(step) <= tol + eps4 * (abs(x) - scale / slope):
            return x - step
        if lo < x - step <= hi and abs(step) <= 0.5 * last:
            new = x - step
        elif hi - lo <= 2.0 * (tol + eps4 * abs(x)):
            return 0.5 * (lo + hi)
        else:
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        last, x = abs(new - x), new


def _sigma_max(alpha: float, target_p_g: float, tol: float) -> tuple[float, float]:
    """(P_g(0), largest sigma with P_g(sigma) >= target) of the pair at
    alpha, by ``_newton`` on P_g(sigma) - target, the routine that also
    finds the window's end r inside each P_g.

    The window's end r is stationary in x, so by the envelope theorem the
    slope is closed, and ``_Window`` leaves it in ``slope``:

        dP_g/dsigma = sqrt(lam) sum_m d_m e_m (m - r) / (sigma^2 sqrt(2 pi)),
        e_m = exp(-(m - r)^2 / 2 sigma^2).

    The start is the Gaussian limit, where the heaviest unit window of
    N(lam, lam + sigma^2) gives sigma_0^2 = lam / (2 pi (t - 1/2)^2) - lam
    (14.9094 against 14.9079 at lam = 47, t = 2/3), or sigma_0 = 1 where
    that leaves no sigma_0 above SMALL_BLUR (t near 1/2 + 1/sqrt(2 pi) or
    above).  The sign bracket starts at (SMALL_BLUR, inf) (P_g is flat
    below SMALL_BLUR), sigma is capped at SIGMA.hi, and the search stops
    when the Newton step is within tol + 4 eps (sigma + 1/|slope|) (P_g's
    rounding scale is 1), or the bracket's half-width within
    tol + 4 eps sigma, so the root is good to ``tol`` plus P_g's error over
    |slope|: rounding, which dominates only as t -> 1/2, and the rounding
    of log Pois(k) in P_g (5.7e-12 in sigma at lam = 150).  A target that
    P_g(SIGMA.hi) still exceeds is a RuntimeError.  At t = 2/3 and lam in
    [10, 300] this takes four window evaluations, P_g(0) included.
    """
    lam = alpha**2
    window = _Window(lam)
    p0 = window(0.0)
    if not 0.5 < target_p_g < p0:
        raise UnattainableTargetError(
            f"target {target_p_g} outside (1/2, P_g(0) = {p0:.6f})"
        )
    gauss = lam / (2.0 * math.pi * (target_p_g - 0.5) ** 2) - lam
    start = math.sqrt(gauss) if gauss > SMALL_BLUR**2 else 1.0

    def excess(s):
        value = window(s) - target_p_g
        if value > 0.0 and s == SIGMA.hi:
            raise RuntimeError("sigma_max search did not bracket the target")
        return value, window.slope

    return p0, _newton(excess, start, SMALL_BLUR, math.inf, tol, 1.0, cap=SIGMA.hi)


def size_analysis(alpha: float, target_p_g: float = 2.0 / 3.0) -> SizeResult:
    """P_g(0), sigma_max and the effective size N_eff of the pair at alpha.

    N_eff is the smallest N such that |0> vs |N> stays distinguishable at
    sigma_max, with the same detector model and decision rule as the pair.
    Two point masses smoothed by the width-sigma Gaussian cross at N / 2, so
    their guessing probability is exactly Phi(N / 2 sigma).
    """
    ALPHA.check(alpha, "alpha")
    p_g, s_max = _sigma_max(float(alpha), target_p_g, SIGMA_MAX_TOL)
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
    background and differ only in the entangled branch.  The stored
    amplitude a lies in STORED_ALPHA, so ``size`` runs at every beta*^2 in
    LAM, whatever eta_abs.
    """
    if not 0.0 <= eta_h <= 1.0 or not 0.0 <= eta_abs <= 1.0:
        raise ValueError("eta_h and eta_abs must be in [0, 1]")
    a_mem = STORED_ALPHA.check(math.sqrt(eta_abs) * alpha, "sqrt(eta_abs) alpha")
    n_max = default_n_max(a_mem**2 + 1.0)
    q = eta_h * eta_abs
    pair = macro_components(a_mem, n_max)
    coh = coherent_amplitudes(a_mem, n_max) ** 2
    mix_p = q * pair.p_plus + (1.0 - q) * coh
    mix_m = q * pair.p_minus + (1.0 - q) * coh
    return np.array([
        guessing_probability_dists(mix_p, mix_m, s) for s in np.asarray(sigma_grid, float)
    ])
