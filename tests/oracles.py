"""Reference formulas that the tests check the package against.

Each is written with the standard library and mpmath only, so it shares no
code with the ``micromacro`` implementation it checks.
"""
import math
from functools import cache

import mpmath as mp

#: working precision of the mpmath oracles, in decimal digits
DPS = 40


def ideal_guessing_probability(lam: float) -> float:
    """Ideal-detector (sigma = 0) guessing probability of D(alpha)|+> vs D(alpha)|->.

    With lam = |alpha|^2 the two number distributions differ by
    |p_plus(n) - p_minus(n)| = 2 Pois(n; lam) |n - lam| / sqrt(lam), so
    P_g = 1/2 + E|N - lam| / (2 sqrt(lam)) for N ~ Poisson(lam).  De Moivre's
    mean absolute deviation E|N - lam| = 2 e^-lam lam^(k+1) / k!, k = floor(lam),
    gives P_g = 1/2 + e^-lam lam^(k + 1/2) / k!.
    """
    k = math.floor(lam)
    return 0.5 + math.exp(-lam + (k + 0.5) * math.log(lam) - math.lgamma(k + 1))


@cache
def _poisson_terms(lam: float) -> dict:
    """n -> Pois(n; lam) at DPS digits, outward from the mode k = floor(lam)
    until a term falls below 1e-45; built once per lam, so the secant steps
    of ``sigma_max_root`` share it.  The float input is taken exactly."""
    with mp.workdps(DPS):
        lam_ = mp.mpf(lam)
        k = int(mp.floor(lam_))
        p = {k: mp.exp(-lam_) * lam_**k / mp.factorial(k)}
        tiny = mp.mpf(10) ** -(DPS + 5)
        n = k
        while p[n] > tiny:
            p[n + 1] = p[n] * lam_ / (n + 1)
            n += 1
        n = k
        while n > 0 and p[n] > tiny:
            p[n - 1] = p[n] * n / lam_
            n -= 1
        return p


def window_guessing_probability(lam: float, sigma: float):
    """(P_g, r) of D(alpha)|+> vs D(alpha)|-> at lam = alpha^2 under a
    width-sigma Gaussian detector, at DPS digits.

    P_g = 1/2 + sqrt(lam) max_x P(x - 1 < Y <= x), Y = Poisson(lam) +
    N(0, sigma^2), the maximum at the root r of f(r) = f(r - 1), f the
    density of Y (r is None at sigma = 0, where the window holds the Poisson
    mode).  Poisson terms below 1e-45 are left out (``_poisson_terms``), as
    are Gaussian factors beyond 16 sigma + 1, below e^-128 of the nearest
    one.  Since x - 1 - n = x - (n + 1), one Gaussian factor per outcome m
    serves f(x) at m = n and f(x - 1) at m = n + 1, and one normal cdf per
    m serves both ends of the window.  The root is bracketed by sign,
    bisected to sigma / 4, then polished by ``mp.findroot``.  The float
    inputs are taken exactly.
    """
    p = _poisson_terms(lam)
    with mp.workdps(DPS):
        lam_, s = mp.mpf(lam), mp.mpf(sigma)
        k = int(mp.floor(lam_))
        if sigma == 0:
            return 1 / mp.mpf(2) + mp.sqrt(lam_) * p[k], None
        outcomes = range(min(p), max(p) + 2)

        def g(x):                       # log f(x) - log f(x - 1)
            e = {m: mp.exp(-(x - m) ** 2 / (2 * s * s)) for m in outcomes
                 if abs(x - m) <= 16 * s + 1}
            return (mp.log(mp.fsum(pn * e[n] for n, pn in p.items() if n in e))
                    - mp.log(mp.fsum(pn * e[n + 1] for n, pn in p.items() if n + 1 in e)))

        a, b = lam_ - 1, lam_ + mp.mpf(1.5)
        while g(a) <= 0:
            a -= 1
        while g(b) >= 0:
            b += 1
        while b - a > s / 4:
            mid = (a + b) / 2
            a, b = (mid, b) if g(mid) > 0 else (a, mid)
        r = mp.findroot(g, (a, b), solver="anderson")
        near = [n for n in p if abs(r - n) <= 16 * s + 1]
        c = {m: mp.ncdf((r - m) / s) for m in {*near, *(n + 1 for n in near)}}
        w = mp.fsum(p[n] * (c[n] - c[n + 1]) for n in near)
        return 1 / mp.mpf(2) + mp.sqrt(lam_) * w, r


def sigma_max_root(lam: float, target: float, start: float):
    """sigma with ``window_guessing_probability`` equal to ``target``, at DPS
    digits: secant steps from ``start``, which must lie near the root."""
    with mp.workdps(DPS):
        start = mp.mpf(start)
        return mp.findroot(lambda s: window_guessing_probability(lam, s)[0] - target,
                           (start, start * (1 + mp.mpf(10) ** -9)), solver="secant")


def lossy_mixture_guessing(alpha: float, eta_h: float, eta_abs: float, sigma: float):
    """P_g of the lossy storage mixture at DPS digits: 1/2 + q (P_g(lam_mem,
    sigma) - 1/2) with ``window_guessing_probability``.

    The two stored states q D(a)|+-><+-|D^dag + (1 - q)|a><a| differ only by
    q times the pure pair's difference, so their guessing probability above
    1/2 is q times the pure pair's.  q = eta_h eta_abs, and lam_mem = a^2
    with a = sqrt(eta_abs) alpha rounded to float, as the package rounds it.
    """
    lam_mem = (math.sqrt(eta_abs) * alpha) ** 2
    with mp.workdps(DPS):
        q = mp.mpf(eta_h) * mp.mpf(eta_abs)
        return 1 / mp.mpf(2) + q * (window_guessing_probability(lam_mem, sigma)[0]
                                    - 1 / mp.mpf(2))


@cache
def _splitter_blocks(n_max: int) -> tuple:
    """(lowest n_a, exp of the block generator) for N = 0..2 n_max at DPS digits.

    The truncated 50/50 generator pi/4 (a^dag b - a b^dag) on the states
    (n_a, N - n_a) with both numbers at most n_max, exponentiated by mp.expm.
    """
    blocks = []
    with mp.workdps(DPS):
        for total in range(2 * n_max + 1):
            lo = max(0, total - n_max)
            size = min(total, n_max) - lo + 1
            gen = mp.zeros(size, size)
            for i in range(size - 1):
                hop = mp.pi / 4 * mp.sqrt((lo + i + 1) * (total - lo - i))
                gen[i + 1, i], gen[i, i + 1] = hop, -hop
            blocks.append((lo, mp.expm(gen)))
    return tuple(blocks)


def hom_visibility_truncated(mu: float, p_pair: float, eta_h: float, eta_d: float,
                             p_dc: float, xi: float, n_max: int, kmax: int):
    """V = (R_perp - R_par) / R_perp of the truncated hom model at DPS digits.

    The heralded signal q (pair weights k p_pair^k for k <= kmax, each
    thinned binomially by eta_h) meets Poisson(xi mu) cut at n_max on the
    50/50 splitter; P(n_a, n_b) = sum_k u[n_a, k]^2 q_k p_(N - k) per block,
    and the coincidence is 1 - P(no click a) - P(no click b) + P(neither),
    the non-interfering (1 - xi) mu scaling each no-click factor by
    exp(-eta_d (1 - xi) mu / 2).  The float inputs are taken exactly.
    """
    with mp.workdps(DPS):
        mu, p_pair, eta_h, eta_d, p_dc, xi = (
            mp.mpf(x) for x in (mu, p_pair, eta_h, eta_d, p_dc, xi))
        pairs = [k * p_pair**k for k in range(kmax + 1)]
        q = [mp.mpf(0)] * (n_max + 1)
        for k, w in enumerate(pairs):
            for n in range(k + 1):
                q[n] += w / sum(pairs) * mp.binomial(k, n) * eta_h**n * (1 - eta_h) ** (k - n)

        def coincidence(frac):
            mean = frac * mu
            p = [mp.exp(-mean) * mean**m / mp.factorial(m) for m in range(n_max + 1)]
            keep = (1 - p_dc) * mp.exp(-eta_d * (1 - frac) * mu / 2)
            none_a = none_b = neither = mp.mpf(0)
            for total, (lo, u) in enumerate(_splitter_blocks(n_max)):
                for i in range(u.rows):
                    prob = sum(u[i, k] ** 2 * q[lo + k] * p[total - lo - k]
                               for k in range(u.rows))
                    dark_a, dark_b = (1 - eta_d) ** (lo + i), (1 - eta_d) ** (total - lo - i)
                    none_a += dark_a * prob
                    none_b += dark_b * prob
                    neither += dark_a * dark_b * prob
            return 1 - keep * (none_a + none_b) + keep**2 * neither

        r_perp = coincidence(mp.mpf(0))
        return (r_perp - coincidence(xi)) / r_perp


def herald(g: float, r: float, p_dc: float) -> tuple:
    """(nbar, mbar, w1) of the double-pair source's herald at DPS digits, in
    the tanh form.  With T = tanh^2 g the Boltzmann ratio of each
    two-mode squeezer, side B's unconditional thermal mean is nbar =
    T / (1 - T).  Analyzer output a stays silent with probability w1 =
    (1 - p_dc)(1 - T) / (1 - r^2 T), r the amplitude remainder of the herald
    tap, and leaves its partner b_perp thermal of mean mbar =
    r^2 T / (1 - r^2 T).  The float inputs are taken exactly.
    """
    with mp.workdps(DPS):
        r, p_dc, tt = mp.mpf(r), mp.mpf(p_dc), mp.tanh(mp.mpf(g)) ** 2
        return tt / (1 - tt), r**2 * tt / (1 - r**2 * tt), (1 - p_dc) * (1 - tt) / (1 - r**2 * tt)


def detailed_joints(th_a: float, th_b: float, p) -> list:
    """The raw joints pp, pm, mp, mm of the double-pair model at DPS digits,
    by the determinant form of its Gaussian averages.

    ``p`` carries g, r, eta_d, p_dc, t1, t2, eta_c, gamma and sigma_phi.  For
    side B's thermal modes a, b of means (nu_b, nu_p), the two detector
    amplitudes are linear in five standard normals z = (Re a, Im a, Re b,
    Im b, phi), with t = t1 t2 sqrt(eta_c) and k = t2 gamma sigma_phi:

        c_main = t (cos th_b a + sin th_b b) + i k cos(th_a - th_b) phi
        c_orth = t (sin th_b a - cos th_b b) + i k sin(th_b - th_a) phi.

    With A the real and imaginary rows of the silent detectors' amplitudes,
    c = A z, E[exp(-eta_d |c|^2)] = det(I + 2 eta_d A^T A)^(-1/2), times
    (1 - p_dc) per silent detector.  Side A's herald is ``herald``'s:
    herald A = +1 (a silent, a_perp clicks) weighs the pairs (nbar, mbar) and
    (mbar, mbar) by w1 and -w1^2; A = -1 (a clicks) weighs (nbar, mbar) and
    (nbar, nbar) by -w1 and 1.  The float inputs are taken exactly.

    1 - F and F - G fall to the order of the detected light, so the working
    precision is DPS digits plus those by which its smaller part, the
    thermal modes' eta_d t^2 or the leak's eta_d k^2, lies below 1.
    """
    light = [x for x in (p.eta_d * (p.t1 * p.t2) ** 2 * p.eta_c,
                         p.eta_d * (p.t2 * p.gamma * p.sigma_phi) ** 2) if x > 0.0]
    with mp.workdps(DPS + max(0, -math.floor(math.log10(min(light, default=1.0))))):
        r, eta_d, p_dc, t1, t2, eta_c, gamma, sigma_phi, th_a, th_b = (
            mp.mpf(x) for x in (p.r, p.eta_d, p.p_dc, p.t1, p.t2, p.eta_c,
                                p.gamma, p.sigma_phi, th_a, th_b))
        nbar, mbar, w1 = herald(p.g, p.r, p.p_dc)
        t, k = t1 * t2 * mp.sqrt(eta_c), t2 * gamma * sigma_phi
        cb, sb = mp.cos(th_b), mp.sin(th_b)

        def silent(rows):
            a = mp.matrix(rows)
            det = mp.det(mp.eye(5) + 2 * eta_d * a.T * a)
            return (1 - p_dc) ** (len(rows) // 2) / mp.sqrt(det)

        def outcomes(nu_b, nu_p):
            """P(B = +1) and P(B = -1) for side B's thermal pair."""
            ta, tb = t * mp.sqrt(nu_b / 2), t * mp.sqrt(nu_p / 2)
            main = [[cb * ta, 0, sb * tb, 0, 0],
                    [0, cb * ta, 0, sb * tb, k * mp.cos(th_a - th_b)]]
            orth = [[sb * ta, 0, -cb * tb, 0, 0],
                    [0, sb * ta, 0, -cb * tb, k * mp.sin(th_b - th_a)]]
            f = silent(main)
            return f - silent(main + orth), 1 - f

        mixed, cold, hot = outcomes(nbar, mbar), outcomes(mbar, mbar), outcomes(nbar, nbar)
        return [w1 * mixed[b] - w1**2 * cold[b] for b in (0, 1)] \
            + [hot[b] - w1 * mixed[b] for b in (0, 1)]


def hom_visibility_untruncated(mu: float, p_pair: float, eta_h: float, eta_d: float,
                               p_dc: float, xi: float):
    """V = (R_perp - R_par) / R_perp of the hom model with no photon or
    herald cutoff, at DPS digits.

    Detector loss on both splitter outputs equals the same loss on both
    inputs, so the heralded photon number j is thinned by eta = eta_h eta_d
    and the detectors count every photon that reaches them.  With pair
    weights k p^k (p = p_pair), a = p (1 - eta) and b = p eta / (1 - a):

        q_j = (1 - p)^2 / (1 - a)^2 [(1 - eta)(j + 1) b^j + eta j b^(j - 1)].

    The matched CSP mean per output is u = eta_d xi' mu / 2 and the
    unmatched one y = eta_d (1 - xi') mu / 2 (xi' = xi or 0).  For |j> and a
    coherent input, P(no photon at one output) = e^-u 2^-j L_j(-u), and both
    outputs are empty only at j = 0, so with A = (1 - p_dc) e^-y

        c_0 = (1 - A e^-u)^2,    c_j = 1 - 2 A e^-u 2^-j L_j(-u) for j >= 1.

    The q_j sum to 1 and each c_j lies in [0, 1], so the terms left out of
    R = sum_j q_j c_j add at most 1 - sum of the kept q_j; the sum stops when
    that is below 10^-(DPS - 10) of R.  The float inputs are taken exactly.
    """
    with mp.workdps(DPS):
        mu, p, eta_h, eta_d, p_dc, xi = (
            mp.mpf(x) for x in (mu, p_pair, eta_h, eta_d, p_dc, xi))
        eta = eta_h * eta_d
        a = p * (1 - eta)
        b = p * eta / (1 - a)
        norm = (1 - p) ** 2 / (1 - a) ** 2
        tol = mp.mpf(10) ** -(DPS - 10)

        def coincidence(frac):
            u, y = eta_d * frac * mu / 2, eta_d * (1 - frac) * mu / 2
            keep = (1 - p_dc) * mp.exp(-y - u)   # A e^-u
            kept = norm * (1 - eta)              # q_0
            rate, j = kept * (1 - keep) ** 2, 1
            while 1 - kept > tol * rate:
                q_j = norm * ((1 - eta) * (j + 1) * b**j + eta * j * b ** (j - 1))
                rate += q_j * (1 - 2 * keep * mp.laguerre(j, 0, -u) / 2**j)
                kept += q_j
                j += 1
            return rate

        r_perp = coincidence(mp.mpf(0))
        return (r_perp - coincidence(xi)) / r_perp


def temporal_overlap(csp_fwhm: float, tau_c: float, window: float):
    """``hom.temporal_overlap`` by tanh-sinh quadrature at DPS digits: the
    squared overlap of g(t) = exp(-t^2 / 2s^2), s = csp_fwhm / (2 sqrt(ln 2)),
    and h(t) = exp(-|t| / tau_c) over [-w/2, w/2], over the product of their
    squared norms there.  Each integrand is even, so each integral is twice
    the one over [0, w/2], where h is smooth."""
    with mp.workdps(DPS):
        s = mp.mpf(csp_fwhm) / (2 * mp.sqrt(mp.log(2)))
        tau, half = mp.mpf(tau_c), mp.mpf(window) / 2

        def integral(f):
            return 2 * mp.quad(f, [0, half])

        gh = integral(lambda t: mp.exp(-t**2 / (2 * s**2) - t / tau))
        gg = integral(lambda t: mp.exp(-t**2 / s**2))
        hh = integral(lambda t: mp.exp(-2 * t / tau))
        return gh**2 / (gg * hh)
