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
