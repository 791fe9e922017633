"""Two-photon interference between the heralded photon and the coherent pulse.

The heralded signal enters one port of a 50/50 splitter, the coherent state
pulse (CSP) the other.  Only the CSP fraction xi in the matched spatio-
temporal mode interferes; the orthogonal remainder contributes independent
Poissonian clicks.  Visibility compares coincidences for parallel (xi as
configured) against orthogonal (xi = 0) CSP polarization:
V = (R_perp - R_par) / R_perp.

The heralded input is diagonal in photon number and the splitter conserves
N = n_a + n_b, so the coherent phase and every off-diagonal term drop out
of the output distribution:
P(n_a, n_b) = sum_k |<n_a, N - n_a|U_N|k, N - k>|^2 q_k p_(N - k),
with q the heralded distribution, p the Poissonian CSP statistics and U_N
the splitter's photon-number blocks (``fock.splitter_blocks``).  No
two-mode density matrix is built.  Both inputs are cut at ``N_MAX``
photons; the form 1 - P(no click a) - P(no click b) + P(neither) counts the
Poisson mass beyond it (2e-9 at mu = 0.2) as coincidences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import ClickDetector, poisson_pmf, splitter_blocks

#: photon-number cutoff of each splitter input
N_MAX = 6
#: largest pair number kept in the heralded signal
HERALD_KMAX = 4


class UndefinedVisibilityError(ZeroDivisionError):
    """The orthogonal-polarization coincidence rate vanished."""


@dataclass(frozen=True)
class HomParams:
    mu_csp: float = 0.012
    p_pair: float = 0.005
    eta_h: float = 0.19
    xi: float = 1.0
    detector: ClickDetector = field(default_factory=lambda: ClickDetector(0.5, 0.0))

    def __post_init__(self):
        if self.mu_csp < 0 or not 0 < self.p_pair < 1:
            raise ValueError("bad source parameters")
        if not 0.0 <= self.eta_h <= 1.0 or not 0.0 <= self.xi <= 1.0:
            raise ValueError("eta_h and xi must be in [0, 1]")


@dataclass(frozen=True)
class TemporalProfiles:
    """CSP: Gaussian of intensity FWHM csp_fwhm (ns); heralded photon:
    double-sided exponential amplitude with coherence time tau_c (ns).

    The default FWHM of 1.0 ns is calibrated so the 3 ns-window mode overlap
    reproduces the measured visibility ratio 0.74/0.85 = 0.87 (a nominal
    2.0 ns pulse would give an overlap above 0.99 there).
    """

    csp_fwhm: float = 1.0
    hsp_tau_c: float = 1.9

    def __post_init__(self):
        if self.csp_fwhm <= 0 or self.hsp_tau_c <= 0:
            raise ValueError("widths must be positive")


def heralded_signal_dist(p_pair: float, eta_h: float) -> np.ndarray:
    """Photon-number distribution of the heralded signal mode.

    Pair statistics are two-mode-squeezed with tanh^2(g) = p_pair; heralding
    weights the k-pair term by the idler click probability, which in the
    low-efficiency limit is proportional to k.  The signal then suffers
    binomial loss 1 - eta_h down to the splitter.
    """
    k = np.arange(HERALD_KMAX + 1)
    w = k * p_pair**k
    w = w / w.sum()
    q = np.zeros(HERALD_KMAX + 1)
    for kk in range(HERALD_KMAX + 1):
        q[: kk + 1] += w[kk] * binomial_pmf(kk, eta_h)
    return q


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of k = 0..n."""
    return np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
                     for k in range(n + 1)])


def output_distribution(q_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """P(n_a, n_b) behind the 50/50 splitter for independent photon-number
    distributions q_a and p_b of its inputs, both of length n_max + 1."""
    n_max = len(q_a) - 1
    out = np.zeros((n_max + 1, n_max + 1))
    for total, (n_a, u) in enumerate(splitter_blocks(n_max)):
        out[n_a, total - n_a] = np.abs(u) ** 2 @ (q_a[n_a] * p_b[total - n_a])
    return out


def coincidence_from_joint(q_a: np.ndarray, p_b: np.ndarray, det: ClickDetector,
                           unmatched_mean: float = 0.0) -> float:
    """P(click on both splitter outputs) for independent photon-number
    inputs q_a and p_b (see ``output_distribution``).

    ``unmatched_mean`` adds an independent coherent background of that mean
    photon number split evenly over both outputs (the non-interfering CSP
    fraction); it only scales the no-click factors.
    """
    diag = output_distribution(q_a, p_b)
    d = diag.shape[0]
    w = (1.0 - det.eta_d) ** np.arange(d)
    s_unm = math.exp(-det.eta_d * unmatched_mean / 2.0)
    one = np.ones(d)
    pnc_a = (1.0 - det.p_dc) * float(w @ diag @ one) * s_unm
    pnc_b = (1.0 - det.p_dc) * float(one @ diag @ w) * s_unm
    pnc_ab = (1.0 - det.p_dc) ** 2 * float(w @ diag @ w) * s_unm**2
    return 1.0 - pnc_a - pnc_b + pnc_ab


def coincidence_probability(params: HomParams, xi: float) -> float:
    """Coincidence rate with the CSP mode-matched fraction xi."""
    q = np.zeros(N_MAX + 1)
    q[: HERALD_KMAX + 1] = heralded_signal_dist(params.p_pair, params.eta_h)
    return coincidence_from_joint(
        q, poisson_pmf(xi * params.mu_csp, N_MAX), params.detector,
        unmatched_mean=(1.0 - xi) * params.mu_csp,
    )


def hom_visibility(params: HomParams) -> float:
    """V = (R_perp - R_par) / R_perp."""
    r_par = coincidence_probability(params, params.xi)
    r_perp = coincidence_probability(params, xi=0.0)
    # below ~100 eps the subtractions above are pure cancellation noise
    if r_perp <= 1e-14:
        raise UndefinedVisibilityError("no coincidences in the orthogonal case")
    return (r_perp - r_par) / r_perp


def hom_visibility_curve(mu_grid, params: HomParams) -> np.ndarray:
    """V at every CSP mean of ``mu_grid``, the other parameters as ``params``."""
    return np.array([
        hom_visibility(replace(params, mu_csp=float(m))) for m in mu_grid
    ])


def _erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for x >= 0; the asymptotic series (relative error
    below 3e-13) takes over where exp(x^2) would overflow."""
    if x < 25.0:
        return math.exp(x * x) * math.erfc(x)
    y = 1.0 / (2.0 * x * x)
    series = 1.0 - y * (1.0 - 3.0 * y * (1.0 - 5.0 * y * (1.0 - 7.0 * y)))
    return series / (x * math.sqrt(math.pi))


def temporal_overlap(profiles: TemporalProfiles, window: float) -> float:
    """Squared normalized overlap of the window-restricted amplitude profiles.

    With the CSP amplitude g(t) = exp(-t^2 / 2s^2) and the heralded amplitude
    h(t) = exp(-|t| / tau), all three integrals over [-w/2, w/2] are closed:
    int g^2 = s sqrt(pi) erf(w / 2s), int h^2 = tau (1 - e^(-w/tau)), and
    int g h = s sqrt(2 pi) e^(a^2) [erfc(a) - erfc(a + w / (2 sqrt2 s))]
    with a = s / (sqrt2 tau), written through erfcx(x) = e^(x^2) erfc(x).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    s = profiles.csp_fwhm / (2.0 * math.sqrt(math.log(2.0)))
    tau = profiles.hsp_tau_c
    half = window / 2.0
    a = s / (math.sqrt(2.0) * tau)
    b = a + half / (math.sqrt(2.0) * s)
    gh = s * math.sqrt(2.0 * math.pi) \
        * (_erfcx(a) - math.exp(a * a - b * b) * _erfcx(b))
    gg = s * math.sqrt(math.pi) * math.erf(half / s)
    hh = -tau * math.expm1(-window / tau)
    return gh**2 / (gg * hh)


def overlap_vs_window(profiles: TemporalProfiles, windows, v_e: float = 0.85):
    """xi(w) and the predicted measured visibility V_m(w) = xi(w) * v_e."""
    xi = np.array([temporal_overlap(profiles, float(w)) for w in windows])
    return xi, xi * v_e
