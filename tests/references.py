"""Slow references for the package's closed forms, kept only for the tests.

Each one computes a production figure the long way: the splitter and the
displacement as dense exponentials on the full truncated Fock space, the
loss channel as a Kraus sum, the double-pair source as four-mode amplitudes
(and its rejected double-click reading), the phase-jitter average by
Gauss-Hermite quadrature, the sampling oracle in complex arithmetic, the
storage loop slot by slot, the window's root in log space, the smoothing
lattice with its whole kernel, the effective size by a search over smoothed
point masses, the tomography likelihood fit by scipy's L-BFGS-B and its Born
probabilities one projector at a time.  The differential tests compare the
closed forms with them.  Unlike ``oracles.py`` (standard library and mpmath
only), these use numpy and may take production parameter classes as input.
"""
import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.optimize import minimize

from micromacro import fock, hom, macro, noise, spdc, tomography
from micromacro.polarization import TwoQubitDensity


# ---- fock: dense Fock-space algebra ----

def annihilation(n_max: int) -> np.ndarray:
    """Single-mode annihilation operator, a|n> = sqrt(n)|n-1>."""
    a = np.zeros((n_max + 1, n_max + 1))
    n = np.arange(1, n_max + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


def expm_skew(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for skew-Hermitian gen: with 1j gen = V diag(lam) V^dag,
    exp(gen) = V diag(exp(-1j lam)) V^dag, unitary to rounding."""
    lam, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * lam)) @ v.conj().T


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
        if dev > fock.TAU_NUM:
            raise ValueError(f"mode matrix not unitary: deviation {dev:.3g}")

    def fock_unitary(self, n_max: int) -> np.ndarray:
        """Unitary on the full truncated Fock space, mode 0 the first factor.

        Built as ``exp(sum_ij G_ij a_i^dag a_j)`` with ``G = log(S)`` taken
        from the eigendecomposition of S; the generator is skew-Hermitian
        even after truncation, so the result is exactly unitary
        (photon-number flow above n_max is reflected, not lost).
        """
        k = self.matrix.shape[0]
        phases, vecs = np.linalg.eig(self.matrix)
        gen_modes = (vecs * (1j * np.angle(phases))) @ np.linalg.inv(vecs)
        a = annihilation(n_max)
        eye = np.eye(n_max + 1)
        gen = np.zeros(((n_max + 1) ** k, (n_max + 1) ** k), dtype=complex)
        for i in range(k):
            for j in range(k):
                if gen_modes[i, j] == 0:
                    continue
                ops = [eye] * k
                ops[j] = a
                ops[i] = a.T @ ops[i]  # a_i^dag a_j; a^dag a when i == j
                gen += gen_modes[i, j] * reduce(np.kron, ops)
        return expm_skew(gen)


def beam_splitter(transmittance: float) -> ModeTransform:
    """Two-mode beam splitter with the package's sign convention."""
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    return ModeTransform(np.array([[t, r], [-r, t]]))


def displacement_operator(alpha: complex, n_max: int) -> np.ndarray:
    """Matrix of D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space.

    Unitary within TAU_NUM on the low-photon-number block, so the caller
    must leave margin between the input state's support plus ``|alpha|**2``
    and ``n_max``.
    """
    tail = 1.0 - float(np.sum(fock.poisson_pmf(abs(alpha) ** 2, n_max)))
    if tail > fock.TAU_TRUNC:
        raise fock.TruncationError(
            f"displacement alpha={alpha} too large for n_max={n_max} "
            f"(vacuum-image tail mass {tail:.3g})"
        )
    a = annihilation(n_max)
    return expm_skew(alpha * a.conj().T - np.conj(alpha) * a)


def dense_output_diagonal(rho: np.ndarray, n_max: int) -> np.ndarray:
    """P(n_a, n_b) = diag(U rho U^dag) behind the dense 50/50 splitter."""
    u = beam_splitter(0.5).fock_unitary(n_max)
    return np.real(np.diag(u @ rho @ u.conj().T)).reshape(n_max + 1, n_max + 1)


def dense_coincidence(rho: np.ndarray, n_max: int, det: fock.ClickDetector) -> float:
    """P(click on both splitter outputs) for any two-mode density matrix."""
    diag = dense_output_diagonal(rho, n_max)
    w = (1.0 - det.eta_d) ** np.arange(n_max + 1)
    one = np.ones(n_max + 1)
    return 1.0 - (1.0 - det.p_dc) * float(w @ diag @ one + one @ diag @ w) \
        + (1.0 - det.p_dc) ** 2 * float(w @ diag @ w)


# ---- fock: loss channel ----

def loss_channel(eta: float, rho: np.ndarray) -> np.ndarray:
    """Pure-loss (binomial damping) channel with transmission eta on one mode.

    Kraus operators K_k |n> = sqrt(C(n,k) eta^{n-k} (1-eta)^k) |n-k>; coherent
    states map to |sqrt(eta) alpha> and the trace is preserved.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    d = rho.shape[0]
    lf = fock.log_factorials(d - 1)
    out = np.zeros_like(rho, dtype=complex)
    # log-binomial weights, guarded for eta = 0 or 1
    for k in range(d):
        kk = np.zeros((d, d))
        src = np.arange(k, d)
        if eta == 0.0:
            w = np.where(src == k, 1.0, 0.0)
        elif eta == 1.0:
            w = np.where(k == 0, np.ones_like(src, dtype=float), 0.0)
        else:
            logw = 0.5 * (
                lf[src] - lf[k] - lf[src - k]
                + (src - k) * math.log(eta) + k * math.log(1 - eta)
            )
            w = np.exp(logw)
        kk[src - k, src] = w
        out += kk @ rho @ kk.T
        if eta == 1.0 and k == 0:
            break
    return out


def coherent_density(alpha: complex, n_max: int) -> np.ndarray:
    """|alpha><alpha| on the truncated space."""
    c = fock.coherent_amplitudes(alpha, n_max)
    return np.outer(c, c.conj())


# ---- hom: classical bound and overlap ratio ----

def classical_reference_visibility(mu_signal: float, mu_csp: float,
                                   det: fock.ClickDetector, n_phase: int = 64) -> float:
    """Visibility when the heralded photon is replaced by a weak coherent state.

    The relative phase is uniformly random; coherent inputs stay coherent, so
    each phase sample factorizes into independent click probabilities.  The
    weak-field limit approaches the classical bound of 1/2.
    """
    a = math.sqrt(mu_signal)
    b = math.sqrt(mu_csp)
    phases = 2.0 * math.pi * np.arange(n_phase) / n_phase
    coinc = 0.0
    for ph in phases:
        o1 = (a + b * np.exp(1j * ph)) / math.sqrt(2)
        o2 = (-a + b * np.exp(1j * ph)) / math.sqrt(2)
        p1 = 1.0 - (1.0 - det.p_dc) * math.exp(-det.eta_d * abs(o1) ** 2)
        p2 = 1.0 - (1.0 - det.p_dc) * math.exp(-det.eta_d * abs(o2) ** 2)
        coinc += p1 * p2
    r_par = coinc / n_phase
    p1 = 1.0 - (1.0 - det.p_dc) * math.exp(-det.eta_d * (mu_signal + mu_csp) / 2.0)
    r_perp = p1 * p1
    if r_perp == 0.0:
        raise hom.UndefinedVisibilityError("no coincidences in the orthogonal case")
    return (r_perp - r_par) / r_perp


def overlap_ratio(v_m: float, v_e: float) -> float:
    """Measured-to-expected visibility ratio, the mode-overlap estimate."""
    if not 0.0 < v_m <= v_e <= 1.0:
        raise ValueError(f"require 0 < v_m <= v_e <= 1, got ({v_m}, {v_e})")
    return v_m / v_e


# ---- spdc: four-mode amplitudes, herald conditioning, jitter average, sampling ----

def spdc_amplitudes(g: float, n_max: int) -> np.ndarray:
    """Four-mode amplitudes c[n_a, n_aperp, n_b, n_bperp] of the double pair.

    Each squeezer contributes tanh(g)^n with n_a = n_bperp and
    n_aperp = n_b; all other entries vanish.
    """
    tg = math.tanh(g)
    d = n_max + 1
    c = np.zeros((d, d, d, d))
    for j in range(d):
        for k in range(d):
            c[j, k, k, j] = (1.0 - tg**2) * tg ** (j + k)
    return c


def thermal_dist(nbar: float, n_max: int) -> np.ndarray:
    """Bose-Einstein photon-number distribution of mean nbar on 0..n_max."""
    if nbar == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    q = nbar / (1.0 + nbar)
    return (1.0 - q) * q ** np.arange(n_max + 1)


def conditional_state_coeffs(g: float, r: float, p_dc: float,
                             n_max: int) -> np.ndarray:
    """Unnormalized B-side photon-number coefficients given herald +1.

    Herald +1 means no click on analyzer output a and a click on a_perp.
    The result is C[n_b, n_bperp] = w1 p_n(nbar) p_m(mbar) - w2 p_m p_m,
    whose total is the herald probability w1 - w2.  Entries along the
    n_bperp axis can be negative only through the subtraction and the
    matrix total stays positive for g > 0.
    """
    nbar, mbar = spdc.thermal_means(g, r)
    w1, w2 = spdc.herald_weights(g, r, p_dc)
    pn = thermal_dist(nbar, n_max)
    pm = thermal_dist(mbar, n_max)
    return w1 * np.outer(pn, pm) - w2 * np.outer(pm, pm)


def projected_g_factor(nu_b, nu_p, th_a, th_b, p, eta, eps) -> float:
    """The rejected reading of ``spdc._g_factor``: the leak exponent damped
    by the analyzer-projected thermal mean, as in ``spdc._f_factor``, not
    mode by mode.  Same arguments; the sampling test shows it wrong."""
    gg = 1.0 / ((1.0 + nu_b * eta) * (1.0 + nu_p * eta))
    d = 1.0 + (math.cos(th_b) ** 2 * nu_b + math.sin(th_b) ** 2 * nu_p) * eta
    z = p.t2**2 * p.gamma**2 * p.eta_d * math.cos(th_a - th_b) ** 2 / d
    return gg / math.sqrt(1.0 + 4.0 * z * eps)


def gauss_hermite_phase_average(fn, sigma: float, n_nodes: int = 61) -> float:
    """E[fn(phi)] for phi ~ N(0, sigma^2) by Gauss-Hermite quadrature."""
    if sigma == 0.0:
        return fn(0.0)
    x, w = hermgauss(n_nodes)
    return float(sum(wi * fn(math.sqrt(2.0) * sigma * xi)
                     for xi, wi in zip(x, w)) / math.sqrt(math.pi))


def complex_monte_carlo_oracle(th_a: float, th_b: float, p: spdc.DetailedParams,
                               n_samples: int, seed: int) -> spdc.OracleEstimate:
    """``spdc.monte_carlo_oracle`` in complex arithmetic: the thermal modes
    a, b and the leak phase phi scaled from the same standard normals (pair 0
    from SFC64 child 0 of the seed, pairs 1 and 2 both from child 1, in
    ``ORACLE_BLOCK`` blocks, concatenated), displaced by the leak, rotated
    onto the two detectors, and reduced by whole-array mean and ``std(ddof=1)``."""
    pairs, rows, _, _, t_amp = spdc._derived(p)
    children = np.random.SeedSequence([seed]).spawn(2)
    plus, minus = [], []  # (mean, standard error) of P(B = +-1) per pair
    for (vb, vp), child in zip(pairs, (children[0], children[1], children[1])):
        rng = np.random.Generator(np.random.SFC64(child))
        z = np.concatenate([rng.standard_normal((5, min(spdc.ORACLE_BLOCK, n_samples - s)))
                            for s in range(0, n_samples, spdc.ORACLE_BLOCK)], axis=1)
        a = math.sqrt(vb / 2) * (z[0] + 1j * z[1])
        b = math.sqrt(vp / 2) * (z[2] + 1j * z[3])
        phi = p.sigma_phi * z[4]
        m = 1j * p.t2 * p.gamma * phi
        a_hat = t_amp * a + math.cos(th_a) * m
        b_hat = t_amp * b + math.sin(th_a) * m
        c_main = math.cos(th_b) * a_hat + math.sin(th_b) * b_hat
        c_orth = math.sin(th_b) * a_hat - math.cos(th_b) * b_hat
        pnc_main = (1.0 - p.p_dc) * np.exp(-np.abs(c_main) ** 2 * p.eta_d)
        pnc_orth = (1.0 - p.p_dc) * np.exp(-np.abs(c_orth) ** 2 * p.eta_d)
        for est, x in ((plus, pnc_main * (1.0 - pnc_orth)), (minus, 1.0 - pnc_main)):
            est.append((x.mean(), x.std(ddof=1) / math.sqrt(n_samples)))

    joints, errors = [], []
    for row in rows:
        for est in (plus, minus):
            means, ses = zip(*est)
            joints.append(spdc._weigh(row, means))
            errors.append(math.sqrt(sum((w * se) ** 2 for w, se in zip(row, ses))))
    return spdc.OracleEstimate(spdc.JointProbabilities(*joints),
                               spdc.JointProbabilities(*errors))


# ---- noise: the memory's storage loop slot by slot ----

class PulseTrain:
    """Amplitudes on integer time slots (units of the storage time); pulses
    on one slot add."""

    def __init__(self, pulses):
        merged: dict[int, complex] = {}
        for slot, amp in pulses:
            merged[int(slot)] = merged.get(int(slot), 0.0) + complex(amp)
        self.pulses = tuple(sorted(merged.items()))

    def energy(self) -> float:
        return sum(abs(a) ** 2 for _, a in self.pulses)

    def amplitude(self, slot: int) -> complex:
        return dict(self.pulses).get(slot, 0.0)


def memory_pass(train: PulseTrain, params: noise.ExperimentParams) -> PulseTrain:
    """One traversal: sqrt(eta_t) transmitted in place, sqrt(eta) delayed by
    one slot, with eta_t = 1 - eta_abs."""
    rt = math.sqrt(1.0 - params.eta_abs)
    rr = math.sqrt(params.eta)
    out = []
    for slot, amp in train.pulses:
        out.append((slot, rt * amp))
        out.append((slot + 1, rr * amp))
    result = PulseTrain(out)
    if result.energy() > train.energy() * (1.0 + fock.TAU_NUM):
        raise AssertionError("memory pass created energy")
    return result


def apply_phase(train: PulseTrain, phi: float, min_slot: int = 1) -> PulseTrain:
    """Phase modulator switched on from min_slot onward (the delayed pulses)."""
    rot = cmath.exp(1j * phi)
    return PulseTrain((s, a * rot if s >= min_slot else a) for s, a in train.pulses)


def three_pulse_train(alpha: complex, params: noise.ExperimentParams,
                      phi: float) -> PulseTrain:
    """Two memory passes with the programmed phase on the stored component.

    Slots: (0) twice-transmitted, (1) interference of the two single-storage
    paths with amplitude sqrt(eta_t eta)(1 + e^{i phi}) alpha, (2) twice stored.
    """
    first = memory_pass(PulseTrain(((0, alpha),)), params)
    return memory_pass(apply_phase(first, phi), params)


# ---- macro: the log-space window, the support-wide lattice and the
#      point-mass search for N_eff ----

def residue_class_l1_smoothed(p: np.ndarray, q: np.ndarray, sigma: float) -> float:
    """The lattice L1 of ``macro._l1_smoothed`` before its kernel band: the
    same points, but each grid point sums every outcome, each residue class
    being one correlation of p - q with the whole sampled kernel.  m is
    clipped to 10000 points per photon, which undersamples the kernel below
    sigma = 6e-4, so compare above macro.SMALL_BLUR = 1/18 only."""
    diff = np.zeros(max(p.size, q.size))
    diff[:p.size] = p; diff[:q.size] -= q
    if sigma == 0.0:
        return float(np.abs(diff).sum())
    means = [macro.mean_photon(p), macro.mean_photon(q)]
    lo_mean, hi_mean = min(means), max(means)
    margin = 8.0 * sigma + 8.0 * math.sqrt(hi_mean + 1.0)
    m = min(10_000, max(macro.GRID_POINTS, math.ceil(6.0 / sigma * (1.0 - 1e-12))))
    spacing = 1.0 / m
    start = lo_mean - margin
    start -= spacing * max(0, math.ceil((start + 8.0 * sigma) / spacing))
    stop = max(hi_mean + margin, diff.size - 1 + 8.0 * sigma)
    n_x = math.ceil((stop + spacing - start) / spacing)
    kernel = spacing * np.arange(-m * (diff.size - 1), n_x)
    kernel += start; kernel /= sigma; kernel *= -0.5 * kernel
    np.exp(kernel, out=kernel); kernel /= sigma * math.sqrt(2.0 * math.pi)
    d = np.empty(n_x)
    for r in range(m):
        d[r::m] = np.correlate(kernel[r::m], diff[::-1], "valid")
    return float(np.abs(d).sum() * spacing)


def log_space_window_guessing_probability(lam: float, sigma: float) -> float:
    """``macro.window_guessing_probability`` as it solved for the window's
    end before the small-blur rule: on log f(x) - log f(x - 1), each side a
    max-shifted log-sum-exp, so that no sigma could underflow the gap.  The
    by-parts sum is the package's."""
    k = math.floor(lam)
    log_lam = math.log(lam)
    log_mode = -lam + k * log_lam - math.lgamma(k + 1)
    if sigma <= macro.SMALL_BLUR:
        return 0.5 + math.exp(log_mode + 0.5 * log_lam)
    half = 10.0 * math.sqrt(lam + 1.0) + 25.0
    lo, hi = max(0, math.floor(lam - half)), math.ceil(lam + half)
    log_p = np.full(hi - lo + 3, -np.inf)
    mode = k - lo + 1
    log_p[mode] = log_mode
    log_p[mode + 1:-1] = log_mode + np.cumsum(log_lam - np.log(np.arange(k + 1, hi + 1)))
    log_p[mode - 1:0:-1] = log_mode + np.cumsum(np.log(np.arange(k, lo, -1)) - log_lam)
    m = np.arange(lo, hi + 2)
    edges = np.stack([log_p[1:], log_p[:-1]])   # log Pois(m), log Pois(m - 1)
    scale = -0.5 / sigma**2

    def log_ratio(x):                           # log f(x) - log f(x - 1)
        t = m - x; t *= t; t *= scale
        u = edges + t
        top = u.max(axis=1)
        u -= top[:, None]
        log_f = np.log(np.exp(u, out=u).sum(axis=1)) + top
        return float(log_f[0] - log_f[1])

    xa, xb = lam - 1.0, lam + 1.5
    while log_ratio(xa) <= 0.0:
        xa -= 1.0
    while log_ratio(xb) >= 0.0:
        xb += 1.0
    r = macro._brentq(log_ratio, xa, xb, xtol=1e-8 * sigma)
    p = np.exp(log_p)
    w = float(p[math.ceil(r) - lo])
    near = slice(max(0, math.floor(r - macro.WINDOW_SIGMAS * sigma) - lo),
                 max(0, math.ceil(r + macro.WINDOW_SIGMAS * sigma) - lo + 1))
    z = (r - m[near]) / (sigma * math.sqrt(2.0))
    d = np.diff(p)[near]
    tails = np.array(list(map(math.erfc, np.abs(z).tolist())))
    w += 0.5 * float(np.dot(np.where(z > 0.0, -d, d), tails))
    return 0.5 + math.sqrt(lam) * w


def lattice_effective_size(sigma: float, target_p_g: float) -> int:
    """The N_eff search ``macro.size_analysis`` replaced: the smallest N for
    which point masses at 0 and N, smoothed on the P_g lattice, reach
    ``target_p_g`` at ``sigma``."""
    for n in range(1, 100_000):
        p0 = np.zeros(n + 1); p0[0] = 1.0
        pn = np.zeros(n + 1); pn[n] = 1.0
        if macro.guessing_probability_dists(p0, pn, sigma) >= target_p_g:
            return n
    raise RuntimeError("effective size search ran away")


# ---- tomography: the L-BFGS-B maximum-likelihood fit ----

def tomography_projectors() -> np.ndarray:
    """Outcome projectors of ``tomography.SETTING_PAIRS``, four per pair:
    (+,+), (+,-), (-,+), (-,-)."""
    out = []
    for pair in tomography.SETTING_PAIRS:
        sides = []
        for label in pair:
            ket = tomography.ANALYZER_KETS[label]
            p = np.outer(ket, ket.conj())
            sides.append((p, np.eye(2) - p))
        out.extend(np.kron(ka, kb) for ka in sides[0] for kb in sides[1])
    return np.stack(out)


def born_probabilities(rho: np.ndarray) -> np.ndarray:
    """tr(rho Pi) per outcome projector, clipped at 0, one projector at a time:
    the loop ``tomography._born_probabilities`` batches, shape (36, 4)."""
    pis = tomography._projector_stack().reshape(len(tomography.SETTING_PAIRS), 4, 4, 4)
    return np.stack([np.clip([np.real(np.trace(rho @ pi)) for pi in pair], 0.0, None)
                     for pair in pis])


def _lower_triangular(x: np.ndarray) -> np.ndarray:
    """Map 16 real parameters to a 4x4 lower-triangular complex factor."""
    t = np.zeros((4, 4), dtype=complex)
    t[np.diag_indices(4)] = x[:4]
    lo = np.tril_indices(4, -1)
    t[lo] = x[4:10] + 1j * x[10:16]
    return t


def _pack(t: np.ndarray) -> np.ndarray:
    lo = np.tril_indices(4, -1)
    return np.concatenate([np.real(np.diag(t)), np.real(t[lo]), np.imag(t[lo])])


def reference_mle(counts, max_iter: int = 4000, grad_tol: float = 1e-9):
    """The scipy maximum-likelihood fit ``tomography.reconstruct_mle`` replaced.

    rho = T T^dag / tr with T lower triangular, started from the projected
    linear inversion and fitted by L-BFGS-B, then polished by rho <- R rho R
    until the certificate max(lambda_max(R) - 1, max|R rho - rho|) is below
    ``grad_tol`` (ConvergenceError otherwise, as in production).
    """
    pis = tomography_projectors()
    freqs = counts.reshape(-1).astype(float)
    n_total = freqs.sum()
    span = pis.reshape(len(pis), 16)

    # linear-inversion warm start, projected onto the state set
    shots = counts.sum(axis=(1, 2)).repeat(4)
    rho_lin, *_ = np.linalg.lstsq(span, freqs / shots, rcond=None)
    rho_lin = rho_lin.reshape(4, 4)
    rho_lin = (rho_lin + rho_lin.conj().T) / 2
    w, v = np.linalg.eigh(rho_lin)
    rho0 = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho0 = rho0 / np.trace(rho0) + 1e-12 * np.eye(4)
    t0 = np.linalg.cholesky(rho0)

    def neg_ll_and_grad(x):
        t = _lower_triangular(x)
        m = t @ t.conj().T
        trm = np.real(np.trace(m))
        q = np.clip(np.real(np.einsum("kij,ji->k", pis, m / trm)), 1e-300, None)
        r_op = np.einsum("k,kij->ij", freqs / q, pis)
        grad_m = (r_op - n_total * np.eye(4)) / trm
        grad_t = 2.0 * grad_m @ t          # d/dT* of LL, doubled for real params
        return -float(freqs @ np.log(q)) / n_total, -_pack(np.tril(grad_t)) / n_total

    res = minimize(neg_ll_and_grad, _pack(t0), jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "gtol": 1e-13, "ftol": 1e-16})
    t = _lower_triangular(res.x)
    rho = t @ t.conj().T / np.real(np.trace(t @ t.conj().T))

    def r_operator(rho):
        q = np.clip(np.real(np.einsum("kij,ji->k", pis, rho)), 1e-300, None)
        return np.einsum("k,kij->ij", freqs / q, pis) / n_total

    def residual(rho, r_op):
        lam = float(np.linalg.eigvalsh((r_op + r_op.conj().T) / 2)[-1])
        return max(lam - 1.0, float(np.max(np.abs(r_op @ rho - rho))))

    r_op = r_operator(rho)
    gnorm = residual(rho, r_op)
    if gnorm > grad_tol:
        for it in range(20_000):
            rho = r_op @ rho @ r_op
            rho = (rho + rho.conj().T) / 2
            rho = rho / np.real(np.trace(rho))
            r_op = r_operator(rho)
            if it % 25 == 24:
                gnorm = residual(rho, r_op)
                if gnorm <= grad_tol:
                    break
    if gnorm > grad_tol:
        raise tomography.ConvergenceError(
            f"optimality residual {gnorm:.3g} > {grad_tol} "
            f"(optimizer status: {res.message})")
    w, v = np.linalg.eigh(rho)
    rho = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho = (rho + rho.conj().T) / 2
    return TwoQubitDensity(rho / np.real(np.trace(rho)))


def tomography_fit(counts, rho: np.ndarray) -> tuple[float, float]:
    """(certificate, per-shot log-likelihood) of a state for the counts.

    The certificate is max(lambda_max(R) - 1, max|R rho - rho|) with
    R = sum_k (c_k / q_k) Pi_k / N over the observed outcomes; it bounds
    how far the log-likelihood is below its maximum.
    """
    pis = tomography_projectors()
    counts = counts.reshape(-1)
    seen = counts > 0
    pis, freqs = pis[seen], counts[seen] / counts.sum()
    q = np.real(np.einsum("kij,ji->k", pis, rho))
    r_op = np.einsum("k,kij->ij", freqs / q, pis)
    cert = max(np.linalg.eigvalsh(r_op)[-1] - 1.0, np.max(np.abs(r_op @ rho - rho)))
    return float(cert), float(freqs @ np.log(q))
