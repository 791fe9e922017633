import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import norm

from micromacro import fock, macro
from oracles import ideal_guessing_probability
from references import coherent_density, displacement_operator, loss_channel


def reference_smoothed_difference(p, q, sigma, spacing):
    """The sigma-smoothed p - q on the grid of the per-photon loop: one
    Gaussian per outcome n, evaluated at every grid point.  The grid spans
    mean +- 8 sigma +- 8 sqrt(mean), widened by whole steps to cover the
    whole support +- 8 sigma, whatever mass lies outside."""
    means = [macro.mean_photon(p), macro.mean_photon(q)]
    lo_mean, hi_mean = min(means), max(means)
    margin = 8.0 * sigma + 8.0 * math.sqrt(hi_mean + 1.0)
    start = lo_mean - margin
    start -= spacing * max(0, math.ceil((start + 8.0 * sigma) / spacing))
    stop = max(hi_mean + margin, max(p.size, q.size) - 1 + 8.0 * sigma)
    x = np.arange(start, stop + spacing, spacing)
    norm_ = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    dp = np.zeros_like(x)
    dq = np.zeros_like(x)
    for n in range(max(p.size, q.size)):
        g = norm_ * np.exp(-0.5 * ((x - n) / sigma) ** 2)
        if n < p.size and p[n] != 0.0:
            dp += p[n] * g
        if n < q.size and q[n] != 0.0:
            dq += q[n] * g
    return dp - dq


def reference_spacing(sigma):
    """Grid spacing of the per-photon loop: 0.05, refined to sigma / 6."""
    return min(0.05, max(sigma / 6.0, 1e-4))


def reference_l1_smoothed(p, q, sigma, spacing=None):
    """L1 distance of the smoothed distributions by the per-photon loop."""
    spacing = reference_spacing(sigma) if spacing is None else spacing
    return float(np.abs(reference_smoothed_difference(p, q, sigma, spacing)).sum()
                 * spacing)


@st.composite
def distribution_pairs(draw, max_size=300):
    """Two normalised distributions on 0..size-1: random weights with zeros,
    or a point mass each."""
    size = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if size > 1 and draw(st.booleans()):
        i, j = rng.choice(size, 2, replace=False)
        return np.eye(size)[i], np.eye(size)[j]
    pair = []
    for _ in range(2):
        w = rng.random(size) * (rng.random(size) < 0.7)
        w[rng.integers(size)] += 0.5   # at least one nonzero weight
        pair.append(w / w.sum())
    return tuple(pair)


def test_component_distributions_closed_form():
    # p_n(+-) = e^{-lam} lam^{n-1} (sqrt(lam) +- (n - lam))^2 / (2 n!)
    alpha, n_max = 1.7, 50
    lam = alpha**2
    pair = macro.macro_components(alpha, n_max)
    n = np.arange(n_max + 1)
    base = np.exp(-lam + (n - 1) * math.log(lam) - gammaln(n + 1)) / 2.0
    p_plus = base * (math.sqrt(lam) + (n - lam)) ** 2
    p_minus = base * (math.sqrt(lam) - (n - lam)) ** 2
    assert np.max(np.abs(pair.p_plus - p_plus)) < 1e-12
    assert np.max(np.abs(pair.p_minus - p_minus)) < 1e-12


def test_ideal_guessing_probability_is_half_plus_quarter_l1():
    pair = macro.macro_components(1.2, 40)
    direct = 0.5 + 0.25 * float(np.sum(np.abs(pair.p_plus - pair.p_minus)))
    assert abs(macro.guessing_probability(pair, 0.0) - direct) < 1e-12


def test_frozen_guessing_values():
    # ideal-detector values 0.882786 (|alpha|^2 = 2) and 0.898236 (47)
    pair2 = macro.macro_components(math.sqrt(2.0), macro.default_n_max(3.0))
    assert abs(macro.guessing_probability(pair2, 0.0)
               - ideal_guessing_probability(2.0)) < 1e-9
    pair47 = macro.macro_components(math.sqrt(47.0), macro.default_n_max(48.0))
    assert abs(macro.guessing_probability(pair47, 0.0)
               - ideal_guessing_probability(47.0)) < 1e-9


def test_two_point_masses_match_normal_cdf():
    # for delta distributions at 0 and N the optimal guess succeeds with
    # probability Phi(N / (2 sigma)); the grid error sits at the one sign
    # change x = N / 2 and is largest where it is steepest, 3.9e-5 at N = 1,
    # sigma = 0.5 (5.9e-6 at N = 8, sigma = 2.5 for sigma >= 1)
    for n in (1, 8, 13, 40):
        p = np.zeros(n + 1)
        q = np.zeros(n + 1)
        p[0] = 1.0
        q[n] = 1.0
        for sigma in (0.5, 1.0, 2.5, 6.0, 15.0):
            got = macro.guessing_probability_dists(p, q, sigma)
            tol = 1e-5 if sigma >= 1.0 else 4e-5
            assert abs(got - norm.cdf(n / (2.0 * sigma))) < tol, (n, sigma)


@given(pair=distribution_pairs(),
       sigma=st.one_of(st.floats(0.3, 60.0),
                       st.integers(21, 120).map(lambda k: 6.0 / k)))
@example(pair=(np.eye(9)[0], np.eye(9)[8]), sigma=2.5)
@example(pair=(np.eye(2)[0], np.eye(2)[1]), sigma=6.0 / 47)  # 6 / (6 / 47) > 47
@settings(max_examples=40, deadline=None)
def test_lattice_smoothing_matches_per_photon_loop(pair, sigma):
    # sigma >= 0.3 and sigma = 6/k keep the per-photon loop's grid, so only
    # rounding separates the two
    p, q = pair
    want = 0.5 + 0.25 * reference_l1_smoothed(p, q, sigma)
    got = macro.guessing_probability_dists(p, q, sigma)
    assert abs(got - want) <= 1e-12 * want


@given(data=st.data(), sigma=st.floats(1e-3, 0.3, exclude_max=True))
@example(data=None, sigma=0.29)
@settings(max_examples=30, deadline=None)
def test_fine_lattice_error_within_kink_bound(data, sigma):
    # below sigma = 0.3 the lattice has m = ceil(6 / sigma) points per photon,
    # never coarser than the loop's sigma / 6 (up to the rule's 1e-12 shave).
    # The integrand |d| is smooth except at the sign changes x0 of d, where
    # the rectangle rule errs by at most h^2 |d'(x0)| / 6 (periodic Bernoulli
    # B2 <= 1/6, kink 2 |d'|).
    # The reference runs at a tenth of the loop's spacing; its cost grows as
    # size^2 / sigma, hence the size cap.  Its np.arange steps by
    # (start + h) - start, which stretches the grid by up to ulp(start) / h,
    # 1e-10 relative at sigma = 1e-3: the 1e-9 relative floor.
    if data is None:  # the 0.3-photon pair of macro_components at alpha = 0.3
        pair = macro.macro_components(0.3, 40)
        p, q = pair.p_plus, pair.p_minus
    else:
        p, q = data.draw(distribution_pairs(max(2, int(200 * math.sqrt(sigma)))))
    h_ref = reference_spacing(sigma) / 10
    d = reference_smoothed_difference(p, q, sigma, h_ref)
    fine = float(np.abs(d).sum() * h_ref)
    cross = np.flatnonzero(np.signbit(d[:-1]) != np.signbit(d[1:]))
    slopes = float(np.abs(d[cross + 1] - d[cross]).sum() / h_ref)
    h = 1.0 / min(10_000, math.ceil(6.0 / sigma * (1.0 - 1e-12)))
    assert h <= reference_spacing(sigma) * (1.0 + 1e-12)
    bound = 1.25 * (h**2 + h_ref**2) / 6.0 * slopes + 1e-9 * fine
    assert abs(macro._l1_smoothed(p, q, sigma) - fine) <= bound


def test_wide_distribution_keeps_its_mass_under_blur():
    # uniform on 0..299 against a point mass at 150: most of the uniform mass
    # lies beyond mean +- 8 sqrt(mean + 1), where the window used to end, and
    # P_g fell from 0.998 at sigma = 0 to 0.914 at 0.1, then rose with blur
    p = np.full(300, 1.0 / 300.0)
    q = np.eye(300)[150]
    sigmas = (0.0, 0.1, 0.5, 2.0, 5.0, 20.0)
    values = [macro.guessing_probability_dists(p, q, s) for s in sigmas]
    assert np.all(np.diff(values) <= 1e-12), values
    for s, got in zip(sigmas[1:], values[1:]):
        want = 0.5 + 0.25 * reference_l1_smoothed(p, q, s)
        assert abs(got - want) <= 1e-12 * want, (s, got, want)


def test_guessing_probability_monotone_in_blur():
    pair = macro.macro_components(2.0, 60)
    sigmas = np.linspace(0.0, 12.0, 40)
    values = [macro.guessing_probability(pair, s) for s in sigmas]
    assert np.all(np.diff(values) <= 1e-12)
    assert values[-1] > 0.5 - 1e-12
    with pytest.raises(ValueError):
        macro.guessing_probability(pair, -0.1)


@given(st.floats(0.0, 3.0))
@example(0.0)
@settings(max_examples=40, deadline=None)
def test_components_match_dense_displacement(alpha):
    # reference: the columns D(alpha)|0> and D(alpha)|1> of the dense expm
    n_max = 60
    pair = macro.macro_components(alpha, n_max)
    d = displacement_operator(alpha, n_max)
    p_plus = np.abs(d[:, 0] + d[:, 1]) ** 2 / 2.0
    p_minus = np.abs(d[:, 0] - d[:, 1]) ** 2 / 2.0
    assert np.max(np.abs(pair.p_plus - p_plus)) < 1e-10
    assert np.max(np.abs(pair.p_minus - p_minus)) < 1e-10


def test_components_reject_small_cutoff():
    with pytest.raises(fock.TruncationError):
        macro.macro_components(math.sqrt(47.0), 60)


def test_sigma_max_and_effective_size_at_47():
    result = macro.size_analysis(math.sqrt(47.0))
    assert abs(result.sigma_max - 14.908) < 5e-3
    assert result.n_eff == 13
    assert abs(result.p_g - ideal_guessing_probability(47.0)) < 1e-9


MONOTONE = (
    lambda t, a, b: a * t + b * t**3,
    lambda t, a, b: math.tanh(a * t) + b * t,
    lambda t, a, b: math.expm1(a * t),
    lambda t, a, b: a * math.atan(t) + b * t**5,
)


@given(kind=st.integers(0, len(MONOTONE) - 1), root=st.floats(-5.0, 5.0),
       a=st.floats(0.01, 10.0), b=st.floats(0.0, 3.0), sign=st.sampled_from([1, -1]),
       below=st.floats(1e-3, 20.0), above=st.floats(1e-3, 20.0),
       log_xtol=st.floats(-15.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_brentq_port_matches_scipy(kind, root, a, b, sign, below, above, log_xtol):
    # the same floats: every iterate, hence the root, is bit-identical
    def f(x):
        return sign * MONOTONE[kind](x - root, a, b)
    lo, hi, xtol = root - below, root + above, 10.0**log_xtol
    assert macro._brentq(f, lo, hi, xtol) == brentq(f, lo, hi, xtol=xtol)


@pytest.mark.parametrize("tol", [1e-3, 1e-12])
def test_brentq_port_matches_scipy_on_the_size_solver(tol):
    pair = macro.macro_components(math.sqrt(47.0), macro.default_n_max(48.0))
    def excess(s):
        return macro.guessing_probability(pair, s) - 2.0 / 3.0
    hi = 4.0 * math.sqrt(47.0)  # _sigma_max's bracket: 2 alpha, doubled once
    assert macro._sigma_max(pair, 2.0 / 3.0, tol)[1] == brentq(excess, 0.0, hi, xtol=tol)


def test_brentq_port_rejects_an_unbracketed_root():
    with pytest.raises(ValueError, match="different signs"):
        macro._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-6)


@pytest.mark.parametrize("beta_sq", [10.0, 47.0, 150.0, 300.0])
def test_size_analysis_evaluates_each_sigma_once(monkeypatch, beta_sq):
    # Brent's bracket ends are P_g(0) and the doubling search's last sigma,
    # both already evaluated; the search must not compute them again
    sigmas = []
    original = macro.guessing_probability

    def counting(pair, sigma):
        sigmas.append(sigma)
        return original(pair, sigma)

    monkeypatch.setattr(macro, "guessing_probability", counting)
    macro.size_analysis(math.sqrt(beta_sq))
    assert sigmas.count(0.0) == 1
    assert len(set(sigmas)) == len(sigmas), sorted(sigmas)


def test_unattainable_targets_rejected():
    with pytest.raises(macro.UnattainableTargetError):
        macro.size_analysis(math.sqrt(2.0), 0.95)
    with pytest.raises(macro.UnattainableTargetError):
        macro.size_analysis(math.sqrt(2.0), 0.5)


def test_lossy_mixture_guessing_value_and_decay():
    alpha_in = math.sqrt(47.0 / 0.55)
    values = macro.lossy_mixture_guessing(alpha_in, 0.19, 0.55, [0.0, 5.0, 15.0])
    assert abs(values[0] - 0.541616) < 1e-4
    assert values[0] > values[1] > values[2]


def test_lossy_mixture_background_is_the_loss_image():
    # the coherent background the two stored states share is the input
    # field |alpha> after absorption eta_abs, and the entangled branch is
    # displaced by the same damped amplitude sqrt(eta_abs) alpha
    alpha, eta_h, eta_abs = 3.0, 0.19, 0.55
    a_mem = math.sqrt(eta_abs) * alpha
    n_max = macro.default_n_max(a_mem**2 + 1.0)
    background = np.real(np.diag(
        loss_channel(eta_abs, coherent_density(alpha, macro.default_n_max(alpha**2 + 1.0)))
    ))[:n_max + 1]
    pair = macro.macro_components(a_mem, n_max)
    q = eta_h * eta_abs
    sigmas = [0.0, 0.5, 2.0, 6.0]
    want = [macro.guessing_probability_dists(q * pair.p_plus + (1.0 - q) * background,
                                             q * pair.p_minus + (1.0 - q) * background, s)
            for s in sigmas]
    got = macro.lossy_mixture_guessing(alpha, eta_h, eta_abs, sigmas)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
