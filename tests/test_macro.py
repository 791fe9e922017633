import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import norm

from micromacro import fock, macro, noise
from oracles import (ideal_guessing_probability, lossy_mixture_guessing, sigma_max_root,
                     window_guessing_probability)
from references import (brent_sigma_max, coherent_density, displacement_operator,
                        lattice_effective_size, log_space_window_guessing_probability,
                        loss_channel, per_call_window_guessing_probability,
                        residue_class_l1_smoothed)

#: the least blur that runs the lattice
JUST_ABOVE_SMALL_BLUR = math.nextafter(macro.SMALL_BLUR, 1.0)


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


def macro_pair(lam):
    """p_plus, p_minus of the macro pair at alpha^2 = lam, at the default cutoff."""
    pair = macro.macro_components(math.sqrt(lam), macro.default_n_max(lam + 1.0))
    return pair.p_plus, pair.p_minus


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
    # probability Phi(N / (2 sigma)), the closed form size_analysis uses for
    # N_eff.  The lattice errs only at the one sign change x0 = N / 2, by at
    # most h^2 |d'(x0)| / 6 in L1 (the kink bound, with the 1.25 slack of
    # test_fine_lattice_error_within_kink_bound); the largest error, 7.4e-5,
    # is at N = 1, sigma = 0.3
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55):
        p = np.eye(n + 1)[0]
        q = np.eye(n + 1)[n]
        for sigma in (*np.geomspace(0.3, 30.0, 13), 1.25):
            got = macro.guessing_probability_dists(p, q, sigma)
            h = 1.0 / max(macro.GRID_POINTS, math.ceil(6.0 / sigma))
            slope = n / sigma**2 * norm.pdf(n / (2.0 * sigma)) / sigma
            bound = 1.25 * h**2 * slope / 6.0 / 4.0 + 1e-14  # P_g = 1/2 + L1 / 4
            assert abs(got - norm.cdf(n / (2.0 * sigma))) <= bound, (n, sigma)


@pytest.mark.parametrize("beta_sq, n_eff", [(10.0, 6), (47.0, 13), (150.0, 23),
                                            (300.0, 33)])
def test_effective_size_matches_the_lattice_search(beta_sq, n_eff):
    # the closed-form Phi(N / 2 sigma_max) against the point-mass search it
    # replaced, which smooths |0> and |N> on the P_g lattice
    result = macro.size_analysis(math.sqrt(beta_sq))
    assert result.n_eff == n_eff
    assert lattice_effective_size(result.sigma_max, 2.0 / 3.0) == n_eff


def test_default_cutoff_keeps_the_component_mass():
    # default_n_max(lam + 1) keeps both components' mass to 1e-12 for every
    # size the CLI and perfbench use (worst 2.1e-13, at lam = 293.8)
    for lam in np.linspace(0.0, 300.0, 1201):
        pair = macro.macro_components(math.sqrt(lam), macro.default_n_max(lam + 1.0))
        assert abs(pair.p_plus.sum() - 1.0) <= 1e-12, lam
        assert abs(pair.p_minus.sum() - 1.0) <= 1e-12, lam


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


@given(data=st.data(), sigma=st.floats(macro.SMALL_BLUR, 0.3, exclude_min=True,
                                       exclude_max=True))
@example(data=None, sigma=0.29)
@settings(max_examples=30, deadline=None)
def test_fine_lattice_error_within_kink_bound(data, sigma):
    # between SMALL_BLUR and 0.3 the lattice has m = ceil(6 / sigma) points
    # per photon, never coarser than the loop's sigma / 6 (up to the rule's
    # 1e-12 shave); at or below SMALL_BLUR no lattice runs, and
    # test_small_blur_is_the_unblurred_l1 covers it.
    # The integrand |d| is smooth except at the sign changes x0 of d, where
    # the rectangle rule errs by at most h^2 |d'(x0)| / 6 (periodic Bernoulli
    # B2 <= 1/6, kink 2 |d'|).
    # The reference runs at a tenth of the loop's spacing; its cost grows as
    # size^2 / sigma, hence the size cap.  Its np.arange steps by
    # (start + h) - start, which stretches the grid by up to ulp(start) / h,
    # below 1e-10 relative here: the 1e-9 relative floor.
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
    h = 1.0 / math.ceil(6.0 / sigma * (1.0 - 1e-12))
    assert h <= reference_spacing(sigma) * (1.0 + 1e-12)
    bound = 1.25 * (h**2 + h_ref**2) / 6.0 * slopes + 1e-9 * fine
    assert abs(macro._l1_smoothed(p, q, sigma) - fine) <= bound


@pytest.mark.parametrize("lam", [0.25, 1.0, 2.0, 10.0, 47.0, 150.0, 300.0])
def test_banded_lattice_matches_the_support_wide_lattice(lam):
    # the same lattice points; the band leaves out terms below 2 Q(9) per
    # unit of |p - q|, so only rounding separates the two (worst 1.7e-16)
    pair = macro.macro_components(math.sqrt(lam), macro.default_n_max(lam + 1.0))
    for sigma in (JUST_ABOVE_SMALL_BLUR, 0.1, 0.29, 0.5, 1.0, 2.0, 5.0, 8.0, 15.0, 37.0):
        want = residue_class_l1_smoothed(pair.p_plus, pair.p_minus, sigma)
        got = macro._l1_smoothed(pair.p_plus, pair.p_minus, sigma)
        assert abs(got - want) <= 1e-12 * want, (lam, sigma, got, want)


@given(pair=distribution_pairs(),
       sigma=st.floats(macro.SMALL_BLUR, 60.0, exclude_min=True))
@example(pair=(np.eye(2)[0], np.eye(2)[1]), sigma=JUST_ABOVE_SMALL_BLUR)
@example(pair=(np.eye(300)[0], np.eye(300)[299]), sigma=0.3)
@example(pair=(np.eye(300)[299], np.eye(300)[0]), sigma=60.0)
# macro.BAND_ROWS - 1, BAND_ROWS and BAND_ROWS + 1 Toeplitz rows (63, 64, 65),
# the first on n_x = 1,540 = 77 m points, m = 20, the others on 1,543 and 1,552
@example(pair=(np.eye(2)[0], np.eye(2)[1]), sigma=3.33)
@example(pair=(np.eye(2)[0], np.eye(2)[1]), sigma=3.34)
@example(pair=(np.eye(2)[0], np.eye(2)[1]), sigma=3.37)
# the last row of points inside the product: n_x = 3,520 = 176 m, and
# 3,536, which leaves 16 of that row's 20 points
@example(pair=(np.eye(2)[0], np.eye(2)[1]), sigma=9.52)
@example(pair=(np.eye(2)[0], np.eye(2)[1]), sigma=9.57)
# a band of 5,403 offsets against 42 outcomes, and 11,027 outcomes against 21
@example(pair=macro_pair(0.25), sigma=300.0)
@example(pair=macro_pair(1e4), sigma=1.0)
@settings(max_examples=60, deadline=None)
def test_banded_lattice_matches_on_random_pairs(pair, sigma):
    p, q = pair
    want = residue_class_l1_smoothed(p, q, sigma)
    got = macro._l1_smoothed(p, q, sigma)
    assert abs(got - want) <= 1e-12 * want, (sigma, got, want)


def test_banded_lattice_peak_memory():
    # a 147 x 20 kernel band (24 KB) and the copy of 64 x 147 Toeplitz rows
    # that each product takes (75 KB) read 133 KB; holding the lattice itself
    # (12,540 points, 100 KB) read 136 KB, and the support-wide kernel of
    # 22,520 samples peaked at 431 KB
    pair = macro.macro_components(math.sqrt(300.0), macro.default_n_max(301.0))
    tracemalloc.start()
    try:
        macro._l1_smoothed(pair.p_plus, pair.p_minus, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160_000, peak


@pytest.mark.parametrize("sigma", [macro.SMALL_BLUR, 0.05, 1e-3, 3e-5, 1e-5, 1e-6, 1e-300])
def test_small_blur_keeps_point_masses_apart(sigma):
    # the exact P_g is Phi(1 / 2 sigma) = 1 to double precision; the lattice,
    # clipped at 10,000 points per photon, read 0.832 at 3e-5, 1.53 at 1e-5
    # and 0.5 at 1e-6 and 1e-300 (with a RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert macro.guessing_probability_dists([1.0, 0.0], [0.0, 1.0], sigma) == 1.0


@given(pair=distribution_pairs(), sigma=st.floats(0.0, macro.SMALL_BLUR))
@settings(max_examples=30, deadline=None)
def test_small_blur_is_the_unblurred_l1(pair, sigma):
    # |L1_sigma - L1_0| <= 4 Q(1 / 2 sigma) L1_0 <= 4.5e-19 L1_0 at SMALL_BLUR
    p, q = pair
    assert macro._l1_smoothed(p, q, sigma) == float(np.abs(p - q).sum())


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


ORACLE_SIGMAS = (0.0, 1e-3, 0.29, 1.0, 5.0, 15.0, 37.0)


@pytest.mark.parametrize("lam", [0.25, 1.0, 2.0, 10.0, 47.0, 150.0, 300.0])
def test_window_form_matches_40_digit_oracle(lam):
    # worst 7.0e-14, at lam = 300, sigma = 0.29: the rounding of
    # log Pois(floor(lam)) in the package
    for sigma in ORACLE_SIGMAS:
        want, _ = window_guessing_probability(lam, sigma)
        got = macro.window_guessing_probability(lam, sigma)
        assert abs(got - float(want)) <= 1e-12, (lam, sigma, got, want)


@pytest.mark.parametrize("lam", [10.0**k for k in np.arange(-6.0, 6.5, 0.5)])
def test_window_form_matches_the_log_space_root(lam):
    # the gap in plain probabilities against the log-sum-exp it replaced,
    # from just above the small-blur rule to SIGMA's bound: 2.2e-16 at worst
    for sigma in (JUST_ABOVE_SMALL_BLUR, 0.06, 0.1, 0.29, 0.5, 1.0, 3.0, 10.0, 37.0,
                  100.0, 1e3, 1e4, 1e5, 1e6):
        want = log_space_window_guessing_probability(lam, sigma)
        got = macro.window_guessing_probability(lam, sigma)
        assert abs(got - want) <= 1e-15 * want, (lam, sigma, got, want)


def window_of(form):
    """A stand-in for ``macro._Window`` whose P_g is ``form(lam, sigma)`` and
    whose slope comes from a fresh evaluator at each sigma, so that the
    sigma_max search runs on ``form``'s values."""
    evaluator = macro._Window

    class Window:
        def __init__(self, lam):
            self.lam = lam

        def __call__(self, sigma):
            fresh = evaluator(self.lam)
            fresh(sigma)
            self.slope = fresh.slope
            return form(self.lam, sigma)

    return Window


@pytest.mark.parametrize("beta_sq", [10.0, 47.0, 150.0, 300.0])
def test_size_analysis_matches_the_log_space_root(beta_sq, monkeypatch):
    # perfbench's size points: sigma_max within its root tolerance, N_eff and
    # P_g(0) unchanged, when every P_g of the search solves for the window's
    # end in log space
    got = macro.size_analysis(math.sqrt(beta_sq))
    monkeypatch.setattr(macro, "_Window", window_of(log_space_window_guessing_probability))
    want = macro.size_analysis(math.sqrt(beta_sq))
    assert abs(got.sigma_max - want.sigma_max) <= macro.SIGMA_MAX_TOL, (got, want)
    assert (got.n_eff, got.p_g) == (want.n_eff, want.p_g)


@pytest.mark.parametrize("beta_sq", [10.0, 47.0, 150.0, 300.0])
def test_sigma_max_matches_the_oracle_root(beta_sq):
    # the oracle solves P_g(sigma) = 2/3 at 40 digits, at the pair's lam; the
    # package's P_g errs by the rounding of log Pois(floor(lam)), which moves
    # the root by that error over |slope|: 5.7e-12 at 150, 3.0e-12 at 300
    result = macro.size_analysis(math.sqrt(beta_sq))
    root = sigma_max_root(math.sqrt(beta_sq) ** 2, 2.0 / 3.0, result.sigma_max)
    assert abs(result.sigma_max - float(root)) <= 1e-10, (result.sigma_max, root)


def slope_at(lam, sigma):
    window = macro._Window(lam)
    window(sigma)
    return window.slope


@pytest.mark.parametrize("lam", [1e-6, 0.5, 2.0, 47.0, 300.0, 1e4, 1e6])
def test_window_slope_matches_a_central_difference(lam):
    # dP_g/dsigma at the window's end r, by the envelope theorem; the central
    # difference at h = 1e-4 sigma errs by h^2 |P_g'''| / 6 and eps / h
    for sigma in (0.06, 0.2, 1.0, 8.0, 37.0, 1e3, 1e5):
        h = 1e-4 * sigma
        want = (macro.window_guessing_probability(lam, sigma + h)
                - macro.window_guessing_probability(lam, sigma - h)) / (2.0 * h)
        got = slope_at(lam, sigma)
        assert got < 0.0
        assert abs(got - want) <= 1e-6 * abs(want) + 1e-15 / h, (lam, sigma, got, want)
    for sigma in (0.0, macro.SMALL_BLUR):
        assert slope_at(lam, sigma) == 0.0
    assert slope_at(0.0, 1.0) == 0.0


def brent_result(alpha, target):
    """``size_analysis`` on the Brent search it replaced, or the type of the
    exception that search raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(macro, "_sigma_max", brent_sigma_max)
        try:
            return macro.size_analysis(alpha, target)
        except (ValueError, RuntimeError) as error:
            return type(error)


def assert_matches_brent(lam, target):
    # the same P_g(0) and N_eff, and sigma_max within the root tolerance plus
    # the root's conditioning, 8 eps of P_g over |dP_g/dsigma|: near t = 1/2
    # and t = P_g(0) either search may land anywhere in P_g's rounding noise
    want = brent_result(math.sqrt(lam), target)
    if isinstance(want, type):
        with pytest.raises(want):
            macro.size_analysis(math.sqrt(lam), target)
        return
    got = macro.size_analysis(math.sqrt(lam), target)
    bound = (1e-12 * max(1.0, want.sigma_max)
             + 8.0 * math.ulp(1.0) / abs(slope_at(lam, want.sigma_max)))
    assert abs(got.sigma_max - want.sigma_max) <= bound, (got, want, bound)
    assert (got.n_eff, got.p_g) == (want.n_eff, want.p_g), (got, want)


@pytest.mark.parametrize("lam", [1e-6, 0.25, 0.5, 2.0, 10.0, 47.0, 150.0, 300.0, 1e4, 1e6])
def test_sigma_max_matches_the_brent_search(lam):
    # 0.5001 at lam = 1e6, and every target at or above P_g(0), raise in both
    for target in (0.5001, 0.55, 0.6, 2.0 / 3.0, 0.75, 0.85, 0.89):
        assert_matches_brent(lam, target)


@given(log_lam=st.floats(-3.0, 6.0), u=st.floats(0.0, 1.0, exclude_min=True,
                                                 exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_sigma_max_matches_the_brent_search_anywhere(log_lam, u):
    # lam log-uniform, the target uniform in (1/2 + 1e-3, P_g(0) - 1e-6):
    # 300 random points came to 0.21 of the bound at worst
    lam = 10.0**log_lam
    lo, hi = 0.5 + 1e-3, macro.window_guessing_probability(lam, 0.0) - 1e-6
    assert_matches_brent(lam, lo + u * (hi - lo))


@pytest.mark.parametrize("lam, sigma", [(0.25, 0.29), (1.0, 1.0), (2.0, 5.0)])
def test_window_form_matches_the_fine_per_photon_grid(lam, sigma):
    # the Fock pair smoothed on a 2e-4 grid by the per-photon loop; the grid
    # errs at the sign changes x0 of the smoothed difference (one, and
    # rounding flips in the far tail), by at most h^2 |d'(x0)| / 6 in L1
    # (1.25 slack, as in the kink-bound test)
    pair = macro.macro_components(math.sqrt(lam), macro.default_n_max(lam + 1.0))
    h = 2e-4
    d = reference_smoothed_difference(pair.p_plus, pair.p_minus, sigma, h)
    cross = np.flatnonzero(np.signbit(d[:-1]) != np.signbit(d[1:]))
    slope = float(np.abs(d[cross + 1] - d[cross]).sum() / h)
    want = 0.5 + 0.25 * float(np.abs(d).sum() * h)
    got = macro.guessing_probability(pair, sigma)
    assert abs(got - want) <= 0.25 * 1.25 * h**2 / 6.0 * slope + 1e-12, (got, want)


def test_pure_pair_needs_no_lattice(monkeypatch):
    # P_g, sigma_max and N_eff of the pure pair come from the window form
    def no_lattice(*args):
        raise AssertionError("the smoothing lattice ran for the pure pair")

    monkeypatch.setattr(macro, "_l1_smoothed", no_lattice)
    result = macro.size_analysis(math.sqrt(47.0))
    assert result.n_eff == 13
    pair = macro.macro_components(2.0, 60)
    for sigma in (0.0, 0.3, 2.0):
        assert 0.5 < macro.guessing_probability(pair, sigma) < 1.0


@pytest.mark.parametrize("tol", [1e-3, 1e-12])
def test_sigma_max_matches_scipy_brentq_within_tol(tol):
    alpha = math.sqrt(47.0)
    def excess(s):  # the window form at lam = alpha^2, as _sigma_max solves it
        return macro.window_guessing_probability(alpha**2, s) - 2.0 / 3.0
    want = brentq(excess, 0.0, 4.0 * alpha, xtol=1e-300)
    assert abs(macro._sigma_max(alpha, 2.0 / 3.0, tol)[1] - want) <= tol


def window_gap(lam, sigma):
    """The gap g(x) = sum_m d_m exp(-(x - m)^2 / 2 sigma^2) whose root is the
    window's end, on ``macro._Window``'s Poisson table at lam."""
    _, m, _, d = macro._Window(lam)._poisson_table()
    return lambda x: float(np.dot(d, np.exp(-0.5 * ((m - x) / sigma) ** 2)))


@given(log_lam=st.floats(-12.0, 6.0),
       log_sigma=st.floats(math.log10(JUST_ABOVE_SMALL_BLUR), 6.0))
@example(log_lam=-300.0, log_sigma=math.log10(JUST_ABOVE_SMALL_BLUR))
@example(log_lam=6.0, log_sigma=6.0)
@example(log_lam=6.0, log_sigma=math.log10(JUST_ABOVE_SMALL_BLUR))
@example(log_lam=math.log10(2.0), log_sigma=math.log10(0.3))
@settings(max_examples=300, deadline=None)
def test_window_end_lies_between_lam_minus_1_and_lam_plus_3_halves(log_lam, log_sigma):
    # the Newton solve for r trusts this bracket without evaluating its ends
    lam, sigma = 10.0**log_lam, min(10.0**log_sigma, macro.SIGMA.hi)
    gap = window_gap(lam, sigma)
    assert gap(lam - 1.0) > 0.0 > gap(lam + 1.5), (lam, sigma)


def test_size_analysis_gap_evaluations(monkeypatch):
    # Newton from lam + 1/2 takes 3 gap evaluations per P_g at the benchmark's
    # points, 36 over the four size_analysis calls; Brent's method took 90,
    # its two bracket ends included
    solves, newton = [], macro._newton

    def counting_newton(f, *args, **kwargs):
        solves.append(0)
        n = len(solves) - 1

        def counted(x):
            solves[n] += 1
            return f(x)

        return newton(counted, *args, **kwargs)

    monkeypatch.setattr(macro, "_newton", counting_newton)
    gap_evals = 0
    for beta_sq in (10.0, 47.0, 150.0, 300.0):
        solves.clear()
        macro.size_analysis(math.sqrt(beta_sq))
        assert len(solves) == 4, solves     # the sigma_max search and 3 windows
        gap_evals += sum(solves[1:])        # solves[0] is the sigma_max search
    assert gap_evals <= 40, gap_evals


@pytest.mark.parametrize("beta_sq", [10.0, 47.0, 150.0, 300.0])
def test_size_analysis_evaluates_each_sigma_once(monkeypatch, beta_sq):
    # the search computes no sigma twice, every sigma it tries shares one
    # Poisson table, and Newton from the Gaussian-limit start needs 3 sigma
    # besides P_g(0) here (the Brent search it replaced took 10 or 11)
    sigmas, tables = [], []
    call, build = macro._Window.__call__, macro._Window._poisson_table

    def counting_call(window, sigma):
        sigmas.append(sigma)
        return call(window, sigma)

    def counting_build(window):
        tables.append(window.lam)
        return build(window)

    monkeypatch.setattr(macro._Window, "__call__", counting_call)
    monkeypatch.setattr(macro._Window, "_poisson_table", counting_build)
    macro.size_analysis(math.sqrt(beta_sq))
    assert sigmas.count(0.0) == 1
    assert len(set(sigmas)) == len(sigmas), sorted(sigmas)
    assert len(tables) == 1
    assert len(sigmas) <= 5, sigmas


WINDOW_LAMS = (0.0, 1e-6, 0.5, 2.0, 47.0, 47.0 / 0.55, 150.0, 300.0, 1e4, 1e6)
WINDOW_SIGMAS = (0.0, 1e-3, 1.0 / 18.0, 0.06, 0.3, 1.0, 8.0, 37.0, 1e3, 1e6)


@pytest.mark.parametrize("lam", WINDOW_LAMS)
def test_window_form_is_bit_identical_to_the_per_call_form(lam):
    # one table per lam changes no operation: the same floats, also when one
    # evaluator serves every sigma in turn, as in the sigma_max search
    window = macro._Window(lam)
    for sigma in WINDOW_SIGMAS:
        want = per_call_window_guessing_probability(lam, sigma)
        assert macro.window_guessing_probability(lam, sigma) == want, (lam, sigma)
        assert window(sigma) == want, (lam, sigma)


@pytest.mark.parametrize("beta_sq", [2.0, 10.0, 47.0, 150.0, 300.0])
@pytest.mark.parametrize("target", [0.6, 2.0 / 3.0, 0.75])
def test_size_analysis_is_bit_identical_to_the_per_call_form(monkeypatch, beta_sq, target):
    got = macro.size_analysis(math.sqrt(beta_sq), target)
    monkeypatch.setattr(macro, "_Window", window_of(per_call_window_guessing_probability))
    assert got == macro.size_analysis(math.sqrt(beta_sq), target)


def test_size_analysis_rejects_negative_alpha():
    with pytest.raises(ValueError, match=r"alpha=-1.0 must be in \[0, 1000\]"):
        macro.size_analysis(-1.0)


@pytest.mark.parametrize("call, match", [
    # the bracket loop never ended on an infinite sigma
    (lambda: macro.window_guessing_probability(3.0, math.inf), "sigma=inf must be finite"),
    (lambda: macro.window_guessing_probability(3.0, math.nan), "sigma=nan must be finite"),
    (lambda: macro.window_guessing_probability(3.0, -1.0), "sigma=-1.0 must be in"),
    (lambda: macro.window_guessing_probability(-1.0, 1.0), "lam=-1.0 must be in"),
    (lambda: macro.window_guessing_probability(math.nan, 1.0), "lam=nan must be finite"),
    (lambda: macro.window_guessing_probability(math.inf, 0.0), "lam=inf must be finite"),
    (lambda: macro.size_analysis(math.nan), "alpha=nan must be finite"),
    (lambda: macro.size_analysis(math.inf), "alpha=inf must be finite"),
], ids=["sigma_inf", "sigma_nan", "sigma_negative", "lam_negative", "lam_nan", "lam_inf",
        "alpha_nan", "alpha_inf"])
def test_window_form_rejects_bad_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    # finite but huge: sigma**2 and alpha**2 overflowed (OverflowError 34),
    # lam = 1e300 built an object array, and sigma = 1e300 an n_x past any size
    (lambda: macro.window_guessing_probability(3.0, 1e300), r"sigma=1e\+300 must be in"),
    (lambda: macro.window_guessing_probability(1e300, 1.0), r"lam=1e\+300 must be in"),
    (lambda: macro.size_analysis(1e200), r"alpha=1e\+200 must be in"),
    (lambda: macro.lossy_mixture_guessing(1e200, 0.5, 0.5, [0.0]),
     r"sqrt\(eta_abs\) alpha=7.07\d*e\+199 must be in"),
    (lambda: macro.guessing_probability_dists([1.0], [0.0, 1.0], 1e300),
     r"sigma=1e\+300 must be in"),
    (lambda: macro.guessing_probability_dists([1.0], [0.0, 1.0], 2e3),
     r"sigma=2000.0 must be in \[0, 1000\]"),
    (lambda: macro.lossy_mixture_guessing(3.0, 0.5, 0.5, [0.0, math.inf]),
     "sigma=inf must be finite"),
    (lambda: macro.window_guessing_probability(1e6 + 1.0, 1.0), r"in \[0, 1e\+06\]"),
    (lambda: macro.size_analysis(1e3 * (1.0 + 1e-15)), r"in \[0, 1000\]"),
], ids=["window_sigma", "window_lam", "size_alpha", "lossy_alpha", "lattice_sigma",
        "lattice_sigma_above_bound", "lossy_sigma_inf", "lam_above_bound",
        "alpha_above_bound"])
def test_huge_inputs_are_rejected_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("lam, sigma", [(1e6, 0.0), (1e6, 1.0), (1e6, 1e6), (0.25, 1e6),
                                        (2.0, 1e-160), (1e-300, 1e-300)])
def test_window_form_runs_at_its_bounds(lam, sigma):
    # at or below SMALL_BLUR it is the sigma = 0 closed form: 1e-160 squared to a
    # subnormal, and 1e-300 to zero, which used to divide by zero
    got = macro.window_guessing_probability(lam, sigma)
    assert 0.5 <= got < 1.0
    if sigma <= macro.SMALL_BLUR:
        assert got == macro.window_guessing_probability(lam, 0.0)


def test_lossy_mixture_bounds_the_stored_amplitude():
    # size passes alpha = sqrt(beta*^2 / eta_abs), past ALPHA for small
    # eta_abs; what the arrays hold is the stored a = sqrt(eta_abs) alpha
    got = macro.lossy_mixture_guessing(2000.0, 0.19, 0.01, [0.0])
    want = macro.lossy_mixture_guessing(200.0, 0.19 * 0.01, 1.0, [0.0])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_unattainable_targets_rejected():
    with pytest.raises(macro.UnattainableTargetError):
        macro.size_analysis(math.sqrt(2.0), 0.95)
    with pytest.raises(macro.UnattainableTargetError):
        macro.size_analysis(math.sqrt(2.0), 0.5)


@pytest.mark.parametrize("alpha, target", [(0.0, 0.6), (0.0, 0.5 + 1e-9),
                                           (math.sqrt(2.0), None)],
                         ids=["vacuum", "vacuum_near_half", "at_p_g0"])
def test_unattainable_targets_name_the_sigma_zero_value(alpha, target):
    # lam = 0 has P_g = 1/2 at every sigma; a target of P_g(0) itself is out
    p0 = macro.window_guessing_probability(alpha**2, 0.0)
    target = p0 if target is None else target
    with pytest.raises(macro.UnattainableTargetError,
                       match=re.escape(f"target {target} outside (1/2, P_g(0) = {p0:.6f})")):
        macro.size_analysis(alpha, target)


def test_sigma_max_beyond_its_range_is_an_error():
    # at lam = 1e6 the root of P_g = 0.5001 lies near 4e6, past SIGMA's bound
    with pytest.raises(RuntimeError, match="^sigma_max search did not bracket the target$"):
        macro.size_analysis(1000.0, 0.5001)


@pytest.mark.parametrize("lam, sigma_max", [(0.5, 0.0845), (2.0, 0.172), (47.0, 0.189),
                                            (300.0, 0.202)])
def test_target_just_below_p_g0_has_a_small_finite_root(monkeypatch, lam, sigma_max):
    # the root sits just above the flat sigma <= SMALL_BLUR region, where the
    # slope of P_g is 0: the search must not divide by it.  Above it P_g
    # falls like exp(-1 / 8 sigma^2), where Newton alone creeps: bisecting
    # when a step does not halve keeps it to 13 sigma (Brent took 22-32)
    target = macro.window_guessing_probability(lam, 0.0) - 1e-9
    calls, call = [], macro._Window.__call__

    def counting_call(window, sigma):
        calls.append(sigma)
        return call(window, sigma)

    monkeypatch.setattr(macro._Window, "__call__", counting_call)
    result = macro.size_analysis(math.sqrt(lam), target)
    assert abs(result.sigma_max - sigma_max) < 5e-4, result
    assert result.n_eff == 1
    assert len(calls) <= 13, calls


def test_lossy_mixture_guessing_value_and_decay():
    alpha_in = math.sqrt(47.0 / 0.55)
    values = macro.lossy_mixture_guessing(alpha_in, 0.19, 0.55, [0.0, 5.0, 15.0])
    assert abs(values[0] - 0.541616) < 1e-4
    assert values[0] > values[1] > values[2]


def _lossy_oracle_gap(sigmas) -> float:
    """Largest relative gap of ``macro.lossy_mixture_guessing`` to the oracle
    at the benchmark's points, beta*^2 = eta_abs alpha^2 in {47, 150}, and
    the default noise parameters."""
    p = noise.ExperimentParams()
    gaps = []
    for beta_sq in (47.0, 150.0):
        alpha = math.sqrt(beta_sq / p.eta_abs)
        got = macro.lossy_mixture_guessing(alpha, p.eta_h, p.eta_abs, sigmas)
        gaps += [abs(g / float(lossy_mixture_guessing(alpha, p.eta_h, p.eta_abs, s)) - 1.0)
                 for g, s in zip(got, sigmas)]
    return max(gaps)


def test_lossy_mixture_matches_the_oracle_at_sigma_0():
    # 1.1e-15 at beta*^2 = 47 and 4.0e-15 at 150
    assert _lossy_oracle_gap([0.0]) < 1e-13


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3, the lossy mixture as one scalar: the smoothing lattice "
    "misses the window form by 2.0e-9 to 1.39e-7 relative at sigma = 1..8"))
def test_lossy_mixture_matches_the_oracle():
    assert _lossy_oracle_gap([float(s) for s in range(1, 9)]) < 1e-10


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
