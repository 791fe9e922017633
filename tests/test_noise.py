import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from micromacro import noise

P = noise.ExperimentParams()


def werner_visibility(alpha_sq, params=P):
    return noise.werner_visibility(alpha_sq, params, params.eta_h, params.eta, params.vis)


def noise_fraction(mu):
    """Noise weight p_n / (p_s + p_n) of the Werner state at the defaults."""
    return noise._noise_fraction(mu, P.bs_t, P.eta_h, P.eta, P.vis)


def reference_band_point(alpha_sq, params, band_samples, rng_seed, index):
    """The per-sample band loop: three scalar normal draws per sample, each
    clipped to [0, 1], then the scalar W of the perturbed parameters."""
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, index]))
    ws = []
    for _ in range(band_samples):
        draw = {name: float(np.clip(rng.normal(getattr(params, name),
                                               getattr(params, f"sd_{name}")),
                                    0.0, 1.0))
                for name in ("eta_h", "eta", "vis")}
        ws.append(werner_visibility(alpha_sq, replace(params, **draw)))
    s, ppt, conc = noise.werner_witnesses(np.array(ws))
    return float(np.std(s)), float(np.std(ppt)), float(np.std(conc))


def test_witness_anchor_values():
    # frozen model outputs at the default parameters
    cases = {
        0.0: 2.658721,
        13.3: 2.195024,
        42.0: 1.593551,
    }
    for alpha_sq, s_expected in cases.items():
        w = werner_visibility(alpha_sq, P)
        assert abs(2.0 * math.sqrt(2.0) * w - s_expected) < 1e-5
    w86 = werner_visibility(86.0, P)
    assert abs((1.0 - 3.0 * w86) / 4.0 - (-0.047111)) < 1e-5


def test_noise_fraction_anchor():
    assert abs(noise_fraction(13.3) - 0.174406) < 1e-5


@pytest.mark.parametrize("alpha_sq", [1e-20, 1e-14, 1e-10])
def test_noise_fraction_small_size_limit(alpha_sq):
    # as mu -> 0, p_n -> 2 mu eta (1 - vis) and pbar_n -> mu (1 - 2 eta (1 - vis)),
    # so the fraction tends to x / (x + eta_h bs_t eta (1 - x)), x = 2 eta (1 - vis),
    # with relative corrections of order mu
    x = 2.0 * P.eta * (1.0 - P.vis)
    limit = x / (x + P.eta_h * P.bs_t * P.eta * (1.0 - x))
    assert abs(noise_fraction(alpha_sq) - limit) <= 1e-9 * limit


def test_click_formulas_match_poisson_series():
    # both click formulas are Poisson sums: sum_n pmf(n, mu) x^n with
    # x = 1 - 2 eta (1 - vis), once including and once excluding n = 0
    for mu in (0.3, 5.0, 86.0, 500.0):
        x = 1.0 - 2.0 * P.eta * (1.0 - P.vis)
        n = np.arange(0, int(mu + 40.0 * math.sqrt(mu) + 80.0))
        full = float(np.sum(poisson.pmf(n, mu) * x**n))
        assert abs(noise.noise_click_prob(mu, P.eta, P.vis) - (1.0 - full)) < 1e-12
        no_vac = full - poisson.pmf(0, mu)
        assert abs(noise.no_leak_prob(mu, P.eta, P.vis) - no_vac) < 1e-12


def test_zero_displacement_is_noiseless():
    assert werner_visibility(0.0, P) == P.v_mm
    with pytest.raises(ValueError):
        noise_fraction(0.0)


def test_visibility_decreases_with_displacement_size():
    grid = np.linspace(0.5, 150.0, 120)
    w = np.array([werner_visibility(a, P) for a in grid])
    assert np.all(np.diff(w) < 0.0)


def test_excitation_conversion_is_linear_in_size():
    grid = np.array([0.0, 13.3, 42.0, 86.0])
    got = noise.predict_witness_curves(grid, P, band_samples=0).excitations
    assert np.max(np.abs(got - [0.0, 7.315, 23.1, 47.3])) < 1e-12
    assert np.array_equal(got, P.eta_abs * grid)
    with pytest.raises(ValueError, match="alpha_sq must be >= 0"):
        noise.predict_witness_curves(np.array([-1.0, 1.0]), P, band_samples=0)


def test_band_sampling_is_order_independent():
    a = noise.witness_band_point(13.3, P, 50, rng_seed=4, index=7)
    b = noise.witness_band_point(13.3, P, 50, rng_seed=4, index=7)
    c = noise.witness_band_point(13.3, P, 50, rng_seed=4, index=8)
    assert a == b
    assert a != c
    assert all(v > 0.0 for v in a)


@settings(max_examples=150, deadline=None)
@given(alpha_sq=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
       band_samples=st.integers(1, 1000),
       rng_seed=st.integers(0, 2**32 - 1), index=st.integers(0, 2**16))
@example(alpha_sq=13.3, band_samples=1000, rng_seed=0, index=0)
@example(alpha_sq=1e-20, band_samples=5, rng_seed=0, index=0)  # small-size limit
def test_band_point_matches_per_sample_loop(alpha_sq, band_samples, rng_seed, index):
    # same draws in the same order; only np.exp on arrays vs scalars may
    # differ, by ulps that the spread amplifies
    try:
        expected = reference_band_point(alpha_sq, P, band_samples, rng_seed, index)
    except ValueError:
        with pytest.raises(ValueError):
            noise.witness_band_point(alpha_sq, P, band_samples, rng_seed, index)
        return
    got = noise.witness_band_point(alpha_sq, P, band_samples, rng_seed, index)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)


def test_band_rejects_a_draw_with_no_click():
    # eta = 0 with no spread: p_s + p_n = 0 for every sample
    dark = noise.ExperimentParams(eta=0.0, sd_eta=0.0)
    with pytest.raises(ValueError, match=r"p_s \+ p_n = 0"):
        noise.witness_band_point(13.3, dark, 10, rng_seed=1, index=0)
    with pytest.raises(ValueError, match=r"p_s \+ p_n = 0"):
        reference_band_point(13.3, dark, 10, rng_seed=1, index=0)


def test_curve_container_shapes():
    grid = np.array([0.0, 10.0, 40.0])
    curve = noise.predict_witness_curves(grid, P, band_samples=0)
    assert curve.s.shape == grid.shape
    assert np.all(curve.band_s == 0.0)
    assert np.allclose(curve.excitations, P.eta_abs * grid)
    with pytest.raises(ValueError):
        noise.predict_witness_curves([], P)


@pytest.mark.parametrize("name", ["sd_eta_h", "sd_eta", "sd_vis"])
def test_negative_band_width_is_rejected(name):
    with pytest.raises(ValueError, match=f"{name}=-0.002 must be >= 0"):
        noise.ExperimentParams(**{name: -0.002})
    assert getattr(noise.ExperimentParams(**{name: 0.0}), name) == 0.0
