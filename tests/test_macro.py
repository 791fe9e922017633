import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import norm

from micromacro import fock, macro
from oracles import ideal_guessing_probability


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
    # probability Phi(N / (2 sigma))
    n = 8
    p = np.zeros(n + 1)
    q = np.zeros(n + 1)
    p[0] = 1.0
    q[n] = 1.0
    for sigma in (1.0, 2.5, 6.0):
        got = macro.guessing_probability_dists(p, q, sigma)
        assert abs(got - norm.cdf(n / (2.0 * sigma))) < 1e-4


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
    d = fock.displacement_operator(alpha, n_max)
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


def test_unattainable_targets_rejected():
    with pytest.raises(macro.UnattainableTargetError):
        macro.sigma_max(math.sqrt(2.0), 0.95)
    with pytest.raises(macro.UnattainableTargetError):
        macro.sigma_max(math.sqrt(2.0), 0.5)


def test_lossy_mixture_guessing_value_and_decay():
    alpha_in = math.sqrt(47.0 / 0.55)
    values = macro.lossy_mixture_guessing(alpha_in, 0.19, 0.55, [0.0, 5.0, 15.0])
    assert abs(values[0] - 0.541616) < 1e-4
    assert values[0] > values[1] > values[2]

