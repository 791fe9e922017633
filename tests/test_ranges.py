"""Declared ranges: a config key and the field it sets accept the same values.

Every ``FIELD_KEYS`` key is probed at each finite end of its field's declared
range, one float step inside and one float step outside.  The parser and the
dataclass constructor must agree on every probe, and both must follow the
declared ends: a closed end is accepted, an open end and every outside
value rejected.  A key whose value is ordered against another key's is
probed with that partner set to the end that keeps every in-range probe
ordered.
"""
import math
from dataclasses import replace

import pytest

from micromacro import hom, noise, ranges, spdc
from micromacro.config import FIELD_KEYS, SCHEMA, ConfigError, parse_config_text
from micromacro.ranges import NONNEGATIVE, Range


#: key -> the config line that sets its ordered partner out of the way
PARTNER = {"noise.eta": "noise.eta_abs = 1.0", "noise.eta_abs": "noise.eta = 0.0"}


def _probes(rng):
    """(value, expected to be accepted) at and around each finite end."""
    for end, closed, inward in ((rng.lo, rng.ends[0] == "[", math.inf),
                                (rng.hi, rng.ends[1] == "]", -math.inf)):
        if math.isfinite(end):
            yield end, closed
            yield math.nextafter(end, inward), True
            yield math.nextafter(end, -inward), False


@pytest.mark.parametrize("key", sorted(FIELD_KEYS))
def test_parser_and_constructor_agree_at_the_bounds(key):
    obj, name = FIELD_KEYS[key]
    rng = type(obj).range_of(name)
    assert SCHEMA[key] == (rng, getattr(obj, name))
    probes = list(_probes(rng))
    assert any(not ok for _, ok in probes)  # every key has a value it rejects
    partner = [PARTNER[key]] if key in PARTNER else []
    for value, ok in probes:
        try:
            built = getattr(replace(obj, **{name: value}), name)
        except ValueError as exc:
            assert str(exc).startswith(f"{name}={value} must be "), exc
            built = None
        try:
            parsed = parse_config_text("\n".join([*partner, f"{key} = {value!r}"]))[key]
        except ConfigError as exc:
            assert (f"line {len(partner) + 1}: bad value '{value!r}' for {key}: "
                    "must be ") in str(exc)
            parsed = None
        assert parsed == built == (value if ok else None), (key, value)


def test_grid_ends_share_the_field_range():
    assert SCHEMA["hom.mu_min"][0] is SCHEMA["hom.mu_max"][0] is SCHEMA["hom.mu_star"][0]
    # the detector and profile keys map onto their own dataclasses
    assert FIELD_KEYS["hom.p_dc"] == (hom.HomParams().detector, "p_dc")
    assert FIELD_KEYS["hom.csp_fwhm"] == (hom.TemporalProfiles(), "csp_fwhm")


def test_range_messages():
    assert str(NONNEGATIVE) == ">= 0"
    assert str(Range(0.0, ends="()")) == "> 0"
    assert str(Range(0.5, 1.0, "()")) == "in (0.5, 1)"
    assert str(Range(0.0, 1.0, "[)")) == "in [0, 1)"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^must be finite$"):
            NONNEGATIVE.check(bad)
    with pytest.raises(ValueError, match=r"^x=-1 must be >= 0$"):
        NONNEGATIVE.check(-1, "x")
    # an int past float range is finite, as a config seed may be
    assert NONNEGATIVE.check(10**400) == 10**400
    assert parse_config_text("run.seed = " + "9" * 400)["run.seed"] == 10**400 - 1


@pytest.mark.parametrize("make, message", [
    (lambda: noise.ExperimentParams(eta_abs=0.0), "eta_abs=0.0 must be in (0, 1]"),
    (lambda: noise.ExperimentParams(kappa=math.nan), "kappa=nan must be finite"),
    (lambda: spdc.DetailedParams(g=5.5), "g=5.5 must be in [0, 5]"),
    (lambda: spdc.DetailedParams(gamma=-3.0), "gamma=-3.0 must be in [0, 1000]"),
    (lambda: hom.HomParams(xi=-1.0), "xi=-1.0 must be in [0, 1]"),
    (lambda: hom.TemporalProfiles(hsp_tau_c=0.0), "hsp_tau_c=0.0 must be > 0"),
    (lambda: ranges.ClickDetector(0.5, 1.0), "p_dc=1.0 must be in [0, 1)"),
])
def test_constructor_names_the_field(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
