"""Every declared range holds at its edges.

Each float key runs through ``cli.main`` at each end of its range (the
nearest float inside an open end), and at the small values where a model's
terms fall below rounding.  A run exits 0, or exits 1 with an ``error:``
line that names the key: never a traceback, never a numpy warning.
"""
import contextlib
import io
import math
import warnings
from dataclasses import fields

import pytest

from micromacro import cli
from micromacro.config import SCHEMA
from micromacro.ranges import DetailedParams


def _ends(rng) -> tuple:
    """The two ends of ``rng``, each moved one float inward where it is open."""
    lo = rng.lo if rng.ends[0] == "[" else math.nextafter(rng.lo, math.inf)
    hi = rng.hi if rng.ends[1] == "]" else math.nextafter(rng.hi, -math.inf)
    return lo, hi


#: the efficiencies that side B's click probabilities scale with
SMALL = {"t1": 1e-7, "t2": 1e-7, "eta_c": 1e-7, "eta_d": 1e-7}

DETAILED_EDGES = [(f.name, value) for f in fields(DetailedParams)
                  for value in (*_ends(DetailedParams.range_of(f.name)),
                                *([SMALL[f.name]] if f.name in SMALL else []))]


#: every float key of ``size``, at each end of its range
SIZE_EDGES = [(key, value) for key, (rng, default) in SCHEMA.items()
              if key.startswith("size.") and isinstance(default, float)
              for value in _ends(rng)]


def run_clean(tmp_path, command, lines):
    """Exit code and stderr of one run, asserting that it raised no warning."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{line}\n" for line in lines))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


@pytest.mark.parametrize("name, value", DETAILED_EDGES,
                         ids=[f"{name}={value:g}" for name, value in DETAILED_EDGES])
def test_detailed_runs_at_each_range_end(tmp_path, name, value):
    # at the small efficiencies side B still clicks, so the run must succeed;
    # 1 - F and F - G used to round to 0 at t2 = 1e-7
    key = f"detailed.{name}"
    code, err = run_clean(tmp_path, "detailed", [f"{key} = {value!r}", "detailed.mc_samples = 0"])
    if value == SMALL.get(name):
        assert code == 0, err
    assert code == 0 or (code == 1 and err.startswith("error: ") and key in err), (code, err)


@pytest.mark.parametrize("key, value", SIZE_EDGES,
                         ids=[f"{key}={value!r}" for key, value in SIZE_EDGES])
def test_size_runs_at_each_range_end(tmp_path, key, value):
    # the target and beta*^2 fix sigma_max together, so a refusal of either
    # names both: beta*^2 = 0 leaves P_g(0) = 1/2, and a target one float
    # above 1/2 puts sigma_max past SIGMA's bound
    code, err = run_clean(tmp_path, "size", [f"{key} = {value!r}"])
    assert code == 0 or (code == 1 and err.startswith("error: ") and key in err), (code, err)
    if "out of reach" in err:
        assert "size.target_p_g = " in err and "size.beta_sq_star = " in err, err
