"""Config fuzzing: every input either runs or ends with a message and exit 1.

The parser must return a complete, finite value map or raise ConfigError,
whatever the keys, values and line shapes; a ConfigError for a line that
sets a known key names that key.  Every subcommand but ``validate``, fed
configs of its own keys, each value drawn inside its key's range in three
configs out of four and from edge-case and out-of-range values otherwise, must
exit 0 with every written cell finite, or exit 1 with an ``error:`` line on
stderr: never a traceback, never a NaN or inf cell.  Each exits 0 on at
least half of its configs, so the fuzzing reaches the computation.
"""
import contextlib
import io
import math
import re
import tempfile
from collections import Counter
from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from micromacro import cli
from micromacro.config import _ORDERED, SCHEMA, ConfigError, parse_config_text

#: values every float key parses, from the subnormal to the huge
NUMBERS = ("0", "-0.0", "5e-324", "1e-300", "1e-20", "1e-12", "0.001", "0.5",
           "0.999999", "1", "1.5", "2", "10", "1e6", "1e300", "-1", "-1e-300")
JUNK = ("1e999", "nan", "inf", "-inf", "banana", "0x10", "1 2", "=", "")
# cheap values only: counts stay small, so every CLI run takes milliseconds
CLI_VALUES = st.one_of(st.sampled_from(NUMBERS), st.integers(-3, 12).map(str),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
#: keys whose large values cost seconds per run, with cheap values instead:
#: the lossy mixture's lattice near ``LAM.hi``, the oracle's draws and the
#: tomography shots
CHEAP_VALUES = {
    **dict.fromkeys(("size.beta_sq_min", "size.beta_sq_max", "size.beta_sq_star"), st.one_of(
        st.sampled_from([n for n in NUMBERS if float(n) <= 300.0]),
        st.floats(max_value=300.0, allow_nan=False, allow_infinity=False).map(repr))),
    "detailed.mc_samples": st.sampled_from(("0", "2", "50")),
    "tomo.shots": st.integers(-3, 100).map(str),
}
#: the largest in-range value the CLI runs draw: the caps of CHEAP_VALUES, and
#: 50 grid points or band samples, which keeps each run to milliseconds
IN_RANGE_CAPS = {
    **{key: 50 for key in SCHEMA if key.endswith("points")},
    "curves.band_samples": 50,
    **dict.fromkeys(("size.beta_sq_min", "size.beta_sq_max", "size.beta_sq_star"), 300.0),
    "detailed.mc_samples": 50,
    "tomo.shots": 100,
}
VALUES = st.one_of(CLI_VALUES, st.sampled_from(JUNK), st.floats().map(repr),
                   st.text(max_size=12))
LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA)), VALUES).map(" = ".join),
    st.text(max_size=30),
)


@given(st.lists(LINES, max_size=8))
@settings(max_examples=200, deadline=None)
def test_parser_returns_finite_values_or_raises_config_error(lines):
    text = "\n".join(lines)
    try:
        values = parse_config_text(text)
    except ConfigError as exc:
        # an error on a line that sets a known key names that key
        lineno = int(re.match(r"line (\d+): ", str(exc)).group(1))
        key = text.splitlines()[lineno - 1].split("#", 1)[0].partition("=")[0].strip()
        assert key not in SCHEMA or key in str(exc), (str(exc), key)
        return
    assert set(values) == set(SCHEMA)
    assert all(math.isfinite(v) for v in values.values() if isinstance(v, float))


def _cli_keys(command):
    sections = ("run", command) + (("noise",) if command in ("curves", "size") else ())
    return sorted(k for k in SCHEMA if k.split(".")[0] in sections)



@cache
def in_range(key):
    """Values of ``key`` that the parser accepts: inside its SCHEMA range,
    capped by IN_RANGE_CAPS, and on the allowed side of the default of the
    key it is ordered against."""
    rng, default = SCHEMA[key]
    hi = min(rng.hi, IN_RANGE_CAPS.get(key, math.inf))
    if isinstance(default, int):
        return st.integers(math.ceil(rng.lo), None if hi == math.inf else int(hi)).map(str)
    lo, open_lo = rng.lo, rng.ends[0] == "("
    open_hi = hi == math.inf or (hi == rng.hi and rng.ends[1] == ")")
    for lo_key, hi_key, strict in _ORDERED:
        if key == lo_key and SCHEMA[hi_key][1] <= hi:
            hi, open_hi = SCHEMA[hi_key][1], strict
        if key == hi_key and SCHEMA[lo_key][1] >= lo:
            lo, open_lo = SCHEMA[lo_key][1], strict
    return st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi).map(repr)


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(("hom", "curves", "size", "detailed", "tomo")))
    # each key once: the parser test covers a key set twice
    keys = draw(st.lists(st.sampled_from(_cli_keys(command)), min_size=1, max_size=4,
                         unique=True))
    # three configs in four draw every value in range; the rest draw today's
    # edge-case and out-of-range values, as in a config written by hand
    inside = draw(st.sampled_from((True, True, True, False)))
    values = [draw(in_range(key) if inside else CHEAP_VALUES.get(key, CLI_VALUES))
              for key in keys]
    return command, [f"{key} = {value}" for key, value in zip(keys, values)]


def _cells(out: Path):
    for path in sorted(out.glob("*.csv")):
        for line in path.read_text().splitlines():
            if not line.startswith("#"):
                yield from line.split(",")


def test_cli_exits_cleanly_on_any_config():
    runs, clean = Counter(), Counter()

    # derandomized, so the exit-0 share below is counted over the same 450
    # configs on every run instead of a fresh sample whose share varies by
    # several points around its mean
    @given(cli_runs())
    @settings(max_examples=450, deadline=None, derandomize=True)
    def run_one(run):
        command, lines = run
        runs[command] += 1
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("\n".join(lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
            if code == 1:
                assert err.getvalue().startswith("error: "), err.getvalue()
                return
            assert code == 0
            clean[command] += 1
            for cell in _cells(Path(tmp) / "out"):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (cell, lines)

    run_one()
    # three values in four lie in range, so most configs reach the computation
    assert all(2 * clean[command] >= n for command, n in runs.items()), (runs, clean)
