"""Config fuzzing: every input either runs or ends with a message and exit 1.

The parser must return a complete, finite value map or raise ConfigError,
whatever the keys, values and line shapes; a ConfigError for a line that
sets a known key names that key.  Every subcommand but ``validate``, fed
configs built from its own keys and edge-case values, must exit 0 with every written cell finite, or exit 1 with an ``error:``
line on stderr: never a traceback, never a NaN or inf cell.
"""
import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from micromacro import cli
from micromacro.config import SCHEMA, ConfigError, parse_config_text

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


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(("hom", "curves", "size", "detailed", "tomo")))
    keys = st.sampled_from(_cli_keys(command))
    lines = draw(st.lists(keys.flatmap(lambda key: CHEAP_VALUES.get(key, CLI_VALUES).map(
        lambda value: f"{key} = {value}")), min_size=1, max_size=4))
    return command, lines


def _cells(out: Path):
    for path in sorted(out.glob("*.csv")):
        for line in path.read_text().splitlines():
            if not line.startswith("#"):
                yield from line.split(",")


@given(cli_runs())
@settings(max_examples=600, deadline=None)
def test_cli_exits_cleanly_on_any_config(run):
    command, lines = run
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
        for cell in _cells(Path(tmp) / "out"):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), (cell, lines)
