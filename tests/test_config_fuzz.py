"""Config fuzzing: every input either runs or ends with a message and exit 1.

The parser must return a complete, finite value map or raise ConfigError,
whatever the keys, values and line shapes.  The ``hom`` and ``curves``
subcommands, fed configs built from their own keys and edge-case values,
must exit 0 with every written cell finite, or exit 1 with an ``error:``
line on stderr: never a traceback, never a NaN or inf cell.
"""
import contextlib
import io
import math
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
VALUES = st.one_of(CLI_VALUES, st.sampled_from(JUNK), st.floats().map(repr),
                   st.text(max_size=12))
LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA)), VALUES).map(" = ".join),
    st.text(max_size=30),
)


@given(st.lists(LINES, max_size=8))
@settings(max_examples=200, deadline=None)
def test_parser_returns_finite_values_or_raises_config_error(lines):
    try:
        values = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    assert set(values) == set(SCHEMA)
    assert all(math.isfinite(v) for v in values.values() if isinstance(v, float))


def _cli_keys(command):
    sections = ("run", command) + (("noise",) if command == "curves" else ())
    return sorted(k for k in SCHEMA if k.split(".")[0] in sections)


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(("hom", "curves")))
    lines = draw(st.lists(st.tuples(st.sampled_from(_cli_keys(command)), CLI_VALUES)
                          .map(" = ".join), min_size=1, max_size=4))
    return command, lines


def _cells(out: Path):
    for path in sorted(out.glob("*.csv")):
        for line in path.read_text().splitlines():
            if not line.startswith("#"):
                yield from line.split(",")


@given(cli_runs())
@settings(max_examples=120, deadline=None)
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
