"""Run configuration: plain text, one ``section.key = value`` per line.

``#`` starts a comment, blank lines are ignored, and any key outside the
schema is rejected, as is any value outside its range: floats must be
finite, sizes (alpha^2, beta^2) and pulse means at least 0, windows above
0, the pair probability in (0, 1), grid sizes and shot counts at least 1,
seeds and band sample counts at least 0, and oracle sample counts 0 (off) or
at least 2.  Every grid's ``*_min`` must lie below its ``*_max``.  Defaults
reproduce the reference experiment, so an empty config is a valid complete
run.  The resolved key/value map has a canonical text form whose SHA-256 is
stamped into every output table.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .noise import ExperimentParams
from .spdc import DetailedParams


class ConfigError(ValueError):
    pass


def _float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _nonnegative_float(s: str) -> float:
    value = _float(s)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _positive_float(s: str) -> float:
    value = _float(s)
    if value <= 0:
        raise ValueError("must be > 0")
    return value


def _open_unit_float(s: str) -> float:
    value = _float(s)
    if not 0 < value < 1:
        raise ValueError("must be in (0, 1)")
    return value


def _int_from(lo: int):
    def cast(s: str) -> int:
        value = int(s)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        return value
    return cast


_count = _int_from(1)
_nonnegative = _int_from(0)


def _mc_samples(s: str) -> int:
    value = _nonnegative(s)
    if value == 1:
        raise ValueError("must be 0 (no oracle) or >= 2 for a standard error")
    return value


_NOISE_KEYS = ("eta_h", "bs_t", "eta", "vis", "v_mm", "eta_abs",
               "kappa", "sd_eta_h", "sd_eta", "sd_vis")
_DETAILED_KEYS = ("g", "r", "eta_d", "p_dc", "t1", "t2", "eta_c", "gamma",
                  "sigma_phi")

SCHEMA: dict[str, tuple] = {
    "run.seed": (_nonnegative, 0),
    "curves.alpha_sq_min": (_nonnegative_float, 0.0),
    "curves.alpha_sq_max": (_nonnegative_float, 100.0),
    "curves.points": (_count, 41),
    "curves.band_samples": (_nonnegative, 200),
    "size.beta_sq_min": (_nonnegative_float, 2.0),
    "size.beta_sq_max": (_nonnegative_float, 60.0),
    "size.points": (_count, 15),
    "size.beta_sq_star": (_nonnegative_float, 47.0),
    "size.target_p_g": (_float, 2.0 / 3.0),
    "hom.p_pair": (_open_unit_float, 0.005),
    "hom.eta_h": (_float, 0.19),
    "hom.xi": (_float, 1.0),
    "hom.eta_d": (_float, 0.5),
    "hom.p_dc": (_float, 0.0),
    "hom.mu_star": (_nonnegative_float, 0.012),
    "hom.mu_min": (_nonnegative_float, 0.001),
    "hom.mu_max": (_nonnegative_float, 0.2),
    "hom.points": (_count, 25),
    "hom.csp_fwhm": (_float, 1.0),
    "hom.hsp_tau_c": (_float, 1.9),
    "hom.window_min": (_positive_float, 0.5),
    "hom.window_max": (_positive_float, 6.0),
    "hom.window_points": (_count, 23),
    "detailed.mc_samples": (_mc_samples, 0),
    "tomo.shots": (_count, 100_000),
    "tomo.werner_w": (_float, 0.94),
}
#: grids whose ``_min`` key must lie below their ``_max`` key
_GRIDS = ("curves.alpha_sq", "size.beta_sq", "hom.mu", "hom.window")
for _k in _NOISE_KEYS:
    SCHEMA[f"noise.{_k}"] = (_float, getattr(ExperimentParams(), _k))
for _k in _DETAILED_KEYS:
    SCHEMA[f"detailed.{_k}"] = (_float, getattr(DetailedParams(), _k))


def parse_config_text(text: str) -> dict:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    set_on: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not eq or not key or not val:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        caster = SCHEMA[key][0]
        try:
            values[key] = caster(val)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value {val!r} for {key}: {exc}") from exc
        set_on[key] = (lineno, val)
    for grid in _GRIDS:
        lo, hi = values[f"{grid}_min"], values[f"{grid}_max"]
        if lo >= hi:
            # blame the later of the two lines: it made the pair inconsistent
            key = max((k for k in (f"{grid}_min", f"{grid}_max") if k in set_on),
                      key=lambda k: set_on[k][0])
            lineno, val = set_on[key]
            raise ConfigError(
                f"line {lineno}: bad value {val!r} for {key}: {grid}_min "
                f"({lo:.12g}) must be below {grid}_max ({hi:.12g})")
    return values


@dataclass(frozen=True)
class RunConfig:
    values: tuple
    #: key -> value, built once; not part of equality or the hash
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.values))

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls(tuple(sorted(parse_config_text(text).items())))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls.from_text("")

    def __getitem__(self, key: str):
        return self._lookup[key]

    def canonical_text(self) -> str:
        return "\n".join(f"{k} = {v!r}" for k, v in self.values) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def noise_params(self) -> ExperimentParams:
        return ExperimentParams(**{k: self[f"noise.{k}"] for k in _NOISE_KEYS})

    def detailed_params(self) -> DetailedParams:
        return DetailedParams(**{k: self[f"detailed.{k}"] for k in _DETAILED_KEYS})
