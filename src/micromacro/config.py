"""Run configuration: plain text, one ``section.key = value`` per line.

``#`` starts a comment, blank lines are ignored, and any key outside the
schema is rejected, as is a key set twice or a value outside the key's
range.  A key that sets a model parameter takes its range and default from
the dataclass field it maps to (``FIELD_KEYS``, ``ranges``); every other key
declares its range in ``SCHEMA``.  Rules across lines: the oracle and band
sample counts are each 0 (off) or at least 2, each grid's ``*_min`` lies below
its ``*_max``, and ``noise.eta`` is at most ``noise.eta_abs``.
Every key is checked at parse time, before any command computes.  Defaults
reproduce the reference experiment, so an empty config is a valid complete
run.  The resolved key/value map has a canonical text form whose SHA-256 is
stamped into every output table.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .hom import HomParams, TemporalProfiles
from .macro import LAM
from .noise import ExperimentParams
from .ranges import NONNEGATIVE, POSITIVE, UNIT, Range
from .spdc import DetailedParams


class ConfigError(ValueError):
    pass


#: a grid point is one CSV row
_POINTS = Range(1.0, 1e6)
#: a band point holds its (draws, 3) normals at once: 240 MB at 1e7
_BAND_SAMPLES = Range(0.0, 1e7)
#: the oracle draws about 5.5e6 samples/s on a 2-vCPU machine, so 1e9 takes
#: some 3 min per grid point
_ORACLE_SAMPLES = Range(0.0, 1e9)
#: the 36 setting pairs' counts sum to 36 shots in int64
_SHOTS = Range(1.0, (2**63 - 1) // 36)


_NOISE, _DETAILED = ExperimentParams(), DetailedParams()
_HOM, _PROFILES = HomParams(), TemporalProfiles()
#: key -> (default object, field name); the field declares the key's range
FIELD_KEYS = {
    **{f"noise.{f.name}": (_NOISE, f.name) for f in fields(_NOISE)},
    **{f"detailed.{f.name}": (_DETAILED, f.name) for f in fields(_DETAILED)},
    "hom.mu_star": (_HOM, "mu_csp"),
    **{f"hom.{k}": (_HOM, k) for k in ("p_pair", "eta_h", "xi")},
    **{f"hom.{k}": (_HOM.detector, k) for k in ("eta_d", "p_dc")},
    **{f"hom.{k}": (_PROFILES, k) for k in ("csp_fwhm", "hsp_tau_c")},
}

#: key -> (range, default); a value parses as its default's type
SCHEMA: dict[str, tuple] = {
    "run.seed": (NONNEGATIVE, 0),
    "curves.alpha_sq_min": (NONNEGATIVE, 0.0),
    "curves.alpha_sq_max": (NONNEGATIVE, 100.0),
    "curves.points": (_POINTS, 41),
    "curves.band_samples": (_BAND_SAMPLES, 200),
    "size.beta_sq_min": (LAM, 2.0),  # as macro's P_g bounds lam = beta^2
    "size.beta_sq_max": (LAM, 60.0),
    "size.points": (_POINTS, 15),
    "size.beta_sq_star": (LAM, 47.0),
    # P_g = 1/2 is a coin toss and P_g = 1 certainty; a target lies between
    "size.target_p_g": (Range(0.5, 1.0, "()"), 2.0 / 3.0),
    "hom.mu_min": (HomParams.range_of("mu_csp"), 0.001),
    "hom.mu_max": (HomParams.range_of("mu_csp"), 0.2),
    "hom.points": (_POINTS, 25),
    "hom.window_min": (POSITIVE, 0.5),
    "hom.window_max": (POSITIVE, 6.0),
    "hom.window_points": (_POINTS, 23),
    "detailed.mc_samples": (_ORACLE_SAMPLES, 0),
    "tomo.shots": (_SHOTS, 100_000),
    "tomo.werner_w": (UNIT, 0.94),  # as polarization.werner_state checks it
    **{key: (obj.range_of(name), getattr(obj, name))
       for key, (obj, name) in FIELD_KEYS.items()},
}
#: (lower key, upper key, strict): each grid's ``_min`` lies below its
#: ``_max``, and the memory retrieves no more than it absorbs
_ORDERED = [
    *((f"{grid}_min", f"{grid}_max", True)
      for grid in ("curves.alpha_sq", "size.beta_sq", "hom.mu", "hom.window")),
    ("noise.eta", "noise.eta_abs", False),
]


def parse_config_text(text: str) -> dict:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    set_on: dict[str, tuple[int, str]] = {}

    def bad(key: str, why) -> ConfigError:
        lineno, val = set_on[key]
        return ConfigError(f"line {lineno}: bad value {val!r} for {key}: {why}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not eq or not key:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', "
                              f"not {line!r}")
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line "
                              f"{set_on[key][0]}")
        rng, default = SCHEMA[key]
        set_on[key] = (lineno, val)
        try:
            values[key] = rng.check(type(default)(val))
        except ValueError as exc:
            raise bad(key, exc) from exc
    for lo_key, hi_key, strict in _ORDERED:
        lo, hi = values[lo_key], values[hi_key]
        if lo > hi or (strict and lo == hi):
            # blame the later of the two lines: it made the pair inconsistent
            key = max((k for k in (lo_key, hi_key) if k in set_on),
                      key=lambda k: set_on[k][0])
            raise bad(key, f"{lo_key} ({lo:.12g}) must be "
                           f"{'below' if strict else 'at most'} {hi_key} ({hi:.12g})")
    if values["detailed.mc_samples"] == 1:
        raise bad("detailed.mc_samples", "must be 0 (no oracle) or >= 2 for a standard error")
    if values["curves.band_samples"] == 1:
        raise bad("curves.band_samples", "must be 0 (no bands) or >= 2 for a spread")
    return values


@dataclass(frozen=True)
class RunConfig:
    values: tuple

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.values)

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

    def _build(self, default, **extra):
        """``default`` with every field that a config key sets replaced."""
        return replace(default, **extra, **{name: self[key] for key, (obj, name)
                                            in FIELD_KEYS.items() if obj is default})

    def noise_params(self) -> ExperimentParams:
        return self._build(_NOISE)

    def detailed_params(self) -> DetailedParams:
        return self._build(_DETAILED)

    def hom_params(self) -> HomParams:
        return self._build(_HOM, detector=self._build(_HOM.detector))

    def temporal_profiles(self) -> TemporalProfiles:
        return self._build(_PROFILES)
