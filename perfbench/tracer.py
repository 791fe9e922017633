"""Per-layer spans recorded from outside the package.

Each traced public function is replaced, in every ``micromacro`` namespace
that holds it, by a wrapper that appends a span (name, parent span, start,
end, work amount) to an in-memory list.  Replacing the function in the
namespace of its caller matters: ``macro`` imports ``displacement_operator``
by name, so patching only ``fock.displacement_operator`` would miss it.

A target that no longer exists is skipped, so its counts read zero instead of
the traced run crashing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# metric prefix -> (module, qualified name, argument counted as work, span tag)
# The tag splits one function into two spans by an argument value.
TARGETS = {
    "fock.displacement_operator": ("fock", "displacement_operator", None, None),
    "fock.fock_unitary": ("fock", "ModeTransform.fock_unitary", None, None),
    "macro.macro_components": ("macro", "macro_components", None, None),
    "macro.guessing_probability": (
        "macro", "guessing_probability", None,
        ("sigma", lambda s: "sigma0" if s == 0 else "smoothed")),
    "macro.sigma_max": ("macro", "sigma_max", None, None),
    "macro.effective_size": ("macro", "effective_size", None, None),
    "macro.size_analysis": ("macro", "size_analysis", None, None),
    "macro.lossy_mixture_guessing": ("macro", "lossy_mixture_guessing", None, None),
    "noise.witness_band_point": ("noise", "witness_band_point", "band_samples", None),
    "spdc.joint_probabilities": ("spdc", "joint_probabilities", None, None),
    "spdc.chsh_from_detailed": ("spdc", "chsh_from_detailed", None, None),
    "spdc.monte_carlo_oracle": ("spdc", "monte_carlo_oracle", "n_samples", None),
    "spdc.detailed_chsh_curve": ("spdc", "detailed_chsh_curve", None, None),
    "hom.hom_visibility": ("hom", "hom_visibility", None, None),
    "hom.overlap_vs_window": ("hom", "overlap_vs_window", None, None),
    "tomography.simulate_tomography": ("tomography", "simulate_tomography", None, None),
    "tomography.reconstruct_mle": ("tomography", "reconstruct_mle", None, None),
    "validate.run_all": ("validate", "run_all", None, None),
    **{f"cli.cmd_{c}": ("cli", f"cmd_{c}", None, None)
       for c in ("curves", "size", "hom", "detailed", "tomo", "validate")},
}


class Tracer:
    """Spans kept in memory: ``[name, parent index, start, end, work]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, work_arg, tag):
        sig = inspect.signature(fn) if (work_arg or tag) else None

        def argument(args, kwargs, param):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments.get(param)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if tag is not None:
                label = f"{name}.{tag[1](argument(args, kwargs, tag[0]))}"
            work = argument(args, kwargs, work_arg) if work_arg else 0
            span = [label, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None, work]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()

        return wrapper

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        missing = []
        for name, (module, qualname, work_arg, tag) in targets.items():
            try:
                mod = importlib.import_module(f"micromacro.{module}")
            except ImportError:
                missing.append(name)
                continue
            *owner_path, attr = qualname.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, work_arg, tag)
            if owner_path:
                setattr(owner, attr, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("micromacro") \
                        and getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, wrapper)
        return missing

    def _has_ancestor(self, span, name, direct=False):
        parent = span[1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            if direct:
                return False
            parent = self.spans[parent][1]
        return False

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, seconds (outermost spans only), max, work."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span[0], {"calls": 0, "s": 0.0, "max_s": 0.0,
                                             "work": 0})
            entry["calls"] += 1
            entry["work"] += span[4] or 0
            if span[3] is None:
                continue
            dt = span[3] - span[2]
            entry["max_s"] = max(entry["max_s"], dt)
            if not self._has_ancestor(span, span[0]):
                entry["s"] += dt
        return out

    def count_within(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Spans called ``name`` under a span called ``ancestor``.

        With ``direct``, the ancestor must be the nearest traced span, so calls
        made through another traced function are not counted.
        """
        return sum(1 for s in self.spans
                   if s[0] == name and self._has_ancestor(s, ancestor, direct))
