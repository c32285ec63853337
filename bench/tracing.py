"""Spans around the calls into each harmbounds module's public functions.

The wrappers live here, not in the package: installing a :class:`Tracer`
replaces every reference to a wrapped function that a ``harmbounds``
module holds (its own attribute, names imported into other modules, and
values of module-level tables such as ``verify.PROPS``), so calls made
inside the package are traced too.  Spans are kept in memory; the
per-layer figures are self times, a span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: Layer metric -> (module, public functions whose calls it times).
LAYERS = {
    "laws.parse": ("laws", ("read_law_file", "parse_law_text")),
    "laws.push_forward": ("laws", ("observed_from_full",)),
    "identify.means": ("identify", ("identified_means", "att_atu", "fused_potential_mean")),
    "bounds.exp": ("bounds", ("exp_bounds",)),
    "bounds.fused": ("bounds", ("fused_bounds",)),
    "bounds.lower_bound": ("bounds", ("fused_lower_bound_s1",)),
    "utility.parse": ("utility", ("read_utility_file", "parse_utility_text")),
    "decide.report": ("decide", ("interventionist_report", "counterfactual_report")),
    "decide.compare": ("decide", ("true_law_policies", "policy_value", "excess_outcome")),
    "simulate.random_law": ("simulate", ("random_law",)),
    "simulate.sample": ("simulate", ("sample_dataset",)),
    "simulate.csv_write": ("simulate", ("format_dataset_csv",)),
    "simulate.csv_read": ("simulate", ("read_dataset_file", "parse_dataset_csv")),
    "simulate.estimate": ("simulate", ("estimate_observed_law",)),
    "verify.s3": ("verify", ("sweep_s3",)),
    "verify.s4": ("verify", ("sweep_s4",)),
    "verify.s5": ("verify", ("sweep_s5",)),
    "verify.sharpness": ("verify", ("sweep_sharpness",)),
    "verify.fusion": ("verify", ("sweep_fusion",)),
    "verify.excess": ("verify", ("sweep_excess",)),
    # What cli.main spends outside every layer above: argument parsing,
    # file opening and rendering.
    "cli.self": ("cli", ("main",)),
}

#: Functions whose text argument or result is CSV; its length is counted as bytes (ASCII).
CSV_TEXT = {"format_dataset_csv": "result", "parse_dataset_csv": "argument"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # (layer, start, end, parent)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # (module or table, name, function)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = f"{layer}_calls"
        csv = CSV_TEXT.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
                counts[counter] = counts.get(counter, 0) + 1
            if csv is not None:
                text = result if csv == "result" else args[0]
                counts["simulate.csv_bytes"] = counts.get("simulate.csv_bytes", 0) + len(text)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS; raises if one no longer exists."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "harmbounds" or n.startswith("harmbounds.")]
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(f"harmbounds.{module_name}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    raise RuntimeError(f"traced function harmbounds.{module_name}.{name} "
                                       "no longer exists")
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is fn:
                                    self._patched.append((value, key, fn))
                                    value[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for (layer, start, end, _parent), covered in zip(self.spans, child):
            totals[layer] += end - start - covered
        return totals

    def root_seconds(self) -> float:
        """Time inside outermost spans, which the self times add up to."""
        return sum(end - start for _layer, start, end, parent in self.spans if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent in self.spans:
                fh.write(json.dumps({"layer": layer, "start": start, "end": end,
                                     "parent": parent}) + "\n")
