"""Span tracing of curvop's layers from outside the package.

A ``Tracer`` replaces public functions by wrappers at the module attribute
through which the calling code reaches them (``harness.eigen_sym`` is the
second-kind eigensolve that ``boost_to_hypothesis`` and ``sharpness_probe``
look up in their module; ``conditions.eigen_sym`` is the one ``ricci_min``
looks up). Each call records a span (name, start, end, parent) in memory;
``uninstall`` puts the original functions back. Nothing under ``src/`` is
edited.
"""

from __future__ import annotations

import time

# (module, attribute, layer metric): the span is recorded under
# "module.attribute" and reported under the layer metric name.
WRAPPED = (
    ("harness", "implication_trial", "harness.implication_trial"),
    ("harness", "sharpness_probe", "harness.sharpness_probe"),
    ("harness", "boost_to_hypothesis", "harness.boost_to_hypothesis"),
    ("harness", "eigen_sym", "secondkind.eigen_sym"),
    ("harness", "second_kind_matrix", "secondkind.second_kind_matrix"),
    ("harness", "shift", "models.shift"),
    ("harness", "interpolate", "models.interpolate"),
    ("harness", "min_isotropic_batch", "conditions.min_isotropic_batch"),
    ("conditions", "min_isotropic_batch", "conditions.min_isotropic_batch"),
    ("harness", "ricci_min", "conditions.ricci_min"),
    ("conditions", "eigen_sym", "conditions.ricci_min.eigen_sym"),
    ("models", "random_curvature", "models.random_curvature"),
    ("models", "bianchi_project", "tensor.bianchi_project"),
    ("conditions", "verify_pic_identities", "conditions.verify_pic_identities"),
    ("conditions", "verify_ric_identities", "conditions.verify_ric_identities"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))

COUNTS = (
    "conditions.descent.starts",
    "conditions.descent.iterations",
    "conditions.descent.capped_tensors",
    "harness.shifts_applied",
)


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, _ in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        observe = {
            "min_isotropic_batch": self._observe_descent,
            "implication_trial": self._observe_trial,
        }.get(func.__name__)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _observe_descent(self, args, kwargs, results) -> None:
        trials = kwargs["trials"] if "trials" in kwargs else args[1]
        self.counts["conditions.descent.starts"] += trials * len(results)
        self.counts["conditions.descent.iterations"] += sum(r.refinement_steps for r in results)
        self.counts["conditions.descent.capped_tensors"] += sum(not r.converged for r in results)

    def _observe_trial(self, args, kwargs, report) -> None:
        self.counts["harness.shifts_applied"] += report.shifts_applied

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """Per layer metric: (calls, self seconds, inclusive seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = {f"{m}.{a}": layer for m, a, layer in WRAPPED}
        out = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[layer_of[name]]
            entry[0] += 1
            entry[1] += (end - start) - child[index]
            entry[2] += end - start
        return {layer: tuple(v) for layer, v in out.items()}

    def to_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]
