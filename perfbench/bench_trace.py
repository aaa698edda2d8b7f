"""Spans and counters around the public functions of every toricforms layer.

The tracer lives entirely in the benchmark: ``Tracer.install`` replaces each
traced function by a wrapper in every module namespace that binds it (for
example ``cohomology`` and ``fans`` import ``exact_linalg`` helpers by name,
and ``cli`` imports the classifiers), and ``Tracer.restore`` puts every
original back.  Spans are kept in memory as ``(name, start, end, parent,
op)`` rows and written out by ``dump``.  A span's self time is its duration
minus the durations of its child spans.

Three hot methods are counted but get no span, because a span per call would
dwarf the work: ``IntMatrix.__matmul__``, ``IntMatrix.apply`` and
``FanAutGroup.mult_index``.  Their time stays in their caller's self time.

Work done by the tracer itself after a call returns (reading the result for
the SNF, group-order and class counters) is recorded as a ``trace.hook``
span, so it is not charged to the caller.
"""

from __future__ import annotations

import inspect
import json
import sys
from functools import cached_property, wraps
from pathlib import Path
from time import perf_counter

#: Op id of spans recorded while the builtin fans are warmed.
SETUP_OP = -1

LAYERS = ("exact_linalg", "fans", "fan_aut", "galois", "cohomology", "classify", "cli")

#: (module, class, attribute, reported name) of traced methods.
SPAN_METHODS = (
    ("fan_aut", "FanAutGroup", "inverse_indices", "fan_aut.FanAutGroup.inverse_indices"),
    ("galois", "FiniteFieldBackend", "__init__", "galois.FiniteFieldBackend.init"),
    ("classify", "ClassificationReport", "to_json", "classify.ClassificationReport.to_json"),
)
COUNT_METHODS = (
    ("exact_linalg", "IntMatrix", "__matmul__", "exact_linalg.IntMatrix.matmul"),
    ("exact_linalg", "IntMatrix", "apply", "exact_linalg.IntMatrix.apply"),
    ("fan_aut", "FanAutGroup", "mult_index", "fan_aut.FanAutGroup.mult_index"),
)


def _max_bits(matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for row in m.rows for x in row), default=0
    )


class Tracer:
    """Wraps the toricforms layers of one imported package; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # per-op and run-wide counters read by the hooks
        self.snf_keys: set = set()
        self.snf_distinct = 0
        self.snf_max_cells = 0
        self.snf_max_bits = 0
        self.max_aut_order = 0
        self.hom_classes = 0
        self.assignments = 0

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.snf_keys = set()

    def end_op(self) -> None:
        self.snf_distinct += len(self.snf_keys)
        self.snf_keys = set()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, func, hook=None, pre=None):
        tracer = self

        @wraps(func)
        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if pre is not None:
                pre(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            parent = tracer._stack[-1]
            spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if hook is not None:
                hook(result, *args, **kwargs)
                spans.append(("trace.hook", end, perf_counter(), parent, tracer.op))
            return result

        return traced

    def _counter(self, name: str, func):
        calls = self.calls

        @wraps(func)
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)

        return counted

    # -- hooks --------------------------------------------------------------

    def _snf_hook(self, dec, m, *_args, **_kwargs) -> None:
        self.snf_keys.add(m.rows)
        self.snf_max_cells = max(self.snf_max_cells, m.nrows * m.ncols)
        bits = _max_bits((m, dec.u, dec.d, dec.v, dec.u_inv, dec.v_inv))
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _aut_hook(self, group, *_args, **_kwargs) -> None:
        self.max_aut_order = max(self.max_aut_order, group.order)

    def _hom_hook(self, classes, *_args, **_kwargs) -> None:
        self.hom_classes += len(classes)

    def _brute_pre(self, module, *_args, **_kwargs) -> None:
        self.assignments += module.size ** len(module.group.generators)

    # -- install / restore --------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "toricforms") -> None:
        """Wrap the layers of the already imported ``package``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        hooks = {
            "exact_linalg.smith_normal_form": (self._snf_hook, None),
            "fan_aut.automorphism_group": (self._aut_hook, None),
            "galois.enumerate_hom_classes": (self._hom_hook, None),
            "cohomology.brute_force_h1_finite": (None, self._brute_pre),
        }
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook, pre = hooks.get(name, (None, None))
                replacements[id(obj)] = (obj, self._span(name, obj, hook, pre))
        # rebind every module-level name that refers to a traced function
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = replacements.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for layer, cls_name, attr, name in SPAN_METHODS:
            cls = getattr(modules[f"{package}.{layer}"], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, cached_property):
                wrapped = cached_property(self._span(name, original.func))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = self._span(name, original)
            self._patch(cls, attr, wrapped)
        for layer, cls_name, attr, name in COUNT_METHODS:
            cls = getattr(modules[f"{package}.{layer}"], cls_name)
            self._patch(cls, attr, self._counter(name, cls.__dict__[attr]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self, setup: bool = False) -> dict[str, float]:
        """Total self time per span name, over the ops or over the set-up."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent, op), children in zip(self.spans, child_time):
            if (op == SETUP_OP) == setup:
                totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals

    def root_time(self, setup: bool = False) -> float:
        """Total duration of the top-level spans (one ``cli.run`` per op)."""
        return sum(
            end - start
            for _name, start, end, parent, op in self.spans
            if parent < 0 and (op == SETUP_OP) == setup
        )

    def dump(self, path: Path) -> None:
        """Write the spans as JSON rows ``[name index, start ns, end ns, parent, op]``.

        Times count from the first span's start; op -1 is the traced set-up.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        names: dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [
                names.setdefault(name, len(names)),
                round((start - origin) * 1e9),
                round((end - origin) * 1e9),
                parent,
                op,
            ]
            for name, start, end, parent, op in self.spans
        ]
        with path.open("w") as out:
            json.dump(
                {
                    "names": list(names),
                    "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": rows,
                    "calls": self.calls,
                },
                out,
                separators=(",", ":"),
            )
