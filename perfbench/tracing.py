"""Per-layer tracing of wexpand, done from the benchmark's side.

The layers are the library's modules.  `Tracer.installed()` wraps every
public function of each layer module, plus the few methods listed in
`METHODS`, so that each call records a span: (id, parent id, key, start, end,
register amplitudes).  The library binds names at import time (`from
.statevec import apply_1q` in wcircuit, `from .wcircuit import apply_O` in
noise and cli), so each wrapper replaces the original in every wexpand module
that holds it; leaving the block restores every original.

Spans stay in memory until `Profile.add` folds them into per-key totals,
once per request, and the benchmark prints the totals at the end.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

LAYERS = ("statevec", "gates", "wcircuit", "noise", "cavity", "cli")
# Public methods that carry a layer's cost but are not module functions.
METHODS = {
    "statevec": (("StateVector", "__post_init__"),),
    "gates": (("Gate", "__post_init__"),),
    "wcircuit": (("ExpansionCircuit", "apply"),),
    "cavity": (("CavityParams", "__post_init__"),),
}
KERNELS = ("statevec.apply_1q", "statevec.apply_2q", "statevec.apply_controlled")
REDUCTIONS = ("statevec.partial_trace", "statevec.postselect_zero", "statevec.permute",
              "statevec.tensor")
STATE_INIT = "statevec.StateVector.__post_init__"
# Spans whose first argument is a StateVector; they record its amplitude count.
SIZED = KERNELS + (STATE_INIT,)
CLOSED_FORMS = ("noise.fidelity_hadamard", "noise.fidelity_t_prime",
                "noise.fidelity_controlled_phase", "noise.fidelity_combined",
                "noise.fidelity_closed_form")
# Kernel traffic per amplitude, as computed rather than measured: one
# complex128 read and one written.
BYTES_PER_AMPLITUDE = 2 * 16


class Span(NamedTuple):
    id: int
    parent: int | None
    key: str
    start: float
    end: float
    amplitudes: int


class Tracer:
    """Installs span-recording wrappers on the wexpand package and removes them."""

    def __init__(self, package: str = "wexpand"):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        sized = key in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                size = getattr(getattr(args[0], "amplitudes", None), "size", 0) if sized else 0
                spans.append(Span(sid, parent, key, start, end, size))

        return traced

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def targets(self) -> list[tuple[str, object, object]]:
        """(span key, owner, original) for every function and method to trace."""
        found = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    found.append((f"{layer}.{name}", mod, obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                found.append((f"{layer}.{cls_name}.{meth}", cls, cls.__dict__[meth]))
        return found

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block; every original is back in place after it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package or name.startswith(self.package + ".")]
        wrappers = {}
        try:
            for key, owner, original in self.targets():
                wrapper = self._wrap(key, original)
                if inspect.isclass(owner):
                    self._patch(owner, original.__name__, wrapper)
                else:
                    wrappers[id(original)] = wrapper
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        self._patch(mod, name, wrappers[id(value)])
            yield self
        finally:
            while self._patches:
                owner, name, original = self._patches.pop()
                setattr(owner, name, original)


def snapshot(package: str = "wexpand") -> dict[tuple[str, str], object]:
    """Every attribute of the package's modules and every traced method, by name.

    Two snapshots whose values are identical objects show that no wrapper
    was left behind.
    """
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            snap.update(((name, attr), value) for attr, value in vars(mod).items())
    for layer, methods in METHODS.items():
        mod = sys.modules[f"{package}.{layer}"]
        for cls_name, meth in methods:
            snap[(f"{mod.__name__}.{cls_name}", meth)] = getattr(mod, cls_name).__dict__[meth]
    return snap


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    The program is single-threaded, so the children of a span are disjoint
    intervals inside it and their durations add up.
    """
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child.get(s.id, 0.0) for s in spans}


@dataclass
class KeyStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    amplitudes: int = 0
    max_amplitudes: int = 0


@dataclass
class Profile:
    """Per-key span totals over many requests."""

    stats: dict[str, KeyStats] = field(default_factory=dict)
    # Time of partial traces called directly by apply_O: its |0>-slot checks.
    apply_O_check_s: float = 0.0

    def add(self, spans: list[Span]) -> None:
        """Fold in the spans of whole requests (every span's parent is among them)."""
        selfs = self_times(spans)
        keys = {s.id: s.key for s in spans}
        for s in spans:
            st = self.stats.setdefault(s.key, KeyStats())
            st.calls += 1
            st.self_s += selfs[s.id]
            st.total_s += s.end - s.start
            st.amplitudes += s.amplitudes
            st.max_amplitudes = max(st.max_amplitudes, s.amplitudes)
            if s.key == "statevec.partial_trace" and keys.get(s.parent) == "wcircuit.apply_O":
                self.apply_O_check_s += s.end - s.start

    def _get(self, key: str) -> KeyStats:
        return self.stats.get(key, KeyStats())

    def calls(self, *keys: str) -> int:
        return sum(self._get(k).calls for k in keys)

    def self_s(self, *keys: str) -> float:
        return sum(self._get(k).self_s for k in keys)

    def layer_self_s(self, layer: str) -> float:
        return sum(st.self_s for k, st in self.stats.items() if k.split(".")[0] == layer)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name (units are in BENCHMARK.json)."""
        apply_o = self.calls("wcircuit.apply_O")
        builds = self.calls("wcircuit.standard_expansion_circuit")
        points = self.calls("cavity.CavityParams.__post_init__")
        coupled = self.calls("cavity.reflection_coupled")
        amplitudes = sum(self._get(k).amplitudes for k in KERNELS)
        return {
            "statevec.kernel_calls": self.calls(*KERNELS),
            "statevec.kernel_self_s": self.self_s(*KERNELS),
            "statevec.kernel_amplitudes": amplitudes,
            "statevec.kernel_bytes_computed": amplitudes * BYTES_PER_AMPLITUDE,
            "statevec.reduce_calls": self.calls(*REDUCTIONS),
            "statevec.reduce_self_s": self.self_s(*REDUCTIONS),
            "statevec.states_constructed": self.calls(STATE_INIT),
            "statevec.validate_s": self.self_s(STATE_INIT),
            "statevec.peak_register_qubits": max(self._get(STATE_INIT).max_amplitudes.bit_length() - 1, 0),
            "statevec.self_s": self.layer_self_s("statevec"),
            "gates.constructed": self.calls("gates.Gate.__post_init__"),
            "gates.self_s": self.layer_self_s("gates"),
            "wcircuit.apply_O_calls": apply_o,
            "wcircuit.apply_O_self_s": self.self_s("wcircuit.apply_O"),
            "wcircuit.apply_O_check_s": self.apply_O_check_s,
            "wcircuit.circuit_builds": builds,
            "wcircuit.circuit_build_s": self._get("wcircuit.standard_expansion_circuit").total_s,
            "wcircuit.builds_per_apply_O": builds / apply_o if apply_o else 0.0,
            "wcircuit.double_w_self_s": self.self_s("wcircuit.double_w"),
            "wcircuit.expand_by_one_calls": self.calls("wcircuit.expand_by_one"),
            "wcircuit.self_s": self.layer_self_s("wcircuit"),
            "noise.simulate_calls": self.calls("noise.simulate_noisy_fidelity"),
            "noise.simulate_self_s": self.self_s("noise.simulate_noisy_fidelity"),
            "noise.closed_form_calls": self.calls(*CLOSED_FORMS),
            "noise.closed_form_s": self.self_s(*CLOSED_FORMS),
            "noise.self_s": self.layer_self_s("noise"),
            "cavity.points": points,
            "cavity.coupled_evals": coupled,
            "cavity.coupled_evals_per_point": coupled / points if points else 0.0,
            "cavity.self_s": self.layer_self_s("cavity"),
            "cli.self_s": self.layer_self_s("cli"),
        }
