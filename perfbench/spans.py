"""Spans around the calls into each entsense layer, from outside src/.

Tracer.install() replaces every public function of the eight layer
modules (the names in each module's __all__ that the module defines,
plus the public classmethods of its public classes) with a timing
wrapper, in every layer namespace that binds it: a call through
``entsense.cli.estimate_blocks`` and one through
``entsense.randomphase.estimate_blocks`` are both seen, as are calls a
module makes to its own public names (``run_experiment`` ->
``sample_patterns``).  Private helpers are not wrapped, so their time is
the self time of the public call that reached them.

A span's self time is its duration minus the durations of the spans it
called on the same thread.  Spans opened on worker threads (the
threaded chunks of ``run_experiment``) are roots on their thread, so a
layer's self time is summed across threads and can exceed wall time.
Spans are aggregated in memory as they close; nothing is written until
the benchmark reads the totals.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
import types
from collections import defaultdict

LAYERS = ("model", "simulator", "estimation", "resources", "randomphase",
          "events", "config", "cli")

# estimate_blocks returns theta_hat = u/3; the degenerate values it
# documents are the two branch edges and the flat-likelihood midpoint
_DEGENERATE = (0.0, math.pi / 3.0, (math.pi / 2.0) / 3.0)
_SAMPLER_SPANS = ("simulator.sample_patterns", "simulator.stream_generator")


def _count_estimates(tracer, args, kwargs, result, duration, children):
    tracer.count["estimation.blocks"] += len(result)
    tracer.count["estimation.degenerate_blocks"] += sum(
        int((result == v).sum()) for v in _DEGENERATE)


def _count_pulses(tracer, args, kwargs, result, duration, children):
    tracer.count["simulator.pulses"] += len(result[0])


def _count_run(tracer, args, kwargs, result, duration, children):
    config = args[0] if args else kwargs["config"]
    pulses = config.pulses_per_setting * len(config.settings)
    tracer.count["simulator.run_pulses"] += pulses
    workers = kwargs.get("workers")
    if kwargs.get("event_log") is not None and not (workers and workers > 1):
        # serial logged run: what is not sampling is writing the log
        sampling = sum(children.get(k, 0.0) for k in _SAMPLER_SPANS)
        tracer.count["simulator.log_rows"] += pulses
        tracer.count["simulator.log_write_s"] += duration - sampling


def _count_read(tracer, args, kwargs, result, duration, children):
    tracer.count["simulator.read_rows"] += sum(result.pulses)


OBSERVERS = {
    "estimation.estimate_blocks": _count_estimates,
    "simulator.sample_patterns": _count_pulses,
    "simulator.run_experiment": _count_run,
    "simulator.read_event_log": _count_read,
}


class Tracer:
    """Wraps the layers' public functions and totals their spans."""

    def __init__(self):
        self.calls = defaultdict(int)        # "layer.name" -> calls
        self.seconds = defaultdict(float)    # "layer.name" -> summed durations
        self.self_seconds = defaultdict(float)  # layer -> summed self time
        self.count = defaultdict(float)      # counters filled by OBSERVERS
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        observe = OBSERVERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            frame = [0.0, defaultdict(float)]  # child time, child time by span
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1][key] += duration
                with self._lock:
                    self.calls[key] += 1
                    self.seconds[key] += duration
                    self.self_seconds[layer] += duration - frame[0]
            if observe is not None:
                with self._lock:
                    observe(self, args, kwargs, result, duration, frame[1])
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"entsense.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[obj] = self._wrap(layer, name, obj)
                elif isinstance(obj, type):
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            wrapped = self._wrap(layer, f"{name}.{attr}", raw.__func__)
                            self._patch(obj, attr, classmethod(wrapped))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def mean_seconds(self, key):
        return self.seconds[key] / self.calls[key]

    def rate(self, counter, key):
        return self.count[counter] / self.seconds[key]
