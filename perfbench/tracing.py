"""Per-layer tracing from outside the program.

The tracer wraps the public function of each layer where it is called:
a module-level function is replaced in every loaded module that
imported it (its defining module included, which later lazy imports
read), a method on its class.  Nothing under ``src/`` is edited, and
:meth:`Tracer.uninstall` restores every attribute, so untraced ops run
the program exactly as a user does.

A span's self time is its duration minus the time of the spans it
caused.  A call counts once per layer: a span whose parent span belongs
to the same layer (``windowed_outcomes`` delegating to
``vector_windowed_outcomes``, say) adds its self time but not a call.
Spans are aggregated per op, in memory.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulate.artifacts import ArtifactStore

ARTIFACT_KINDS = ("batchplan", "collapse", "compiled", "partition", "profile", "vector")



def _sliced(args, kwargs, result) -> Tuple[str, int]:
    _source, start, stop = args[:3]
    return "source.patterns_generated", stop - start


def _drawn(args, kwargs, result) -> Tuple[str, int]:
    return "source.patterns_generated", result.count


def _classes(args, kwargs, result) -> Tuple[str, int]:
    return "faults.classes", result.class_count


# (layer, defining module, attribute path, counter) - a dotted path names
# a method; the counter maps (args, kwargs, result) to a (name, amount).
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("netlist.parse", "repro.netlist.bench", "parse_bench", None),
    ("cells.library", "repro.cells.library", "generate_library", None),
    ("faults.collapse", "repro.faults.structural", "collapse_network_faults", _classes),
    ("compiled.compile", "repro.simulate.compiled", "compile_network", None),
    ("schedule.partition", "repro.simulate.schedule", "partition_faults", None),
    ("vector.plan", "repro.simulate.vector", "VectorNetwork.plan_batches", None),
    ("vector.cone_pass", "repro.simulate.vector", "VectorNetwork.plan_difference_rows", None),
    ("vector.cone_pass", "repro.simulate.vector", "VectorNetwork.group_difference_rows", None),
    ("vector.cone_pass", "repro.simulate.vector", "VectorNetwork.merged_difference_rows", None),
    ("vector.good", "repro.simulate.vector", "VectorNetwork.good_rows", None),
    ("faultsim.window_core", "repro.simulate.faultsim", "windowed_outcomes", None),
    ("faultsim.window_core", "repro.simulate.vector", "vector_windowed_outcomes", None),
    ("faultsim.fold", "repro.simulate.faultsim", "fold_session_block", None),
    ("source.patterns", "repro.simulate.source", "PatternSource.slice", _sliced),
    ("source.patterns", "repro.simulate.logicsim", "PatternSet.random", _drawn),
    ("artifacts.fetch", "repro.simulate.artifacts", "ArtifactStore.fetch", None),
    ("protest.signal", "repro.protest.signalprob", "signal_probabilities", None),
    ("protest.detection", "repro.protest.detectprob", "detection_probabilities", None),
    ("protest.optimize", "repro.protest.optimize", "optimize_input_probabilities", None),
    ("protest.test_length", "repro.protest.testlength", "test_length", None),
    ("protest.candidate", "repro.protest.signalprob", "minterm_weights", None),
    ("sharded.pool_start", "multiprocessing.pool", "Pool.__init__", None),
    ("sharded.dispatch", "multiprocessing.pool", "Pool.map", None),
)

# Layers reported only as counts; every other layer is reported as
# ``<layer>_s`` (self time) and ``<layer>_calls``.
COUNTED_ONLY = {"protest.candidate", "sharded.pool_start", "sharded.dispatch"}
TIMED = tuple(dict.fromkeys(entry[0] for entry in LAYERS if entry[0] not in COUNTED_ONLY))


class Tracer:
    """Aggregated spans and counters of the ops run while installed."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[List] = []
        self._stores: Dict[int, Tuple[ArtifactStore, Dict]] = {}
        self.reset()

    # -- per-op state -------------------------------------------------------------

    def reset(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stores.clear()
        self._children = _children_cpu()

    def collect(self) -> Dict[str, float]:
        """Every per-layer figure of the op since :meth:`reset`."""
        figures: Dict[str, float] = {}
        for layer in TIMED:
            figures[f"{layer}_s"] = self.self_s.get(layer, 0.0)
            figures[f"{layer}_calls"] = self.calls[layer]
        figures["faults.classes"] = self.counts["faults.classes"]
        figures["source.patterns_generated"] = self.counts["source.patterns_generated"]
        figures["protest.candidate_evals"] = self.calls["protest.candidate"]
        figures["sharded.pool_starts"] = self.calls["sharded.pool_start"]
        figures["sharded.dispatches"] = self.calls["sharded.dispatch"]
        wait = self.self_s.get("sharded.dispatch", 0.0)
        figures["sharded.dispatch_wait_s"] = wait
        figures["sharded.worker_cpu_s"] = _children_cpu() - self._children
        hits: Counter = Counter()
        misses: Counter = Counter()
        for store, before in self._stores.values():
            for kind, after in store.stats().items():
                hits[kind] += after["hits"] - before.get(kind, {}).get("hits", 0)
                misses[kind] += after["misses"] - before.get(kind, {}).get("misses", 0)
        figures["artifacts.hits"] = sum(hits.values())
        figures["artifacts.misses"] = sum(misses.values())
        for kind in ARTIFACT_KINDS:
            figures[f"artifacts.{kind}.hits"] = hits[kind]
            figures[f"artifacts.{kind}.misses"] = misses[kind]
        return figures

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path, counter in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__, counter))
                else:
                    wrapped = self._wrap(layer, raw, counter)
                self._patch(owner, method, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(layer, original, counter)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__dict__", {}).get(path) is original:
                    self._patch(loaded, path, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, layer: str, function: Callable, counter: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if layer == "artifacts.fetch":
                self._watch_store(args[0])
            parent: Optional[List] = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if parent is None or parent[0] != layer:
                    self.calls[layer] += 1
            if counter is not None:
                name, amount = counter(args, kwargs, result)
                self.counts[name] += amount
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", layer)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    def _watch_store(self, store: ArtifactStore) -> None:
        if id(store) not in self._stores:
            self._stores[id(store)] = (store, store.stats())


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
