"""In-memory span tracer for the benchmark's traced pass.

Spans are recorded from the benchmark's own files: while a
:class:`Tracer` is installed, each public function listed in
:data:`LAYER_TARGETS` is replaced by a wrapper that opens a span, calls
the original and closes the span.  Nothing inside ``src/`` is edited.

Callers import these functions by name (``from repro.security.stats
import permutation_test``), so a module function is replaced in *every*
``repro`` module that holds a reference to it, not only where it is
defined.  Methods are replaced on their class.  Per-record and
per-trial functions (``TraceObserver.observe``, ``Attacker.trial``,
``observation_key``) are deliberately not wrapped: their cost lands in
the self time of the enclosing span.

Generators (``FastExecutor.run_chunks`` and the batch executor's chunk
streams) are timed per ``next()``: the time the consumer spends pulling
a chunk counts as ``arch``, the consumer's own work as its own layer.

A span's self time is its duration minus the durations of its direct
children; every layer's self time plus the time no span covers adds up
to the traced wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (layer, module, attribute, kind).  ``kind`` is "call" for a plain call
# and "iter" for a generator whose next() calls are timed.
LAYER_TARGETS = (
    ("lang", "repro.lang.compiler", "compile_source", "call"),
    ("isa", "repro.isa.program", "Program.predecode", "call"),
    ("core", "repro.core.engine", "simulate", "call"),
    ("arch", "repro.arch.fast_executor", "FastExecutor.run_chunks", "iter"),
    ("arch", "repro.arch.batch", "BatchExecutor.run", "call"),
    ("arch", "repro.arch.batch", "BatchExecutor.lane_chunks", "iter"),
    ("arch", "repro.arch.batch", "BatchExecutor.group_template_chunks",
     "iter"),
    ("arch", "repro.arch.batch", "BatchExecutor.lane_timing_digest", "call"),
    ("arch", "repro.arch.batch", "BatchExecutor.lane_streams", "call"),
    ("uarch", "repro.uarch.pipeline", "OutOfOrderPipeline.run_chunks",
     "call"),
    ("uarch", "repro.uarch.pipeline", "OutOfOrderPipeline.branch_schedule",
     "call"),
    ("uarch", "repro.uarch.batch_pipeline", "lane_outcomes", "call"),
    ("observer", "repro.security.observer", "collect_observation", "call"),
    ("observer", "repro.security.observer", "collect_observations_batch",
     "call"),
    ("attackers", "repro.security.attackers", "execute_attack", "call"),
    ("stats", "repro.security.stats", "permutation_test", "call"),
    ("stats", "repro.security.stats", "welch_t_test", "call"),
    ("leakage", "repro.security.leakage", "victim_report", "call"),
    ("leakage", "repro.security.leakage", "noninterference_report", "call"),
    ("leakage", "repro.security.leakage", "mutual_information_bits", "call"),
    ("analysis", "repro.analysis.differential", "execute_verify", "call"),
    ("store", "repro.harness.store", "ResultStore.get", "call"),
    ("store", "repro.harness.store", "ResultStore.put", "call"),
    ("experiments", "repro.harness.experiments", "render_experiment", "call"),
)

# Layers whose self time is reported as ``<layer>.self_s``.  The store
# layer is reported split by operation instead (store.get_s, store.put_s).
SELF_TIME_LAYERS = ("lang", "isa", "core", "arch", "uarch", "observer",
                    "attackers", "stats", "leakage", "analysis",
                    "experiments")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # [layer, name, start, end, parent index (-1 for a root span)]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._originals: dict = {}      # wrapper -> original

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][1] == name for i in self._stack)

    # -- wrappers ----------------------------------------------------------

    def _call_wrapper(self, layer: str, name: str, original):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._count(name, args, result)
            return result

        return traced

    def _iter_wrapper(self, layer: str, name: str, original):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._timed_iter(layer, name,
                                      original(*args, **kwargs), args)

        return traced

    def _timed_iter(self, layer: str, name: str, iterator, args):
        while True:
            index = self._open(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                self._close(index)
                break
            except BaseException:
                self._close(index)
                raise
            self._close(index)
            yield item
        if name == "FastExecutor.run_chunks" \
                and not self._inside("BatchExecutor.run"):
            # A batch run in speculation mode delegates each lane to a
            # serial executor; those lanes are counted by the batch run.
            self.counts["arch.lanes"] += 1
            self.counts["arch.instructions"] += args[0].result.instructions

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name == "compile_source":
            counts["lang.calls"] += 1
        elif name == "Program.predecode":
            counts["isa.predecode_calls"] += 1
        elif name == "BatchExecutor.run":
            executor = args[0]
            for lane in range(executor.n_lanes):
                if executor.lane_error(lane) is None:
                    counts["arch.instructions"] += \
                        executor.lane_result(lane).instructions
            counts["arch.lanes"] += executor.n_lanes
        elif name == "permutation_test":
            counts["stats.perm_tests"] += 1
        elif name == "welch_t_test":
            counts["stats.welch_tests"] += 1
        elif name in ("collect_observation", "collect_observations_batch"):
            if not self._inside_observer():
                counts["observer.calls"] += 1
                counts["observer.lanes"] += len(result) \
                    if isinstance(result, list) else 1

    def _inside_observer(self) -> bool:
        return any(self.spans[i][0] == "observer" for i in self._stack)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every place it is looked up."""
        for layer, module_name, attribute, kind in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            make = self._iter_wrapper if kind == "iter" else \
                self._call_wrapper
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                wrapper = make(layer, attribute, original)
                self._originals[wrapper] = original
                setattr(owner, method, wrapper)
                continue
            original = getattr(module, attribute)
            wrapper = make(layer, attribute, original)
            self._originals[wrapper] = original
            self._replace({original: wrapper})

    def uninstall(self) -> None:
        """Put every original back, including references that modules
        imported while the tracer was installed."""
        for layer, module_name, attribute, kind in LAYER_TARGETS:
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(sys.modules[module_name], class_name)
                current = owner.__dict__[method]
                if current in self._originals:
                    setattr(owner, method, self._originals[current])
        self._replace(self._originals)
        self._originals.clear()

    @staticmethod
    def _replace(mapping: dict) -> None:
        """Rebind every ``repro`` module attribute that *is* a key of
        *mapping* (compared by identity) to its value."""
        by_id = {id(old): new for old, new in mapping.items()}
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != "repro":
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in by_id:
                    namespace[key] = by_id[id(value)]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self, window: tuple[float, float]
                   ) -> tuple[dict[str, float], float]:
        """Self seconds per layer (store split into get/put) and the
        summed duration of root spans, over the spans inside *window*
        (a ``perf_counter`` interval: the traced phase's wall time)."""
        begin, end_of_window = window
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        covered = 0.0
        for index, (layer, name, start, end, parent) in enumerate(self.spans):
            if start < begin or end > end_of_window:
                continue
            own = (end - start) - child[index]
            if layer == "store":
                totals["store.get_s" if name.endswith(".get")
                       else "store.put_s"] += own
            else:
                totals[f"{layer}.self_s"] += own
            if parent < 0:
                covered += end - start
        return totals, covered

    def dump(self) -> list[dict]:
        """The spans as JSON-safe records (written out when the run ends)."""
        return [{"layer": layer, "name": name, "start": start, "end": end,
                 "parent": parent}
                for layer, name, start, end, parent in self.spans]
