"""The layer table: which public functions of each ``repro`` package get a
span, and how the spans fold into the per-layer metrics.

Layers are named after ``src/repro/`` packages.  ``parallel`` and
``topology`` have no spans of their own: engine drivers run inside
``core.run`` spans, so their time is core self time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from tracer import Tracer, layer_of

__all__ = ["LAYERS", "install", "layer_metrics"]

LAYERS = ("core", "problems", "migration", "cluster", "runtime", "spec")


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(tracer: Tracer, worker_dir: Path) -> list:
    """Patch every layer boundary; returns the pools created while traced
    (their supervision stats are read after the run)."""
    import repro.spec.engines as spec_engines
    from repro.cluster.machine import SimulatedCluster
    from repro.cluster.sim import Simulator
    from repro.cluster.trace import Trace
    from repro.core import variation, vectorized
    from repro.core.engine import EvolutionEngine
    from repro.core.operators import selection
    from repro.core.problem import Problem
    from repro.migration import policy
    from repro.parallel.base import ENGINE_REGISTRY
    from repro.runtime import resilient, sweep
    from repro.spec import RunSpec

    # core: engine drivers (every class in a registered engine's MRO that
    # defines run), deme steps, variation and selection
    engine_classes = {EvolutionEngine}
    for info in ENGINE_REGISTRY.values():
        engine_classes.update(c for c in info.cls.__mro__ if c.__module__.startswith("repro."))
    for cls in sorted(engine_classes, key=lambda c: c.__qualname__):
        tracer.patch_method(cls, "run", "core.run")
    tracer.patch_method(EvolutionEngine, "initialize", "core.step")
    tracer.patch_method(EvolutionEngine, "step", "core.step")
    tracer.patch_function(variation.offspring_pair, "core.offspring")
    tracer.patch_function(vectorized.vector_offspring, "core.offspring")
    for obj in vars(selection).values():
        if isinstance(obj, type) and obj.__module__ == selection.__name__:
            tracer.patch_method(obj, "__call__", "core.selection")
    tracer.patch_method(EvolutionEngine, "_select_indices", "core.selection")

    # problems: bulk fitness evaluation, wherever a problem class defines it
    for cls in _subclasses(Problem):
        tracer.patch_method(cls, "evaluate_many", "problems.evaluate")
        tracer.patch_method(cls, "evaluate_batch", "problems.evaluate")

    # migration: emigrant selection and immigrant integration
    tracer.patch_function(policy.select_migrants, "migration.select")
    tracer.patch_function(policy.integrate_immigrants, "migration.integrate")

    # cluster: the event loop, the network and the trace
    tracer.patch_method(Simulator, "run", "cluster.sim_run")
    tracer.patch_method(SimulatedCluster, "send", "cluster.send")
    tracer.patch_method(Trace, "record", "cluster.trace_record")

    # runtime: sweep dispatch, cache, kernel digest, the pool and its workers
    tracer.patch_function(sweep.run_sweep, "runtime.run_sweep")
    tracer.patch_function(sweep._execute_indexed, "runtime.execute")
    tracer.patch_function(sweep.kernel_digest, "runtime.kernel_digest")
    tracer.patch_function(sweep.trial_digest, "runtime.trial_digest")
    tracer.patch_method(sweep.TrialCache, "store", "runtime.cache_store")
    tracer.patch_method(sweep.TrialCache, "load", "runtime.cache_load")
    tracer.patch_method(resilient.SupervisedPool, "run_batch", "runtime.dispatch")
    tracer.patch_raw(
        resilient, "_worker_main", tracer.traced_worker(resilient._worker_main, worker_dir)
    )
    pools: list = []
    pool_init = resilient.SupervisedPool.__init__

    def init(self, *args, **kwargs):
        pool_init(self, *args, **kwargs)
        pools.append(self)

    tracer.patch_raw(resilient.SupervisedPool, "__init__", init)

    # spec: decoding and building
    tracer.patch_method(RunSpec, "from_dict", "spec.decode")
    tracer.patch_function(spec_engines.build_run, "spec.build")
    return pools


def layer_metrics(summary: dict[str, Any], ctx: dict[str, Any]) -> dict[str, float]:
    """Fold a merged span summary and the run's counters into the
    ``per_layer`` metrics.  ``ctx`` carries counters and CPU totals over
    ``ctx["passes"]`` traced passes; times and counts are reported per pass.
    """
    names = summary["names"]
    passes = ctx["passes"]

    def self_s(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0) / passes

    def calls(name: str) -> float:
        return names.get(name, {}).get("calls", 0) / passes

    def per_pass(key: str) -> float:
        return ctx[key] / passes

    layer = {l: 0.0 for l in LAYERS}
    for name, entry in names.items():
        layer[layer_of(name)] += entry["self_s"] / passes
    cpu = per_pass("traced_cpu_s")

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    m: dict[str, float] = {}
    m["core.step_self_s"] = layer["core"]
    m["core.offspring_calls"] = calls("core.offspring")
    m["core.offspring_s"] = self_s("core.offspring")
    m["core.selection_s"] = self_s("core.selection")
    m["problems.evaluations"] = per_pass("evaluations")
    m["problems.evaluate_s"] = layer["problems"]
    m["problems.us_per_eval"] = 1e6 * ratio(layer["problems"], per_pass("evaluations"))
    m["migration.select_s"] = self_s("migration.select")
    m["migration.integrate_s"] = self_s("migration.integrate")
    m["migration.migrants_sent"] = per_pass("migrants_sent")
    m["migration.accept_ratio"] = ratio(ctx["migrants_accepted"], ctx["migrants_sent"])
    m["cluster.events"] = per_pass("sim_events")
    m["cluster.sim_self_s"] = self_s("cluster.sim_run")
    m["cluster.events_per_s"] = ratio(per_pass("sim_events"), layer["cluster"])
    m["cluster.messages"] = calls("cluster.send")
    m["cluster.trace_records"] = calls("cluster.trace_record")
    m["cluster.trace_record_s"] = self_s("cluster.trace_record")
    m["cluster.retransmits"] = per_pass("retransmits")
    m["runtime.cache_store_s"] = self_s("runtime.cache_store")
    m["runtime.cache_load_s"] = self_s("runtime.cache_load")
    m["runtime.cache_bytes_per_trial"] = ratio(ctx["cache_bytes"], ctx["trials"])
    m["runtime.cache_hit_ratio"] = ratio(ctx["warm_hits"], ctx["trials"])
    m["runtime.dispatch_wait_s"] = per_pass("dispatch_wait_s")
    m["runtime.kernel_digest_s"] = self_s("runtime.kernel_digest")
    m["runtime.retries"] = per_pass("retries")
    m["spec.import_s"] = ctx["spec_import_s"]
    m["spec.decode_s"] = ctx["spec_decode_s"]
    m["spec.build_s"] = ctx["spec_build_s"]
    for l in LAYERS:
        m[f"{l}.share"] = ratio(layer[l], cpu)
    m["trace.overhead_frac"] = ctx["overhead_frac"]
    m["trace.self_sum_s"] = sum(layer.values())
    m["trace.cpu_s"] = cpu
    return m
