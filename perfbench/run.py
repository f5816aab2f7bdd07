#!/usr/bin/env python3
"""The repository benchmark: seeded workloads through the public API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload island-trap --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes under layer spans and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object; the exit code is 1
when a correctness check failed and 2 when the benchmark cannot run at
all (for example without the program's source under ``src/``).

See ``perfbench/README.md`` for the workloads, metrics and baselines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything the benchmark writes lives here (listed in .gitignore)
WORK_ROOT = ROOT / ".perfbench"

SETUP_RUNS = 5
WARM_REPLAYS = 5
#: a warm sample replays the grid until this many trials were served, so
#: small grids are not timed at the resolution of a few file reads
WARM_TRIALS_PER_SAMPLE = 48
PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a program failure)."""


def cpu_now() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


# -- host speed ----------------------------------------------------------------------

#: CPU seconds :func:`reference_kernel` takes on a quiet host (the 2-vCPU
#: Xeon KVM guest of the baseline table); timings are scaled to that speed
REFERENCE_S = 0.005


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def weight(self) -> int:
        return self.x * 3 + self.y


def reference_kernel() -> int:
    """Fixed interpreter work (objects, method calls, dict, sort), like the
    program's; it never changes, so a timing divided by it moves with the
    program and not with the host."""
    table: dict[int, int] = {}
    total = 0
    points = [_Point(i, i % 7) for i in range(256)]
    for i in range(20000):
        table[i & 1023] = points[i & 255].weight()
        total += table.get((i * 7) & 1023, 0)
    points.sort(key=lambda pt: pt.y)
    return total


def host_factor() -> float:
    """How many times slower than on a quiet host the host runs now: the
    best of three CPU timings of :func:`reference_kernel` ÷ ``REFERENCE_S``."""
    best = math.inf
    for _ in range(3):
        t0 = time.process_time()
        reference_kernel()
        best = min(best, time.process_time() - t0)
    return best / REFERENCE_S


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def describe(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    if not samples:
        return "n=0"
    ordered = sorted(samples)
    n = len(ordered)
    text = f"p50 {statistics.median(ordered):.6g}"
    tail = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    if tail:
        p = tail[-1]
        text += f", p{p:g} {ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]:.6g}"
    return text + f", n={n}"


# -- set-up: fresh interpreters ------------------------------------------------------


class SetupProbe:
    """Times set-up in fresh interpreters: import the program, decode the
    workload's specs, build the first one.  Each :meth:`probe` is one
    sample; the untraced run spreads them over its measuring window."""

    def __init__(self, spec_docs: list[dict], work: Path) -> None:
        self.specs_path = work / "specs.json"
        self.specs_path.write_text(json.dumps(spec_docs))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.samples: dict[str, list[float]] = {
            "setup_s": [], "import_s": [], "decode_s": [], "build_s": []
        }

    def __len__(self) -> int:
        return len(self.samples["setup_s"])

    def probe(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self.specs_path)],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        self.samples["setup_s"].append(wall)
        for key in ("import_s", "decode_s", "build_s"):
            self.samples[key].append(phases[key])

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])


# -- one pass: cold sweep into a fresh cache, then warm replays ----------------------


@dataclass
class Pass:
    """What one pass measured; the results themselves are checked by the
    :class:`Gate` and then dropped, so memory does not grow with passes."""

    cold_wall: float
    cold_cpu: float
    #: per trial, in declared order: CPU of the run, and whether it solved
    cpu_s: list[float]
    solved: list[bool]
    evaluations: int
    sim_events: int
    trial_wall: float
    migrants_sent: int
    migrants_accepted: int
    retransmits: int
    cache_bytes: int = 0
    warm_walls: list[float] = field(default_factory=list)
    warm_cpu: float = 0.0
    #: fewest cache hits of any warm replay of the grid
    warm_hits: int = 0
    #: host slowdown measured right after the pass (see :func:`host_factor`)
    host: float = 1.0


def run_pass(wl, trials: list, pass_dir: Path, warm_replays: int) -> tuple[Pass, list, list]:
    """One cold sweep into a new empty cache, then ``warm_replays`` warm
    sweeps from it.  Returns what was measured plus the cold results and
    the first warm replay's results, for :meth:`Gate.check_pass` to check
    outside the timed windows (and outside tracing)."""
    from repro.runtime import sweep

    cache_dir = pass_dir / "cache"
    experiment = f"perfbench/{wl.name}"
    # a fresh sweep process computes the kernel digest once; so does each pass
    sweep._KERNEL_DIGEST = None
    telemetry = sweep.SweepTelemetry()
    config = sweep.SweepConfig(jobs=wl.jobs, cache_dir=cache_dir, telemetry=telemetry)
    c0, t0 = cpu_now(), time.perf_counter()
    cold = sweep.run_sweep(experiment, trials, config=config)
    p = Pass(
        cold_wall=time.perf_counter() - t0,
        cold_cpu=cpu_now() - c0,
        cpu_s=[r["cpu_s"] for r in cold],
        solved=[bool(r["report"].solved) for r in cold],
        evaluations=sum(rec.evaluations for rec in telemetry.trials),
        sim_events=sum(rec.sim_events for rec in telemetry.trials),
        trial_wall=sum(rec.wall_s for rec in telemetry.trials),
        # the generational engine's EvolutionResult has no migration counters
        migrants_sent=sum(getattr(r["report"], "migrants_sent", 0) for r in cold),
        migrants_accepted=sum(getattr(r["report"], "migrants_accepted", 0) for r in cold),
        retransmits=sum(getattr(r["report"], "retransmits", 0) for r in cold),
        cache_bytes=sum(f.stat().st_size for f in cache_dir.rglob("*.pkl")),
    )
    batch = max(1, WARM_TRIALS_PER_SAMPLE // len(trials))
    first_warm: list = []
    hits: list[int] = []
    c0 = cpu_now()
    for _ in range(warm_replays):
        warm_tel = sweep.SweepTelemetry()
        warm_cfg = sweep.SweepConfig(jobs=wl.jobs, cache_dir=cache_dir, telemetry=warm_tel)
        t0 = time.perf_counter()
        for _ in range(batch):
            warm = sweep.run_sweep(experiment, trials, config=warm_cfg)
            first_warm = first_warm or warm
        p.warm_walls.append((time.perf_counter() - t0) / batch)
        hits.extend(s["cache_hits"] for s in warm_tel.sweeps)
    p.warm_cpu = cpu_now() - c0
    p.warm_hits = min(hits)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return p, cold, first_warm


# -- the benchmark -----------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, float]
    #: human-readable lines: name, value, unit, note
    lines: list[tuple[str, float, str, str]]
    attempted: int
    failed: int
    notes: list[str]


def _trials(wl) -> list:
    from repro.runtime.sweep import Trial
    from workloads import run_trial

    return [Trial(run_trial, params={"spec": it.spec}) for it in wl.items]


class Gate:
    """The correctness gate: counts runs attempted and runs failed.

    The first cold pass is the reference: every later pass must give the
    same fingerprints, and so must the first spec run in this process.
    """

    def __init__(self, wl) -> None:
        from checks import ReportChecker

        self.items = wl.items
        self.checker = ReportChecker()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reference: list[str] | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(why)

    def check_run(self, i: int, result: Any) -> str:
        """Check one run of spec ``i``; returns its fingerprint."""
        from checks import fingerprint

        self.attempted += 1
        problems = self.checker.check(self.items[i], result)
        print_ = fingerprint(result) if not problems else ""
        if self.reference is not None and print_ != self.reference[i]:
            problems.append("fingerprint differs from the first pass")
        if problems:
            self.fail(f"spec {i}: " + "; ".join(problems))
        return print_

    def check_pass(self, p: Pass, cold: list[Any], warm: list[Any]) -> None:
        """Check one pass's cold results, and its warm replay against them."""
        from checks import fingerprint

        if p.warm_hits != len(cold):
            self.fail(f"a warm replay hit {p.warm_hits} of {len(cold)} cache entries")
        for i, (c, w) in enumerate(zip(cold, warm)):
            if w["cpu_s"] != c["cpu_s"] or fingerprint(w) != fingerprint(c):
                self.fail(f"spec {i}: warm replay differs from its cold result")
        prints = [self.check_run(i, r) for i, r in enumerate(cold)]
        if self.reference is None:
            self.reference = prints


def bench(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    setup_runs: int = SETUP_RUNS,
    warm_replays: int = WARM_REPLAYS,
    passes_used: int | None = None,
) -> Outcome:
    import workloads
    from workloads import run_trial

    wl = workloads.make(workload, seed, scale=scale)
    trials = _trials(wl)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        setup = SetupProbe([it.spec for it in wl.items], work)
        gate = Gate(wl)
        # untimed warm-up of this process; checked against the first pass
        rerun = run_trial(wl.items[0].spec)
        if trace:
            while len(setup) < setup_runs:
                setup.probe()
            metrics, lines = _traced(wl, trials, work, gate, setup, seconds)
        else:
            metrics, lines = _untraced(
                wl, trials, work, gate, setup, seconds, setup_runs, warm_replays,
                passes_used if passes_used is not None else wl.passes,
            )
        gate.check_run(0, rerun)
        lines.append(
            ("failed_frac", gate.failed / gate.attempted, "ratio",
             f"{gate.failed} of {gate.attempted}")
        )
        return Outcome(metrics, lines, gate.attempted, gate.failed, gate.notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(wl, trials, work, gate, setup, seconds, setup_runs, warm_replays, passes_used):
    """Repeat passes for ``seconds``.  The timed passes are ``passes_used``
    of them, one at the start of each equal slice of ``seconds``; the
    passes in between only feed the correctness gate.  The set-up probes
    are spread evenly over the run too."""
    timed: list[Pass] = []
    checked = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < setup_runs and elapsed >= len(setup) * seconds / setup_runs:
            setup.probe()
            elapsed = time.perf_counter() - start
        is_timed = len(timed) < passes_used and elapsed >= len(timed) * seconds / passes_used
        t0 = time.perf_counter()
        p, cold, warm = run_pass(wl, trials, work / f"pass{checked}", warm_replays)
        if is_timed:
            p.host = host_factor()
        gate.check_pass(p, cold, warm)
        checked += 1
        if is_timed:
            timed.append(p)
            if len(timed) == passes_used:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # another pass only if it fits in the time left, or more are timed
        if len(timed) == passes_used and (
            time.perf_counter() - start + (time.perf_counter() - t0) > seconds
        ):
            break
    while len(setup) < setup_runs:
        setup.probe()
    # Other tenants of a shared host slow the same work by up to 2x, for
    # seconds to minutes, so that a best-of over one run still reads up to
    # 1.4x apart between runs.  Each timed pass is therefore divided by the
    # host factor measured right after it, and each timing is the median of
    # those scaled samples: seconds on a quiet host.  The number of samples
    # is fixed per workload, not set by how many passes fit into ``seconds``.
    hosts = [p.host for p in timed]
    spec_cpu = [statistics.median(p.cpu_s[i] / p.host for p in timed) for i in range(len(trials))]
    cold_walls = [p.cold_wall / p.host for p in timed]
    warm_walls = [min(p.warm_walls) / p.host for p in timed]
    evaluations = timed[0].evaluations
    solved = timed[0].solved
    cold = statistics.median(cold_walls)
    metrics = {
        "setup_s": setup.median("setup_s"),
        "run_cpu_s_p50": statistics.median(spec_cpu),
        "evals_per_cpu_s": evaluations / sum(spec_cpu),
        "sweep_cold_s": cold,
        "sweep_warm_s": statistics.median(warm_walls),
        "trials_per_s": len(trials) / cold,
        "peak_rss_mb": peak_rss_mb,
    }
    n = f"{len(timed)} timed passes"
    raw_cold = [p.cold_wall for p in timed]
    notes = {
        "setup_s": describe(setup.samples["setup_s"]) + "; not scaled",
        "run_cpu_s_p50": describe(spec_cpu) + f"; each the median of {n}",
        "evals_per_cpu_s": f"{evaluations} evaluations / sum of the specs' CPU",
        "sweep_cold_s": f"jobs={wl.jobs}; " + describe(cold_walls) + "; unscaled " + describe(raw_cold),
        "sweep_warm_s": f"best of {warm_replays} samples per pass; " + describe(warm_walls),
        "trials_per_s": f"{len(trials)} trials per cold pass",
        "peak_rss_mb": f"benchmark process, after {n}; {checked} passes checked",
    }
    lines = [(name, metrics[name], "", notes[name]) for name in metrics]
    lines.insert(
        3, ("solved_frac", sum(solved) / len(solved), "ratio", f"{sum(solved)} of {len(solved)} specs")
    )
    lines.append(
        ("host_factor", statistics.median(hosts), "ratio",
         f"reference kernel / {REFERENCE_S:g} s; " + describe(hosts))
    )
    return metrics, lines


def _traced(wl, trials, work, gate, setup, seconds):
    """Alternate untraced and traced passes for ``seconds``, so drift hits
    both alike; fold the traced passes' spans into per-layer metrics."""
    import layers
    from tracer import Tracer, merge_summaries

    worker_dir = work / "workers"
    worker_dir.mkdir()
    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    retries = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        p, cold, warm = run_pass(wl, trials, work / f"untraced{len(traced)}", 1)
        gate.check_pass(p, cold, warm)
        untraced.append(p)
        try:
            pools = layers.install(tracer, worker_dir)
            p, cold, warm = run_pass(wl, trials, work / f"traced{len(traced)}", 1)
            retries += sum(pool.stats.retries for pool in pools)
        finally:
            tracer.restore()
        gate.check_pass(p, cold, warm)
        traced.append(p)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    workers = [json.loads(f.read_text()) for f in sorted(worker_dir.glob("worker-*.json"))]
    expected = wl.jobs * len(traced) if wl.jobs > 1 else 0
    if len(workers) != expected:
        gate.fail(f"{len(workers)} worker span summaries, expected {expected}")
    merged = merge_summaries([tracer.summary()] + workers)
    spans_dir = WORK_ROOT / "spans"
    spans_dir.mkdir(exist_ok=True)
    tracer.dump_spans(spans_dir / f"{wl.name}.parent.jsonl")
    (spans_dir / f"{wl.name}.summary.json").write_text(json.dumps(merged, indent=1))

    def total(passes: list[Pass], fn) -> float:
        return sum(fn(p) for p in passes)

    untraced_cpu = total(untraced, lambda p: p.cold_cpu + p.warm_cpu)
    traced_cpu = total(traced, lambda p: p.cold_cpu + p.warm_cpu)
    ctx = {
        "passes": len(traced),
        "traced_cpu_s": traced_cpu,
        "evaluations": total(traced, lambda p: p.evaluations),
        "sim_events": total(traced, lambda p: p.sim_events),
        "migrants_sent": total(traced, lambda p: p.migrants_sent),
        "migrants_accepted": total(traced, lambda p: p.migrants_accepted),
        "retransmits": total(traced, lambda p: p.retransmits),
        "cache_bytes": total(traced, lambda p: p.cache_bytes),
        "trials": len(trials) * len(traced),
        "warm_hits": total(traced, lambda p: p.warm_hits),
        "dispatch_wait_s": total(traced, lambda p: p.cold_wall - p.trial_wall / wl.jobs),
        "retries": retries,
        "spec_import_s": setup.median("import_s"),
        "spec_decode_s": setup.median("decode_s"),
        "spec_build_s": setup.median("build_s"),
        "overhead_frac": (traced_cpu - untraced_cpu) / untraced_cpu,
    }
    metrics = layers.layer_metrics(merged, ctx)
    lines = [(name, value, "", "") for name, value in metrics.items()]
    lines.append(("trace.passes", len(traced), "count", "untraced/traced pass pairs"))
    return metrics, lines


# -- output ------------------------------------------------------------------------


def report(outcome: Outcome, declared: list[dict], header: str) -> dict[str, Any]:
    """Print the human-readable table and build the final JSON object
    holding exactly the ``declared`` metrics."""
    units = {m["name"]: m["unit"] for m in declared}
    print(header)
    for name, value, unit, note in outcome.lines:
        unit = unit or units.get(name, "")
        print(f"  {name:<32} {value:>16.6g} {unit:<6} {note}")
    for note in outcome.notes:
        print(f"  FAILED {note}")
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def prepare() -> None:
    """Make the program importable from this checkout and keep every file
    the benchmark (and its children) write inside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC.relative_to(ROOT)}/repro")
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    tmp = WORK_ROOT / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported repro from {repro.__file__}, not from this checkout")


def smoke() -> int:
    """Short self-test: every metric printed with its unit, every wrapped
    function restored, layer self times within the traced CPU."""
    import io
    from contextlib import redirect_stdout

    import layers
    import workloads
    from tracer import Tracer

    contract = load_contract()
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            buf = io.StringIO()
            with redirect_stdout(buf):
                outcome = bench(
                    workload, 7, 1.0, trace,
                    scale=0.25, setup_runs=1, warm_replays=1, passes_used=1,
                )
                doc = report(outcome, contract[key], f"smoke {workload} trace={int(trace)}")
            text = buf.getvalue()
            assert doc["correct"], f"{workload}: correctness failed: {outcome.notes}"
            for m in contract[key]:
                line = next(
                    (l for l in text.splitlines() if l.split()[:1] == [m["name"]]), None
                )
                assert line is not None, f"{workload}: {m['name']} not printed"
                assert line.split()[2] == m["unit"], f"{workload}: {m['name']} unit in {line!r}"
                assert doc["metrics"][m["name"]]["unit"] == m["unit"]
            if trace:
                leftovers = _leftover_wrappers()
                assert not leftovers, f"{workload}: wrappers left in place: {leftovers}"
                layer_sum = outcome.metrics["trace.self_sum_s"]
                cpu = outcome.metrics["trace.cpu_s"]
                assert 0 < layer_sum <= cpu, f"{workload}: layer self {layer_sum} > CPU {cpu}"
            print(f"smoke ok: {workload} trace={int(trace)}")
    # the tracer restores what it patched even when the traced run raises
    tracer = Tracer()
    try:
        layers.install(tracer, WORK_ROOT)
        raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    finally:
        tracer.restore()
    assert not _leftover_wrappers(), "wrappers left after an aborted traced run"
    print("smoke ok: restore after abort")
    return 0


def _leftover_wrappers() -> list[str]:
    """Every ``repro`` module or class attribute that is still a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in vars(mod).items():
            targets = [(attr, value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                targets += list(vars(value).items())
            for name, obj in targets:
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "__perfbench_original__"):
                    found.append(f"{mod_name}.{name}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own self-test")
    args = parser.parse_args(argv)
    try:
        prepare()
        if args.smoke:
            return smoke()
        import workloads

        contract = load_contract()
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"--workload must be one of {list(workloads.WORKLOADS)}")
        outcome = bench(args.workload, args.seed, args.seconds, bool(args.trace))
        declared = contract["per_layer" if args.trace else "end_to_end"]
        header = (
            f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace}"
        )
        doc = report(outcome, declared, header)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # the program failed: report it, print no result
        traceback.print_exc()
        return 1
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
