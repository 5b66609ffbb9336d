"""One benchmark rep: a fresh interpreter that runs one workload and reports.

``perf/run.py`` starts this file as a child process, once per
(workload, rep), with a JSON job as its only argument::

    {"workload": {"name": ..., "scale": ..., "cells": [[bench, config], ...],
                  "report": false},
     "seed": 0, "profile": false, "out": "<dir>/result.json"}

An empty job (``{}``) only imports the package: the untimed warm-up that
compiles ``.pyc`` files and warms the file cache.

The child measures from outside the simulator.  It calls only public
entry points (``ExperimentRunner.run``, ``run_all``/``render_markdown``,
``RunResult``, ``StatRegistry``/``Histogram``, ``Simulator.events_run``)
and wraps three public boundaries with ``perf_counter`` spans:
``make_benchmark`` (every module-level alias of it), ``build_gpu`` and
``GPU.run``.  After each ``GPU.run`` it folds the machine's stat groups
into exact simulated counts.  With ``profile`` set, the work runs under
``cProfile`` and its self time is split by ``repro`` package.

A :class:`HostSpeed` thread times a fixed reference computation all
through the rep, so the parent can report host seconds at a fixed
reference speed (see ``perf/README.md``, "Host noise").
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import bisect  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402

#: packages of ``src/repro`` reported by the traced split; files in other
#: packages and outside ``repro`` fall into "other", C functions into
#: "builtins" (cProfile files them under "~")
LAYERS = (
    "engine", "arch", "memory", "translation", "core", "workloads",
    "experiments", "characterization", "tenancy", "system", "telemetry",
    "sanitizer", "builtins", "other",
)

#: per-SM and per-partition stat groups are summed under one kind
_INDEXED_GROUP = re.compile(r"^(sm|partition)\d+")


def digest(payload) -> str:
    """sha256 of sorted-key JSON: the pinned identity of a result."""
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _reference_work() -> int:
    """Fixed pure-Python work (heap, dict, arithmetic), ~1 ms of CPU on a
    quiet 2.1 GHz Xeon: the yardstick of the host's speed right now."""
    heap, table, total = [], {}, 0
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        key = i & 255
        table[key] = table.get(key, 0) + i
        if len(heap) > 32:
            total += heapq.heappop(heap)[1]
    return total


class HostSpeed:
    """Samples the host's speed while the rep runs.

    Other tenants of a shared machine slow this process by up to 1.6x
    for seconds to minutes at a time, and CPU time slows with wall time
    (the contention is inside the core, not lost scheduling).  Every
    ``interval`` seconds this thread runs :func:`_reference_work` and
    records when, and how much CPU time it took.  The mean of those
    samples over an interval, divided by :data:`REFERENCE_S`, is the
    interval's slowdown: how much slower than the reference speed the
    host ran the same instructions.  Sampling costs ~2% of the rep's
    time, the same on every commit.
    """

    #: CPU seconds of one _reference_work call at the reference speed
    REFERENCE_S = 1e-3

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        #: (perf_counter at the end of the sample, CPU seconds it took)
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            start = time.thread_time()
            _reference_work()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, intervals=None) -> float:
        """Slowdown over the samples taken inside ``intervals`` (a list of
        ``(start, end)``), or over the whole rep when ``intervals`` is
        ``None`` or holds no sample; 1.0 when nothing was sampled."""
        times = [t for t, _ in self.samples]
        inside = [
            cpu
            for start, end in intervals or ()
            for _, cpu in self.samples[
                bisect.bisect_left(times, start):bisect.bisect_right(times, end)
            ]
        ]
        chosen = inside or [cpu for _, cpu in self.samples]
        return statistics.fmean(chosen) / self.REFERENCE_S if chosen else 1.0


class Recorder:
    """Spans at the wrapped boundaries plus stat totals over every cell."""

    def __init__(self, histogram_cls) -> None:
        self._histogram_cls = histogram_cls
        #: [name, start, end, parent index, cell id]
        self.spans = []
        self._stack = []
        self.cell = None
        #: distinct (name, scale, seed) arguments of make_benchmark
        self.kernels = set()
        self.events = 0
        self.cycles = 0.0
        self.counters = {}
        self.histograms = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.remove(index)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def intervals(self, name: str) -> list:
        return [(start, end) for n, start, end, _, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def absorb(self, gpu, result) -> None:
        """Fold one finished machine's stats into the totals."""
        self.events += gpu.sim.events_run
        self.cycles += result.cycles
        for group, snap in gpu.sim.stats.snapshot().items():
            kind = _INDEXED_GROUP.sub(r"\1", group)
            self.counters.setdefault(kind, Counter()).update(snap["counters"])
            for name, buckets in snap["histograms"].items():
                key = f"{kind}.{name}"
                if key not in self.histograms:
                    self.histograms[key] = self._histogram_cls(key)
                for bucket, count in buckets.items():
                    self.histograms[key].add(bucket, count)

    def _pct(self, key: str, p: float) -> int:
        hist = self.histograms.get(key)
        value = hist.percentile(p) if hist is not None else None
        return value if value is not None else 0

    def counts(self) -> dict:
        """Exact simulated counts, named as in ``BENCHMARK.json``."""
        c = lambda kind: self.counters.get(kind, Counter())  # noqa: E731
        l1tlb, l1cache, l2 = c("sm_l1tlb"), c("sm_l1cache"), c("partition")
        accesses = l1tlb["hits"] + l1tlb["misses"]
        return {
            "engine.events": self.events,
            "arch.tbs_completed": c("sm")["tbs_completed"],
            "translation.l1_tlb_accesses": accesses,
            "translation.l1_tlb_hit_rate": _ratio(l1tlb["hits"], accesses),
            "translation.l1_sets_probed_per_access": _ratio(
                l1tlb["sets_probed"], accesses
            ),
            "translation.l2_tlb_hit_rate": _ratio(
                c("l2_tlb")["hits"], c("l2_tlb")["hits"] + c("l2_tlb")["misses"]
            ),
            "translation.walks": c("walkers")["walks"],
            "translation.far_faults": c("walkers")["far_faults"],
            "translation.walker_queue_delay_p50": self._pct(
                "walkers.queue_delay", 50
            ),
            "translation.walker_queue_delay_p90": self._pct(
                "walkers.queue_delay", 90
            ),
            "translation.l2_port_queue_delay_p90": self._pct(
                "l2_translation.port_queue_delay", 90
            ),
            "core.sharing_spills": l1tlb["sharing_spills"],
            "core.spill_success_rate": _ratio(
                l1tlb["sharing_spills"], l1tlb["sharing_spill_attempts"]
            ),
            "memory.l1_cache_hit_rate": _ratio(
                l1cache["hits"], l1cache["hits"] + l1cache["misses"]
            ),
            "memory.l2_cache_hit_rate": _ratio(l2["hits"], l2["hits"] + l2["misses"]),
            "memory.noc_packets": c("interconnect")["packets"],
            "memory.dram_queue_delay_p90": self._pct("partition.queue_delay", 90),
        }


def _import_entry_points():
    """Import everything the workloads call; returns the ``repro`` package."""
    import repro
    import repro.arch.gpu
    import repro.engine.stats
    import repro.experiments.report
    import repro.experiments.runner
    import repro.system
    import repro.workloads

    return repro


def _install(recorder: Recorder) -> None:
    """Wrap the three public boundaries, including every module alias."""
    import repro.arch.gpu
    import repro.system
    import repro.workloads

    generate = repro.workloads.make_benchmark
    signature = inspect.signature(generate)

    def make_benchmark(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        recorder.kernels.add(tuple(bound.arguments.values()))
        with recorder.span("make_benchmark"):
            return generate(*args, **kwargs)

    for name, original, wrapped in (
        ("make_benchmark", generate, make_benchmark),
        ("build_gpu", repro.system.build_gpu,
         recorder.wrap("build_gpu", repro.system.build_gpu)),
    ):
        for module_name, module in list(sys.modules.items()):
            if (
                module is not None
                and (module_name == "repro" or module_name.startswith("repro."))
                and getattr(module, name, None) is original
            ):
                setattr(module, name, wrapped)

    gpu_run = repro.arch.gpu.GPU.run

    def run(gpu, kernel, *args, **kwargs):
        with recorder.span("GPU.run"):
            result = gpu_run(gpu, kernel, *args, **kwargs)
        recorder.absorb(gpu, result)
        if result.tbs_completed != len(kernel.tbs):
            raise RuntimeError(
                f"{kernel.name}: {result.tbs_completed} of "
                f"{len(kernel.tbs)} thread blocks completed"
            )
        if isinstance(recorder.cell, int):
            recorder.cell += 1
        return result

    repro.arch.gpu.GPU.run = run


def _run_cells(recorder: Recorder, workload: dict, seed: int) -> dict:
    from repro.experiments.runner import ExperimentRunner

    cells = [tuple(cell) for cell in workload["cells"]]
    runner = ExperimentRunner(
        scale=workload["scale"],
        seed=seed,
        benchmarks=tuple(dict.fromkeys(bench for bench, _ in cells)),
        strict=False,
    )
    digests, failed, errors = {}, [], []
    for bench, config in cells:
        cell = f"{bench}:{config}"
        recorder.cell = cell
        try:
            with recorder.span("cell"):
                result = runner.run(bench, config)
        except Exception as exc:  # a failed cell is counted, not fatal
            failed.append(cell)
            errors.append(f"{cell}: {type(exc).__name__}: {exc}")
            continue
        if not result.ok:
            failed.append(cell)
            errors.append(f"{cell}: degraded to FAILED({result.failure})")
            continue
        digests[cell] = digest(result.to_dict())
    return {
        "attempted": len(cells),
        "failed_cells": failed,
        "errors": errors,
        "digests": digests,
    }


def _run_report(recorder: Recorder, workload: dict, seed: int) -> dict:
    from repro.experiments.report import render_markdown, run_all

    recorder.cell = 0
    experiment = []

    def progress(message: str) -> None:
        # run_all announces each experiment as it starts: the previous
        # one has ended
        if experiment:
            recorder.close(experiment.pop())
        experiment.append(recorder.open(f"experiment:{message}"))

    reports, runner = run_all(
        scale=workload["scale"], seed=seed, progress=progress
    )
    if experiment:
        recorder.close(experiment.pop())
    markdown = render_markdown(reports, workload["scale"], runner)
    failed = sorted(f"{key[0]}:{key[1]}" for key in runner.failures)
    return {
        "attempted": runner.cells_simulated + len(runner.failures),
        "failed_cells": failed,
        "errors": runner.failure_summary(),
        "digests": {"markdown": digest(markdown)},
    }


def _layer_times(profile: cProfile.Profile, package_dir: str) -> dict:
    """cProfile self time summed by ``repro`` package."""
    prefix = package_dir + os.sep
    times = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        if filename == "~":
            layer = "builtins"
        elif filename.startswith(prefix):
            top = filename[len(prefix):].split(os.sep)[0]
            layer = top[:-3] if top.endswith(".py") else top
            if layer not in times:
                layer = "other"
        else:
            layer = "other"
        times[layer] += tottime
    return times


def main(argv) -> int:
    job = json.loads(argv[0])
    if not job:
        _import_entry_points()
        return 0
    speed = HostSpeed()
    speed.start()
    start = time.perf_counter()
    repro = _import_entry_points()
    import_s = time.perf_counter() - start
    from repro.engine.stats import Histogram

    recorder = Recorder(Histogram)
    _install(recorder)
    workload, seed = job["workload"], job["seed"]
    body = _run_report if workload["report"] else _run_cells
    profile = cProfile.Profile() if job["profile"] else None
    with recorder.span("rep"):
        if profile is not None:
            profile.enable()
        try:
            outcome = body(recorder, workload, seed)
        finally:
            if profile is not None:
                profile.disable()
    speed.stop()
    outcome.update(
        slowdown={
            "rep": speed.slowdown(),
            "import_s": speed.slowdown([(start, start + import_s)]),
            "generate_s": speed.slowdown(recorder.intervals("make_benchmark")),
            "build_s": speed.slowdown(recorder.intervals("build_gpu")),
            "gpu_run_s": speed.slowdown(recorder.intervals("GPU.run")),
        },
        import_s=import_s,
        generate_s=recorder.total("make_benchmark"),
        generate_calls=recorder.count("make_benchmark"),
        distinct_kernels=len(recorder.kernels),
        build_s=recorder.total("build_gpu"),
        gpu_run_s=recorder.total("GPU.run"),
        cycles=recorder.cycles,
        counts=recorder.counts(),
        # ru_maxrss is KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        spans=[[n, s - T0, e - T0, p, c] for n, s, e, p, c in recorder.spans],
        layers=(
            _layer_times(profile, os.path.dirname(repro.__file__))
            if profile is not None
            else None
        ),
    )
    with open(job["out"], "w") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
