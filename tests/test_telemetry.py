"""Tests for repro.telemetry: tracer, sampler, manifests, summaries,
determinism, and the zero-overhead disabled path."""

import dataclasses
import json

import pytest

from repro import BASELINE_CONFIG
from repro.engine.simulator import Simulator
from repro.engine.stats import Histogram, StatRegistry
from repro.system import build_gpu
from repro.telemetry import (
    CAT_TB,
    CAT_TLB,
    DEFAULT_SERIES,
    NULL_TRACER,
    NullTracer,
    RunManifest,
    TimeSeriesSampler,
    Tracer,
    config_hash,
    interval_rate,
    load_trace,
    manifest_path_for,
    merge_traces,
    summarize_trace,
)
from repro.telemetry.manifest import WALL_TIME_FIELDS
from repro.workloads import make_benchmark


def run_traced(benchmark="nw", scale="micro", seed=0, config=None,
               sample_every=None):
    """Run one kernel with telemetry on; returns (result, tracer, sampler)."""
    tracer = Tracer()
    sampler = TimeSeriesSampler(sample_every) if sample_every else None
    sim = Simulator(tracer=tracer, sampler=sampler)
    gpu = build_gpu(config or BASELINE_CONFIG, sim=sim)
    kernel = make_benchmark(benchmark, scale=scale, seed=seed)
    result = gpu.run(kernel)
    return result, tracer, sampler


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_track_allocation_is_stable(self):
        tracer = Tracer()
        a = tracer.track("alpha")
        b = tracer.track("beta")
        assert a != b
        assert tracer.track("alpha") == a  # idempotent
        assert 0 not in (a, b)  # tid 0 reserved for counter events

    def test_records_events(self):
        tracer = Tracer()
        lane = tracer.track("lane")
        tracer.instant(CAT_TLB, "miss", 10.0, lane, {"vpn": 7})
        tracer.complete(CAT_TB, "tb", 5.0, 20.0, lane, {"tb": 1})
        tracer.counter("tlb", 30.0, {"misses": 3})
        recorded = [e["ph"] for e in tracer.to_chrome() if e["ph"] != "M"]
        assert recorded == ["i", "X", "C"]

    def test_chrome_export_shape(self):
        tracer = Tracer()
        lane = tracer.track("SM0")
        tracer.instant(CAT_TLB, "miss", 10.0, lane)
        tracer.complete(CAT_TB, "tb", 5.0, 20.0, lane)
        events = tracer.to_chrome(pid=3, label="cell")
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name", "thread_sort_index"} <= {
            m["name"] for m in meta
        }
        proc = next(m for m in meta if m["name"] == "process_name")
        assert proc["args"]["name"] == "cell" and proc["pid"] == 3
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t" and "dur" not in instant
        span = next(e for e in events if e["ph"] == "X")
        assert span["dur"] == 20.0

    def test_export_is_valid_json(self, tmp_path):
        tracer = Tracer()
        tracer.instant(CAT_TLB, "miss", 1.0, tracer.track("x"))
        path = tracer.export(str(tmp_path / "t.json"))
        payload = json.load(open(path))
        assert payload["otherData"]["clock"] == "gpu-cycles"
        assert any(e["ph"] == "i" for e in payload["traceEvents"])

    def test_merge_relabels_pids_and_processes(self, tmp_path):
        parts = []
        for i, label in enumerate(["bfs:baseline", "bfs:ours"]):
            tracer = Tracer()
            tracer.instant(CAT_TLB, "miss", float(i), tracer.track("x"))
            path = str(tmp_path / f"part{i}.json")
            tracer.export(path)
            parts.append((label, path))
        merged = merge_traces(parts, str(tmp_path / "merged.json"))
        events = json.load(open(merged))["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}
        names = [e["args"]["name"] for e in events
                 if e.get("name") == "process_name"]
        assert names == ["bfs:baseline", "bfs:ours"]


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.track("anything") == 0
        NULL_TRACER.instant("c", "n", 0.0, 0)
        NULL_TRACER.complete("c", "n", 0.0, 1.0, 0)
        NULL_TRACER.counter("n", 0.0, {})

    def test_tracer_is_a_null_tracer(self):
        # components can hold either under one type
        assert isinstance(Tracer(), NullTracer)
        assert Tracer().enabled is True


# ---------------------------------------------------------------------- #
# Sampler
# ---------------------------------------------------------------------- #
class TestSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(0)

    def test_samples_on_interval_crossings(self):
        sampler = TimeSeriesSampler(100, series=())
        sampler._registry = StatRegistry()
        for now in (10, 50, 100, 101, 250):
            sampler.on_time_advance(now)
        # crossings at 100 and 250; a big jump yields ONE sample
        assert sampler.cycles == [100, 250]

    def test_finalize_takes_trailing_sample_once(self):
        sampler = TimeSeriesSampler(100, series=())
        sampler._registry = StatRegistry()
        sampler.on_time_advance(100)
        sampler.finalize(140)
        sampler.finalize(140)
        assert sampler.cycles == [100, 140]

    def test_probe_columns_and_duplicates(self):
        sampler = TimeSeriesSampler(10, series=())
        sampler._registry = StatRegistry()
        sampler.add_probe("occupancy", lambda: 4)
        with pytest.raises(ValueError):
            sampler.add_probe("occupancy", lambda: 4)
        sampler.sample(10)
        assert sampler.to_dict()["series"]["occupancy"] == [4.0]

    def test_glob_series_sum_counters(self):
        registry = StatRegistry()
        registry.group("sm0_l1tlb").counter("misses").inc(3)
        registry.group("sm1_l1tlb").counter("misses").inc(5)
        sampler = TimeSeriesSampler(
            10, series=(("l1_tlb_misses", "sm*_l1tlb", "misses"),)
        )
        sampler._registry = registry
        sampler.sample(10)
        assert sampler.columns["l1_tlb_misses"] == [8]

    def test_sampling_does_not_create_counters(self):
        """Polling a stat a group doesn't own must not add a 0 counter."""
        registry = StatRegistry()
        registry.group("sm0_l1tlb").counter("misses").inc(1)
        sampler = TimeSeriesSampler(10)  # DEFAULT_SERIES polls sharing_spills
        sampler._registry = registry
        sampler.sample(10)
        assert "sharing_spills" not in registry.group("sm0_l1tlb").as_dict()

    def test_interval_rate(self):
        # cumulative misses / hits; middle interval is idle
        rates = interval_rate([2, 2, 5], [2, 2, 5])
        assert rates == [0.5, None, 0.5]

    def test_integrated_run_produces_monotonic_series(self):
        result, _, sampler = run_traced(sample_every=500)
        ts = result.timeseries
        assert ts is not None and ts["interval"] == 500
        assert len(ts["cycles"]) >= 2
        assert ts["cycles"] == sorted(ts["cycles"])
        for name, _, _ in DEFAULT_SERIES:
            col = ts["series"][name]
            assert len(col) == len(ts["cycles"])
            assert all(b >= a for a, b in zip(col, col[1:])), name
        # the final sample covers end-of-run (finalize)
        assert ts["cycles"][-1] == result.cycles
        # the resident-TB probe wired by build_gpu is present
        assert "resident_tbs" in ts["series"]

    def test_sampler_mirrors_counters_into_tracer(self):
        _, tracer, _ = run_traced(sample_every=500)
        counters = [e for e in tracer.to_chrome() if e["ph"] == "C"]
        assert counters
        assert any(e["name"] == "tlb" for e in counters)


# ---------------------------------------------------------------------- #
# Manifest
# ---------------------------------------------------------------------- #
class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = RunManifest(
            artifact_kind="trace",
            artifact_path=str(tmp_path / "t.json"),
            scale="micro",
            seed=7,
            benchmarks=["bfs"],
            config_hashes={"baseline": "abc"},
        )
        path = manifest.write()
        assert path == manifest_path_for(str(tmp_path / "t.json"))
        loaded = json.load(open(path))
        assert loaded["kind"] == "repro-manifest"
        assert loaded["seed"] == 7
        assert loaded["config_hashes"] == {"baseline": "abc"}
        assert loaded["artifact_kind"] == "trace"

    def test_deterministic_dict_drops_wall_time(self):
        manifest = RunManifest(artifact_kind="trace", artifact_path="t")
        payload = manifest.to_dict()
        assert set(WALL_TIME_FIELDS) <= set(payload)
        later = dataclasses.replace(
            manifest, created_unix=manifest.created_unix + 60, wall_time_s=9.0
        ).to_dict()
        for name in WALL_TIME_FIELDS:
            payload.pop(name)
            later.pop(name)
        assert payload == later
        assert payload["artifact_path"] == "t"

    def test_config_hash_stable_and_discriminating(self):
        import dataclasses

        assert config_hash(BASELINE_CONFIG) == config_hash(BASELINE_CONFIG)
        other = dataclasses.replace(BASELINE_CONFIG, l1_tlb_entries=256)
        assert config_hash(other) != config_hash(BASELINE_CONFIG)


# ---------------------------------------------------------------------- #
# Trace summary
# ---------------------------------------------------------------------- #
class TestSummary:
    def test_summarizes_real_trace(self, tmp_path):
        result, tracer, _ = run_traced()
        path = tracer.export(str(tmp_path / "t.json"))
        summary = summarize_trace(load_trace(path))
        assert summary.total_events == sum(
            1 for e in tracer.to_chrome() if e["ph"] != "M"
        )
        assert summary.by_category["tlb"] > 0
        assert summary.tb_spans == result.tbs_completed
        sm, count = summary.busiest_sm()
        assert sm.startswith("SM") and count > 0
        text = summary.format(top=3)
        assert "busiest SM" in text and "events" in text

    def test_top_miss_tbs_use_global_indices(self, tmp_path):
        _, tracer, _ = run_traced()
        summary = summarize_trace(json.loads(tracer.dumps()))
        tops = summary.top_miss_tbs(3)
        assert tops == sorted(tops, key=lambda kv: -kv[1])


# ---------------------------------------------------------------------- #
# Determinism (satellite 3)
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_equal_seed_runs_trace_identically(self):
        _, t1, _ = run_traced(seed=3, sample_every=500)
        _, t2, _ = run_traced(seed=3, sample_every=500)
        assert t1.dumps() == t2.dumps()

    def test_telemetry_does_not_perturb_results(self):
        """Tracing+sampling must observe, never steer, the simulation."""
        kernel = make_benchmark("nw", scale="micro", seed=0)
        plain = build_gpu(BASELINE_CONFIG).run(kernel)
        traced, _, _ = run_traced(sample_every=500)
        assert traced.cycles == plain.cycles
        assert traced.stats == plain.stats

    def test_disabled_run_matches_plain_run(self):
        kernel = make_benchmark("nw", scale="micro", seed=0)
        plain = build_gpu(BASELINE_CONFIG).run(kernel)
        sim = Simulator()  # defaults: NULL_TRACER, no sampler
        off = build_gpu(BASELINE_CONFIG, sim=sim).run(kernel)
        assert off.cycles == plain.cycles
        assert off.stats == plain.stats


# ---------------------------------------------------------------------- #
# Overhead guard (satellite 5)
# ---------------------------------------------------------------------- #
class _SpyTracer(NullTracer):
    """Disabled tracer that counts hot-path calls: must stay at zero."""

    __slots__ = ("calls",)
    enabled = False

    def __init__(self):
        self.calls = 0

    def track(self, name):
        return 0  # wiring-time, allowed

    def instant(self, *a, **k):
        self.calls += 1

    def complete(self, *a, **k):
        self.calls += 1

    def counter(self, *a, **k):
        self.calls += 1


class TestDisabledOverhead:
    def test_default_simulator_uses_null_singleton(self):
        assert Simulator().tracer is NULL_TRACER

    def test_components_cache_none_when_disabled(self):
        gpu = build_gpu(BASELINE_CONFIG)
        assert gpu.sms[0]._tracer is None
        assert gpu.sms[0].l1_tlb._tracer is None
        assert gpu.l2_tlb._tracer is None
        assert gpu.walkers._tracer is None
        assert gpu.lanes[0].scheduler._tracer is None

    def test_disabled_run_never_calls_tracer(self):
        spy = _SpyTracer()
        sim = Simulator(tracer=spy)
        gpu = build_gpu(BASELINE_CONFIG, sim=sim)
        gpu.run(make_benchmark("nw", scale="micro", seed=0))
        assert spy.calls == 0

    def test_event_queue_watcher_disabled_by_default(self):
        assert Simulator().queue.time_watcher is None
