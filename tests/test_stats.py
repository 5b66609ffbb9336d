"""Unit tests for the statistics layer."""

from repro.characterization import cdf_points
from repro.engine.stats import Counter, Histogram, StatGroup, StatRegistry


def test_counter_increment_and_reset():
    c = Counter("hits")
    c.inc()
    c.inc(5)
    assert c.value == 6
    c.reset()
    assert c.value == 0


def test_histogram_totals_and_cdf():
    h = Histogram("dist")
    h.add(1, 2)
    h.add(3, 2)
    assert h.total == 4
    cdf = cdf_points(h, max_bucket=3)
    assert cdf == [(0, 0.0), (1, 0.5), (2, 0.5), (3, 1.0)]


def test_histogram_empty_cdf():
    assert cdf_points(Histogram("x")) == []


def test_stat_group_reuses_counters():
    g = StatGroup("sm0")
    assert g.counter("hits") is g.counter("hits")
    g.counter("hits").inc(3)
    g.counter("total").inc(4)
    assert g.ratio("hits", "total") == 0.75


def test_ratio_zero_denominator():
    g = StatGroup("g")
    g.counter("hits")
    assert g.ratio("hits", "missing") == 0.0


def test_group_reset_clears_everything():
    g = StatGroup("g")
    g.counter("a").inc()
    g.histogram("h").add(1)
    g.reset()
    assert g.counter("a").value == 0
    assert g.histogram("h").total == 0


def test_registry_namespacing_and_dump():
    r = StatRegistry()
    r.group("sm0").counter("hits").inc(2)
    r.group("sm1").counter("hits").inc(7)
    dump = r.dump()
    assert dump["sm0"]["hits"] == 2
    assert dump["sm1"]["hits"] == 7


def test_registry_group_identity():
    r = StatRegistry()
    assert r.group("x") is r.group("x")


# ---------------------------------------------------------------------- #
# Percentiles / snapshots (telemetry satellites)
# ---------------------------------------------------------------------- #
def test_percentile_basics():
    h = Histogram("lat")
    for v in (1, 1, 2, 3, 100):
        h.add(v)
    assert h.percentile(0) == 1
    assert h.percentile(50) == 2
    assert h.percentile(100) == 100


def test_percentile_empty_and_bounds():
    h = Histogram("x")
    assert h.percentile(50) is None
    h.add(5)
    import pytest

    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_counter_value_is_non_creating():
    g = StatGroup("g")
    assert g.counter_value("nope") is None
    assert "nope" not in g.as_dict()
    g.counter("hits").inc(4)
    assert g.counter_value("hits") == 4


def test_group_snapshot_includes_histograms():
    g = StatGroup("g")
    g.counter("hits").inc(2)
    g.histogram("lat").add(7)
    snap = g.snapshot()
    assert snap["counters"] == {"hits": 2}
    assert snap["histograms"]["lat"] == {7: 1}


def test_registry_to_json_roundtrips():
    import json

    r = StatRegistry()
    r.group("sm0").counter("hits").inc(2)
    r.group("sm0").histogram("lat").add(3)
    payload = json.loads(r.to_json())
    assert payload["sm0"]["counters"]["hits"] == 2
    assert payload["sm0"]["histograms"]["lat"] == {"3": 1}
