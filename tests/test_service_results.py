"""Result-cache tests: byte identity, idempotent writes, quarantine,
LRU eviction at a byte budget."""

import json
import os

import pytest

from repro.service.results import ResultCache


def make_cache(tmp_path):
    return ResultCache(str(tmp_path / "results"))


def test_roundtrip_and_byte_identity(tmp_path):
    cache = make_cache(tmp_path)
    key = "k" * 64
    cache.put(key, {"cycles": 123.0}, job_id="bfs:baseline",
              benchmark="bfs", config_name="baseline",
              config_hash="h", scale="micro", seed=0)
    entry = cache.get(key)
    assert entry["result"] == {"cycles": 123.0}
    assert entry["job_id"] == "bfs:baseline"
    # a retried request reads the *exact same bytes* as the first
    first = cache.get_bytes(key)
    second = cache.get_bytes(key)
    assert first == second
    assert json.loads(first)["key"] == key


def test_put_is_first_write_wins(tmp_path):
    cache = make_cache(tmp_path)
    key = "k" * 64
    cache.put(key, {"cycles": 1.0})
    before = cache.get_bytes(key)
    cache.put(key, {"cycles": 999.0})  # must be a no-op
    assert cache.get_bytes(key) == before
    assert cache.stores == 1


def test_miss_returns_none(tmp_path):
    cache = make_cache(tmp_path)
    assert cache.get("m" * 64) is None
    assert cache.misses == 1


def test_corrupt_entry_quarantined_not_served(tmp_path):
    cache = make_cache(tmp_path)
    key = "k" * 64
    cache.put(key, {"cycles": 1.0})
    path = cache.path_for(key)
    with open(path, "w") as handle:
        handle.write('{"kind": "repro-result", "version": 1, truncated')
    assert cache.get(key) is None
    assert not os.path.exists(path)
    assert os.path.exists(path + ".invalid")
    # quarantined entries stay misses forever
    assert cache.get(key) is None


def test_foreign_or_mismatched_entry_quarantined(tmp_path):
    cache = make_cache(tmp_path)
    key = "k" * 64
    path = cache.path_for(key)
    os.makedirs(cache.directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"kind": "other", "version": 1, "key": key,
                   "result": {}}, handle)
    assert cache.get(key) is None
    assert os.path.exists(path + ".invalid")


def test_malformed_keys_refused(tmp_path):
    cache = make_cache(tmp_path)
    for bad in ("", "../escape", "a/b", "."):
        with pytest.raises(ValueError):
            cache.path_for(bad)


def test_stats(tmp_path):
    cache = make_cache(tmp_path)
    cache.put("a" * 64, {"x": 1})
    cache.get("a" * 64)
    cache.get("b" * 64)
    assert cache.stats() == {
        "entries": 1, "hits": 1, "misses": 1, "stores": 1,
        "store_failures": 0, "evictions": 0,
    }


# --------------------------------------------------------------------- #
# LRU eviction at a byte budget
# --------------------------------------------------------------------- #


def test_result_cache_evicts_least_recently_used(tmp_path):
    cache = ResultCache(str(tmp_path / "results"), max_bytes=1 << 20)
    k1, k2, k3 = "a" * 64, "b" * 64, "c" * 64
    cache.put(k1, {"cycles": 1.0})
    cache.put(k2, {"cycles": 2.0})
    size = os.path.getsize(cache.path_for(k1))
    # pin recency deterministically: k2 is the LRU entry
    os.utime(cache.path_for(k1), (1000, 1000))
    os.utime(cache.path_for(k2), (500, 500))
    cache.max_bytes = 2 * size + 8  # room for exactly two entries
    cache.put(k3, {"cycles": 3.0})
    assert cache.get(k2) is None
    assert cache.get(k1)["result"] == {"cycles": 1.0}
    assert cache.get(k3)["result"] == {"cycles": 3.0}
    assert cache.evictions == 1
    assert cache.stats()["evictions"] == 1
    assert len(cache) == 2


def test_result_cache_never_evicts_the_entry_just_written(tmp_path):
    cache = ResultCache(str(tmp_path / "results"), max_bytes=1)
    key = "k" * 64
    cache.put(key, {"cycles": 1.0})
    # the budget cannot hold it, but evicting the result we were asked
    # to store would turn the cache into a lie
    assert cache.get(key)["result"] == {"cycles": 1.0}
    assert cache.evictions == 0


def test_result_cache_reads_refresh_recency(tmp_path):
    cache = ResultCache(str(tmp_path / "results"), max_bytes=1 << 20)
    k1, k2, k3 = "a" * 64, "b" * 64, "c" * 64
    cache.put(k1, {"cycles": 1.0})
    cache.put(k2, {"cycles": 2.0})
    size = os.path.getsize(cache.path_for(k1))
    os.utime(cache.path_for(k1), (500, 500))
    os.utime(cache.path_for(k2), (1000, 1000))
    cache.get(k1)  # touch: k1 is now the most recently used
    cache.max_bytes = 2 * size + 8
    cache.put(k3, {"cycles": 3.0})
    assert cache.get(k1) is not None
    assert cache.get(k2) is None
