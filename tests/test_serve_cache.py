"""Tests for repro.serve.cache: fingerprints and the two cache backends."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.serve.cache import (
    DiskCache,
    InMemoryCache,
    fingerprint_array,
    fingerprint_config,
    job_fingerprint,
)
from repro.serve.job import JobResult, LearningJob


class TestFingerprints:
    def test_array_fingerprint_is_stable(self):
        array = np.arange(12.0).reshape(3, 4)
        assert fingerprint_array(array) == fingerprint_array(array.copy())

    def test_array_fingerprint_detects_value_change(self):
        array = np.arange(12.0).reshape(3, 4)
        changed = array.copy()
        changed[1, 2] += 1e-9
        assert fingerprint_array(array) != fingerprint_array(changed)

    def test_array_fingerprint_detects_shape_change(self):
        array = np.arange(12.0)
        assert fingerprint_array(array) != fingerprint_array(array.reshape(3, 4))

    def test_sparse_fingerprint_matches_regardless_of_layout(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = 2.0
        dense[2, 3] = -1.0
        assert fingerprint_array(sp.csr_matrix(dense)) == fingerprint_array(
            sp.coo_matrix(dense)
        )

    def test_sparse_and_dense_fingerprints_are_distinct_spaces(self):
        dense = np.eye(3)
        assert fingerprint_array(dense) != fingerprint_array(sp.csr_matrix(dense))

    def test_config_fingerprint_is_order_insensitive(self):
        assert fingerprint_config({"a": 1, "b": 2.5}) == fingerprint_config(
            {"b": 2.5, "a": 1}
        )
        assert fingerprint_config({"a": 1}) != fingerprint_config({"a": 2})

    def test_job_fingerprint_covers_solver_config_seed_and_data(self):
        data = np.random.default_rng(0).normal(size=(20, 5))
        base = LearningJob(data=data, seed=1)
        assert job_fingerprint(base, data) == job_fingerprint(
            LearningJob(data=data.copy(), seed=1), data.copy()
        )
        assert job_fingerprint(base, data) != job_fingerprint(
            LearningJob(data=data, seed=2), data
        )
        assert job_fingerprint(base, data) != job_fingerprint(
            LearningJob(data=data, seed=1, solver="notears"), data
        )
        assert job_fingerprint(base, data) != job_fingerprint(
            LearningJob(data=data, seed=1, config={"k": 3}), data
        )

    def test_job_fingerprint_distinguishes_warm_starts(self):
        data = np.random.default_rng(0).normal(size=(20, 5))
        init = np.zeros((5, 5))
        init[0, 1] = 0.5
        cold = LearningJob(data=data, seed=1)
        warm = LearningJob(data=data, seed=1, init_weights=init)
        assert job_fingerprint(cold, data) != job_fingerprint(warm, data)

    def test_job_fingerprint_covers_the_numerics_version(self, monkeypatch):
        """A bump re-keys every job; equal jobs still share one key."""
        import repro.serve.cache as cache_module

        data = np.random.default_rng(0).normal(size=(20, 5))
        init = np.zeros((5, 5))
        jobs = [
            LearningJob(data=data, seed=1),
            LearningJob(data=data, seed=2, solver="notears"),
            LearningJob(data=data, seed=1, config={"k": 3}),
            LearningJob(data=data, seed=1, init_weights=init),
            LearningJob(data=data, seed=1, solver="least_sparse"),
        ]
        before = [job_fingerprint(job, data) for job in jobs]
        monkeypatch.setattr(
            cache_module, "SOLVER_NUMERICS_VERSION", cache_module.SOLVER_NUMERICS_VERSION + 1
        )
        after = [job_fingerprint(job, data) for job in jobs]
        assert all(old != new for old, new in zip(before, after))
        assert len(set(after)) == len(jobs)
        assert job_fingerprint(LearningJob(data=data.copy(), seed=1), data.copy()) == after[0]


def _result(job_id: str = "job-000") -> JobResult:
    return JobResult(
        job_id=job_id,
        solver="least",
        status="ok",
        weights=np.eye(3),
        constraint_value=1e-5,
        converged=True,
        n_outer_iterations=3,
        n_inner_iterations=42,
        elapsed_seconds=0.5,
    )


KEY_A = "a" * 64
KEY_B = "b" * 64


class TestInMemoryCache:
    def test_miss_then_hit(self):
        cache = InMemoryCache()
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, _result())
        hit = cache.get(KEY_A)
        assert hit is not None and hit.n_inner_iterations == 42
        stats = cache.stats()
        assert stats["hits"] == 1.0 and stats["misses"] == 1.0
        assert stats["hit_rate"] == 0.5
        assert stats["evictions"] == 0.0 and stats["n_entries"] == 1.0

    def test_contains_and_len(self):
        cache = InMemoryCache()
        cache.put(KEY_A, _result())
        assert KEY_A in cache and KEY_B not in cache
        assert len(cache) == 1


class TestDiskCache:
    def test_round_trip_dense(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put(KEY_A, _result())
        loaded = cache.get(KEY_A)
        np.testing.assert_allclose(loaded.weights, np.eye(3))
        assert loaded.converged and loaded.n_outer_iterations == 3

    def test_round_trip_sparse_weights(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = _result()
        result.weights = sp.csr_matrix(np.eye(3))
        cache.put(KEY_B, result)
        loaded = cache.get(KEY_B)
        assert sp.issparse(loaded.weights) and loaded.weights.nnz == 3

    def test_persists_across_instances(self, tmp_path):
        DiskCache(tmp_path).put(KEY_A, _result("persisted"))
        reopened = DiskCache(tmp_path)
        assert reopened.get(KEY_A).job_id == "persisted"

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = tmp_path / f"{KEY_A}.pkl"
        path.write_bytes(b"not a pickle")
        assert cache.get(KEY_A) is None
        stats = cache.stats()
        assert stats["misses"] == 1.0
        assert stats["corrupt_entries"] == 1.0
        # Recovery: the corrupt file is gone, so the entry can be re-stored
        # and served again.
        assert not path.exists()
        cache.put(KEY_A, _result())
        assert cache.get(KEY_A) is not None

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(ValidationError):
            cache.put("../escape", _result())


def _hex_key(index: int) -> str:
    return format(index, "x").rjust(64, "0")


class TestInMemoryCacheEviction:
    def test_max_entries_evicts_least_recently_used(self):
        cache = InMemoryCache(max_entries=2)
        cache.put(KEY_A, _result("a"))
        cache.put(KEY_B, _result("b"))
        assert cache.get(KEY_A) is not None  # refresh A; B is now LRU
        cache.put(_hex_key(3), _result("c"))
        assert KEY_B not in cache
        assert KEY_A in cache and _hex_key(3) in cache
        assert cache.stats()["evictions"] == 1.0
        assert len(cache) == 2

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValidationError):
            InMemoryCache(max_entries=0)


class TestDiskCacheEviction:
    def _put(self, cache, index, mtime=None):
        key = _hex_key(index)
        cache.put(key, _result(f"job-{index}"))
        if mtime is not None:
            # Stamp an explicit LRU position (mtime is the recency clock).
            import os

            os.utime(cache.directory / f"{key}.pkl", (mtime, mtime))
        return key

    def test_max_entries_keeps_only_the_most_recent(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=2)
        keys = [self._put(cache, index, mtime=1000.0 + index) for index in range(4)]
        assert len(cache) == 2
        assert keys[0] not in cache and keys[1] not in cache
        assert keys[2] in cache and keys[3] in cache
        assert cache.stats()["evictions"] == 2.0
        assert cache.stats()["n_entries"] == 2.0

    def test_lru_order_respects_get_recency(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=2)
        first = self._put(cache, 1, mtime=1000.0)
        second = self._put(cache, 2, mtime=2000.0)
        # Touching the older entry via a hit makes the other one the victim.
        assert cache.get(first) is not None
        third = self._put(cache, 3)
        assert second not in cache
        assert first in cache and third in cache

    def test_contains_does_not_promote_in_lru_order(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=2)
        first = self._put(cache, 1, mtime=1000.0)
        second = self._put(cache, 2, mtime=2000.0)
        # A membership probe is not a use: the probed entry stays LRU...
        assert first in cache
        third = self._put(cache, 3)
        assert first not in cache
        assert second in cache and third in cache
        # ...and probes don't distort the hit/miss counters either.
        assert cache.stats()["hits"] == 0.0 and cache.stats()["misses"] == 0.0

    def test_max_bytes_is_enforced(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1)
        self._put(cache, 1)
        # A 1-byte budget cannot retain any real entry: the store itself is
        # evicted and the cache stays within bounds.
        stats = cache.stats()
        assert stats["total_bytes"] <= 1.0
        assert stats["evictions"] >= 1.0
        assert stats["bytes_evicted"] > 0.0

    def test_max_bytes_keeps_recent_entries_within_budget(self, tmp_path):
        probe = DiskCache(tmp_path / "probe")
        probe_key = _hex_key(1)
        probe.put(probe_key, _result("probe"))
        entry_size = (probe.directory / f"{probe_key}.pkl").stat().st_size

        cache = DiskCache(tmp_path / "bounded", max_bytes=2 * entry_size)
        keys = [self._put(cache, index, mtime=1000.0 + index) for index in range(1, 5)]
        stats = cache.stats()
        assert stats["total_bytes"] <= 2 * entry_size
        assert len(cache) == 2
        assert keys[-1] in cache and keys[-2] in cache

    def test_reopening_an_overgrown_directory_trims_it(self, tmp_path):
        unbounded = DiskCache(tmp_path)
        for index in range(5):
            key = _hex_key(index)
            unbounded.put(key, _result(f"job-{index}"))
            import os

            os.utime(tmp_path / f"{key}.pkl", (1000.0 + index,) * 2)
        # Re-open the same directory with tighter limits: a get-only workload
        # must still see the bound enforced, so __init__ trims immediately.
        reopened = DiskCache(tmp_path, max_entries=2)
        assert len(reopened) == 2
        assert _hex_key(4) in reopened and _hex_key(3) in reopened
        assert reopened.stats()["evictions"] == 3.0

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = DiskCache(tmp_path)
        for index in range(5):
            self._put(cache, index)
        assert len(cache) == 5
        assert cache.stats()["evictions"] == 0.0

    def test_rejects_non_positive_bounds(self, tmp_path):
        with pytest.raises(ValidationError):
            DiskCache(tmp_path, max_entries=0)
        with pytest.raises(ValidationError):
            DiskCache(tmp_path, max_bytes=0)
