"""Content-addressed result caching for the serving layer.

A structure-learning job is fully determined by (data, solver, config, seed,
warm-start init), so its result can be cached under a fingerprint of those
inputs and replayed for free when the same job is submitted again.  The paper's
production deployment leans on exactly this property: of the ~100k daily tasks
many are re-submissions of unchanged scenario data, and serving them from a
cache keeps the solver fleet free for genuinely new work.

Two backends are provided:

* :class:`InMemoryCache` — a process-local dictionary, the default for a
  single :class:`~repro.serve.streaming.StreamingRunner` session;
* :class:`DiskCache` — one pickle file per fingerprint under a directory, so
  results survive across processes and CLI invocations.

Both are optionally *bounded*: ``max_entries`` (both backends) and
``max_bytes`` (:class:`DiskCache`) trigger least-recently-used eviction, so a
long-lived service cannot grow its cache without limit.  Evictions and
corrupt-entry recoveries are counted and reported through :meth:`ResultCache.stats`
alongside the hit/miss counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.job import JobResult, LearningJob

__all__ = [
    "fingerprint_array",
    "fingerprint_config",
    "job_fingerprint",
    "SOLVER_NUMERICS_VERSION",
    "ResultCache",
    "InMemoryCache",
    "DiskCache",
]


#: Version of the solvers' arithmetic, folded into every job key.  A change
#: that moves learned weights by rounding, without a config field to say so,
#: bumps it so that a persisted :class:`DiskCache` stops serving results the
#: current code would not compute.  Version 2: full-batch dense LEAST takes
#: its loss from the moments of the samples (see
#: :func:`repro.core.losses.full_batch_moments`).  Version 3: the dense
#: spectral bound sums its levels through matrix-vector products with
#: ``W ∘ W`` instead of ``d × d`` level matrices.  Version 4: every served
#: solve runs on one BLAS thread (:func:`repro.utils.blas.single_blas_thread`),
#: so dense weights served on a host with more BLAS threads change by
#: rounding.
SOLVER_NUMERICS_VERSION = 4


def _update_with_array(digest: "hashlib._Hash", array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())


def fingerprint_array(array: np.ndarray | sp.spmatrix) -> str:
    """Stable hex fingerprint of a dense or sparse matrix.

    The fingerprint covers dtype, shape, and every value, so any change to the
    data produces a different key while re-generating the same dataset (same
    builder, same seed) produces the same one.
    """
    digest = hashlib.sha256()
    if sp.issparse(array):
        csr = array.tocsr()
        csr.sum_duplicates()
        digest.update(b"sparse-csr")
        digest.update(str(csr.shape).encode())
        _update_with_array(digest, csr.data)
        _update_with_array(digest, csr.indices)
        _update_with_array(digest, csr.indptr)
    else:
        digest.update(b"dense")
        _update_with_array(digest, np.asarray(array))
    return digest.hexdigest()


def fingerprint_config(config: Mapping[str, Any]) -> str:
    """Order-insensitive hex fingerprint of a JSON-able config mapping."""
    try:
        canonical = json.dumps(dict(config), sort_keys=True, default=repr)
    except TypeError as exc:  # pragma: no cover - defensive
        raise ValidationError(f"config is not fingerprintable: {exc}") from exc
    return hashlib.sha256(canonical.encode()).hexdigest()


def job_fingerprint(job: "LearningJob", data: np.ndarray) -> str:
    """Content-addressed key of a job: solver ⊕ config ⊕ seed ⊕ data ⊕ init.

    The key also covers :data:`SOLVER_NUMERICS_VERSION`.
    """
    digest = hashlib.sha256()
    digest.update(f"numerics-v{SOLVER_NUMERICS_VERSION}".encode())
    digest.update(job.solver.encode())
    digest.update(fingerprint_config(job.config).encode())
    digest.update(repr(job.seed).encode())
    digest.update(fingerprint_array(data).encode())
    if job.init_weights is not None:
        digest.update(fingerprint_array(job.init_weights).encode())
    else:
        digest.update(b"cold-start")
    return digest.hexdigest()


class ResultCache:
    """Base class: hit/miss/eviction accounting around backend ``_load``/``_store``."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_evicted = 0
        self.corrupt_entries = 0

    # -- backend hooks ---------------------------------------------------------

    def _load(self, key: str) -> "JobResult | None":
        raise NotImplementedError

    def _store(self, key: str, result: "JobResult") -> None:
        raise NotImplementedError

    def _contains(self, key: str) -> bool:
        """Existence check that must NOT count as a use in the LRU order."""
        return self._load(key) is not None

    def _extra_stats(self) -> dict[str, float]:
        """Backend-specific additions to :meth:`stats` (size gauges etc.)."""
        return {}

    # -- public API ------------------------------------------------------------

    def get(self, key: str) -> "JobResult | None":
        """Return the cached result for ``key`` (None on a miss)."""
        result = self._load(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: "JobResult") -> None:
        """Store ``result`` under ``key`` (overwrites silently).

        Bounded backends may evict least-recently-used entries — or decline to
        retain the new entry at all when it alone exceeds the byte budget.
        """
        self._store(key, result)

    def __contains__(self, key: str) -> bool:
        """Membership probe: counts neither as a hit/miss nor as LRU recency."""
        return self._contains(key)

    def stats(self) -> dict[str, float]:
        """Hit/miss/eviction counters plus the hit rate over all lookups.

        Keys common to all backends: ``hits``, ``misses``, ``hit_rate``,
        ``evictions``, ``bytes_evicted``, ``corrupt_entries``.  Backends add
        size gauges (``n_entries``, and ``total_bytes`` for
        :class:`DiskCache`).
        """
        lookups = self.hits + self.misses
        stats = {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "evictions": float(self.evictions),
            "bytes_evicted": float(self.bytes_evicted),
            "corrupt_entries": float(self.corrupt_entries),
        }
        stats.update(self._extra_stats())
        return stats


class InMemoryCache(ResultCache):
    """Process-local LRU-ordered dictionary backend.

    Parameters
    ----------
    max_entries:
        Optional bound on the number of retained results; storing beyond it
        evicts the least-recently-used entry.  ``None`` (default) keeps the
        cache unbounded.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        super().__init__()
        if max_entries is not None and max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._store_dict: OrderedDict[str, "JobResult"] = OrderedDict()

    def _load(self, key: str) -> "JobResult | None":
        result = self._store_dict.get(key)
        if result is not None:
            self._store_dict.move_to_end(key)
        return result

    def _store(self, key: str, result: "JobResult") -> None:
        self._store_dict[key] = result
        self._store_dict.move_to_end(key)
        while self.max_entries is not None and len(self._store_dict) > self.max_entries:
            self._store_dict.popitem(last=False)
            self.evictions += 1

    def _contains(self, key: str) -> bool:
        """Probe without promoting the entry in the LRU order."""
        return key in self._store_dict

    def _extra_stats(self) -> dict[str, float]:
        """Add the live entry count."""
        return {"n_entries": float(len(self._store_dict))}

    def __len__(self) -> int:
        return len(self._store_dict)


class DiskCache(ResultCache):
    """On-disk backend: one pickle file per fingerprint under ``directory``.

    Parameters
    ----------
    directory:
        Cache directory (created if missing).  Entries written by previous
        processes are picked up and participate in the LRU order.
    max_entries:
        Optional bound on the number of ``.pkl`` entries; exceeding it on a
        store evicts the least-recently-used files.
    max_bytes:
        Optional bound on the total size of all entries in bytes.  Eviction
        removes least-recently-used files until the total fits; an entry
        larger than the whole budget is evicted immediately after being
        written (the cache never retains it).

    Notes
    -----
    Recency is tracked through file modification times: a hit re-touches its
    entry (``os.utime``), so files sort oldest-first in true LRU order even
    across processes.  A corrupt (truncated, unreadable) entry found by a
    lookup is deleted on the spot and counted in ``corrupt_entries`` — the
    next identical job simply re-learns and re-stores it.

    A bounded cache keeps approximate size counters so stores below the
    bound are O(1); the directory is only re-scanned (authoritatively) when
    the counters indicate a bound is exceeded.  With *several processes
    writing the same bounded directory*, each process only counts its own
    writes, so eviction may lag until one writer's own counter trips — the
    bound is then re-established from the authoritative scan.
    """

    def __init__(
        self,
        directory: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        super().__init__()
        if max_entries is not None and max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._bounded = max_entries is not None or max_bytes is not None
        self._approx_entries = 0
        self._approx_bytes = 0
        if self._bounded:
            entries = self._entries()
            self._approx_entries = len(entries)
            self._approx_bytes = sum(size for _, _, size in entries)
            # Re-opening a directory that outgrew the configured bounds (e.g.
            # after a restart with tighter limits) trims it immediately — a
            # get-only workload would otherwise never trigger eviction.
            self._evict_if_needed()

    def _path(self, key: str) -> Path:
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise ValidationError(f"cache keys must be hex fingerprints, got {key!r}")
        return self.directory / f"{key}.pkl"

    def _contains(self, key: str) -> bool:
        """Probe by file existence: no unpickling, no LRU mtime bump."""
        return self._path(key).exists()

    def _load(self, key: str) -> "JobResult | None":
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            # A truncated or unreadable entry is treated as a miss; deleting
            # it immediately lets the slot be re-learned and re-stored instead
            # of poisoning every future lookup of this fingerprint.
            self.corrupt_entries += 1
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                pass
            else:
                self._approx_entries = max(self._approx_entries - 1, 0)
                self._approx_bytes = max(self._approx_bytes - size, 0)
            return None
        self._touch(path)
        return result

    def _store(self, key: str, result: "JobResult") -> None:
        path = self._path(key)
        temporary = path.with_suffix(".tmp")
        with temporary.open("wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        if self._bounded:
            try:
                previous_size = path.stat().st_size
            except OSError:
                previous_size = None
            new_size = temporary.stat().st_size
        temporary.replace(path)
        if self._bounded:
            if previous_size is None:
                self._approx_entries += 1
                self._approx_bytes += new_size
            else:  # overwrite: entry count unchanged, size delta only
                self._approx_bytes += new_size - previous_size
            self._evict_if_needed()

    @staticmethod
    def _touch(path: Path) -> None:
        """Mark an entry as recently used (mtime is the LRU clock)."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted concurrently
            pass

    def _entries(self) -> list[tuple[Path, float, int]]:
        """All entries as ``(path, mtime, size)``, oldest (LRU) first."""
        entries = []
        with os.scandir(self.directory) as scan:
            for entry in scan:
                if not entry.name.endswith(".pkl"):
                    continue
                try:
                    stat = entry.stat()
                except OSError:  # pragma: no cover - concurrent removal
                    continue
                entries.append((Path(entry.path), stat.st_mtime, stat.st_size))
        entries.sort(key=lambda entry: entry[1])
        return entries

    def _over_bounds(self, n_entries: int, n_bytes: int) -> bool:
        """True when either configured bound is exceeded."""
        if self.max_entries is not None and n_entries > self.max_entries:
            return True
        return self.max_bytes is not None and n_bytes > self.max_bytes

    def _evict_if_needed(self) -> None:
        """Delete LRU entries until both the entry and byte bounds hold.

        The (cheap, process-local) approximate counters gate the scan: only
        when they report a bound exceeded is the directory re-scanned
        authoritatively and evicted from.
        """
        if not self._over_bounds(self._approx_entries, self._approx_bytes):
            return
        entries = self._entries()
        total_bytes = sum(size for _, _, size in entries)
        while entries and self._over_bounds(len(entries), total_bytes):
            path, _, size = entries.pop(0)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            total_bytes -= size
            self.evictions += 1
            self.bytes_evicted += size
        self._approx_entries = len(entries)
        self._approx_bytes = total_bytes

    def _extra_stats(self) -> dict[str, float]:
        """Add live entry-count and total-size gauges."""
        entries = self._entries()
        return {
            "n_entries": float(len(entries)),
            "total_bytes": float(sum(size for _, _, size in entries)),
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))
