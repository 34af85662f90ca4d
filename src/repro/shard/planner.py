"""Block partitioning of one large structure-learning problem.

The paper scales LEAST to ~100k-node problems; past a few hundred nodes a
single monolithic solve is both slow (every inner step touches the full
``d × d`` candidate matrix) and inaccurate under a fixed iteration budget (the
budget is spread over ``d²`` parameters).  :class:`ShardPlanner` implements the
standard divide-and-conquer remedy: threshold the empirical correlation matrix
into an undirected *skeleton*, split its connected components into blocks of
bounded size, and attach a one-hop *halo* of skeleton neighbors to each block
so cross-boundary dependencies keep enough context to be learned by at least
one block.

The resulting :class:`ShardPlan` is pure data — blocks are tuples of global
column indices — and is consumed by
:class:`~repro.shard.executor.ShardExecutor` (one
:class:`~repro.serve.job.LearningJob` per block) and
:class:`~repro.shard.stitcher.Stitcher` (merging the per-block sub-graphs back
into one DAG over all ``d`` nodes).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.utils.validation import check_non_negative, check_positive, ensure_2d

__all__ = [
    "ShardBlock",
    "ShardPlan",
    "ShardPlanner",
    "correlation_skeleton",
    "sparse_correlation_skeleton",
]


def _correlation_strengths(data: np.ndarray) -> np.ndarray:
    """``d × d`` matrix of absolute pairwise correlations (NaNs become 0)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(data, rowvar=False)
    return np.abs(
        np.nan_to_num(np.atleast_2d(corr), nan=0.0, posinf=0.0, neginf=0.0)
    )


def _skeleton_from_strengths(strengths: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold an absolute-correlation matrix into a boolean skeleton."""
    skeleton = strengths >= threshold
    skeleton &= skeleton.T  # enforce symmetry against float asymmetries
    np.fill_diagonal(skeleton, False)
    return skeleton


def correlation_skeleton(data: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean undirected skeleton from thresholded absolute correlations.

    Parameters
    ----------
    data:
        ``n × d`` sample matrix.
    threshold:
        Pairs with ``|corr| >= threshold`` become skeleton edges.  Columns
        with zero variance (undefined correlation) are treated as isolated.

    Returns
    -------
    numpy.ndarray
        Symmetric boolean ``d × d`` matrix with a False diagonal.
    """
    data = ensure_2d(data, "data")
    check_non_negative(threshold, "threshold")
    d = data.shape[1]
    if data.shape[0] < 2:
        return np.zeros((d, d), dtype=bool)
    return _skeleton_from_strengths(_correlation_strengths(data), threshold)


def sparse_correlation_skeleton(
    data: np.ndarray, threshold: float, chunk_columns: int = 512
) -> sp.csr_matrix:
    """Thresholded absolute-correlation skeleton built without a dense ``d × d``.

    The chunked counterpart of :func:`correlation_skeleton` for very wide
    problems: correlations are computed ``chunk_columns`` rows at a time and
    each chunk is thresholded into CSR immediately, so peak memory is
    ``O(chunk_columns · d)`` instead of ``O(d²)``.  Stored values are the
    surviving ``|corr|`` strengths (usable for halo ranking); the stored
    pattern is the skeleton.

    Unlike the dense variant, pairs whose correlation is *exactly* zero never
    enter the skeleton even when ``threshold == 0`` — with a positive
    threshold (the only setting that makes sense at this scale) the two
    variants agree.

    Parameters
    ----------
    data:
        ``n × d`` sample matrix.
    threshold:
        Pairs with ``|corr| >= threshold`` become skeleton edges.
    chunk_columns:
        Rows of the correlation matrix computed per chunk.

    Returns
    -------
    scipy.sparse.csr_matrix
        Symmetric ``d × d`` CSR matrix of surviving correlation strengths
        with an empty diagonal.
    """
    data = ensure_2d(data, "data")
    check_non_negative(threshold, "threshold")
    check_positive(chunk_columns, "chunk_columns")
    d = data.shape[1]
    if data.shape[0] < 2:
        return sp.csr_matrix((d, d))
    as_float = np.asarray(data, dtype=float)
    centered = as_float - as_float.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(centered, axis=0)
    norms[norms == 0] = np.inf  # zero-variance columns become isolated nodes
    z = centered / norms

    chunks: list[sp.csr_matrix] = []
    for start in range(0, d, int(chunk_columns)):
        stop = min(start + int(chunk_columns), d)
        corr = np.abs(z[:, start:stop].T @ z)  # (chunk, d) — the only big buffer
        np.nan_to_num(corr, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        corr[np.arange(stop - start), np.arange(start, stop)] = 0.0
        corr[corr < max(threshold, np.finfo(float).tiny)] = 0.0
        chunks.append(sp.csr_matrix(corr))
    skeleton = sp.vstack(chunks, format="csr")
    # Symmetrize against float asymmetries so BFS components are well defined.
    return skeleton.maximum(skeleton.T).tocsr()


@dataclass(frozen=True)
class ShardBlock:
    """One block of a :class:`ShardPlan`.

    Attributes
    ----------
    index:
        Zero-based position of the block in the plan.
    core:
        Global column indices *owned* by this block.  The cores of a plan
        partition the node set: every node belongs to exactly one core.
    halo:
        Skeleton neighbors of the core borrowed from other blocks for
        context.  Halo nodes are solved inside this block too, but edges
        between two halo nodes are discarded at stitch time (their own block
        owns them).
    """

    index: int
    core: tuple[int, ...]
    halo: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.core:
            raise ValidationError("a shard block must own at least one node")
        if set(self.core) & set(self.halo):
            raise ValidationError("core and halo of a block must be disjoint")

    @property
    def nodes(self) -> tuple[int, ...]:
        """Core followed by halo: the global indices of the block's columns.

        The position of a global index in this tuple is its *local* index in
        the block's sample sub-matrix and learned sub-graph.
        """
        return self.core + self.halo

    @property
    def n_core(self) -> int:
        """Number of owned nodes."""
        return len(self.core)

    @property
    def n_halo(self) -> int:
        """Number of borrowed context nodes."""
        return len(self.halo)


@dataclass
class ShardPlan:
    """A complete block decomposition of one learning problem.

    Attributes
    ----------
    n_nodes:
        Total number of columns of the partitioned problem.
    blocks:
        The blocks, in index order.  Their cores partition ``range(n_nodes)``.
    n_skeleton_edges:
        Undirected edge count of the correlation skeleton the plan was built
        from.
    skeleton_threshold:
        The ``|corr|`` threshold that produced the skeleton.
    """

    n_nodes: int
    blocks: list[ShardBlock] = field(default_factory=list)
    n_skeleton_edges: int = 0
    skeleton_threshold: float = 0.0

    def __post_init__(self) -> None:
        for position, block in enumerate(self.blocks):
            if block.index != position:
                raise ValidationError(
                    f"block at position {position} has index {block.index}; "
                    "block indices must match their list positions (the "
                    "executor maps job ids back through them)"
                )
        owned: list[int] = [node for block in self.blocks for node in block.core]
        if sorted(owned) != list(range(self.n_nodes)):
            raise ValidationError(
                "block cores must partition the node set exactly: every node "
                "in exactly one core"
            )
        for block in self.blocks:
            for node in block.halo:
                if not 0 <= node < self.n_nodes:
                    raise ValidationError(f"halo node {node} out of range")

    @property
    def n_blocks(self) -> int:
        """Number of blocks in the plan."""
        return len(self.blocks)

    @property
    def is_monolithic(self) -> bool:
        """True when the plan degenerates to one block covering every node."""
        return self.n_blocks == 1

    def summary(self) -> dict[str, Any]:
        """JSON-able digest (the ``plan`` section of ``BENCH_shard.json``)."""
        core_sizes = [block.n_core for block in self.blocks]
        halo_sizes = [block.n_halo for block in self.blocks]
        return {
            "is_monolithic": self.is_monolithic,
            "max_block_size": max(core_sizes),
            "mean_block_size": float(np.mean(core_sizes)),
            "mean_halo_size": float(np.mean(halo_sizes)),
            "min_block_size": min(core_sizes),
            "n_blocks": self.n_blocks,
            "n_nodes": self.n_nodes,
            "n_skeleton_edges": self.n_skeleton_edges,
        }


def _neighbor_lists(skeleton) -> list[list[int]]:
    """Adjacency lists of a dense-bool or sparse skeleton.

    Delegates to the shared dense/sparse converter in :mod:`repro.graph.dag`
    so one implementation serves both the DAG utilities and the planner.
    """
    from repro.graph.dag import _adjacency_lists

    return _adjacency_lists(skeleton)


def _core_affinities(affinity, candidates: np.ndarray, core_idx: np.ndarray) -> np.ndarray:
    """Strongest affinity between each candidate and any core node.

    One vectorized ``affinity[candidates][:, core]`` submatrix max per call —
    the per-candidate fancy-index loop this replaces cost one sparse slice
    per halo candidate, which dominated planning time on wide blocks.
    """
    candidates = np.asarray(candidates, dtype=int)
    if candidates.size == 0 or core_idx.size == 0:
        return np.zeros(candidates.size)
    if sp.issparse(affinity):
        sub = affinity.tocsr()[candidates][:, core_idx]
        # Implicit zeros participate in the max exactly as in the dense path
        # (affinities are non-negative), matching the old per-entry .max().
        return np.asarray(sub.max(axis=1).todense()).ravel().astype(float)
    sub = np.asarray(affinity)[np.ix_(candidates, core_idx)]
    return sub.max(axis=1).astype(float)


def _connected_components(neighbors: Sequence[Sequence[int]]) -> list[list[int]]:
    """BFS connected components of the skeleton, each in BFS visit order."""
    d = len(neighbors)
    seen = np.zeros(d, dtype=bool)
    components: list[list[int]] = []
    for start in range(d):
        if seen[start]:
            continue
        seen[start] = True
        queue: deque[int] = deque([start])
        component = []
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbor in neighbors[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    queue.append(neighbor)
        components.append(component)
    return components


def _split_chunks(component: Sequence[int], max_size: int) -> list[list[int]]:
    """Split a BFS-ordered component into nearly equal chunks of <= max_size.

    Contiguous BFS ranges are used so each chunk stays a locally connected
    patch of the skeleton rather than a random node sample.
    """
    n = len(component)
    n_chunks = -(-n // max_size)  # ceil
    base, extra = divmod(n, n_chunks)
    chunks: list[list[int]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(list(component[start : start + size]))
        start += size
    return chunks


class ShardPlanner:
    """Plan a block decomposition from the correlation skeleton of the data.

    Parameters
    ----------
    skeleton_threshold:
        ``|corr|`` value above which two columns are considered skeleton
        neighbors.  Higher thresholds produce smaller, more numerous blocks.
    max_block_size:
        Upper bound on the number of *core* nodes per block; skeleton
        components larger than this are split along their BFS order.
    min_block_size:
        Components (or split chunks) smaller than this are packed together
        into shared blocks, so a sea of isolated nodes does not become a sea
        of single-node solver jobs.  ``1`` disables packing.
    halo_depth:
        How many skeleton hops around the core are included as halo context
        (``0`` disables halos entirely).
    max_halo_size:
        Optional cap on the halo size of each block; when the one-hop
        neighborhood is larger, the neighbors with the strongest correlation
        to the core are kept.  ``None`` keeps every halo candidate.
    dense_skeleton_limit:
        Problems wider than this many columns are planned through
        :func:`sparse_correlation_skeleton` (chunked, ``O(chunk · d)`` peak
        memory) instead of a dense ``d × d`` correlation matrix — the switch
        that keeps planning viable on the 100k-node regime.
    skeleton_chunk_columns:
        Chunk height of the sparse skeleton computation.
    partition_columns:
        Hierarchical ("shard the shards") mode: problems wider than this are
        first cut into contiguous column partitions of at most this many
        columns, and each partition is planned *independently* — its own
        skeleton, components, and halos.  No skeleton ever spans more than
        one partition, so peak planning memory is bounded by the partition
        width regardless of ``d``, and :meth:`iter_block_batches` can hand
        each partition's blocks to the executor while later partitions are
        still being planned.  Cross-partition skeleton edges are invisible
        at this stage — the executor's boundary re-solve rounds are the
        mechanism that recovers them.  ``None`` (default) disables
        partitioning.
    """

    def __init__(
        self,
        skeleton_threshold: float = 0.2,
        max_block_size: int = 64,
        min_block_size: int = 1,
        halo_depth: int = 1,
        max_halo_size: int | None = None,
        dense_skeleton_limit: int = 2048,
        skeleton_chunk_columns: int = 512,
        partition_columns: int | None = None,
    ) -> None:
        check_non_negative(skeleton_threshold, "skeleton_threshold")
        if max_block_size < 1:
            raise ValidationError(
                f"max_block_size must be >= 1, got {max_block_size}"
            )
        if min_block_size < 1:
            raise ValidationError(
                f"min_block_size must be >= 1, got {min_block_size}"
            )
        if min_block_size > max_block_size:
            raise ValidationError(
                "min_block_size must not exceed max_block_size, got "
                f"{min_block_size} > {max_block_size}"
            )
        if halo_depth < 0:
            raise ValidationError(f"halo_depth must be >= 0, got {halo_depth}")
        if max_halo_size is not None and max_halo_size < 0:
            raise ValidationError(
                f"max_halo_size must be >= 0, got {max_halo_size}"
            )
        check_positive(dense_skeleton_limit, "dense_skeleton_limit")
        check_positive(skeleton_chunk_columns, "skeleton_chunk_columns")
        if partition_columns is not None and partition_columns < max_block_size:
            raise ValidationError(
                "partition_columns must be >= max_block_size, got "
                f"{partition_columns} < {max_block_size}"
            )
        self.skeleton_threshold = float(skeleton_threshold)
        self.max_block_size = int(max_block_size)
        self.min_block_size = int(min_block_size)
        self.halo_depth = int(halo_depth)
        self.max_halo_size = max_halo_size
        self.dense_skeleton_limit = int(dense_skeleton_limit)
        self.skeleton_chunk_columns = int(skeleton_chunk_columns)
        self.partition_columns = (
            int(partition_columns) if partition_columns is not None else None
        )

    # -- public API ------------------------------------------------------------

    def iter_block_batches(
        self, data: np.ndarray, *, tracer=None
    ) -> "Iterator[tuple[list[ShardBlock], int]]":
        """Yield ``(blocks, n_skeleton_edges)`` one column partition at a time.

        This is the incremental face of hierarchical planning: with
        :attr:`partition_columns` set (and the problem wider than it), each
        contiguous partition is planned independently — skeleton,
        components, cores, halos — and its blocks are yielded with global
        column indices and globally sequential block indices *before* the
        next partition's skeleton is even computed.
        :meth:`ShardExecutor.run_stream <repro.shard.executor.ShardExecutor.run_stream>`
        consumes this generator to overlap planning with execution.  Without
        partitioning the whole plan arrives as a single batch.

        ``tracer`` wraps each partition's planning pass in its own
        ``shard_plan`` span (attribute ``partition`` carries the ordinal).
        """
        data = ensure_2d(data, "data")
        d = data.shape[1]
        if self.partition_columns is None or d <= self.partition_columns:
            plan = self._plan_global(data, tracer=tracer)
            yield plan.blocks, plan.n_skeleton_edges
            return
        sub_planner = self.unpartitioned()
        next_index = 0
        for ordinal, start in enumerate(range(0, d, self.partition_columns)):
            stop = min(start + self.partition_columns, d)
            sub = np.ascontiguousarray(data[:, start:stop])
            if tracer is not None:
                with tracer.span(
                    "shard_plan", n_nodes=stop - start, partition=ordinal
                ) as span:
                    subplan = sub_planner._plan_global(sub)
                    span.set_attributes(
                        n_blocks=subplan.n_blocks,
                        n_skeleton_edges=subplan.n_skeleton_edges,
                    )
            else:
                subplan = sub_planner._plan_global(sub)
            # Partitions are contiguous column ranges, so local index ->
            # global index is a plain offset; block indices continue the
            # global sequence so the assembled ShardPlan validates.
            mapped = [
                ShardBlock(
                    index=next_index + position,
                    core=tuple(start + node for node in block.core),
                    halo=tuple(start + node for node in block.halo),
                )
                for position, block in enumerate(subplan.blocks)
            ]
            next_index += len(mapped)
            yield mapped, subplan.n_skeleton_edges

    def plan(self, data: np.ndarray, *, tracer=None) -> ShardPlan:
        """Build a :class:`ShardPlan` for the ``n × d`` sample matrix.

        The plan is assembled from :meth:`iter_block_batches`: one batch
        without partitioning, one independent sub-plan per contiguous column
        partition with :attr:`partition_columns` set and the problem wider
        than it.  The pairwise correlations are computed once per skeleton:
        the thresholded skeleton and the halo-ranking strengths are both
        derived from the same matrix (and the strengths are only kept when
        :attr:`max_halo_size` needs them for ranking).  Beyond
        :attr:`dense_skeleton_limit` columns the skeleton is built chunked
        into CSR — no dense ``d × d`` matrix is ever materialized on that
        path.

        ``tracer`` (an optional :class:`~repro.obs.Tracer`) wraps each
        planning pass in a ``shard_plan`` span recording the node and block
        counts.
        """
        data = ensure_2d(data, "data")
        blocks: list[ShardBlock] = []
        total_edges = 0
        for batch, n_edges in self.iter_block_batches(data, tracer=tracer):
            blocks.extend(batch)
            total_edges += n_edges
        return ShardPlan(
            n_nodes=data.shape[1],
            blocks=blocks,
            n_skeleton_edges=total_edges,
            skeleton_threshold=self.skeleton_threshold,
        )

    def unpartitioned(self) -> "ShardPlanner":
        """A copy of this planner with :attr:`partition_columns` set to ``None``.

        Every other setting is kept; the copy plans over one global skeleton.
        """
        flat = copy.copy(self)
        flat.partition_columns = None
        return flat

    def _plan_global(self, data: np.ndarray, *, tracer=None) -> ShardPlan:
        """Single-skeleton planning over all columns (the non-partitioned path)."""
        if tracer is not None:
            data = ensure_2d(data, "data")
            with tracer.span("shard_plan", n_nodes=int(data.shape[1])) as span:
                plan = self._plan_global(data)
                span.set_attributes(
                    n_blocks=plan.n_blocks,
                    n_skeleton_edges=plan.n_skeleton_edges,
                )
                return plan
        data = ensure_2d(data, "data")
        d = data.shape[1]
        if data.shape[0] < 2:
            # Empty skeleton — sized sparsely past the limit so a degenerate
            # window at 100k nodes does not allocate a dense d × d fallback.
            if d > self.dense_skeleton_limit:
                return self.plan_from_skeleton(sp.csr_matrix((d, d)))
            return self.plan_from_skeleton(np.zeros((d, d), dtype=bool))
        if d > self.dense_skeleton_limit:
            skeleton = sparse_correlation_skeleton(
                data, self.skeleton_threshold, self.skeleton_chunk_columns
            )
            strengths = skeleton if self.max_halo_size is not None else None
            return self.plan_from_skeleton(skeleton, strengths=strengths)
        strengths = _correlation_strengths(data)
        skeleton = _skeleton_from_strengths(strengths, self.skeleton_threshold)
        if self.max_halo_size is None:
            strengths = None  # never consulted: skip carrying the d×d matrix
        return self.plan_from_skeleton(skeleton, strengths=strengths)

    def plan_from_skeleton(self, skeleton, strengths=None) -> ShardPlan:
        """Build a plan from a precomputed skeleton matrix.

        Parameters
        ----------
        skeleton:
            Symmetric ``d × d`` adjacency of the undirected skeleton — a
            dense boolean ndarray or a scipy sparse matrix whose stored
            non-zeros are the skeleton edges.
        strengths:
            Optional ``d × d`` non-negative affinity matrix (dense or
            sparse) used to rank halo candidates when :attr:`max_halo_size`
            trims them; defaults to the skeleton itself (every neighbor
            equally strong).
        """
        if sp.issparse(skeleton):
            skeleton = skeleton.tocsr()
            if skeleton.shape[0] != skeleton.shape[1]:
                raise ValidationError("skeleton must be a square matrix")
            skeleton.eliminate_zeros()
            n_skeleton_edges = int(sp.triu(skeleton, k=1).nnz)
        else:
            skeleton = np.asarray(skeleton, dtype=bool)
            if skeleton.ndim != 2 or skeleton.shape[0] != skeleton.shape[1]:
                raise ValidationError("skeleton must be a square matrix")
            n_skeleton_edges = int(np.count_nonzero(np.triu(skeleton, k=1)))
        d = skeleton.shape[0]
        if d == 0:
            raise ValidationError("cannot plan over zero nodes")

        neighbors = _neighbor_lists(skeleton)
        cores = self._cores(neighbors)
        blocks = [
            ShardBlock(
                index=index,
                core=tuple(int(node) for node in core),
                halo=tuple(
                    int(node)
                    for node in self._halo(neighbors, skeleton, strengths, core)
                ),
            )
            for index, core in enumerate(cores)
        ]
        return ShardPlan(
            n_nodes=d,
            blocks=blocks,
            n_skeleton_edges=n_skeleton_edges,
            skeleton_threshold=self.skeleton_threshold,
        )

    # -- internals --------------------------------------------------------------

    def _cores(self, neighbors: Sequence[Sequence[int]]) -> list[list[int]]:
        """Partition the nodes into cores: split large components, pack small."""
        chunks: list[list[int]] = []
        for component in _connected_components(neighbors):
            if len(component) <= self.max_block_size:
                chunks.append(component)
            else:
                chunks.extend(_split_chunks(component, self.max_block_size))

        if self.min_block_size <= 1:
            return chunks

        # Greedily pack undersized chunks together (largest first) until each
        # pack reaches min_block_size, never exceeding max_block_size.
        small = sorted(
            (c for c in chunks if len(c) < self.min_block_size), key=len, reverse=True
        )
        cores = [c for c in chunks if len(c) >= self.min_block_size]
        pack: list[int] = []
        for chunk in small:
            if pack and len(pack) + len(chunk) > self.max_block_size:
                cores.append(pack)
                pack = []
            pack = pack + chunk
            if len(pack) >= self.min_block_size:
                cores.append(pack)
                pack = []
        if pack:
            cores.append(pack)
        return cores

    def _halo(
        self,
        neighbors: Sequence[Sequence[int]],
        skeleton,
        strengths,
        core: Sequence[int],
    ) -> list[int]:
        """Skeleton neighborhood of ``core`` up to ``halo_depth`` hops."""
        if self.halo_depth == 0 or (
            self.max_halo_size is not None and self.max_halo_size == 0
        ):
            return []
        core_set = set(core)
        frontier = set(core)
        halo: set[int] = set()
        for _ in range(self.halo_depth):
            reached: set[int] = set()
            for node in frontier:
                reached.update(neighbors[node])
            frontier = reached - core_set - halo
            if not frontier:
                break
            halo |= frontier
        candidates = sorted(halo)
        if self.max_halo_size is None or len(candidates) <= self.max_halo_size:
            return candidates
        affinity = strengths if strengths is not None else skeleton
        core_idx = np.asarray(sorted(core_set))
        scores = _core_affinities(affinity, np.asarray(candidates), core_idx)
        # Stable argsort on the negated scores reproduces the old stable
        # descending sort exactly: ties keep ascending candidate order.
        order = np.argsort(-scores, kind="stable")
        return sorted(candidates[i] for i in order[: self.max_halo_size])
