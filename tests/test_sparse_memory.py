"""Peak-memory gate of the sparse serving path: no dense ``d × d``, ever.

The acceptance contract of the CSR-end-to-end pipeline is that planning,
block solving, stitching, and warm-start alignment of a ``least_sparse``
problem never materialize a dense ``d × d`` matrix.  These tests enforce it
with a :mod:`tracemalloc` peak-allocation budget set *below the size of one
dense matrix*: at ``d = 2048`` a single float64 densification costs 32 MiB,
so any regression that densifies along the sparse path blows the budget and
fails loudly.  (numpy and scipy route array buffers through the traced
Python allocator, so tracemalloc sees them.)

The sharded solve runs inline (one worker, no deadline) so every allocation
happens in this process, under the tracer.  One call of the sparse loss is
gated on its own: it must hold ``O(B·d)`` plus a chunk of gathered rows,
not the two ``B × nnz`` gathers it once made.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.least_sparse import correlation_support
from repro.core.losses import _GATHER_BYTES, LeastSquaresLoss
from repro.graph.dag import is_dag
from repro.serve.warm_start import WarmStartState, prepare_init
from repro.shard import ShardExecutor, ShardPlanner

D_NODES = 2048
N_COMPONENTS = 32
N_SAMPLES = 120
DENSE_MATRIX_BYTES = D_NODES * D_NODES * 8  # one float64 d×d: 32 MiB

#: Peak tracemalloc budget for the full plan→solve→stitch pass.  Set below
#: one dense d×d so a single accidental densification fails the test, with
#: headroom above the honest peak (~8 MiB) so the test is not flaky.
SOLVE_BUDGET_BYTES = 24 * 1024 * 1024
#: Alignment/damping of a carried CSR solution is O(nnz): tiny budget.
ALIGN_BUDGET_BYTES = 8 * 1024 * 1024


def _chain_problem(seed: int = 0) -> np.ndarray:
    """2048 columns in 32 independent chains — cheap, strongly correlated."""
    rng = np.random.default_rng(seed)
    per = D_NODES // N_COMPONENTS
    columns = []
    for _ in range(N_COMPONENTS):
        x = rng.normal(size=(N_SAMPLES, per))
        for i in range(1, per):
            x[:, i] += 0.8 * x[:, i - 1]
        columns.append(x)
    return np.hstack(columns)


@pytest.fixture(scope="module")
def chain_data() -> np.ndarray:
    """The shared 2048-node sample matrix (built outside the tracer)."""
    return _chain_problem()


def test_sparse_sharded_solve_stays_under_memory_budget(chain_data):
    """Plan (chunked skeleton) + solve + stitch at d=2048 stays O(edges)."""
    planner = ShardPlanner(
        skeleton_threshold=0.3,
        max_block_size=64,
        min_block_size=8,
        max_halo_size=4,
        dense_skeleton_limit=512,
        skeleton_chunk_columns=256,
    )
    executor = ShardExecutor(
        solver="least_sparse",
        config={
            "max_outer_iterations": 2,
            "max_inner_iterations": 15,
            "batch_size": 64,
            "support_max_parents": 4,
        },
        edge_threshold=0.1,
    )

    tracemalloc.start()
    try:
        plan = planner.plan(chain_data)
        result = executor.run(chain_data, plan, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert sp.issparse(result.weights), "sparse solver must stitch to CSR"
    assert is_dag(result.weights)
    assert result.n_blocks_ok == plan.n_blocks
    assert peak < SOLVE_BUDGET_BYTES, (
        f"sparse sharded solve peaked at {peak / 2**20:.1f} MiB, over the "
        f"{SOLVE_BUDGET_BYTES / 2**20:.0f} MiB budget (one dense d×d is "
        f"{DENSE_MATRIX_BYTES / 2**20:.0f} MiB — something densified)"
    )


def test_sparse_warm_start_alignment_stays_sparse_and_small():
    """Aligning a 2048-node CSR solution across vocabularies is O(nnz)."""
    rng = np.random.default_rng(3)
    rows = rng.integers(0, D_NODES, size=4000)
    cols = rng.integers(0, D_NODES, size=4000)
    keep = rows != cols
    weights = sp.csr_matrix(
        (rng.normal(size=keep.sum()), (rows[keep], cols[keep])),
        shape=(D_NODES, D_NODES),
    )
    source = [f"n{i}" for i in range(D_NODES)]
    # Shift the vocabulary: drop 100 nodes, add 100 new ones.
    target = source[100:] + [f"new{i}" for i in range(100)]
    state = WarmStartState(weights=weights, node_names=source)

    tracemalloc.start()
    try:
        init = prepare_init(
            state, target, damping=0.5, threshold=1e-3, representation="sparse"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert sp.issparse(init)
    assert init.shape == (D_NODES, D_NODES)
    assert peak < ALIGN_BUDGET_BYTES, (
        f"CSR warm-start alignment peaked at {peak / 2**20:.1f} MiB — "
        "the sparse path must never densify"
    )


def test_loss_memory_is_bounded_by_the_batch_not_the_support():
    """One call holds O(B·d) plus a chunk of gathered rows, never B × nnz.

    At d = 1024 with a six-parent correlation support (nnz 6,144) and
    B = 256, two B × nnz gathers would take 25 MB; the batch is 2 MB.
    """
    rng = np.random.default_rng(0)
    data = rng.normal(size=(1024, 1024))
    weights = correlation_support(data, max_parents=6, rng=rng)
    batch = data[:256]
    n_samples, d = batch.shape
    assert weights.nnz >= 6000
    loss = LeastSquaresLoss(l1_penalty=0.05)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss.sparse_value_and_gradient(weights, batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    batch_bytes = 8 * n_samples * d
    gathers_bytes = 2 * 8 * n_samples * weights.nnz
    assert peak <= 4 * batch_bytes + 2 * _GATHER_BYTES
    assert peak < gathers_bytes / 2
