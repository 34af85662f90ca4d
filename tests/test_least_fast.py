"""The buffered dense LEAST loop behind the ``"least"`` backend.

``"least"`` runs the buffered inner loop (a mat-vec spectral bound, an
in-place loss and Adam step).  These tests drive it through the backend
factory: deadline hooks fire once per outer iteration, fits agree bit for
bit with the allocate-per-call reference in ``_dense_oracle``, and the
scheduler still escalates large windows to the sparse backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from _dense_oracle import OracleLEAST
from repro.core.backend import make_solver
from repro.core.least import LEASTConfig
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem

FAST = {"max_outer_iterations": 2, "max_inner_iterations": 25}


def make_problem(spec: str, n_nodes: int, seed: int) -> np.ndarray:
    truth = random_dag(spec, n_nodes, seed=seed)
    return simulate_linear_sem(truth, 10 * n_nodes, seed=seed + 1)


@pytest.fixture
def data() -> np.ndarray:
    return make_problem("ER-2", 20, seed=3)


class TestParity:
    """``make_solver("least")`` reproduces the reference loop exactly."""

    @pytest.mark.parametrize("seed, spec", [(0, "ER-2")])
    def test_edge_sets_and_objectives_match(self, seed, spec):
        data = make_problem(spec, 25, seed=10 + seed)
        config = dict(max_outer_iterations=3, max_inner_iterations=60, threshold=0.05)
        result = make_solver("least", **config).fit(data, rng=seed)
        expected = OracleLEAST(LEASTConfig(**config)).fit(data, seed=seed)
        assert result.n_outer_iterations == expected.n_outer_iterations
        assert result.n_inner_iterations == expected.n_inner_iterations
        # The in-loop threshold snaps small entries to exact zero, so the
        # learned edge sets must be identical.
        assert np.array_equal(result.weights != 0.0, expected.weights != 0.0)
        assert result.log.last("loss", None) is not None
        assert result.log.last("loss", None) == expected.log.last("loss", None)

    def test_fallback_is_bitwise_identical(self, data):
        config = dict(max_outer_iterations=3, max_inner_iterations=50, threshold=0.05)
        result = make_solver("least", **config).fit(data, rng=2)
        expected = OracleLEAST(LEASTConfig(**config)).fit(data, seed=2)
        assert np.array_equal(result.weights, expected.weights)


class TestDeadlinePaths:
    def test_hooks_fire_each_outer_iteration(self, data):
        calls: list[int] = []
        result = make_solver("least", **FAST).fit(
            data, rng=0, deadline_hooks=[lambda: calls.append(1)]
        )
        assert len(calls) == result.n_outer_iterations


class TestSchedulerPreferFast:
    def test_sparse_escalation_still_wins(self):
        from repro.serve.scheduler import RelearnScheduler

        scheduler = RelearnScheduler(sparse_vocabulary_threshold=100)
        assert scheduler._effective_solver(500) == "least_sparse"
        assert scheduler._effective_solver(100) == "least_sparse"
        assert scheduler._effective_solver(50) == "least"
