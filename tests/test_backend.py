"""Tests for repro.core.backend: the protocol, the factory, the live registry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backend import (
    BackendSpec,
    LEASTBackend,
    NOTEARSBackend,
    SolveResult,
    SolverBackend,
    SparseLEASTBackend,
    get_spec,
    make_solver,
    register_backend,
    solver_names,
    unregister_backend,
)
from repro.core.least import LEASTConfig
from repro.exceptions import SoftDeadlineExceeded, ValidationError

FAST = {"max_outer_iterations": 2, "max_inner_iterations": 25}


@pytest.fixture
def data() -> np.ndarray:
    rng = np.random.default_rng(11)
    x = rng.normal(size=(80, 6))
    x[:, 1] += 0.8 * x[:, 0]
    return x


class TestProtocolAndFactory:
    def test_builtin_backends_satisfy_protocol(self):
        for name in ("least", "least_sparse", "notears"):
            assert isinstance(make_solver(name), SolverBackend)

    def test_make_solver_applies_overrides(self):
        backend = make_solver("least", **FAST)
        assert backend.config.max_outer_iterations == 2
        assert backend.name == "least"

    def test_make_solver_accepts_config_instance_plus_overrides(self):
        config = LEASTConfig(max_outer_iterations=9)
        backend = make_solver("least", config=config, max_inner_iterations=7)
        assert backend.config.max_outer_iterations == 9
        assert backend.config.max_inner_iterations == 7

    def test_unknown_name_and_bad_override_raise(self):
        with pytest.raises(ValidationError):
            make_solver("leest")
        with pytest.raises(ValidationError):
            make_solver("least", no_such_option=1)

    def test_dense_fit_returns_dense_solve_result(self, data):
        result = make_solver("least", **FAST).fit(data, rng=0)
        assert isinstance(result, SolveResult)
        assert not result.is_sparse
        assert result.n_edges == np.count_nonzero(result.weights)
        assert sp.issparse(result.sparse_weights())

    def test_sparse_fit_returns_csr_solve_result(self, data):
        backend = make_solver(
            "least_sparse", support="correlation", support_max_parents=3, **FAST
        )
        result = backend.fit(data, rng=0)
        assert result.is_sparse
        assert result.solver == "least_sparse"
        assert result.dense_weights().shape == (6, 6)
        assert result.telemetry["n_support_entries"] == result.weights.nnz

    def test_deadline_hooks_called_each_outer_iteration(self, data):
        calls: list[int] = []
        result = make_solver("least", **FAST).fit(
            data, rng=0, deadline_hooks=[lambda: calls.append(1)]
        )
        assert len(calls) == result.n_outer_iterations

    def test_deadline_hook_can_abort_the_solve(self, data):
        class Abort(RuntimeError):
            pass

        def bomb():
            raise Abort()

        with pytest.raises(Abort):
            make_solver("least", **FAST).fit(data, rng=0, deadline_hooks=[bomb])

    def test_soft_deadline_raises_at_first_outer_boundary(self, data):
        seen: list[int] = []

        def hook():
            seen.append(1)
            raise SoftDeadlineExceeded("budget spent")

        with pytest.raises(SoftDeadlineExceeded):
            make_solver("least", **FAST).fit(data, rng=0, deadline_hooks=[hook])
        assert len(seen) == 1  # aborted at the first boundary, not later

    def test_notears_rejects_init_weights(self, data):
        with pytest.raises(ValidationError):
            make_solver("notears").fit(data, init_weights=np.zeros((6, 6)))

    def test_dense_backend_accepts_sparse_init(self, data):
        init = sp.csr_matrix(([0.3], ([0], [1])), shape=(6, 6))
        result = make_solver("least", **FAST).fit(data, rng=0, init_weights=init)
        assert not result.is_sparse

    def test_sparse_backend_accepts_dense_init(self, data):
        init = np.zeros((6, 6))
        init[0, 1] = 0.3
        result = make_solver("least_sparse", **FAST).fit(data, rng=0, init_weights=init)
        assert result.is_sparse


class TestSpecs:
    def test_builtin_spec_flags(self):
        assert get_spec("least").sparse is False
        assert get_spec("least_sparse").sparse is True
        assert get_spec("notears").supports_init_weights is False

    def test_backend_classes_advertise_names(self):
        assert LEASTBackend.name == "least"
        assert SparseLEASTBackend.name == "least_sparse"
        assert NOTEARSBackend.name == "notears"


@dataclass(frozen=True)
class _EchoConfig:
    value: float = 1.0


class _EchoBackend:
    """A custom backend: returns a fixed single-edge result."""

    name = "echo"

    def __init__(self, config: _EchoConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        d = data.shape[1]
        weights = np.zeros((d, d))
        weights[0, -1] = self.config.value
        return SolveResult(
            solver=self.name,
            weights=weights,
            constraint_value=0.0,
            converged=True,
            n_outer_iterations=1,
        )


_ECHO = BackendSpec(name="echo", backend_class=_EchoBackend, config_class=_EchoConfig)


class TestLiveRegistry:
    """The registry is reflected on every access."""

    def test_register_unregister_reflected_everywhere(self):
        from repro.serve import solver_names as serve_solver_names

        before = solver_names()
        assert "echo" not in before
        register_backend(_ECHO)
        try:
            assert "echo" in solver_names()
            assert "echo" in serve_solver_names()
        finally:
            unregister_backend("echo")
        assert solver_names() == before

    def test_cli_help_lists_live_registry(self):
        from repro.serve.cli import build_parser, build_shard_parser

        register_backend(_ECHO)
        try:
            assert "echo" in build_parser().description
            shard_parser = build_shard_parser()
            solver_action = next(
                a for a in shard_parser._actions if a.dest == "solver"
            )
            assert "echo" in solver_action.help
        finally:
            unregister_backend("echo")

    def test_legacy_backend_fits_through_factory(self, data):
        # A custom (non-built-in) backend is built from its config overrides.
        register_backend(_ECHO)
        try:
            result = make_solver("echo", value=2.5).fit(data)
            assert isinstance(result, SolveResult)
            assert result.weights[0, -1] == 2.5
            assert result.solver == "echo"
        finally:
            unregister_backend("echo")

    def test_duplicate_registration_requires_overwrite(self):
        register_backend(_ECHO)
        try:
            with pytest.raises(ValidationError):
                register_backend(_ECHO)
            register_backend(_ECHO, overwrite=True)
        finally:
            unregister_backend("echo")

    def test_register_backend_spec_directly(self, data):
        spec = BackendSpec(
            name="least-again", backend_class=LEASTBackend, config_class=LEASTConfig
        )
        register_backend(spec)
        try:
            assert "least-again" in solver_names()
            result = make_solver("least-again", **FAST).fit(data, rng=0)
            assert isinstance(result, SolveResult)
        finally:
            unregister_backend("least-again")


class TestJobIntegration:
    def test_job_validates_against_live_registry(self, data):
        from repro.serve.job import LearningJob

        with pytest.raises(ValidationError):
            LearningJob(solver="echo", data=data)
        register_backend(_ECHO)
        try:
            job = LearningJob(solver="echo", data=data)
            assert job.build_backend().name == "echo"
        finally:
            unregister_backend("echo")

    def test_execute_job_runs_sparse_backend(self, data):
        from repro.serve.job import LearningJob, execute_job

        result = execute_job(
            LearningJob(solver="least_sparse", data=data, config=dict(FAST))
        )
        assert result.status == "ok"
        assert sp.issparse(result.weights)

    def test_execute_job_runs_dense_backend(self, data):
        from repro.serve.job import LearningJob, execute_job

        result = execute_job(LearningJob(solver="least", data=data, config=dict(FAST)))
        assert result.status == "ok"
        assert result.weights.shape == (6, 6)

    def test_soft_deadline_preempts_dense_job(self, data):
        from repro.serve.job import LearningJob, execute_job

        def hook():
            raise SoftDeadlineExceeded("budget spent")

        job = LearningJob(solver="least", data=data, config=dict(FAST))
        with pytest.raises(SoftDeadlineExceeded):
            execute_job(job, deadline_hooks=[hook])
