"""Backend speed — the dense ``LEAST`` inner loop vs its pre-buffer oracle.

Regenerates ``BENCH_backend.json``: the same seeded ER-2 problems at
d ∈ {128, 512, 2048} solved twice, once with the library's ``LEAST`` (its
spectral bound, loss and Adam step run on reused buffers) and once with
``OracleLEAST`` from ``tests/_dense_oracle.py``, the allocate-per-call loop
it replaced.  Both arms run under ``inner_convergence_tol = 0.0`` so they
execute the *same number of inner iterations* and the wall-clock ratio
(oracle over library) is a pure per-iteration cost comparison.

Parity is asserted in-run at every size: weights, run logs and iteration
counts must be bitwise equal.  ``benchmarks/baselines.json`` gates
``parity_ok``, the per-row edge sets and ``max_abs_diff``, and sanity floors
on ``speedup_at_512`` and ``speedup_at_2048``.

The ``sparse`` rows time LEAST-SP (``"least_sparse"``) at d ∈ {1024, 4096}
on a per-node correlation support: the support's ``nnz``, seconds per inner
iteration of a fixed-budget solve, and seconds per call of the spectral
bound with its gradient.  Each row also checks, in-run, that the sparse
bound matches the dense bound on the densified support (value to rel 1e-12,
gradient to atol 1e-9); ``sparse_parity_ok`` is gated.  The d = 4096 check
holds a handful of dense ``d × d`` float arrays at once (about 1.5 GB).

Run as a script (``python benchmarks/bench_backend_speed.py``) or through
pytest (``pytest benchmarks/bench_backend_speed.py -s``).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # direct `python benchmarks/bench_backend_speed.py`
    for entry in (str(_REPO_ROOT / "src"), str(_REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
if str(_REPO_ROOT / "tests") not in sys.path:  # the dense oracle lives there
    sys.path.insert(0, str(_REPO_ROOT / "tests"))

import numpy as np

from benchmarks.helpers import append_bench_history, make_problem, print_table
from _dense_oracle import OracleLEAST
from repro.core.acyclicity import SpectralAcyclicityBound
from repro.core.least import LEAST, LEASTConfig
from repro.core.least_sparse import SparseLEAST, SparseLEASTConfig, correlation_support
from repro.utils.timer import Timer

#: Per-size scenario: sample count and iteration budget shrink as d grows so
#: the whole module stays in CI-friendly wall-clock territory while each arm
#: still runs enough inner iterations for the ratio to be stable.
SIZES = {
    128: {"samples_per_node": 10, "batch_size": None, "outer": 2, "inner": 60},
    512: {"samples_per_node": 5, "batch_size": 512, "outer": 2, "inner": 40},
    2048: {"samples_per_node": 2, "batch_size": 256, "outer": 1, "inner": 10},
}
#: Shared solver hyper-parameters.  ``inner_convergence_tol = 0.0`` disables
#: the early stop so both arms run their full budget — equal iteration
#: counts, asserted below, make the timing ratio per-iteration cost.
BASE_CONFIG = {
    "threshold": 0.1,
    "tolerance": 1e-8,
    "inner_convergence_tol": 0.0,
}
#: LEAST-SP rows: one fixed-budget solve per size on a correlation support.
#: ``threshold = 0`` keeps the support (and so ``nnz``) fixed for the whole
#: solve, and ``inner_convergence_tol = 0`` runs every inner iteration.
SPARSE_SIZES = {
    1024: {"samples_per_node": 1, "inner": 40},
    4096: {"samples_per_node": 1, "inner": 20},
}
SPARSE_CONFIG = {
    "support": "correlation",
    "support_max_parents": 6,
    "batch_size": 256,
    "threshold": 0.0,
    "inner_convergence_tol": 0.0,
    "max_outer_iterations": 1,
}
#: Calls timed per size for the per-call bound seconds (median).
N_BOUND_CALLS = 15
#: Timed runs per arm (best-of); the 2048 row runs once.
N_REPEATS = 2
OUTPUT_PATH = _REPO_ROOT / "BENCH_backend.json"


def _solve(solver_class, data: np.ndarray, config: LEASTConfig, seed: int):
    """One timed solve; returns (result, best-of-N seconds)."""
    repeats = N_REPEATS if data.shape[1] < 2048 else 1
    best = float("inf")
    result = None
    for _ in range(repeats):
        solver = solver_class(config)
        with Timer() as timer:
            result = solver.fit(data, seed=seed)
        best = min(best, timer.elapsed)
    return result, best


def run_size(n_nodes: int, scenario: dict) -> dict:
    """Oracle vs library on one seeded problem; bitwise parity asserted."""
    _, data = make_problem(
        "ER-2", n_nodes, "gaussian", seed=n_nodes,
        samples_per_node=scenario["samples_per_node"],
    )
    config = LEASTConfig(
        **BASE_CONFIG,
        batch_size=scenario["batch_size"],
        max_outer_iterations=scenario["outer"],
        max_inner_iterations=scenario["inner"],
    )
    oracle, oracle_seconds = _solve(OracleLEAST, data, config, seed=7)
    least, least_seconds = _solve(LEAST, data, config, seed=7)

    max_abs_diff = float(np.abs(oracle.weights - least.weights).max())
    oracle_objective = float(oracle.log.last("loss", 0.0))
    least_objective = float(least.log.last("loss", 0.0))
    objective_rel_diff = abs(oracle_objective - least_objective) / max(
        abs(oracle_objective), 1e-12
    )
    edge_sets_equal = bool(np.array_equal(oracle.weights != 0.0, least.weights != 0.0))
    bitwise_equal = bool(
        np.array_equal(oracle.weights, least.weights)
        and list(oracle.log) == list(least.log)
        and oracle.n_inner_iterations == least.n_inner_iterations
        and oracle.n_outer_iterations == least.n_outer_iterations
    )
    assert bitwise_equal, f"d={n_nodes}: LEAST drifted from the oracle (max |dW| {max_abs_diff:g})"

    return {
        "n_nodes": n_nodes,
        "n_samples": int(data.shape[0]),
        "batch_size": scenario["batch_size"],
        "n_inner_iterations": int(least.n_inner_iterations),
        "oracle_seconds": oracle_seconds,
        "least_seconds": least_seconds,
        "speedup": oracle_seconds / max(least_seconds, 1e-9),
        "max_abs_diff": max_abs_diff,
        "objective_rel_diff": objective_rel_diff,
        "edge_sets_equal": edge_sets_equal,
        "bitwise_equal": bitwise_equal,
    }


def run_sparse_size(n_nodes: int, scenario: dict) -> dict:
    """LEAST-SP cost at one size, with sparse-vs-dense bound parity checked.

    The correlation support is built once, outside the timings: the solve
    starts from it and the per-call bound timing runs on it.
    """
    _, data = make_problem(
        "ER-2", n_nodes, "gaussian", seed=n_nodes,
        samples_per_node=scenario["samples_per_node"],
    )
    support = correlation_support(
        data, max_parents=SPARSE_CONFIG["support_max_parents"],
        rng=np.random.default_rng(7),
    )
    solver = SparseLEAST(
        SparseLEASTConfig(**SPARSE_CONFIG, max_inner_iterations=scenario["inner"])
    )
    with Timer() as timer:
        result = solver.fit(data, seed=7, initial_support=support)
    solve_seconds = timer.elapsed

    bound = SpectralAcyclicityBound(k=solver.config.k, alpha=solver.config.alpha)
    call_seconds = []
    for _ in range(N_BOUND_CALLS):
        with Timer() as timer:
            sparse_value, sparse_gradient = bound.value_and_gradient(support)
        call_seconds.append(timer.elapsed)

    # Off the support the dense gradient is exactly 0 (it is 2 ∇_S δ ∘ W), so
    # subtracting the sparse entries in place leaves the whole difference.
    dense_value, dense_gradient = bound.value_and_gradient(support.toarray())
    coo = sparse_gradient.tocoo()
    dense_gradient[coo.row, coo.col] -= coo.data
    gradient_max_abs_diff = float(np.abs(dense_gradient).max())
    del dense_gradient
    value_rel_diff = abs(sparse_value - dense_value) / max(abs(dense_value), 1e-300)
    sparse_parity_ok = bool(value_rel_diff <= 1e-12 and gradient_max_abs_diff <= 1e-9)
    assert sparse_parity_ok, (
        f"d={n_nodes}: sparse bound drifted from dense "
        f"(value rel {value_rel_diff:g}, gradient abs {gradient_max_abs_diff:g})"
    )
    return {
        "n_nodes": n_nodes,
        "n_samples": int(data.shape[0]),
        "batch_size": SPARSE_CONFIG["batch_size"],
        "nnz": int(support.nnz),
        "n_inner_iterations": int(result.n_inner_iterations),
        "solve_seconds": solve_seconds,
        "seconds_per_inner_iteration": solve_seconds / max(result.n_inner_iterations, 1),
        "bound_seconds_per_call": float(np.median(call_seconds)),
        "value_rel_diff": value_rel_diff,
        "gradient_max_abs_diff": gradient_max_abs_diff,
        "sparse_parity_ok": sparse_parity_ok,
    }


def main() -> dict:
    """Run every size, assert parity, write ``BENCH_backend.json``."""
    per_size = {f"d{n}": run_size(n, scenario) for n, scenario in SIZES.items()}
    sparse = {f"d{n}": run_sparse_size(n, scenario) for n, scenario in SPARSE_SIZES.items()}

    parity_ok = all(row["bitwise_equal"] for row in per_size.values())
    results = {
        "cpu_count": os.cpu_count(),
        "solver_config": dict(BASE_CONFIG),
        "results": per_size,
        "speedup_at_128": per_size["d128"]["speedup"],
        "speedup_at_512": per_size["d512"]["speedup"],
        "speedup_at_2048": per_size["d2048"]["speedup"],
        "parity_ok": parity_ok,
        "sparse_config": dict(SPARSE_CONFIG),
        "sparse": sparse,
        "sparse_parity_ok": all(row["sparse_parity_ok"] for row in sparse.values()),
    }

    print_table(
        "repro.core.least vs the pre-buffer oracle loop",
        ["d", "inner iters", "oracle", "least", "speedup", "max |dW|"],
        [
            [
                row["n_nodes"],
                row["n_inner_iterations"],
                f"{row['oracle_seconds']:.3f}s",
                f"{row['least_seconds']:.3f}s",
                f"{row['speedup']:.2f}x",
                f"{row['max_abs_diff']:.2e}",
            ]
            for row in per_size.values()
        ],
    )

    print_table(
        "repro.core.least_sparse on a correlation support",
        ["d", "nnz", "inner iters", "s / inner iter", "bound s / call", "parity"],
        [
            [
                row["n_nodes"],
                row["nnz"],
                row["n_inner_iterations"],
                f"{row['seconds_per_inner_iteration'] * 1e3:.2f}ms",
                f"{row['bound_seconds_per_call'] * 1e3:.2f}ms",
                "ok" if row["sparse_parity_ok"] else "FAIL",
            ]
            for row in sparse.values()
        ],
    )

    OUTPUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    history = append_bench_history("backend", results)
    print(f"appended history row to {history}")
    return results


def test_backend_speed_benchmark(benchmark):
    """Pytest entry point (used by CI to regenerate the artifact)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    main()


if __name__ == "__main__":
    main()
