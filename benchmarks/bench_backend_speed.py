"""Backend speed — the fused ``least_fast`` inner loop vs the reference.

Regenerates ``BENCH_backend.json``: the same seeded ER-2 problems at
d ∈ {128, 512, 2048} solved twice, once with the reference ``"least"``
backend and once with the fused ``"least_fast"`` backend (numba-JIT when the
package is importable, buffered numpy otherwise — the artifact records which
via ``jit_backend``).  Both arms run under ``inner_convergence_tol = 0.0`` so
they execute the *same number of inner iterations* and the wall-clock ratio
is a pure per-iteration cost comparison; JIT compilation happens once in
``warmup_jit()`` before any timing.

Parity is asserted in-run at every size: the two weight matrices must agree
within tight tolerance (bitwise on the numpy fallback), objectives must
match relatively, and the in-loop-thresholded edge sets must be identical.
``benchmarks/baselines.json`` gates ``parity_ok`` and ``speedup_at_512`` —
the latter with a ≥ 3× floor conditional on ``numba_available`` (the CI
runners install numba; hosts without it measure the fallback) next to an
unconditional sanity floor for the fallback.

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

import numpy as np

from benchmarks.helpers import append_bench_history, make_problem, print_table
from repro.core.acyclicity import SpectralAcyclicityBound
from repro.core.backend import make_solver
from repro.core.least_fast import numba_available, warmup_jit
from repro.core.least_sparse import SparseLEAST, SparseLEASTConfig, correlation_support
from repro.utils.timer import Timer

#: Per-size scenario: sample count and iteration budget shrink as d grows so
#: the whole module stays in CI-friendly wall-clock territory while each arm
#: still runs enough fused iterations for the ratio to be stable.
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


def _solve(solver_name: str, data: np.ndarray, config: dict, seed: int):
    """One timed solve; returns (result, best-of-N seconds)."""
    repeats = N_REPEATS if data.shape[1] < 2048 else 1
    best = float("inf")
    result = None
    for _ in range(repeats):
        backend = make_solver(solver_name, **config)
        with Timer() as timer:
            result = backend.fit(data, rng=seed)
        best = min(best, timer.elapsed)
    return result, best


def run_size(n_nodes: int, scenario: dict) -> dict:
    """Reference vs fast on one seeded problem; parity asserted."""
    _, data = make_problem(
        "ER-2", n_nodes, "gaussian", seed=n_nodes,
        samples_per_node=scenario["samples_per_node"],
    )
    config = dict(
        BASE_CONFIG,
        batch_size=scenario["batch_size"],
        max_outer_iterations=scenario["outer"],
        max_inner_iterations=scenario["inner"],
    )
    ref, ref_seconds = _solve("least", data, config, seed=7)
    fast, fast_seconds = _solve("least_fast", data, config, seed=7)

    max_abs_diff = float(np.abs(ref.weights - fast.weights).max())
    ref_objective = float(ref.log.last("loss", 0.0))
    fast_objective = float(fast.log.last("loss", 0.0))
    objective_rel_diff = abs(ref_objective - fast_objective) / max(
        abs(ref_objective), 1e-12
    )
    edge_sets_equal = bool(
        np.array_equal(ref.weights != 0.0, fast.weights != 0.0)
    )
    iterations_match = (
        ref.n_inner_iterations == fast.n_inner_iterations
        and ref.n_outer_iterations == fast.n_outer_iterations
    )

    # Parity, asserted every run: tight on weights (bitwise on the numpy
    # fallback, ulp-drift headroom for the reordered numba kernels), exact on
    # the in-loop-thresholded edge set.
    assert iterations_match, (
        f"d={n_nodes}: iteration counts diverged "
        f"({ref.n_inner_iterations} vs {fast.n_inner_iterations})"
    )
    assert max_abs_diff < 1e-6, f"d={n_nodes}: max |dW| {max_abs_diff:g}"
    assert objective_rel_diff < 1e-8, (
        f"d={n_nodes}: objective drift {objective_rel_diff:g}"
    )
    assert edge_sets_equal, f"d={n_nodes}: thresholded edge sets differ"

    return {
        "n_nodes": n_nodes,
        "n_samples": int(data.shape[0]),
        "batch_size": scenario["batch_size"],
        "n_inner_iterations": int(ref.n_inner_iterations),
        "ref_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "speedup": ref_seconds / max(fast_seconds, 1e-9),
        "max_abs_diff": max_abs_diff,
        "objective_rel_diff": objective_rel_diff,
        "edge_sets_equal": edge_sets_equal,
        "jit_backend": fast.telemetry.get("jit_backend", "unknown"),
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
    jit_compiled = warmup_jit()  # one-time numba compile, outside the timings
    per_size = {f"d{n}": run_size(n, scenario) for n, scenario in SIZES.items()}
    sparse = {f"d{n}": run_sparse_size(n, scenario) for n, scenario in SPARSE_SIZES.items()}

    parity_ok = all(
        row["max_abs_diff"] < 1e-6 and row["edge_sets_equal"]
        for row in per_size.values()
    )
    results = {
        "cpu_count": os.cpu_count(),
        "numba_available": numba_available(),
        "jit_compiled": jit_compiled,
        "jit_backend": per_size["d512"]["jit_backend"],
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
        f"repro.core.least_fast vs least ({results['jit_backend']} kernels)",
        ["d", "inner iters", "ref", "fast", "speedup", "max |dW|"],
        [
            [
                row["n_nodes"],
                row["n_inner_iterations"],
                f"{row['ref_seconds']:.3f}s",
                f"{row['fast_seconds']:.3f}s",
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
