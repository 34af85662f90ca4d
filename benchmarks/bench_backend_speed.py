"""Backend speed — the dense ``LEAST`` inner loop vs its pre-buffer oracle.

Regenerates ``BENCH_backend.json``: the same seeded ER-2 problems at
d ∈ {128, 512, 2048} solved twice, once with the library's ``LEAST`` (its
loss and Adam step run on reused buffers) and once with ``OracleLEAST``
from ``tests/_dense_oracle.py``, the allocate-per-call loop it replaced.
Both arms compute the spectral bound from matrix-vector products with
``S = W ∘ W``.  Both run under ``inner_convergence_tol = 0.0`` so they
execute the *same number of inner iterations* and the wall-clock ratio
(oracle over library) is a pure per-iteration cost comparison.

Every row also times the dense bound per call on a dense random ``W``:
``bound_speedup`` is the seconds of the oracle's level-stack form
(``direct_bound_value_and_gradient``, which builds every ``S^(j)``) over the
library's.  ``bound_parity_ok`` checks in-run that the two forms agree on
that ``W`` and on the learned weights (value and gradient to rel 1e-12).
Both are gated.

Parity is asserted in-run at every size: weights, run logs and iteration
counts must be bitwise equal.  ``benchmarks/baselines.json`` gates
``parity_ok``, the per-row edge sets and ``max_abs_diff``, and sanity floors
on ``speedup_at_512`` and ``speedup_at_2048``.

Each row records its ``loss_form``.  The d = 128 row is full batch with
d ≤ 1.5n, so both arms take the loss from the column means and centred Gram
matrix of ``X`` (the Gram form of ``repro.core.losses``).  That row also
times ``DirectOracleLEAST``, the reference loop computing the loss from the
samples on every call: ``gram_speedup`` is its time over the library's
``LEAST``, so a slower Gram path in the library lowers it.  The row checks
in-run that the two forms agree per call (value and gradient to rel 1e-10)
as ``gram_parity_ok``.  Both are gated.

The ``sparse`` rows time LEAST-SP (``"least_sparse"``) at d ∈ {64, 1024,
4096} on a per-node correlation support: the support's ``nnz``, seconds per
inner iteration of a fixed-budget solve, and seconds per call of the
spectral bound with its gradient and of the sparse loss with its gradient
(on the first B rows, without a prepared support).  The d = 64 row is a shard block: at that
size an inner iteration costs numpy and scipy call overhead more than
arithmetic, and with n = 320 > B = 256 every batch is sampled.  Each row
also checks, in-run, that the sparse bound matches the dense bound on the
densified support (value to rel 1e-12, gradient to atol 1e-9);
``sparse_parity_ok`` is gated, and so is every row's
``seconds_per_inner_iteration``.  The d = 4096 check holds a handful of
dense ``d × d`` float arrays at once (about 1.5 GB).

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
from _dense_oracle import DirectOracleLEAST, OracleLEAST, direct_bound_value_and_gradient
from repro.core.acyclicity import SpectralAcyclicityBound
from repro.core.least import LEAST, LEASTConfig
from repro.core.losses import LeastSquaresLoss, full_batch_moments
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
    64: {"samples_per_node": 5, "inner": 400},
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
#: Tolerance of the per-call Gram-vs-direct loss check (value and gradient,
#: relative to the direct form's largest magnitude).
GRAM_REL_TOL = 1e-10
#: Calls timed per size for the per-call bound and loss seconds (median).
N_BOUND_CALLS = 15
#: Calls timed per arm for the dense per-call bound seconds (median); the
#: level-stack form takes about 1.4 s per call at d = 2048.
N_DENSE_BOUND_CALLS = 5
#: Tolerance of the per-call mat-vec-vs-level-stack bound check (value
#: relative to itself, gradient relative to its largest entry).
BOUND_REL_TOL = 1e-12
#: Timed runs per arm (best-of); the 2048 row runs once.
N_REPEATS = 2
OUTPUT_PATH = _REPO_ROOT / "BENCH_backend.json"


def _solve(solver_type, data: np.ndarray, config: LEASTConfig, seed: int):
    """One timed solve; returns (result, best-of-N seconds)."""
    repeats = N_REPEATS if data.shape[1] < 2048 else 1
    best = float("inf")
    result = None
    for _ in range(repeats):
        solver = solver_type(config)
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

    moments = full_batch_moments(data, config.batch_size)
    row = {
        "loss_form": "direct" if moments is None else "gram",
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
        **_dense_bound_timing(config, least.weights),
    }
    assert row["bound_parity_ok"], (
        f"d={n_nodes}: mat-vec bound drifted from the level stack (rel {row['bound_max_rel_diff']:g})"
    )
    if moments is not None:
        _, direct_seconds = _solve(DirectOracleLEAST, data, config, seed=7)
        gram_max_rel_diff = _gram_max_rel_diff(data, moments, config, least.weights)
        row.update(
            direct_oracle_seconds=direct_seconds,
            gram_speedup=direct_seconds / max(least_seconds, 1e-9),
            gram_max_rel_diff=gram_max_rel_diff,
            gram_parity_ok=bool(gram_max_rel_diff <= GRAM_REL_TOL),
        )
        assert row["gram_parity_ok"], (
            f"d={n_nodes}: Gram-form loss drifted from the direct form (rel {gram_max_rel_diff:g})"
        )
    return row


def _median_seconds(call, repeats: int) -> float:
    seconds = []
    for _ in range(repeats):
        with Timer() as timer:
            call()
        seconds.append(timer.elapsed)
    return float(np.median(seconds))


def _dense_bound_timing(config: LEASTConfig, learned: np.ndarray) -> dict:
    """Per-call dense bound seconds, library against the level-stack form.

    Timed on a dense random ``W`` (every entry non-zero, the paper-dense
    case at threshold 0).  Parity is checked on it and on the learned
    weights: value relative to itself, gradient relative to its largest entry.
    """
    d = learned.shape[0]
    bound = SpectralAcyclicityBound(k=config.k, alpha=config.alpha)
    random = np.random.default_rng(1).normal(scale=1.0 / np.sqrt(d), size=(d, d))
    np.fill_diagonal(random, 0.0)
    worst = 0.0
    for weights in (random, learned):
        value, gradient = bound.value_and_gradient(weights)
        direct_value, direct_gradient = direct_bound_value_and_gradient(weights, config.k, config.alpha)
        worst = max(
            worst,
            abs(value - direct_value) / max(abs(direct_value), 1e-300),
            float(np.abs(gradient - direct_gradient).max())
            / max(float(np.abs(direct_gradient).max()), 1e-300),
        )
    library_seconds = _median_seconds(lambda: bound.value_and_gradient(random), N_DENSE_BOUND_CALLS)
    direct_seconds = _median_seconds(
        lambda: direct_bound_value_and_gradient(random, config.k, config.alpha), N_DENSE_BOUND_CALLS
    )
    return {
        "bound_library_seconds": library_seconds,
        "bound_direct_seconds": direct_seconds,
        "bound_speedup": direct_seconds / max(library_seconds, 1e-9),
        "bound_max_rel_diff": worst,
        "bound_parity_ok": bool(worst <= BOUND_REL_TOL),
    }


def _gram_max_rel_diff(
    data: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray],
    config: LEASTConfig,
    learned: np.ndarray,
) -> float:
    """Largest relative gap between the two loss forms over a few ``W``.

    ``W`` is zero, a dense random matrix and the learned weights; each gap is
    relative to the direct form's largest magnitude (value or gradient).
    """
    loss = LeastSquaresLoss(l1_penalty=config.l1_penalty)
    d = data.shape[1]
    random = np.random.default_rng(0).normal(scale=0.3, size=(d, d))
    np.fill_diagonal(random, 0.0)
    worst = 0.0
    for weights in (np.zeros((d, d)), random, learned):
        value, gradient = loss.value_and_gradient(weights, data, moments)
        direct_value, direct_gradient = loss.value_and_gradient(weights, data)
        worst = max(
            worst,
            abs(value - direct_value) / max(abs(direct_value), 1e-300),
            float(np.abs(gradient - direct_gradient).max())
            / max(float(np.abs(direct_gradient).max()), 1e-300),
        )
    return worst


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
    loss = LeastSquaresLoss(l1_penalty=solver.config.l1_penalty)
    batch = data[: SPARSE_CONFIG["batch_size"]]
    loss_seconds = []
    for _ in range(N_BOUND_CALLS):
        with Timer() as timer:
            loss.sparse_value_and_gradient(support, batch)
        loss_seconds.append(timer.elapsed)

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
        "loss_seconds_per_call": float(np.median(loss_seconds)),
        "value_rel_diff": value_rel_diff,
        "gradient_max_abs_diff": gradient_max_abs_diff,
        "sparse_parity_ok": sparse_parity_ok,
    }


def main() -> dict:
    """Run every size, assert parity, write ``BENCH_backend.json``."""
    per_size = {f"d{n}": run_size(n, scenario) for n, scenario in SIZES.items()}
    sparse = {f"d{n}": run_sparse_size(n, scenario) for n, scenario in SPARSE_SIZES.items()}

    parity_ok = all(row["bitwise_equal"] for row in per_size.values())
    gram_rows = [row for row in per_size.values() if row["loss_form"] == "gram"]
    results = {
        "cpu_count": os.cpu_count(),
        "solver_config": dict(BASE_CONFIG),
        "results": per_size,
        "speedup_at_128": per_size["d128"]["speedup"],
        "speedup_at_512": per_size["d512"]["speedup"],
        "speedup_at_2048": per_size["d2048"]["speedup"],
        "parity_ok": parity_ok,
        "bound_speedup_at_128": per_size["d128"]["bound_speedup"],
        "bound_speedup_at_512": per_size["d512"]["bound_speedup"],
        "bound_speedup_at_2048": per_size["d2048"]["bound_speedup"],
        "bound_parity_ok": all(row["bound_parity_ok"] for row in per_size.values()),
        "gram_speedup_at_128": per_size["d128"]["gram_speedup"],
        "gram_parity_ok": bool(gram_rows) and all(row["gram_parity_ok"] for row in gram_rows),
        "sparse_config": dict(SPARSE_CONFIG),
        "sparse": sparse,
        "sparse_parity_ok": all(row["sparse_parity_ok"] for row in sparse.values()),
    }

    print_table(
        "repro.core.least vs the pre-buffer oracle loop",
        ["d", "loss", "inner iters", "oracle", "least", "speedup", "max |dW|", "gram speedup", "bound speedup"],
        [
            [
                row["n_nodes"],
                row["loss_form"],
                row["n_inner_iterations"],
                f"{row['oracle_seconds']:.3f}s",
                f"{row['least_seconds']:.3f}s",
                f"{row['speedup']:.2f}x",
                f"{row['max_abs_diff']:.2e}",
                f"{row['gram_speedup']:.2f}x" if "gram_speedup" in row else "-",
                f"{row['bound_speedup']:.2f}x",
            ]
            for row in per_size.values()
        ],
    )

    print_table(
        "repro.core.least_sparse on a correlation support",
        ["d", "nnz", "inner iters", "s / inner iter", "bound s / call", "loss s / call", "parity"],
        [
            [
                row["n_nodes"],
                row["nnz"],
                row["n_inner_iterations"],
                f"{row['seconds_per_inner_iteration'] * 1e3:.2f}ms",
                f"{row['bound_seconds_per_call'] * 1e3:.2f}ms",
                f"{row['loss_seconds_per_call'] * 1e3:.2f}ms",
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
