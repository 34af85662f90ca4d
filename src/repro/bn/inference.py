"""Exact inference in linear-Gaussian Bayesian networks.

Because the joint distribution of a linear-Gaussian BN is multivariate normal,
conditioning and marginalization have closed forms.  These are used by the
explainable-recommendation case study (predict a user's rating of movie j
given an observed rating of movie i) and by the monitoring pipeline (expected
error rate given an observed fault).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.bn.network import GaussianBayesianNetwork
from repro.exceptions import ValidationError

__all__ = ["GaussianDistribution", "marginal_distribution", "conditional_distribution"]


@dataclass(frozen=True)
class GaussianDistribution:
    """A multivariate normal over a named subset of the network's variables."""

    indices: tuple[int, ...]
    mean: np.ndarray
    covariance: np.ndarray

    def variance(self) -> np.ndarray:
        """Per-variable marginal variances (diagonal of the covariance)."""
        return np.diag(self.covariance).copy()


def _validate_indices(network: GaussianBayesianNetwork, indices: Sequence[int]) -> list[int]:
    d = network.n_nodes
    validated = []
    for index in indices:
        index = int(index)
        if index < 0 or index >= d:
            raise ValidationError(f"node index {index} out of range for a {d}-node network")
        validated.append(index)
    if len(set(validated)) != len(validated):
        raise ValidationError("node indices must be distinct")
    return validated


def marginal_distribution(
    network: GaussianBayesianNetwork, nodes: Sequence[int]
) -> GaussianDistribution:
    """Marginal joint distribution of ``nodes`` under the network."""
    indices = _validate_indices(network, nodes)
    mean = network.joint_mean()
    covariance = network.joint_covariance()
    idx = np.asarray(indices, dtype=int)
    return GaussianDistribution(
        indices=tuple(indices),
        mean=mean[idx],
        covariance=covariance[np.ix_(idx, idx)],
    )


def conditional_distribution(
    network: GaussianBayesianNetwork,
    query: Sequence[int],
    evidence: Mapping[int, float],
) -> GaussianDistribution:
    """Conditional distribution of ``query`` nodes given observed ``evidence``.

    Uses the standard Gaussian conditioning formula

        mean_q|e = mean_q + Σ_qe Σ_ee^{-1} (x_e - mean_e)
        cov_q|e  = Σ_qq - Σ_qe Σ_ee^{-1} Σ_eq

    Evidence variables may not overlap with the query set.
    """
    query_indices = _validate_indices(network, query)
    evidence_indices = _validate_indices(network, list(evidence.keys()))
    if set(query_indices) & set(evidence_indices):
        raise ValidationError("query and evidence nodes must be disjoint")

    mean = network.joint_mean()
    covariance = network.joint_covariance()
    q = np.asarray(query_indices, dtype=int)
    e = np.asarray(evidence_indices, dtype=int)

    if e.size == 0:
        return marginal_distribution(network, query_indices)

    observed = np.asarray([float(evidence[int(i)]) for i in e])
    sigma_qq = covariance[np.ix_(q, q)]
    sigma_qe = covariance[np.ix_(q, e)]
    sigma_ee = covariance[np.ix_(e, e)]
    # Solve rather than invert for numerical stability; add a small ridge if singular.
    try:
        solve = np.linalg.solve(sigma_ee, (observed - mean[e]))
        gain = np.linalg.solve(sigma_ee, sigma_qe.T).T
    except np.linalg.LinAlgError:
        ridge = 1e-9 * np.eye(e.size)
        solve = np.linalg.solve(sigma_ee + ridge, (observed - mean[e]))
        gain = np.linalg.solve(sigma_ee + ridge, sigma_qe.T).T

    conditional_mean = mean[q] + sigma_qe @ solve
    conditional_cov = sigma_qq - gain @ sigma_qe.T
    return GaussianDistribution(
        indices=tuple(query_indices),
        mean=conditional_mean,
        covariance=conditional_cov,
    )
