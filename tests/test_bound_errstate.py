"""The spectral bound holds its own floating-point error state, once per call.

``SpectralAcyclicityBound.value`` and ``value_and_gradient`` ignore every
floating-point error for the length of the call (zero sums, subnormal
balances and overflowing scales are part of the bound's domain) and restore
the caller's state on the way out.  A caller that turns every numpy error and
every warning into an exception must see neither, on dense or CSR input.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.acyclicity import SpectralAcyclicityBound


def _weights(case: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    dense = np.where(rng.random((30, 30)) < 0.2, rng.normal(size=(30, 30)), 0.0)
    if case == "empty rows and columns":
        dense[:5, :] = 0.0
        dense[:, 24:] = 0.0
    elif case == "tiny":
        dense *= 1e-160
    elif case == "huge":
        dense *= 1e160
    return dense


CASES = ["empty rows and columns", "tiny", "huge"]
STORAGE = {"dense": lambda w: w, "csr": sp.csr_matrix}


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("storage", sorted(STORAGE))
@pytest.mark.parametrize("case", CASES)
def test_raises_nothing_under_a_strict_caller(case, storage, k):
    weights = STORAGE[storage](_weights(case))
    bound = SpectralAcyclicityBound(k=k, alpha=0.9)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = np.geterr()
        bound.value(weights)
        assert np.geterr() == strict
        value, gradient = bound.value_and_gradient(weights)
        assert np.geterr() == strict
    assert isinstance(value, float)
    assert gradient.shape == weights.shape
