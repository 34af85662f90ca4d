"""First-order optimizers written from scratch.

LEAST's inner procedure (Fig. 3 of the paper) updates ``W`` with a first-order
method; the paper uses Adam because it converges fast and — in the sparse
implementation — never has to materialize dense moment matrices.  Three
optimizers are provided:

* :class:`AdamOptimizer` — standard Adam on dense parameter arrays;
* :class:`SGDOptimizer` — plain (momentum) gradient descent, used in ablation
  benchmarks and as a simple reference;
* :class:`SparseAdamOptimizer` — Adam whose state lives on a flat data vector
  aligned with the support of a sparse matrix; supports shrinking the support
  when LEAST's hard-thresholding step removes entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive, check_probability

__all__ = ["AdamOptimizer", "SGDOptimizer", "SparseAdamOptimizer"]


def _adam_step(optimizer, parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """One Adam step of ``optimizer`` (dense or sparse) on allocated moments.

    The moment estimates are updated in place, each product and sum in the
    operand order of the formulas (``m ← β₁·m + (1-β₁)·g``), so a step
    allocates two scratch arrays and the result, and rounds exactly as the
    out-of-place expressions do.  ``parameters`` is not modified.
    """
    optimizer._step += 1
    first, second = optimizer._first_moment, optimizer._second_moment
    first *= optimizer.beta1
    scratch = np.multiply(1 - optimizer.beta1, gradient)
    first += scratch
    second *= optimizer.beta2
    np.multiply(gradient, gradient, out=scratch)
    scratch *= 1 - optimizer.beta2
    second += scratch
    denominator = np.divide(second, 1 - optimizer.beta2**optimizer._step)
    np.sqrt(denominator, out=denominator)
    denominator += optimizer.epsilon
    step = np.divide(first, 1 - optimizer.beta1**optimizer._step, out=scratch)
    step *= optimizer.learning_rate
    step /= denominator
    return parameters - step


@dataclass
class AdamOptimizer:
    """Adam (Kingma & Ba, 2015) for dense numpy parameters.

    Attributes
    ----------
    learning_rate:
        Step size (paper default 0.01 for LEAST's inner loop).
    beta1, beta2:
        Exponential decay rates of the first and second moment estimates.
    epsilon:
        Numerical stabilizer added to the denominator.
    """

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    _step: int = field(default=0, init=False)
    _first_moment: np.ndarray | None = field(default=None, init=False)
    _second_moment: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        check_positive(self.learning_rate, "learning_rate")
        check_probability(self.beta1, "beta1")
        check_probability(self.beta2, "beta2")
        check_positive(self.epsilon, "epsilon")

    def reset(self) -> None:
        """Clear the moment estimates and the step counter."""
        self._step = 0
        self._first_moment = None
        self._second_moment = None

    def update(self, parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Return the updated parameters for one Adam step (see :func:`_adam_step`)."""
        parameters = np.asarray(parameters, dtype=float)
        gradient = np.asarray(gradient, dtype=float)
        if parameters.shape != gradient.shape:
            raise ValidationError(
                f"parameter shape {parameters.shape} does not match gradient shape {gradient.shape}"
            )
        if self._first_moment is None or self._first_moment.shape != parameters.shape:
            self._first_moment = np.zeros_like(parameters)
            self._second_moment = np.zeros_like(parameters)
            self._step = 0
        return _adam_step(self, parameters, gradient)


@dataclass
class SGDOptimizer:
    """Gradient descent with optional classical momentum."""

    learning_rate: float = 0.01
    momentum: float = 0.0
    _velocity: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        check_positive(self.learning_rate, "learning_rate")
        check_probability(self.momentum, "momentum")

    def reset(self) -> None:
        """Clear the velocity buffer."""
        self._velocity = None

    def update(self, parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Return the updated parameters for one (momentum) SGD step."""
        parameters = np.asarray(parameters, dtype=float)
        gradient = np.asarray(gradient, dtype=float)
        if parameters.shape != gradient.shape:
            raise ValidationError(
                f"parameter shape {parameters.shape} does not match gradient shape {gradient.shape}"
            )
        if self._velocity is None or self._velocity.shape != parameters.shape:
            self._velocity = np.zeros_like(parameters)
        self._velocity = self.momentum * self._velocity - self.learning_rate * gradient
        return parameters + self._velocity


@dataclass
class SparseAdamOptimizer:
    """Adam over the data vector of a fixed-support sparse matrix.

    The parameters are the non-zero values of a CSR matrix; the support may
    only shrink over time (LEAST's thresholding step removes weak entries).
    When the caller drops entries it passes the boolean ``keep_mask`` to
    :meth:`shrink_support` so the moment estimates stay aligned.
    """

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    _step: int = field(default=0, init=False)
    _first_moment: np.ndarray | None = field(default=None, init=False)
    _second_moment: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        check_positive(self.learning_rate, "learning_rate")
        check_probability(self.beta1, "beta1")
        check_probability(self.beta2, "beta2")
        check_positive(self.epsilon, "epsilon")

    def reset(self) -> None:
        """Clear the moment estimates and the step counter."""
        self._step = 0
        self._first_moment = None
        self._second_moment = None

    def update(self, values: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """One Adam step on the flat value vector (see :func:`_adam_step`)."""
        values = np.asarray(values, dtype=float)
        gradient = np.asarray(gradient, dtype=float)
        if values.shape != gradient.shape:
            raise ValidationError(
                f"value shape {values.shape} does not match gradient shape {gradient.shape}"
            )
        if self._first_moment is None or self._first_moment.shape != values.shape:
            self._first_moment = np.zeros_like(values)
            self._second_moment = np.zeros_like(values)
        return _adam_step(self, values, gradient)

    def shrink_support(self, keep_mask: np.ndarray) -> None:
        """Drop moment entries where ``keep_mask`` is False (support shrank)."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if self._first_moment is None:
            return
        if keep_mask.shape != self._first_moment.shape:
            raise ValidationError(
                f"keep_mask shape {keep_mask.shape} does not match state shape "
                f"{self._first_moment.shape}"
            )
        self._first_moment = self._first_moment[keep_mask]
        self._second_moment = self._second_moment[keep_mask]
