"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class.  More specific subclasses communicate which layer
of the system produced the error (validation of user input, graph invariants,
optimization failures, or data-generation problems).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied arguments fail validation."""


class NotADAGError(ReproError):
    """Raised when a graph that must be acyclic contains a cycle."""


class ConvergenceError(ReproError):
    """Raised when an iterative solver fails to reach its tolerance."""


class DataGenerationError(ReproError):
    """Raised when a synthetic data generator receives an impossible request."""


class DimensionMismatchError(ReproError, ValueError):
    """Raised when array shapes are inconsistent with each other."""


class SoftDeadlineExceeded(RuntimeError):
    """Raised by the soft-deadline hook at an outer-iteration boundary.

    The backend protocol guarantees that a hook raising aborts the solve
    cooperatively; the executing worker catches this exception and reports
    the job ``"preempted"`` without dying, so the pool keeps its process.
    Defined here with the library's other exceptions (and re-exported by
    :mod:`repro.serve.pool`) so callers can catch it without importing the
    pool.
    """
