"""Engine configuration: working precision and truncation budgets.

All high-precision arithmetic goes through mpmath.  The working precision is
the global mpmath decimal precision; operations that need guard digits use
``mp.extradps`` locally, so values returned to the caller are rounded to the
configured precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

DEFAULT_DIGITS = 40
DEFAULT_EPS = 1e-30
DEFAULT_NMAX = 400_000


class BudgetError(Exception):
    """A certified truncation could not be achieved within the budget."""


class SingularParameterError(ValueError):
    """A regularized quantity was requested at a singular exponent."""


@dataclass(frozen=True)
class TruncationBudget:
    """Target absolute error and a hard cap on summation/truncation indices."""

    eps: float = DEFAULT_EPS
    n_max: int = DEFAULT_NMAX

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


@dataclass(frozen=True)
class EngineConfig:
    """Settings echoed into every verification report, checked here; see `configure`."""

    digits: int = DEFAULT_DIGITS
    eps: float = DEFAULT_EPS
    n_max: int = DEFAULT_NMAX

    def __post_init__(self):
        if self.digits < 15:
            raise ValueError("working precision below 15 digits is not supported")
        self.budget()  # checks eps and n_max

    def budget(self) -> TruncationBudget:
        return TruncationBudget(self.eps, self.n_max)


def configure(config: EngineConfig) -> EngineConfig:
    """Set the global working precision to ``config.digits`` and return the config."""
    mp.dps = config.digits
    return config


DEFAULT_BUDGET = TruncationBudget()
