"""Error taxonomy shared by all modules.

DomainError      precondition violation (bad argument, off-window exponent)
ValidationError  collected constraint failures for a parameter set
ConvergenceError quadrature failed to meet tolerance within the panel budget
IterationError   fixed-point iteration broke down at a known step
"""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ValidationError(ValueError):
    """One or more model constraints are violated.

    Carries `violations`, the complete list of failed constraints, so callers
    can report every problem at once instead of fixing them one at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConvergenceError(RuntimeError):
    """Adaptive quadrature did not converge within the panel budget.

    `worst_radius` is the evaluation radius with the largest error estimate.
    `errors` (relative quadrature error estimates) and `panels` (panels
    used) are per-radius arrays aligned with the evaluation radii, or None
    when the raiser has no such detail.
    """

    def __init__(self, message, worst_radius=None, errors=None, panels=None):
        self.worst_radius = worst_radius
        self.errors = errors
        self.panels = panels
        super().__init__(message)


class IterationError(RuntimeError):
    """Fixed-point iteration failed; `step` is the 0-based step index."""

    def __init__(self, message, step):
        self.step = step
        super().__init__(f"step {step}: {message}")
