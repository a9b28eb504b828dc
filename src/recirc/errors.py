"""Exception taxonomy; the CLI maps ConfigError to exit 2, the rest to exit 1."""


class RecircError(Exception):
    """Base class for all recirc failures."""


class ConfigError(RecircError):
    """Invalid run configuration; carries a list of (path, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{p}: {m}" if p else m for p, m in self.issues))


class MeshError(RecircError):
    """Degenerate or inconsistent mesh."""


class ConflictError(RecircError):
    """Overlapping boundary segments."""


class CompatibilityError(RecircError):
    """Boundary data with nonzero net flux; the Stokes lift is unsolvable."""


class SolverError(RecircError):
    """Linear or eigenvalue solver failure."""


class CapacityError(RecircError):
    """Requested more eigenmodes than the constrained subspace holds."""


class StepError(RecircError):
    """Nonlinear time-step solve failed to converge.

    Carries the residual (the reduced step's best, the full-space step's last
    increment), the time t of the failed step, its iteration count and
    residual history, and the partial trajectory once the integrator has
    attached it.
    """

    def __init__(self, message, residual=None, trajectory=None, t=None, iterations=None,
                 history=None):
        super().__init__(message)
        self.residual = residual
        self.trajectory = trajectory
        self.t = t
        self.iterations = iterations
        self.history = history
