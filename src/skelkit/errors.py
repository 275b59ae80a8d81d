"""Exception and warning types shared across the toolkit."""


class SkelkitError(Exception):
    """Base class for all skelkit errors."""


class InvalidInput(SkelkitError):
    """Caller passed arguments violating a documented precondition."""


class RefusedTooLarge(SkelkitError):
    """Operation would trigger a quadratic/memory blowup; pass the override
    flag to force it anyway."""


class SingularBlock(SkelkitError):
    """A block hit an exactly zero pivot during factorization.  Carries the
    level and node so the caller can fall back to a dense solve of the sparse
    embedding; ``what`` is "bordered" for a node's bordered block [[D, L],
    [R, 0]], singular exactly when the block M = N^T D N that ``factor``
    factors in its place is, and "S" for the top block (level "top")."""

    def __init__(self, level, node, what="bordered"):
        self.level = level
        self.node = node
        self.what = what
        super().__init__(
            f"singular {what} block at level {level}, node {node}; "
            "consider solving the assembled embedding densely or passing "
            "a regularization delta"
        )


class NotConverged(SkelkitError):
    """Iteration budget exhausted.  Carries the best iterate found."""

    def __init__(self, x, residual, iterations):
        self.x = x
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(best relative residual {residual:.3e})"
        )


class AccuracyWarning(UserWarning):
    """Result is returned but its accuracy contract is likely violated
    (e.g. potential evaluation too close to the boundary)."""
