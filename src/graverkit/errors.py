"""Exception types shared across the toolkit."""


class GraverKitError(Exception):
    """Base class for all toolkit errors."""


class PreconditionError(GraverKitError):
    """A mathematical precondition failed (not pointed, not simple, ...)."""


class BudgetExceededError(GraverKitError):
    """A budgeted computation hit its candidate or wall-clock cap: a Graver
    basis, the cone counts of a 1x3 complex or a circuit enumeration.

    This is a resource failure, never a mathematical verdict.
    """

    def __init__(self, kind: str, limit, generated: int):
        self.kind = kind  # "elements" or "time"
        self.limit = limit
        self.generated = generated
        super().__init__(
            f"{kind} budget exceeded (limit={limit}, candidates generated={generated})"
        )
