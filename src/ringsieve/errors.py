"""Exception types shared across the package."""


class RingsieveError(Exception):
    """Base class for all library errors."""


class InvalidDiscriminant(RingsieveError):
    """Quadratic field parameter d is not a squarefree integer outside {0, 1}."""

    def __init__(self, d: int):
        self.d = d
        super().__init__(f"invalid quadratic field parameter d={d} (must be squarefree, not 0 or 1)")


class ComponentMismatch(RingsieveError):
    """Operands live in different algebras or components."""


class ClassOutOfRange(RingsieveError):
    """A residue class representative is not canonical for its modulus."""


class TailNotBoundable(RingsieveError):
    """The sieve tail has no rigorous measure bound (exponent 1 tails)."""


class InvalidConstraint(RingsieveError):
    """A congruence target lies entirely inside the forbidden local set."""


class NotFoundWithinBound(RingsieveError):
    """The scan exhausted the coordinate budget without finding a witness."""

    def __init__(self, bound: int, checked: int = 0):
        self.bound = bound
        self.checked = checked
        super().__init__(f"no witness with coordinate height <= {bound} ({checked} candidates checked)")


class BudgetExceeded(RingsieveError):
    """An enumeration would exceed the configured budget."""


class NoWitness(RingsieveError):
    """Exhaustive scan found no witness although the preconditions claimed one."""


class PreconditionFailed(RingsieveError):
    """An operation's stated precondition does not hold for the given input."""


class RegionTooSmall(RingsieveError):
    """A block code cannot be evaluated anywhere inside the known region."""


class VerificationFailed(RingsieveError):
    """An independent re-check rejected a witness the library produced."""


class FormatError(RingsieveError):
    """A line of an input file is malformed.

    Carries the 1-based line number and, once the caller that read the file
    attaches it, the file path.
    """

    def __init__(self, message: str, line: int, path: str | None = None):
        self.message = message
        self.line = line
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        return f"{self.path or '<input>'}:{self.line}: {self.message}"
