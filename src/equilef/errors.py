"""Exception types shared across the toolkit."""


class EquilefError(Exception):
    """Base class for all toolkit errors."""


class InternalCheckFailed(AssertionError):
    """An internal invariant or cross-check failed: a fault in the program,
    not in its input.  Raised explicitly so that ``python -O`` keeps it, and
    deliberately not an :class:`EquilefError`, so the command line does not
    map it to a documented exit code."""


class GeneratorMismatch(EquilefError):
    """Two symbolic vectors were combined but declare different generator sets."""


class NotTransversal(EquilefError):
    """A subgroup meets the isotropy preimage in positive dimension."""


class OffManifold(EquilefError):
    """A point does not lie on the model manifold."""


class NotEquivariant(EquilefError):
    """A candidate map does not commute with the flow."""


class DegreeOverflow(EquilefError):
    """A form operation would exceed the top degree of the complex."""


class NonTransverse(EquilefError):
    """A fixed orbit fails the determinant transversality criterion."""


class DeterminantUnderflow(EquilefError):
    """A certified-nonzero conormal determinant is too small for its
    reciprocal to be a float."""


class InfiniteFixedSet(EquilefError):
    """The fixed-orbit set is not finite; no trace formula applies."""


class FixedSetTooLarge(EquilefError):
    """The fixed-orbit set is finite but has more orbits than can be listed."""

    def __init__(self, count, limit):
        super().__init__(
            f"the map has {count} fixed orbits, more than the {limit} "
            "that can be enumerated")
        self.count = count


class TorsionTooLarge(EquilefError):
    """A congruence solution set has more components than can be listed."""


class ModeBoxTooLarge(EquilefError):
    """A mode cutoff asks for more than the toolkit allows: its lattice box
    could hold more modes than may be listed, or counting the box's modes
    per norm would make more updates, or hold more distinct norms, than are
    allowed."""


class GridTooCoarse(EquilefError):
    """The mollifier bump is not resolved by the sample grid."""


class GridTooFine(EquilefError):
    """The sample grid needs more quadrature cells than the lab allows."""


class ParseError(EquilefError):
    """A scenario file is not syntactically valid."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(EquilefError):
    """A scenario file parses but violates the schema."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path
