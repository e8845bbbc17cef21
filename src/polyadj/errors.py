"""Exception taxonomy.

Two branches matter to callers.  InputError subclasses flag bad data
handed to the library (malformed codes, vectors of the wrong length,
degenerate pair families); the CLI maps them to the input-error exit
code.  Defect subclasses flag a failed internal guarantee: a certificate
that does not re-verify, or a constructed witness that falls outside its
polytope.  A Defect is a bug report, not a recoverable condition.
"""


class PolytopeError(Exception):
    """Base class for every error raised by this package."""


class InputError(PolytopeError):
    """A documented precondition on caller-supplied data was violated."""


class Defect(PolytopeError):
    """An internally guaranteed property failed on a concrete instance."""


# ---- code validation ----------------------------------------------------


class EmptyMatrix(InputError):
    def __init__(self) -> None:
        super().__init__("matrix must have at least one row")


class WrongRowWeight(InputError):
    def __init__(self, row: int, expected: int) -> None:
        word = {3: "three", 4: "four"}[expected]
        super().__init__(f"row {row} must have exactly {word} ones")
        self.row = row
        self.expected = expected


class EmptyGraph(InputError):
    def __init__(self) -> None:
        super().__init__("graph must have at least one vertex")


class NoEdges(InputError):
    def __init__(self) -> None:
        super().__init__("graph must have at least one edge")


class BadEdge(InputError):
    def __init__(self, edge_index: int, reason: str) -> None:
        super().__init__(reason)
        self.edge_index = edge_index


# ---- vectors and enumeration --------------------------------------------


class DimensionMismatch(InputError):
    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"expected dimension {expected}, got {got}")
        self.expected = expected
        self.got = got


class DimensionCapExceeded(InputError):
    def __init__(self, dim: int, cap: int) -> None:
        super().__init__(
            f"dimension {dim} exceeds the enumeration cap {cap}; "
            "pass an explicit max_dim to override"
        )
        self.dim = dim
        self.cap = cap


class CoordinateOutOfRange(InputError):
    def __init__(self, index: int, dim: int) -> None:
        super().__init__(f"coordinate {index} out of range for dimension {dim}")
        self.index = index
        self.dim = dim


# ---- hull oracle ---------------------------------------------------------


class EmptyVertexList(InputError):
    def __init__(self) -> None:
        super().__init__("vertex list must not be empty")


class NotASubset(InputError):
    def __init__(self) -> None:
        super().__init__("face candidate is not a subset of the vertex list")


class VertexNotInSet(InputError):
    def __init__(self) -> None:
        super().__init__("query vertex does not appear in the vertex list")


class EqualVertices(InputError):
    def __init__(self) -> None:
        super().__init__("adjacency query needs two distinct vertices")


# ---- pair families -------------------------------------------------------


class TooFewPairs(InputError):
    def __init__(self, count: int) -> None:
        super().__init__(f"need at least three pairs, got {count}")
        self.count = count


class UnequalSums(InputError):
    def __init__(self, pair_index: int) -> None:
        super().__init__(f"pair {pair_index} has a different coordinate sum than pair 0")
        self.pair_index = pair_index


class NotInStablePolytope(InputError):
    def __init__(self, pair_index: int) -> None:
        super().__init__(f"pair {pair_index} has a member outside the stable-set polytope")
        self.pair_index = pair_index


class DuplicatePairs(InputError):
    def __init__(self, pair_index: int) -> None:
        super().__init__(f"pair {pair_index} repeats an earlier pair")
        self.pair_index = pair_index


class DegeneratePair(InputError):
    def __init__(self) -> None:
        super().__init__("pair 0 has equal members; no coordinate varies")


class EvenFamilyBlocked(InputError):
    def __init__(self) -> None:
        super().__init__("every candidate collides; the excluded even-family pair blocks the search")


# ---- file formats --------------------------------------------------------


class FormatError(InputError):
    """A text payload does not match its documented format."""


# ---- defects -------------------------------------------------------------


class InvalidCertificate(Defect):
    def __init__(self, reason: str) -> None:
        super().__init__(f"certificate does not verify: {reason}")


class InvariantViolation(Defect):
    """A structural property that is proven to hold failed to hold."""


class MembershipViolation(Defect):
    """A constructed point fell outside the polytope that must contain it."""
