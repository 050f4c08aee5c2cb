"""Exception hierarchy shared by all geometry modules."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ZeroVector(GeometryError):
    """A homogeneous triple was identically zero."""


class CoincidentArguments(GeometryError):
    """Two projective arguments were proportional where distinct ones are required."""


class IdenticalPoints(CoincidentArguments):
    """Distance queried between two copies of the same projective point."""


class CoincidentLines(CoincidentArguments):
    """Angle queried between two copies of the same projective line."""


class UndefinedComparison(GeometryError):
    """Order comparison between extended lengths of different imaginary parts."""


class OutOfDomain(GeometryError):
    """Coordinates outside the model's domain (e.g. on or outside the unit disk)."""


class CollinearPoints(GeometryError):
    """Three points on a common line where a genuine triangle is required."""


class DegenerateTriangle(GeometryError):
    """Side or angle data violating the triangle conditions."""


class OverflowRisk(GeometryError):
    """Inputs large enough that identity residuals would be numerically meaningless."""


class OnSideLine(GeometryError):
    """The queried point lies on a side line of the reference triangle."""


class ConjugateAtInfinity(GeometryError):
    """Reflected cevians meet in a non-real point."""


class NoSolution(GeometryError):
    """A ratio equation has no root on the (real) line."""


class CevianParallel(GeometryError):
    """A cevian meets the target side line in a non-real point."""


class FootOutsideSegment(GeometryError):
    """A foot point was required to lie on the closed segment but does not."""


class NoRootFound(GeometryError):
    """A cevian foot defined by a balance equation falls outside the open side."""


class ExhaustedAttempts(GeometryError):
    """Rejection sampling hit its attempt cap without satisfying the constraints."""


class UsageError(GeometryError):
    """A command was given arguments it cannot run with."""


class UnknownIdentity(GeometryError):
    """Identity code not present in the registry."""


class UnknownCenter(GeometryError):
    """Center name not present in the center table."""
