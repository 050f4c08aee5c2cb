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


class ImaginaryOverflow(GeometryError):
    """Sum of imaginary parts left the admissible set {0, pi/2, pi}."""


class UndefinedComparison(GeometryError):
    """Order comparison between extended lengths of different imaginary parts."""


class UndefinedProduct(GeometryError):
    """Product not covered by the operational rules of the extended system."""


class UnsupportedConfiguration(GeometryError):
    """Point-kind pair not covered by the requested segment table."""


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


class InconsistentCoords(GeometryError):
    """Cevian reconstruction from a coordinate triple failed its closure check."""


class NoSolution(GeometryError):
    """A ratio equation has no root on the (real) line."""


class CevianParallel(GeometryError):
    """A cevian meets the target side line in a non-real point."""


class FootOutsideSegment(GeometryError):
    """A foot point was required to lie on the closed segment but does not."""


class NoRootFound(GeometryError):
    """No root bracket on the open side.

    Carries the scanned profile as ``profile`` (list of (parameter, value))
    so the failure can be inspected rather than hidden.  ``profile`` may be
    given as a zero-argument callable; the scan then runs once, when the
    attribute is first read, so raising costs nothing extra.  Such a
    callable may hold the frame it scans; the frame never holds the error
    (failed builds are not cached), so the two form no reference cycle.
    """

    def __init__(self, message, profile=None):
        super().__init__(message)
        self._profile = profile or []

    @property
    def profile(self) -> list:
        if callable(self._profile):
            self._profile = self._profile()
        return self._profile

    def __reduce__(self):
        return type(self), (str(self), self.profile)


class ExhaustedAttempts(GeometryError):
    """Rejection sampling hit its attempt cap without satisfying the constraints."""


class UnknownIdentity(GeometryError):
    """Identity code not present in the registry."""


class UnknownCenter(GeometryError):
    """Center name not present in the center table."""


class IoFailure(GeometryError):
    """Could not write a requested output file."""
