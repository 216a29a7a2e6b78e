"""Exception types raised by the geometric operations and the spec checks."""

__all__ = [
    "CoisoError", "ClassificationError", "ContinuityLossError",
    "DiscontinuousLoopError", "AliasingError", "ClosureError", "FrameDegeneracyError",
    "InternalConsistencyError", "UnnormalizedDefiningFunctionError", "OffSurfaceError",
    "ExtensionQualityError", "NumericalQualityError", "SpecError",
]


class CoisoError(Exception):
    """Base class for all library errors."""


class SpecError(ValueError):
    """An experiment spec or tolerance file that ``coiso.cli`` refuses: a
    value its schema refuses, named by its JSON path, or parameters that do
    not fit together.  It is bad input (``coiso run`` exits 2), not a failed
    computation, so it is no ``CoisoError``."""


class ClassificationError(CoisoError):
    """A subspace failed the coisotropy test of ``classify_coisotropic``,
    or a splitting its certification (``symplin._certify``: a gauge of the
    wrong shape, not unitary, or with a kernel that is not isotropic).

    ``witness`` is set by classification alone, when a vector left the
    subspace: ``(vector, residual, angle)``, that kernel or H-part vector,
    its component outside the candidate subspace and the offending
    principal angle.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ContinuityLossError(CoisoError):
    """A loop step's overlap determinant modulus, or a projected column of the
    ``hypergeo`` transport bracket, below ``hint_min_norm``; a gauge basis
    that is not unitary; a ``Subspace.from_spanning`` column, or a column
    of a pushforward's image kernel, below ``SPANNING_MIN_NORM``; or a failed
    ``adapted_frame`` check.  The caller must refine."""


class DiscontinuousLoopError(CoisoError):
    """Refinement budget exhausted without meeting the continuity contract."""


class AliasingError(CoisoError):
    """A consecutive phase jump reached pi/2; samples are too coarse."""


class ClosureError(CoisoError):
    """A winding failed to round to an integer within the residual bound."""


class FrameDegeneracyError(CoisoError):
    """A grading charge fell below 1e-12 or was not finite at a boundary
    point, or a section value at an angle, where its phase is undefined;
    ``maslov.disc_index_detail`` and ``maslov.MaslovSection.from_function``
    raise it."""


class InternalConsistencyError(CoisoError):
    """Two routes that must agree by construction disagreed."""


class UnnormalizedDefiningFunctionError(CoisoError):
    """|grad rho| deviates from 1 beyond tolerance in strict mode, or
    vanishes (below 1e-12) where a unit normal is needed."""


class OffSurfaceError(CoisoError):
    """A point that must lie on the hypersurface does not."""


class ExtensionQualityError(CoisoError):
    """A Lie bracket of surface extensions left the tangent space."""


class NumericalQualityError(CoisoError):
    """A symmetry that holds analytically was violated beyond tolerance."""
