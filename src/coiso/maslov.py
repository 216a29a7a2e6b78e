"""Winding indices of coisotropic loops and disc boundaries.

The canonical transverse section of a loop is represented by the squared
determinant phase of the transported unitary frames: contracting the
transverse frame multivector into the standard complex volume form and
expressing the result on the frame's own dual basis leaves exactly the
determinant of the full frame matrix, whose normalized square is recorded
sample by sample.  The loop holds these phases as ``det_phases``, running
products of overlap determinant phases, and never builds the frames.
Mixing the kernel frame by any orthogonal map leaves the squared phases
unchanged, and another starting frame multiplies them by one constant unit,
so every winding depends only on the loop.

All indices are windings of ratios of unit-modulus sample streams taken in
this common trivialization, between which the frame monodromy cancels.
The sections themselves close only through ``section_gauge``, whose ramp
takes the principal branch of the H-block holonomy ``h_holonomy``; the
printed integer rests on that branch choice.  A disc index winds a graded
section, the phases of a grading charge callable, against the canonical
section of the boundary's tangent loop.
"""

from __future__ import annotations

import dataclasses
from math import cos, pi, sin
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances, within_tie
from .errors import (
    AliasingError,
    ClosureError,
    FrameDegeneracyError,
    OffSurfaceError,
    UnnormalizedDefiningFunctionError,
)
from . import hypergeo
from .grassmann import (
    CoisotropicLoop,
    SymplecticMatrixLoop,
    _check_grid_shape,
    loop_from_family,
    pushforward,
)
from .symplin import CoisotropicSubspace, _check

__all__ = [
    "MaslovSection",
    "canonical_section",
    "winding",
    "WindingDetail",
    "winding_detail",
    "maslov_index",
    "pushforward_section",
    "tangent_boundary_loop",
    "BOUNDARY_FAMILIES",
    "disc_index_detail",
    "connection_integral_index",
    "is_leafwise_special",
    "LeafwiseSpecial",
]


# largest ||z| - 1| a section sample may show
UNIT_MODULUS = 1e-9

# smallest modulus a section value or a grading charge may have: below it,
# and at a non-finite value, their phase is undefined
MIN_MODULUS = 1e-12


def _check_phases(values: np.ndarray, thetas: np.ndarray, what: str) -> np.ndarray:
    """The moduli of ``values``, one per angle of ``thetas``;
    FrameDegeneracyError naming the first angle whose value has modulus
    below ``MIN_MODULUS`` or is not finite."""
    mod = np.abs(values)
    # a NaN fails the comparison, and so the check
    _check(~(mod >= MIN_MODULUS) | np.isinf(mod), FrameDegeneracyError, lambda w: f"{what} "
           f"{'vanished' if mod[w] < MIN_MODULUS else 'is not finite'} at "
           f"theta={thetas[w[0]]:.4f}", trailing=1)
    return mod


@dataclasses.dataclass(frozen=True)
class MaslovSection:
    """Unit-modulus samples of a transverse section along a loop, in the
    loop's propagated-frame trivialization.

    ``fn`` optionally retains the generating function, which allows exact
    resampling when an operation refines the loop grid.
    """

    thetas: np.ndarray
    samples: np.ndarray
    fn: Optional[Callable] = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.samples, dtype=complex)
        # a NaN sample fails the comparison, and so the check
        if not np.max(np.abs(np.abs(z) - 1.0)) <= UNIT_MODULUS:
            raise ValueError("section samples must have unit modulus")
        jumps = np.abs(np.angle(np.roll(z, -1) / z))
        if z.size > 1 and jumps[-1] >= DEFAULT.phase_jump:
            raise ValueError("section does not close: final jump >= pi/2")
        object.__setattr__(self, "samples", z)

    @property
    def m(self) -> int:
        return len(self.samples)

    @classmethod
    def from_function(cls, thetas: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
                      ) -> "MaslovSection":
        """The section of ``fn``, normalized: given the 1-D array of M angles
        it returns their M values; any other shape raises ValueError, and a
        value of modulus below ``MIN_MODULUS``, or not finite,
        FrameDegeneracyError naming its angle."""
        thetas = np.asarray(thetas, dtype=float)
        vals = np.asarray(fn(thetas), dtype=complex)
        _check_grid_shape(vals.shape, thetas.shape)
        return cls(thetas=thetas, samples=vals / _check_phases(vals, thetas, "section value"),
                   fn=fn)


def canonical_section(loop: CoisotropicLoop, tol: Tolerances = DEFAULT) -> MaslovSection:
    """The loop's natural transverse section.

    Per sample, the transverse frame multivector contracted into the
    standard complex volume form, read on the frame's dual basis and
    normalized, is the phase of det(U), the loop's ``det_phases``; the
    section value is its square.
    For k = n the transverse wedge is the empty product and the section is
    identically 1.  A squared determinant phase that steps by
    ``tol.phase_jump`` or more across the closing sample is undersampled,
    and raises AliasingError as ``winding`` does for any such step.
    """
    if loop.k == loop.n:
        samples = np.ones(loop.m, dtype=complex)
        return MaslovSection(thetas=loop.thetas, samples=samples)
    samples = loop.det_phases ** 2 * loop.section_gauge()
    jump = abs(float(np.angle(samples[0] / samples[-1])))
    if loop.m > 1 and jump >= tol.phase_jump:
        raise AliasingError(
            f"canonical section does not close: final jump {jump:.3f} >= {tol.phase_jump:.3f}; "
            "refine the sampling"
        )
    return MaslovSection(thetas=loop.thetas, samples=samples)


def _increments(samples: np.ndarray) -> np.ndarray:
    z = np.asarray(samples, dtype=complex)
    return np.angle(np.roll(z, -1) / z)


class WindingDetail(NamedTuple):
    value: int
    residual: float
    max_jump: float


def winding_detail(samples: Sequence[complex], tol: Tolerances = DEFAULT) -> WindingDetail:
    inc = _increments(np.asarray(samples, dtype=complex))
    max_jump = float(np.max(np.abs(inc))) if inc.size else 0.0
    if within_tie(max_jump, tol.phase_jump):
        raise AliasingError(
            f"phase jump {max_jump!r} is within rounding of the bound "
            f"{tol.phase_jump!r}: ambiguous; refine the sampling"
        )
    if max_jump >= tol.phase_jump:
        raise AliasingError(
            f"phase jump {max_jump:.3f} >= {tol.phase_jump:.3f}; refine the sampling"
        )
    total = float(np.sum(inc)) / (2 * pi)
    value = int(np.round(total))
    residual = abs(total - value)
    if residual >= tol.winding_residual:
        raise ClosureError(
            f"winding residual {residual:.3f} >= {tol.winding_residual}"
        )
    return WindingDetail(value=value, residual=residual, max_jump=max_jump)


def winding(samples: Sequence[complex], tol: Tolerances = DEFAULT) -> int:
    """Degree of a closed cycle of unit complex samples: the sum of
    principal-branch phase increments over 2*pi, rounded; the residual must
    stay below ``tol.winding_residual`` and every jump below pi/2.  A jump
    within ``config.TIE_ULPS`` ulps of ``tol.phase_jump``, on either side,
    is ambiguous and raises AliasingError too."""
    return winding_detail(samples, tol).value


def maslov_index(loop: CoisotropicLoop, section: MaslovSection,
                 tol: Tolerances = DEFAULT) -> int:
    """Winding of the ratio between the given section and the loop's
    canonical section, both in the propagated-frame trivialization."""
    if section.m != loop.m or not np.allclose(section.thetas, loop.thetas):
        raise ValueError("section must be sampled on the loop's grid")
    can = canonical_section(loop, tol)
    return winding(section.samples / can.samples, tol)


def pushforward_section(
    a: SymplecticMatrixLoop,
    loop: CoisotropicLoop,
    section: MaslovSection,
    tol: Tolerances = DEFAULT,
):
    """Push a Maslov pair forward by a loop of symplectic matrices.

    The loop moves by A(theta) samplewise, and the section keeps its value
    against the canonical section: the pushed section is the section times
    the image loop's canonical section over the source loop's, normalized.
    This is the transformation law of the squared transverse canonical
    bundle.  Moving the frames U by the unitary polar factor Q of A and
    changing them to the image loop's frames U_out by r = (Q U)^* U_out
    multiplies the section by det(r)^2 det(Q)^2.  Since
    det r = conj(det Q det U) det U_out and |det Q| = |det U| = 1, that
    factor is (det U_out / det U)^2, the ratio of the canonical sections;
    their ``section_gauge`` ramps enter the ratio in the same way.
    Returns the pair (pushed loop, transported section).
    """
    if section.m != loop.m:
        raise ValueError("section must be sampled on the loop's grid")
    out = pushforward(a, loop, tol)
    if out.m != loop.m:
        # the image loop refined; follow it exactly or give up
        if section.fn is None:
            raise ValueError(
                f"incompatible grids: the image loop has M={out.m} samples and "
                "the section, without its function, cannot be resampled"
            )
        loop = loop.resample(out.m, tol)
        section = MaslovSection.from_function(loop.thetas, section.fn)
    val = (section.samples / canonical_section(loop, tol).samples
           * canonical_section(out, tol).samples)
    return out, MaslovSection(thetas=out.thetas, samples=val / np.abs(val))


def tangent_boundary_loop(
    y: "hypergeo.LevelSetHypersurface",
    boundary: Callable[[np.ndarray], np.ndarray],
    samples: int = 256,
    tol: Tolerances = DEFAULT,
):
    """The loop of tangent spaces of Y along a closed boundary curve.

    Returns ``(loop, points)``, ``points`` the boundary points on the loop's
    grid.  Given a 1-D array of M angles, ``boundary`` returns the (M, 2n)
    stack of their points; any other shape raises ValueError.  Points must
    lie on Y within the boundary tolerance, and the gradient of rho must not
    vanish there: a gradient norm below 1e-12 raises
    UnnormalizedDefiningFunctionError naming the angle.  The loop's
    generator takes the surface test and the gradient of all M points as
    one stack and hands over the tangent spaces' gauges in closed form from
    the unit normals nu (as complex vectors): the splitting of kernel j nu
    from ``CoisotropicSubspace.from_kernel``.  The loop certifies the
    gauges in one stacked call; no decomposition is taken.
    """
    def gen(thetas):
        points = np.asarray(boundary(thetas), dtype=float)
        _check_grid_shape(points.shape, (len(thetas), y.dim))
        _check(~y.on_surface(points, tol.boundary_on_surface), OffSurfaceError, lambda w:
               f"boundary point at theta={thetas[w[0]]:.4f} is off the surface", trailing=1)
        g = y.gradient(points)
        norm = hypergeo._norm(g)
        _check(norm < 1e-12, UnnormalizedDefiningFunctionError,
               lambda w: f"grad rho vanished at theta={thetas[w[0]]:.4f}", trailing=1)
        nu = ((g[:, :y.n] + 1j * g[:, y.n:]) / norm[:, None])[:, :, None]
        return CoisotropicSubspace.from_kernel(1j * nu)

    loop = loop_from_family(y.n - 1, gen, samples=samples, tol=tol)
    return loop, np.asarray(boundary(loop.thetas), dtype=float)


# boundary loop families on hypersurface fixtures: each takes its parameter
# dict and returns a callable that maps a 1-D array of angles to the stack of
# their points in C^2, one row per angle


def _hopf_boundary(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    power = int(params.get("power", 1))

    def w(thetas):
        z = np.exp(1j * power * thetas)
        zero = np.zeros_like(thetas)
        return np.stack([z.real, zero, z.imag, zero], axis=-1)

    return w


def _latitude_boundary(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    alpha = float(params.get("alpha", 1.25))
    p = int(params.get("p", 1))
    q = int(params.get("q", 0))
    ca, sa = cos(alpha), sin(alpha)

    def w(thetas):
        z1 = ca * np.exp(1j * p * thetas)
        z2 = sa * np.exp(1j * q * thetas)
        return np.stack([z1.real, z2.real, z1.imag, z2.imag], axis=-1)

    return w


def _planar_circle_boundary(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    r1 = float(params.get("r1", 0.7))
    r2 = float(params.get("r2", 0.4))
    # closed curve inside the hyperplane x1 = 1 of C^2
    def w(thetas):
        return np.stack([
            np.ones_like(thetas),
            r1 * np.cos(thetas),
            r2 * np.sin(thetas) + 0.2 * r2 * np.sin(2 * thetas),
            r2 * np.cos(thetas),
        ], axis=-1)

    return w


BOUNDARY_FAMILIES = {
    "hopf": _hopf_boundary,
    "latitude": _latitude_boundary,
    "planar-circle": _planar_circle_boundary,
}


def connection_integral_index(loop: CoisotropicLoop, tol: Tolerances = DEFAULT) -> int:
    """(i/pi) times the loop integral of the trace of the flat-connection
    form in the moving frame, read from the loop's ``det_phases``.

    For the frame matrix U the trace of U^{-1} dU integrates to the log
    determinant, so the index is minus twice the winding of the determinant
    phase, taken by :func:`winding_detail` with its jump and residual
    guards.  It reads the same det(U) stream as :func:`canonical_section`,
    so it is not an independent oracle of the section route.
    """
    return -2 * winding_detail(loop.det_phases, tol).value


def disc_index_detail(
    y: "hypergeo.LevelSetHypersurface",
    boundary: Callable[[np.ndarray], np.ndarray],
    charge: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    samples: int = 256,
    tol: Tolerances = DEFAULT,
) -> dict:
    """Index of a disc-boundary map on a graded Y by both routes, with
    residual bookkeeping.

    A grading is a parallel section of the squared transverse canonical
    bundle.  Transport in flat C^n is trivial, so this repository reads a
    parallel grading as a constant charge.  ``charge`` maps the (M, 2n)
    stack of boundary points to their M charges (another shape raises
    ValueError, a charge below ``MIN_MODULUS`` or not finite
    FrameDegeneracyError naming its angle); None
    is the canonical grading, the constant 1 of the standard complex volume
    form.
    The charge phases times the loop's ``section_gauge`` are the graded
    section, and its winding against the canonical section is the index;
    :func:`connection_integral_index` is the second route.
    """
    loop, points = tangent_boundary_loop(y, boundary, samples, tol)
    v = (np.ones(len(points), dtype=complex) if charge is None
         else np.asarray(charge(points), dtype=complex))
    _check_grid_shape(v.shape, (len(points),))
    mod = _check_phases(v, loop.thetas, "grading charge")
    section = MaslovSection(thetas=loop.thetas, samples=v / mod * loop.section_gauge())
    can = canonical_section(loop, tol)
    detail = winding_detail(section.samples / can.samples, tol)
    return {
        "index": detail.value,
        "residual": detail.residual,
        "connection_index": connection_integral_index(loop, tol),
        "loop": loop,
        "points": points,
        "section": section,
    }


class LeafwiseSpecial(NamedTuple):
    result: bool
    max_alpha: float
    witness: np.ndarray


def is_leafwise_special(
    points: np.ndarray,
    alpha_norms: Sequence[float],
    tol: Tolerances = DEFAULT,
) -> LeafwiseSpecial:
    """True iff the leafwise mean curvature one-form vanishes on all sample
    points, read from its norm at each point (``MeanCurvature.alpha_norm``,
    in the order of ``points``); the witness is the first maximizing point.
    No point, or a norm count other than the point count, raises
    ValueError."""
    points = np.asarray(points, dtype=float)
    norms = np.asarray(alpha_norms, dtype=float)
    if norms.shape != points.shape[:1]:
        raise ValueError(f"{len(norms)} norms for {len(points)} points")
    i = int(np.argmax(norms))
    return LeafwiseSpecial(result=bool(norms[i] < tol.leafwise_special),
                           max_alpha=float(norms[i]), witness=points[i])
