"""Winding indices of coisotropic loops and disc boundaries.

The canonical transverse section of a loop is represented by the squared
determinant phase of the propagated unitary frames: contracting the
transverse frame multivector into the standard complex volume form and
expressing the result on the frame's own dual basis leaves exactly the
determinant of the full frame matrix, whose normalized square is recorded
sample by sample.  Mixing the kernel frame by any orthogonal map leaves
these samples unchanged, so the section depends only on the loop.

All indices are windings of ratios of unit-modulus sample streams taken in
this common trivialization; the frame monodromy cancels between numerator
and denominator, which is what makes the integer well defined.
"""

from __future__ import annotations

import dataclasses
from math import pi
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .errors import (
    AliasingError,
    ClosureError,
    FrameDegeneracyError,
    InternalConsistencyError,
    OffSurfaceError,
)
from . import hypergeo
from .grassmann import CoisotropicLoop, SymplecticMatrixLoop, loop_from_family, pushforward
from .symplin import (
    AdaptedFrame,
    Subspace,
    standard_space,
)

__all__ = [
    "MaslovSection",
    "Grading",
    "canonical_grading",
    "canonical_section",
    "winding",
    "winding_detail",
    "maslov_index",
    "pushforward_section",
    "tangent_boundary_loop",
    "disc_boundary_index",
    "disc_index_detail",
    "connection_integral_index",
    "is_leafwise_special",
    "LeafwiseSpecial",
]


@dataclasses.dataclass(frozen=True)
class MaslovSection:
    """Unit-modulus samples of a transverse section along a loop, in the
    loop's propagated-frame trivialization.

    ``fn`` optionally retains the generating phase function, which allows
    exact resampling when an operation refines the loop grid.
    """

    thetas: np.ndarray
    samples: np.ndarray
    fn: Optional[Callable] = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.samples, dtype=complex)
        if np.max(np.abs(np.abs(z) - 1.0)) > DEFAULT.unit_modulus:
            raise ValueError("section samples must have unit modulus")
        jumps = np.abs(np.angle(np.roll(z, -1) / z))
        if z.size > 1 and jumps[-1] >= DEFAULT.phase_jump:
            raise ValueError("section does not close: final jump >= pi/2")
        object.__setattr__(self, "samples", z)

    @property
    def m(self) -> int:
        return len(self.samples)

    @classmethod
    def from_function(cls, thetas: np.ndarray, fn: Callable[[float], complex]
                      ) -> "MaslovSection":
        vals = np.array([fn(t) for t in thetas], dtype=complex)
        vals = vals / np.abs(vals)
        return cls(thetas=np.asarray(thetas, dtype=float), samples=vals, fn=fn)


def canonical_section(loop: CoisotropicLoop, tol: Tolerances = DEFAULT) -> MaslovSection:
    """The loop's natural transverse section.

    Per sample, the transverse frame multivector contracted into the
    standard complex volume form, read on the frame's dual basis and
    normalized, is the phase of det(U); the section value is its square.
    For k = n the transverse wedge is the empty product and the section is
    identically 1.
    """
    if loop.k == loop.n:
        samples = np.ones(loop.m, dtype=complex)
        return MaslovSection(thetas=loop.thetas, samples=samples)
    dets = np.linalg.det(loop.unitaries())
    mods = np.abs(dets)
    if np.min(mods) < 1e-6:
        raise FrameDegeneracyError("frame determinant lost numerical rank")
    ph = dets / mods
    return MaslovSection(thetas=loop.thetas,
                         samples=ph ** 2 * loop.section_gauge())


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
    if max_jump >= tol.phase_jump:
        raise AliasingError(
            f"phase jump {max_jump:.3f} >= pi/2; refine the sampling"
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
    stay below ``tol.winding_residual`` and every jump below pi/2."""
    return winding_detail(samples, tol).value


def maslov_index(loop: CoisotropicLoop, section: MaslovSection,
                 tol: Tolerances = DEFAULT) -> int:
    """Winding of the ratio between the given section and the loop's
    canonical section, both in the propagated-frame trivialization."""
    if section.m != loop.m or not np.allclose(section.thetas, loop.thetas):
        raise ValueError("section must be sampled on the loop's grid")
    can = canonical_section(loop, tol)
    return winding(section.samples / can.samples, tol)


def _complexify_orthogonal(q: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Complex matrix of an orthogonal symplectic (hence complex-linear)
    2n x 2n matrix; raises if it fails to commute with j."""
    n = q.shape[0] // 2
    a, b = q[:n, :n], q[n:, :n]
    resid = max(
        float(np.max(np.abs(q[:n, :n] - q[n:, n:]))),
        float(np.max(np.abs(q[:n, n:] + q[n:, :n]))),
    )
    if resid > 1e-8:
        raise InternalConsistencyError(
            f"unitary factor does not commute with j: residual {resid:.3e}"
        )
    return a + 1j * b


def pushforward_section(
    a: SymplecticMatrixLoop,
    loop: CoisotropicLoop,
    section: MaslovSection,
    tol: Tolerances = DEFAULT,
):
    """Push a Maslov pair forward by a loop of symplectic matrices.

    The loop moves by A(theta) samplewise.  The section picks up the
    squared determinant of the unitary polar factor Q(theta) (the induced
    change of the reference volume form) together with the squared
    determinant of the unitary change between the transported frames
    Q U(theta) and the independently propagated frames of the image loop;
    for unitary A that change is block diagonal and the factor is the
    transverse-frame transformation law of the squared canonical bundle.
    Returns the pair (pushed loop, transported section).
    """
    if section.m != loop.m:
        raise ValueError("section must be sampled on the loop's grid")
    out = pushforward(a, loop, tol)
    if out.m != loop.m:
        # the image loop refined; follow it exactly or give up
        if loop.generator is None or section.fn is None:
            raise ValueError(
                "incompatible grids: resample loop and section to the "
                "common grid before pushing forward"
            )
        loop = loop.resample(out.m, tol)
        section = MaslovSection.from_function(loop.thetas, section.fn)
    aa = a.resample(out.m)
    raw = section.samples / loop.section_gauge()
    gauge_out = out.section_gauge()
    new_samples = np.empty(out.m, dtype=complex)
    for i in range(out.m):
        q, _ = scipy.linalg.polar(aa.matrices[i])
        qc = _complexify_orthogonal(q, tol)
        u = loop.frames[i].unitary()
        u_prime = out.frames[i].unitary()
        r = np.conj((qc @ u).T) @ u_prime
        det_r = np.linalg.det(r)
        det_q = np.linalg.det(qc)
        val = raw[i] * (det_r ** 2) * (det_q ** 2) * gauge_out[i]
        new_samples[i] = val / abs(val)
    return out, MaslovSection(thetas=out.thetas, samples=new_samples)


@dataclasses.dataclass(frozen=True)
class Grading:
    """A rule assigning unit transverse charge values on a coisotropic
    surface.

    ``charge`` is the phase of the charge in the parallel trivialization
    (flat ambient transport is trivial, so a constant charge is parallel;
    the canonical charge induced by the standard volume form is the
    constant 1).  ``value`` expresses the charge in an arbitrary adapted
    frame at a point: changing the transverse frame by a unitary V scales
    it by det(V)^{-2}, the transformation law of the squared transverse
    canonical bundle.
    """

    charge: Callable[[np.ndarray], complex]
    label: str = "constant"

    def phase(self, point: np.ndarray) -> complex:
        v = complex(self.charge(np.asarray(point, dtype=float)))
        if abs(v) < 1e-12:
            raise FrameDegeneracyError("grading charge vanished")
        return v / abs(v)

    def value(self, point: np.ndarray, frame: AdaptedFrame,
              reference: AdaptedFrame) -> complex:
        k = frame.k
        m_h = (np.conj(reference.unitary().T) @ frame.unitary())[:k, :k]
        det = np.linalg.det(m_h) if k else 1.0
        if abs(det) < 1e-6:
            raise FrameDegeneracyError("frame change lost the H block")
        det = det / abs(det)
        return self.phase(point) * det ** (-2)

    def section_along(self, points: np.ndarray, loop: CoisotropicLoop) -> MaslovSection:
        samples = np.array([self.phase(p) for p in points], dtype=complex)
        return MaslovSection(thetas=loop.thetas,
                             samples=samples * loop.section_gauge())


def canonical_grading() -> Grading:
    """The grading induced by the standard complex volume form; parallel in
    the flat ambient space, hence the constant unit charge."""
    return Grading(charge=lambda p: 1.0 + 0.0j, label="canonical")


def tangent_boundary_loop(
    y: "hypergeo.LevelSetHypersurface",
    boundary: Callable[[float], np.ndarray],
    samples: int = 256,
    tol: Tolerances = DEFAULT,
):
    """The loop of tangent spaces of Y along a closed boundary curve.

    Returns ``(loop, points)``.  Points must lie on Y within the boundary
    tolerance.  The generator returns each tangent space unclassified; the
    loop classifies all samples in one stacked call.  The initial frame is
    pinned by the tangent splitting at the first point, so the null frame
    vector follows +X_rho around the loop.
    """
    space = standard_space(y.n)

    def gen(theta):
        p = np.asarray(boundary(theta), dtype=float)
        if not y.on_surface(p, tol.boundary_on_surface):
            raise OffSurfaceError(
                f"boundary point at theta={theta:.4f} is off the surface"
            )
        g = y.gradient(p)
        u, s, _ = np.linalg.svd(np.eye(y.dim) - np.outer(g, g) / (g @ g))
        return Subspace(u[:, : y.dim - 1])

    hint = hypergeo.tangent_splitting(y, boundary(0.0), tol).frame
    loop = loop_from_family(space, y.n - 1, gen, samples=samples, hint=hint, tol=tol)
    points = np.stack([np.asarray(boundary(t), dtype=float) for t in loop.thetas])
    return loop, points


def disc_boundary_index(
    y: "hypergeo.LevelSetHypersurface",
    boundary: Callable[[float], np.ndarray],
    grading: Optional[Grading] = None,
    samples: int = 256,
    tol: Tolerances = DEFAULT,
) -> int:
    """Index of a disc-boundary map on Y with respect to a grading.

    Builds the tangent-space loop along the boundary, evaluates the grading
    as a section in the parallel trivialization and returns its winding
    against the canonical section.  Depends only on the boundary curve.
    """
    if grading is None:
        grading = canonical_grading()
    loop, points = tangent_boundary_loop(y, boundary, samples, tol)
    section = grading.section_along(points, loop)
    return maslov_index(loop, section, tol)


def connection_integral_index(frames: Sequence[AdaptedFrame],
                              tol: Tolerances = DEFAULT) -> int:
    """(i/pi) times the loop integral of the trace of the flat-connection
    form in the moving frame.

    For the frame matrix U the trace of U^{-1} dU integrates to the log
    determinant, so the index is minus twice the accumulated determinant
    phase over 2*pi; evaluated by discrete phase accumulation around the
    closed sample cycle, rounded with residual below 0.05.
    """
    dets = np.linalg.det(np.stack([f.unitary() for f in frames]))
    mods = np.abs(dets)
    if np.min(mods) < 1e-6:
        raise FrameDegeneracyError("frame determinant lost numerical rank")
    inc = _increments(dets / mods)
    if inc.size and float(np.max(np.abs(inc))) >= tol.phase_jump:
        raise AliasingError("log-det phase jump >= pi/2; refine the frames")
    total = float(np.sum(inc))
    value = -total / pi
    rounded = int(np.round(value))
    if abs(value - rounded) >= tol.winding_residual:
        raise ClosureError(
            f"connection integral residual {abs(value - rounded):.3f}"
        )
    return rounded


def disc_index_detail(
    y: "hypergeo.LevelSetHypersurface",
    boundary: Callable[[float], np.ndarray],
    grading: Optional[Grading] = None,
    samples: int = 256,
    tol: Tolerances = DEFAULT,
) -> dict:
    """Both index routes for one boundary loop, with residual bookkeeping."""
    if grading is None:
        grading = canonical_grading()
    loop, points = tangent_boundary_loop(y, boundary, samples, tol)
    section = grading.section_along(points, loop)
    can = canonical_section(loop, tol)
    detail = winding_detail(section.samples / can.samples, tol)
    conn = connection_integral_index(loop.frames, tol)
    return {
        "index": detail.value,
        "residual": detail.residual,
        "connection_index": conn,
        "loop": loop,
        "points": points,
        "section": section,
    }


class LeafwiseSpecial(NamedTuple):
    result: bool
    max_alpha: float
    witness: np.ndarray


def is_leafwise_special(
    y: "hypergeo.LevelSetHypersurface",
    points: np.ndarray,
    tol: Tolerances = DEFAULT,
) -> LeafwiseSpecial:
    """True iff the leafwise mean curvature one-form vanishes on all sample
    points; the witness is the maximizing point."""
    worst = -1.0
    arg = None
    for p in np.asarray(points, dtype=float):
        mc = hypergeo.leafwise_mean_curvature(y, p, tol=tol)
        if mc.alpha_norm > worst:
            worst = mc.alpha_norm
            arg = p
    return LeafwiseSpecial(result=worst < tol.leafwise_special,
                           max_alpha=worst, witness=arg)
