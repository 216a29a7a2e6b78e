"""Extrinsic geometry of coisotropic level-set hypersurfaces in flat C^n.

A hypersurface Y = {rho = 1} with unit gradient on Y is coisotropic of
rank 2(n-1): the null foliation is spanned by the Hamiltonian direction
X_rho = j grad(rho), and the j-invariant complement N_JF = ker(d rho)
intersected with ker(d^c rho) is the maximal complex tangency.  Everything
here is pointwise: second fundamental form blocks in an adapted frame,
leafwise mean curvature, Levi form, the transverse symplectic curvature by
two independent routes, and leaf minimality along the X_rho flow.

Points are a stack axis.  A fixture's oracles ``rho``, ``grad`` and
``hess`` take a (..., 2n) stack of points and return the (...),
(..., 2n) and (..., 2n, 2n) stacks of their values, and every method of
``LevelSetHypersurface`` acts on the leading axes the same way; a single
point of shape (2n,) is the unstacked case of the same code.
``point_geometry`` builds one ``PointGeometry`` record for a stack of P
points: the normals, X_rho, N_JF and the adapted frames from one stacked
``tangent_splitting`` call, the Hessians and |grad rho| from one evaluation
each, and the SFF blocks from one ``second_fundamental_form`` call.  Every
pointwise routine reads that record, recomputes none of it, and returns one
stacked result whose member i belongs to point i.  A check that fails
raises for the first failing member and names it.

A member's arithmetic is that of a single point, so a point's results do
not depend on the stack it is computed in: stacked ``svd``, ``eigvalsh``
and ``matmul`` act member by member with the calls of one point; a dot
product is ``np.vecdot``, one BLAS dot per member as the 1-D ``a @ b``; a
norm is the square root of such a dot, as the 1-D ``np.linalg.norm``
computes it; and j is applied as ``j @ v[..., None]``.

Sign conventions, fixed once and used consistently: the normal is the
outward nu = grad(rho); the frame convention puts e_n along X_rho, so
f_n = j e_n = -nu, and the second fundamental form blocks A, B, C, D are
taken against the f_alpha normal frame.  On the unit sphere this makes the
A block the identity and the curvature vector of the Hopf leaf -nu.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances, rng
from .errors import (
    ExtensionQualityError,
    InternalConsistencyError,
    NumericalQualityError,
    OffSurfaceError,
    UnnormalizedDefiningFunctionError,
)
from .symplin import (
    AdaptedFrame,
    Subspace,
    _canonical_phases,
    _check,
    _mgs,
    _standard_j,
    _standard_omega,
    _t,
    complex_coords,
    real_coords,
)

__all__ = [
    "LevelSetHypersurface",
    "TangentSplitting",
    "SFFBlocks",
    "PointGeometry",
    "MeanCurvature",
    "LeviForm",
    "TransverseCurvature",
    "Minimality",
    "tangent_splitting",
    "second_fundamental_form",
    "point_geometry",
    "leafwise_mean_curvature",
    "levi_form",
    "transverse_curvature_bracket",
    "transverse_curvature_sff",
    "is_integrable_prekahler",
    "leaf_minimality",
    "sphere",
    "hyperplane",
    "cylinder",
    "ellipsoid",
    "from_polynomial",
    "FIXTURES",
    "LagrangianGraphProduct",
    "random_graph_product",
]


# default central-difference step of level sets without analytic derivatives
FD_STEP = 1e-5

# projections ``sample_points`` tries per point before it gives up, and the
# scale of each attempt's Gaussian seed
SAMPLE_ATTEMPTS = 100
SAMPLE_OFFSET = 0.5

# Newton iterations and residual of a projection onto the surface
NEWTON_ITERS = 50
NEWTON_TOL = 1e-13

# RK4 step along X_rho of the leaf curvature's second difference
FLOW_STEP = 1e-3

# surface step of the Lie bracket's central differences in
# ``transverse_curvature_bracket``
BRACKET_STEP = 1e-4

# parameter step of ``LagrangianGraphProduct.sff_numeric``'s central differences
PRODUCT_SFF_STEP = 1e-5

# the three trailing axes of a stack of (normal, row, column) blocks
_BLOCK_AXES = (-3, -2, -1)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, member by member."""
    return np.sqrt(np.vecdot(v, v))


def _apply_j(n: int, v: np.ndarray) -> np.ndarray:
    """j v for a (..., 2n) stack of vectors."""
    return (_standard_j(n) @ v[..., None])[..., 0]


def _fd_gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    d = x.shape[-1]
    out = np.zeros(x.shape)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        out[..., i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def _fd_hessian(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    d = x.shape[-1]
    out = np.zeros(x.shape + (d,))
    f0 = f(x)
    ee = h * np.eye(d)
    for i in range(d):
        out[..., i, i] = (f(x + 2 * ee[i]) - 2 * f0 + f(x - 2 * ee[i])) / (4 * h * h)
        for j in range(i + 1, d):
            pij = f(x + ee[i] + ee[j]) - f(x + ee[i] - ee[j]) \
                - f(x - ee[i] + ee[j]) + f(x - ee[i] - ee[j])
            out[..., i, j] = out[..., j, i] = pij / (4 * h * h)
    return out


@dataclasses.dataclass(frozen=True)
class LevelSetHypersurface:
    """Y = {rho = 1} in C^n with derivative oracles.

    ``rho``, ``grad`` and ``hess`` take a (..., 2n) stack of points and
    return the (...), (..., 2n) and (..., 2n, 2n) stacks of rho, its
    gradient and its Hessian; a (2n,) point is the unstacked case.  ``grad``
    and ``hess`` are analytic oracles when the fixture provides them;
    otherwise central differences of ``rho`` with step ``h`` are used.  With
    ``strict`` set, points where |grad rho| deviates from 1 beyond the
    strict tolerance are rejected; otherwise all formulas normalize by
    |grad rho| pointwise, which is exact for the tangential quantities
    computed here.  Every method acts on stacks of points member by member.
    """

    n: int
    rho: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h: float = FD_STEP
    strict: bool = True
    name: str = "levelset"

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def k(self) -> int:
        return self.n - 1

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.rho(np.asarray(x, dtype=float))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return _fd_gradient(self.rho, x, self.h)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hess is not None:
            return np.asarray(self.hess(x), dtype=float)
        return _fd_hessian(self.rho, x, self.h)

    def on_surface(self, x: np.ndarray, tol: float = DEFAULT.boundary_on_surface) -> np.ndarray:
        return np.abs(self.value(x) - 1.0) < tol

    def unit_normal(self, x: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
        g = self.gradient(x)
        norm = _norm(g)
        vanished = norm < 1e-12
        _check(vanished | (self.strict & (np.abs(norm - 1.0) > tol.unit_gradient_strict)),
               UnnormalizedDefiningFunctionError,
               lambda w: "grad rho vanished" if vanished[w] else
               f"|grad rho| = {norm[w]:.6f} deviates from 1 beyond "
               f"{tol.unit_gradient_strict:.1e}")
        return g / norm[..., None]

    def gradient_norm(self, x: np.ndarray) -> np.ndarray:
        return _norm(self.gradient(x))

    def _newton(self, x: np.ndarray):
        """Newton projection of the rows of an (m, 2n) array along the
        gradient, each row stopped at its own first |rho - 1| < NEWTON_TOL,
        after at most NEWTON_ITERS steps, or at its first zero gradient.
        Returns the rows, C-contiguous as a stack of separately projected
        points, and the mask of those that stopped at a zero gradient."""
        x = np.array(x, dtype=float, order="C")
        stalled = np.zeros(len(x), dtype=bool)
        live = np.arange(len(x))
        for _ in range(NEWTON_ITERS):
            r = self.value(x[live]) - 1.0
            going = ~(np.abs(r) < NEWTON_TOL)
            live, r = live[going], r[going]
            if not live.size:
                break
            g = self.gradient(x[live])
            gg = np.vecdot(g, g)
            flat = gg == 0.0
            stalled[live[flat]] = True
            going = ~flat
            live, r, g, gg = live[going], r[going], g[going], gg[going]
            x[live] = x[live] - r[:, None] * g / gg[:, None]
        return x, stalled

    def project(self, x: np.ndarray) -> np.ndarray:
        """Newton projection onto {rho = 1} along the gradient, of a point or
        of every point of a stack; each stops on its own.  A zero gradient on
        the way raises UnnormalizedDefiningFunctionError."""
        x = np.asarray(x, dtype=float)
        rows, stalled = self._newton(x.reshape(-1, self.dim))
        _check(stalled.reshape(x.shape[:-1]), UnnormalizedDefiningFunctionError,
               lambda w: "grad rho vanished during the projection")
        return rows.reshape(x.shape)

    def sample_points(self, count: int, seed) -> np.ndarray:
        """Deterministic points on Y: Gaussian seeds projected to the surface.

        Each attempt draws a seed x0 and a shift from the generator, in that
        order, and projects ``SAMPLE_OFFSET`` * x0 + shift; the points are
        the first ``count`` attempts that reach the surface.  Attempts are
        drawn and projected in stacked rounds, each as many as points are
        still missing, so the generator is read as far as one attempt after
        another would read it.  At most ``SAMPLE_ATTEMPTS`` attempts per
        point are made; when they run out, OffSurfaceError."""
        g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
        found, budget = [np.empty((0, self.dim))], SAMPLE_ATTEMPTS * count
        missing, left = count, budget
        while missing and left:
            draws = g.normal(size=(min(missing, left), 2, self.dim))
            x, stalled = self._newton(draws[:, 0] * SAMPLE_OFFSET + draws[:, 1])
            hit = x[~stalled & self.on_surface(x, 1e-9)]
            found.append(hit)
            missing -= len(hit)
            left -= len(draws)
        if missing:
            raise OffSurfaceError(
                f"{self.name}: {count - missing} of {count} sample points reached the "
                f"surface in {budget} projections")
        return np.concatenate(found)


class TangentSplitting(NamedTuple):
    nu: np.ndarray
    x_rho: np.ndarray
    njf: Subspace
    frame: AdaptedFrame


def tangent_splitting(
    y: LevelSetHypersurface, p: np.ndarray, tol: Tolerances = DEFAULT
) -> TangentSplitting:
    """Outward normal, Hamiltonian direction, maximal complex tangency and
    an adapted frame with e_n along X_rho (so f_n = -nu), at a point or at
    every point of a (..., 2n) stack."""
    p = np.asarray(p, dtype=float)
    nu = y.unit_normal(p, tol)
    j = _standard_j(y.n)
    xr = _apply_j(y.n, nu)
    span = np.stack([nu, xr], axis=-1)
    u = np.linalg.svd(np.eye(y.dim) - span @ _t(span))[0]
    njf = Subspace(u[..., : y.dim - 2])
    jn = j @ njf.basis
    escape = np.max(np.linalg.norm(jn - njf.project(jn), axis=-2), axis=-1, initial=0.0)
    _check(escape > tol.subspace_equality, InternalConsistencyError,
           lambda w: "N_JF failed the j-invariance check")
    # complex orthonormal basis of N_JF, deterministic
    k = y.k
    if k:
        uu = np.linalg.svd(complex_coords(njf.basis))[0]
        e_h = real_coords(_canonical_phases(uu[..., :k]))
    else:
        e_h = np.zeros(p.shape + (0,))
    e = np.concatenate([e_h, xr[..., None]], axis=-1)
    frame = AdaptedFrame(k=k, e=e, f=j @ e)
    return TangentSplitting(nu=nu, x_rho=xr, njf=njf, frame=frame)


@dataclasses.dataclass(frozen=True)
class SFFBlocks:
    """Second fundamental form of Y in an adapted frame, one symmetric
    matrix per normal direction f_alpha; for a stack of points, one set of
    blocks per member.

    ``full`` has shape (..., n - k, n + k, n + k) on the tangent basis
    ordered (e_1..e_n, f_1..f_k).  The blocks are views into it:

        A = full[..., :, :n, :n]      (e x e)
        B = full[..., :, :n, n:]      (e x f)
        C = full[..., :, n:, :n]      (f x e)
        D = full[..., :, n:, n:]      (f x f)

    so A = A', D = D' and B = C' are exactly the Cartan-lemma symmetries.
    The symmetry is checked against ``tol.sff_symmetry`` when the blocks
    are built.
    """

    frame: AdaptedFrame
    full: np.ndarray
    tol: Tolerances = dataclasses.field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        worst = self.symmetry_residual()
        _check(worst > self.tol.sff_symmetry, NumericalQualityError,
               lambda w: f"second fundamental form symmetry violated by {worst[w]:.3e}")

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def k(self) -> int:
        return self.frame.k

    @property
    def a(self) -> np.ndarray:
        return self.full[..., : self.n, : self.n]

    @property
    def b(self) -> np.ndarray:
        return self.full[..., : self.n, self.n:]

    @property
    def c(self) -> np.ndarray:
        return self.full[..., self.n:, : self.n]

    @property
    def d(self) -> np.ndarray:
        return self.full[..., self.n:, self.n:]

    def symmetry_residual(self) -> np.ndarray:
        """Largest |S - S'| over the normal directions, member by member."""
        return np.max(np.abs(self.full - _t(self.full)), axis=_BLOCK_AXES, initial=0.0)


def second_fundamental_form(
    frame: AdaptedFrame,
    nu: np.ndarray,
    normalized_hessian: np.ndarray,
    tol: Tolerances = DEFAULT,
) -> SFFBlocks:
    """SFF blocks of Y in an adapted frame, member by member for stacks.

    For a level set with unit normal nu = grad(rho)/|grad(rho)| the
    normal-valued form on tangent vectors is
    S(v, w) = -(<Hess(rho) v, w> / |grad rho|) nu, and the blocks are its
    pairings with the frame normals f_alpha; ``normalized_hessian`` is
    Hess(rho) / |grad rho| at the point.
    """
    t = frame.tangent_basis()
    ht = _t(t) @ normalized_hessian @ t
    normals = frame.f[..., frame.k:]
    signs = -np.vecdot(nu[..., None], normals, axis=-2)   # f_n = -nu gives +1
    full = signs[..., None, None] * ht[..., None, :, :]
    return SFFBlocks(frame=frame, full=full, tol=tol)


@dataclasses.dataclass(frozen=True)
class PointGeometry:
    """The geometry of Y at a point or at a (..., 2n) stack of points,
    computed once by ``point_geometry`` and read by every pointwise routine.

    ``nu``, ``x_rho``, ``njf`` and ``frame`` come from one stacked
    ``tangent_splitting`` call; ``hessian`` is the raw Hessian of rho and
    ``normalized_hessian`` its quotient by |grad rho|; ``blocks`` are the
    SFF blocks in ``frame``.  Every field carries the stack axes of
    ``point``.  ``tol`` is the tolerance record every check on this record
    reads.
    """

    y: LevelSetHypersurface
    point: np.ndarray
    nu: np.ndarray
    x_rho: np.ndarray
    njf: Subspace
    frame: AdaptedFrame
    hessian: np.ndarray
    normalized_hessian: np.ndarray
    blocks: SFFBlocks
    tol: Tolerances

    def in_frame(self, frame: AdaptedFrame) -> "PointGeometry":
        """The same points read in other adapted frames: the SFF blocks are
        re-read from the same Hessians, every other field is kept."""
        blocks = second_fundamental_form(frame, self.nu, self.normalized_hessian, self.tol)
        return dataclasses.replace(self, frame=frame, blocks=blocks)


def point_geometry(
    y: LevelSetHypersurface, p: np.ndarray, tol: Tolerances = DEFAULT
) -> PointGeometry:
    """Splitting, Hessian and SFF blocks of Y at p, or at every point of a
    (..., 2n) stack p, each computed once in one stacked call."""
    p = np.asarray(p, dtype=float)
    spl = tangent_splitting(y, p, tol)
    hessian = y.hessian(p)
    normalized_hessian = hessian / np.asarray(y.gradient_norm(p))[..., None, None]
    return PointGeometry(
        y=y, point=p, nu=spl.nu, x_rho=spl.x_rho, njf=spl.njf, frame=spl.frame,
        hessian=hessian, normalized_hessian=normalized_hessian,
        blocks=second_fundamental_form(spl.frame, spl.nu, normalized_hessian, tol),
        tol=tol,
    )


@dataclasses.dataclass(frozen=True)
class MeanCurvature:
    """Partial trace of the SFF over the null directions and its
    omega-contraction restricted to the tangent space, member by member."""

    h_vector: np.ndarray            # leafwise mean curvature vector in R^{2n}
    alpha: np.ndarray               # one-form values on the tangent basis
    alpha_norm: np.ndarray
    formula_residual: np.ndarray    # direct contraction vs frame formula


def leafwise_mean_curvature(geo: PointGeometry) -> MeanCurvature:
    """Leafwise mean curvature vector and one-form at each point.

    The vector is the trace of the SFF over the kernel frame directions;
    its omega-contraction on the tangent basis is cross-checked against the
    frame formula (minus the kernel-block trace of A on the kernel duals),
    in both index patterns, to 1e-6.
    """
    blocks, frame = geo.blocks, geo.frame
    n, k = blocks.n, blocks.k
    normals = frame.f[..., k:]
    kernel_idx = np.arange(k, n)
    a_kernel = blocks.a[..., kernel_idx[:, None], kernel_idx]
    trace = np.diagonal(a_kernel, axis1=-2, axis2=-1).sum(axis=-1)   # per alpha
    h_vec = (normals @ trace[..., None])[..., 0]
    t = frame.tangent_basis()
    # direct contraction: (i_H omega)(t) = omega(H, t)
    alpha_direct = np.vecdot(h_vec[..., None, :] @ _standard_omega(geo.y.n), _t(t))
    # frame formula: -sum_alpha A^beta_{alpha alpha} on the kernel e-duals,
    # and the transposed contraction -sum_alpha A^alpha_{beta alpha}
    formula1 = np.zeros(alpha_direct.shape)
    formula2 = np.zeros(alpha_direct.shape)
    formula1[..., kernel_idx] = -trace
    formula2[..., kernel_idx] = -np.diagonal(a_kernel, axis1=-3, axis2=-1).sum(axis=-1)
    residual = np.maximum(np.max(np.abs(alpha_direct - formula1), axis=-1),
                          np.max(np.abs(alpha_direct - formula2), axis=-1))
    _check(residual > 10 * geo.tol.mean_curvature_consistency, InternalConsistencyError,
           lambda w: f"mean curvature contractions disagree by {residual[w]:.3e}")
    return MeanCurvature(
        h_vector=h_vec,
        alpha=alpha_direct,
        alpha_norm=_norm(alpha_direct),
        formula_residual=residual,
    )


@dataclasses.dataclass(frozen=True)
class LeviForm:
    """Levi data on the maximal complex tangency, member by member.

    ``two_form`` is L(b_i, b_j) = (1/2)(<H J b_i, b_j> - <H b_i, J b_j>)
    with H the |grad|-normalized Hessian; ``hermitian`` the J-invariant
    symmetric reading whose value on a unit vector X is L(X, JX).  The
    convention factor 1/2 makes the unit sphere value 1.
    """

    two_form: np.ndarray
    hermitian: np.ndarray
    eigenvalues: np.ndarray
    positive_definite: np.ndarray


def levi_form(geo: PointGeometry) -> LeviForm:
    basis = geo.frame.h_vectors()
    hess = geo.normalized_hessian
    jb = _standard_j(geo.y.n) @ basis
    two_form = 0.5 * (_t(jb) @ hess @ basis - _t(basis) @ hess @ jb)
    hermitian = 0.5 * (_t(basis) @ hess @ basis + _t(jb) @ hess @ jb)
    eig = np.linalg.eigvalsh(hermitian)
    return LeviForm(
        two_form=two_form,
        hermitian=hermitian,
        eigenvalues=eig,
        positive_definite=np.all(eig > 0, axis=-1) & (eig.shape[-1] > 0),
    )


@dataclasses.dataclass(frozen=True)
class TransverseCurvature:
    """The null-direction-valued two-form on N_JF measuring
    non-integrability of the j-invariant complement, member by member.

    ``components[..., i, j, a]`` is the coefficient of kernel direction a on
    the basis pair (b_i, b_j); antisymmetric in (i, j).  The complex type
    parts are populated by the second-fundamental-form route only.
    """

    components: np.ndarray
    f20: Optional[np.ndarray] = None
    f11: Optional[np.ndarray] = None
    f02: Optional[np.ndarray] = None

    def reassembled(self, tol: float = DEFAULT.type_reassembly) -> np.ndarray:
        """F^{2,0} + F^{1,1} + F^{0,2} evaluated on the real basis pairs;
        must reproduce ``components``."""
        if self.f20 is None:
            raise ValueError("type decomposition not available on this route")
        k = self.components.shape[-3] // 2
        # theta^a(e_b) = delta, theta^a(f_b) = i delta on the (e_a, f_a) basis
        theta = np.concatenate([np.eye(k), 1j * np.eye(k)], axis=1)
        tbar = np.conj(theta)
        # each type part F^{pq}(u, v) - F^{pq}(v, u), from the ordered pairing
        ordered = (np.einsum("...abl,ai,bj->...ijl", self.f20, theta, theta)
                   + np.einsum("...abl,ai,bj->...ijl", self.f11, theta, tbar)
                   + np.einsum("...abl,ai,bj->...ijl", self.f02, tbar, tbar))
        out = ordered - np.swapaxes(ordered, -3, -2)
        _check(np.max(np.abs(out.imag), axis=_BLOCK_AXES, initial=0.0) > tol,
               InternalConsistencyError, lambda w: "type reassembly left an imaginary part")
        return out.real

    def norm(self) -> np.ndarray:
        return np.max(np.abs(self.components), axis=_BLOCK_AXES, initial=0.0)


def transverse_curvature_bracket(
    geo: PointGeometry,
    scheme: str = "projection",
) -> TransverseCurvature:
    """Bracket-route transverse curvature.

    Basis vectors of N_JF are extended to fields normal to the foliation
    either by projecting their constant extensions onto N_JF at nearby
    surface points (``projection``) or by transporting the base frame with
    hint projection (``transport``); the Lie bracket is formed by central
    differences of the field along surface steps and its null-direction
    component extracted.  The bracket must remain tangent to Y.  The two
    steps along each basis field of each point are projected to the
    surface in one stacked projection.
    """
    y, p, tol = geo.y, geo.point, geo.tol
    basis = geo.frame.h_vectors()
    rows = _t(basis)                     # (..., 2k, 2n): the basis vectors
    two_k = basis.shape[-1]
    kernel = geo.frame.kernel_vectors()

    # the basis rows against the (..., 2k, 2, 2n) stack of stepped points
    stepped_rows = rows[..., None, None, :, :]

    # fields(x, b): every field of the rows b at the points of x (their
    # normals or their N_JF), one row per field
    if scheme == "projection":
        def fields(nu, b):
            xr = _apply_j(y.n, nu)[..., None, :]
            nu = nu[..., None, :]
            return b - np.vecdot(b, nu)[..., None] * nu - np.vecdot(b, xr)[..., None] * xr

        at_p = fields(geo.nu, rows)

        def fields_at(q):
            return fields(y.unit_normal(q, tol), stepped_rows)
    elif scheme == "transport":
        def fields(njf, b):
            # hint-projected transport of the whole base N_JF frame
            return _t(_mgs(njf.project(_t(b)), tol.hint_min_norm)[0])

        at_p = fields(geo.njf, rows)

        def fields_at(q):
            return fields(tangent_splitting(y, q, tol).njf, stepped_rows)
    else:
        raise ValueError(f"unknown extension scheme {scheme!r}")

    # every field at the two surface steps along each basis field:
    # stepped[..., i, s, jj] is field jj at the step of sign s along field i
    shift = BRACKET_STEP * at_p
    base = p[..., None, :]
    stepped = fields_at(y.project(np.stack([base + shift, base - shift], axis=-2)))
    # deriv[..., i, jj]: central difference of field jj along field i
    deriv = (stepped[..., 0, :, :] - stepped[..., 1, :, :]) / (2 * BRACKET_STEP)
    br = deriv - np.swapaxes(deriv, -3, -2)
    upper = np.triu(np.ones((two_k, two_k), dtype=bool), 1)
    scale = np.maximum(1.0, np.max(np.abs(geo.hessian), axis=(-2, -1)))
    normal = np.abs(np.vecdot(br, geo.nu[..., None, None, :]))
    bound = tol.bracket_tangency * scale[..., None, None] * (1 + _norm(br))
    _check((normal > bound) & upper, ExtensionQualityError,
           lambda w: f"bracket has normal component {normal[w]:.3e}", trailing=2)
    coef = np.vecdot(_t(kernel)[..., None, None, :, :], br[..., None, :])
    comps = np.zeros(coef.shape)
    i, jj = np.nonzero(upper)
    comps[..., i, jj, :] = coef[..., i, jj, :]
    comps[..., jj, i, :] = -coef[..., i, jj, :]
    return TransverseCurvature(components=comps)


def transverse_curvature_sff(geo: PointGeometry) -> TransverseCurvature:
    """Frame-route transverse curvature assembled from the SFF blocks.

    Real components, index order pinned against the bracket oracle:
    F(e_a, e_b) = (C_ba - C_ab) e_alpha, F(f_a, f_b) the same value, and
    F(e_a, f_b) = (-D_ab - A_ab) e_alpha, all indices in the H range.  The
    complex type parts are solved from the real blocks; since the mixed
    block is symmetric and the two diagonal blocks agree, the (2,0) and
    (0,2) parts vanish identically in the flat Kahler setting.
    """
    blocks = geo.blocks
    k = blocks.k
    ch = blocks.c[..., :k]              # C^alpha_{b j}, H columns only
    bh = blocks.b[..., :k, :]           # B^alpha_{j b}, H rows only
    mixed = -blocks.d - blocks.a[..., :k, :k]

    def per_normal_last(x):
        # (..., alpha, a, b) -> (..., a, b, alpha)
        return np.moveaxis(x, -3, -1)

    comps = np.zeros(blocks.full.shape[:-3] + (2 * k, 2 * k, blocks.full.shape[-3]))
    comps[..., :k, :k, :] = per_normal_last(_t(ch) - ch)
    comps[..., k:, k:, :] = per_normal_last(bh - _t(bh))
    comps[..., :k, k:, :] = per_normal_last(0.0 + mixed)
    comps[..., k:, :k, :] = per_normal_last(0.0 - _t(mixed))
    e_blk = comps[..., :k, :k, :]
    g_blk = comps[..., k:, k:, :]
    m_blk = comps[..., :k, k:, :]
    m_sym = 0.5 * (m_blk + np.swapaxes(m_blk, -3, -2))
    m_anti = 0.5 * (m_blk - np.swapaxes(m_blk, -3, -2))
    f20 = (e_blk - g_blk) / 8.0 - 0.25j * m_anti
    f11 = (e_blk + g_blk) / 4.0 + 0.5j * m_sym
    out = TransverseCurvature(components=comps, f20=f20, f11=f11, f02=np.conj(f20))
    bound = geo.tol.type_reassembly
    resid = np.max(np.abs(out.reassembled(bound) - comps), axis=_BLOCK_AXES, initial=0.0)
    _check(resid > bound, InternalConsistencyError,
           lambda w: f"type decomposition reassembly residual {resid[w]:.3e}")
    return out


def is_integrable_prekahler(
    curv: TransverseCurvature, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """True iff the SFF-route transverse curvature ``curv`` is of type (1,1),
    member by member.

    Route one tests the real-block criterion in the bracket-verified index
    order (the two diagonal blocks agree and the mixed block is symmetric);
    route two tests vanishing of the (2,0) and (0,2) parts directly.  The
    routes must agree or an internal consistency error is raised.
    """
    if curv.f20 is None:
        raise ValueError("type decomposition not available on this route")
    comps = curv.components
    k = comps.shape[-3] // 2
    m_blk = comps[..., :k, k:, :]

    def largest(x):
        return np.max(np.abs(x), axis=_BLOCK_AXES, initial=0.0)

    resid = np.maximum(largest(comps[..., :k, :k, :] - comps[..., k:, k:, :]),
                       largest(m_blk - np.swapaxes(m_blk, -3, -2)))
    route1 = resid < tol.integrability
    off = np.maximum(largest(curv.f20), largest(curv.f02))
    route2 = off < tol.integrability / 2
    _check(route1 != route2, InternalConsistencyError,
           lambda w: f"integrability routes disagree: real blocks {resid[w]:.3e} vs "
           f"type parts {off[w]:.3e}")
    return route1


@dataclasses.dataclass(frozen=True)
class Minimality:
    minimal: np.ndarray
    curvature_norm: np.ndarray
    curvature_vector: np.ndarray
    blocks_vector: np.ndarray
    consistency_residual: np.ndarray


def _rk4(f: Callable, x: np.ndarray, h) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def leaf_minimality(geo: PointGeometry) -> Minimality:
    """Is the null leaf through each point a minimal curve of Y?

    The leaf is the integral curve of X_rho.  Its curvature inside Y is the
    second difference of the flow projected onto the tangent space minus
    the X_rho direction; the leaf is minimal iff that vector vanishes.
    The result is cross-checked against the frame contractions of the SFF
    blocks (the C and A entries pairing H directions with the null
    direction), which express the same curvature.  One RK4 run advances
    every point forward and backward together.
    """
    y, p, tol = geo.y, geo.point, geo.tol

    def vf(x):
        g = y.gradient(x)
        return _apply_j(y.n, g / _norm(g)[..., None])

    steps = np.array([FLOW_STEP, -FLOW_STEP]).reshape((2,) + (1,) * p.ndim)
    xp, xm = _rk4(vf, np.stack([p, p]), steps)
    acc = (xp - 2 * p + xm) / FLOW_STEP ** 2
    kappa = (acc - np.vecdot(acc, geo.nu)[..., None] * geo.nu
             - np.vecdot(acc, geo.x_rho)[..., None] * geo.x_rho)
    norm = _norm(kappa)

    blocks = geo.blocks
    n, k = blocks.n, blocks.k
    c_con = blocks.c[..., 0, :, n - 1]    # C^n_{a, n}
    a_con = blocks.a[..., 0, :k, n - 1]   # A^n_{a, n}
    e_h = geo.frame.e[..., :k]
    f_h = geo.frame.f[..., :k]
    blocks_vec = (-e_h @ c_con[..., None])[..., 0] + (f_h @ a_con[..., None])[..., 0]
    resid = _norm(kappa - blocks_vec)
    _check(resid > tol.minimality_consistency * np.maximum(1.0, norm),
           InternalConsistencyError,
           lambda w: f"flow curvature and block contractions disagree: {resid[w]:.3e}")
    return Minimality(
        minimal=norm < tol.minimality,
        curvature_norm=norm,
        curvature_vector=kappa,
        blocks_vector=blocks_vec,
        consistency_residual=resid,
    )


# ---------------------------------------------------------------------------
# fixtures: every oracle takes a (..., 2n) stack of points


def sphere(n: int = 2, radius: float = 1.0, analytic: bool = True,
           h: float = FD_STEP) -> LevelSetHypersurface:
    """The round sphere |x| = radius, with rho = |x| - radius + 1 so the
    gradient is exactly unit."""

    def rho(x):
        return _norm(x) - radius + 1.0

    def grad(x):
        return x / _norm(x)[..., None]

    def hess(x):
        r = _norm(x)[..., None]
        xh = x / r
        return (np.eye(x.shape[-1]) - xh[..., :, None] * xh[..., None, :]) / r[..., None]

    return LevelSetHypersurface(
        n=n, rho=rho,
        grad=grad if analytic else None,
        hess=hess if analytic else None,
        h=h, strict=True, name=f"sphere(r={radius})",
    )


def hyperplane(n: int = 2, level: float = 1.0) -> LevelSetHypersurface:
    """The real hyperplane {x_1 = level}, totally geodesic and Levi flat."""

    def rho(x):
        return x[..., 0] - level + 1.0

    def grad(x):
        g = np.zeros(x.shape)
        g[..., 0] = 1.0
        return g

    def hess(x):
        return np.zeros(x.shape + x.shape[-1:])

    return LevelSetHypersurface(
        n=n, rho=rho, grad=grad, hess=hess, strict=True,
        name=f"hyperplane(x1={level})",
    )


def cylinder(n: int = 2, radius: float = 1.0) -> LevelSetHypersurface:
    """{|z_1| = radius} in C^n; curvature concentrated in the z_1 plane."""

    def rho(x):
        nn = x.shape[-1] // 2
        return np.hypot(x[..., 0], x[..., nn]) - radius + 1.0

    def grad(x):
        nn = x.shape[-1] // 2
        r = np.hypot(x[..., 0], x[..., nn])
        g = np.zeros(x.shape)
        g[..., 0], g[..., nn] = x[..., 0] / r, x[..., nn] / r
        return g

    def hess(x):
        nn = x.shape[-1] // 2
        r = np.hypot(x[..., 0], x[..., nn])
        out = np.zeros(x.shape + x.shape[-1:])
        c, s = x[..., 0] / r, x[..., nn] / r
        out[..., 0, 0] = s * s / r
        out[..., nn, nn] = c * c / r
        out[..., 0, nn] = out[..., nn, 0] = -c * s / r
        return out

    return LevelSetHypersurface(
        n=n, rho=rho, grad=grad, hess=hess, strict=True,
        name=f"cylinder(r={radius})",
    )


def ellipsoid(semi_axes: Sequence[float]) -> LevelSetHypersurface:
    """{sum |z_j|^2 / a_j^2 = 1}, one semi-axis per complex coordinate.

    The gradient is not unit, so the fixture runs in non-strict mode and
    all formulas normalize pointwise.
    """
    a = np.asarray(semi_axes, dtype=float)
    n = len(a)
    w = np.concatenate([1.0 / a ** 2, 1.0 / a ** 2])
    diag = np.diag(2.0 * w)

    def rho(x):
        return np.sum(w * x * x, axis=-1)

    def grad(x):
        return 2.0 * w * x

    def hess(x):
        return np.broadcast_to(diag, x.shape + w.shape).copy()

    return LevelSetHypersurface(
        n=n, rho=rho, grad=grad, hess=hess, strict=False,
        name=f"ellipsoid{tuple(a)}",
    )


def from_polynomial(n: int, terms: Sequence[dict]) -> LevelSetHypersurface:
    """A defining function given as a polynomial coefficient table.

    Each term is {"exponents": [2n ints], "coeff": float} with total degree
    at most 6.  Gradient and Hessian are produced by exact exponent
    manipulation; no code is evaluated.  Each table entry is evaluated at
    every point of the stack at once.  The gradient need not be unit, so the
    fixture runs in non-strict mode.
    """
    exps = []
    coefs = []
    for t in terms:
        e = np.asarray(t["exponents"], dtype=int)
        if e.shape != (2 * n,) or np.any(e < 0):
            raise ValueError("each term needs 2n nonnegative exponents")
        if int(e.sum()) > 6:
            raise ValueError("polynomial degree must be at most 6")
        exps.append(e)
        coefs.append(float(t["coeff"]))
    exps = np.stack(exps) if exps else np.zeros((0, 2 * n), dtype=int)
    coefs = np.asarray(coefs)

    def rho(x):
        return np.sum(coefs * np.prod(x[..., None, :] ** exps, axis=-1), axis=-1)

    # derivative tables, built once: (index, exponents, coefficients) of the
    # terms that survive each derivative
    grad_table = []
    for i in range(2 * n):
        mask = exps[:, i] > 0
        if not np.any(mask):
            continue
        e2 = exps[mask].copy()
        c2 = coefs[mask] * e2[:, i]
        e2[:, i] -= 1
        grad_table.append((i, e2, c2))
    hess_table = []
    for i in range(2 * n):
        for jj in range(i, 2 * n):
            e2 = exps.copy().astype(float)
            c2 = coefs * exps[:, i]
            e2[:, i] -= 1
            c2 = c2 * np.where(e2[:, jj] > -1, e2[:, jj], 0)
            e2[:, jj] -= 1
            mask = c2 != 0
            if np.any(mask):
                hess_table.append((i, jj, e2[mask], c2[mask]))

    def grad(x):
        out = np.zeros(x.shape)
        for i, e2, c2 in grad_table:
            out[..., i] = np.sum(c2 * np.prod(x[..., None, :] ** e2, axis=-1), axis=-1)
        return out

    def hess(x):
        out = np.zeros(x.shape + (2 * n,))
        for i, jj, e2, c2 in hess_table:
            out[..., i, jj] = out[..., jj, i] = np.sum(
                c2 * np.prod(x[..., None, :] ** e2, axis=-1), axis=-1)
        return out

    return LevelSetHypersurface(
        n=n, rho=rho, grad=grad, hess=hess, strict=False,
        name="polynomial",
    )


# name -> builder of the fixture from its parameter dict
FIXTURES = {
    "sphere": lambda params: sphere(
        n=int(params.get("n", 2)), radius=float(params.get("r", 1.0))),
    "hyperplane": lambda params: hyperplane(
        n=int(params.get("n", 2)), level=float(params.get("level", 1.0))),
    "cylinder": lambda params: cylinder(
        n=int(params.get("n", 2)), radius=float(params.get("r", 1.0))),
    "ellipsoid": lambda params: ellipsoid(params["semi_axes"]),
    "polynomial": lambda params: from_polynomial(int(params["n"]), params["terms"]),
}


# ---------------------------------------------------------------------------
# product fixture: Lagrangian graph times C^m, for multi-dimensional leaves


def _inverse_sqrt_metric(hf: np.ndarray) -> np.ndarray:
    """(1 + hf^2)^(-1/2), which makes the graph's tangent columns orthonormal:
    q diag(1 / sqrt(1 + w^2)) q' from one ``eigh`` of the symmetric hf."""
    w, q = np.linalg.eigh(hf)
    return (q / np.sqrt(1 + w ** 2)) @ q.T


class LagrangianGraphProduct:
    """Y = L x C^m in C^{l+m} with L the Lagrangian graph of df in C^l.

    The null foliation has l-dimensional leaves (tangent to TL) and the
    j-invariant complement is the C^m factor.  The second fundamental form
    lives entirely in the L block and has the closed form
    <S(t(u), t(v)), J t(w)> = D^3 f(u, v, w), which serves as the oracle
    for the numerical route.
    """

    def __init__(self, cubic: np.ndarray, quad: np.ndarray, m: int = 1):
        cubic = np.asarray(cubic, dtype=float)
        quad = np.asarray(quad, dtype=float)
        l = quad.shape[0]
        if cubic.shape != (l, l, l):
            raise ValueError("cubic tensor shape mismatch")
        # symmetrize
        cs = np.zeros_like(cubic)
        for perm in itertools.permutations(range(3)):
            cs += np.transpose(cubic, perm)
        self.cubic = cs / 6.0
        self.quad = (quad + quad.T) / 2.0
        self.l = l
        self.m = m
        self.n = l + m
        self.k = m

    def hess_f(self, x: np.ndarray) -> np.ndarray:
        return self.quad + np.einsum("ijk,k->ij", self.cubic, x)

    def frame(self, x: np.ndarray) -> AdaptedFrame:
        """Adapted frame: e_1..e_m the C^m directions, e_{m+1}..e_n an
        orthonormal basis of TL."""
        n, l, m = self.n, self.l, self.m
        hf = self.hess_f(x)
        tl = np.zeros((2 * n, l))
        tl[: l, :] = np.eye(l)
        tl[n: n + l, :] = hf
        tl = tl @ _inverse_sqrt_metric(hf)
        e_h = np.zeros((2 * n, m))
        for a in range(m):
            e_h[l + a, a] = 1.0
        e = np.concatenate([e_h, tl], axis=1)
        j = _standard_j(n)
        return AdaptedFrame(k=m, e=e, f=j @ e)

    def tangent_projector(self, x: np.ndarray) -> np.ndarray:
        fr = self.frame(x)
        t = fr.tangent_basis()
        return t @ t.T

    def sff_oracle(self, x: np.ndarray) -> SFFBlocks:
        """Closed-form blocks from the third derivatives of f."""
        n, l, m = self.n, self.l, self.m
        fr = self.frame(x)
        hf = self.hess_f(x)
        minv = _inverse_sqrt_metric(hf)
        full = np.zeros((l, n + m, n + m))
        # kernel block indices inside the e range: m .. n-1
        full[:, m:n, m:n] = np.einsum("ijk,ib,jc,ka->abc", self.cubic, minv, minv, minv)
        return SFFBlocks(frame=fr, full=full)

    def sff_numeric(self, x: np.ndarray) -> SFFBlocks:
        """Blocks by central differences of tangentially extended fields,
        independent of the third-derivative oracle."""
        fr = self.frame(x)
        t = fr.tangent_basis()
        normals = fr.f[:, self.m:]
        cols = t.shape[1]
        full = np.zeros((normals.shape[1], cols, cols))
        for i in range(cols):
            # step the graph parameters by the tangent vector's x components:
            # no tangent space depends on the C^m factor
            dx = t[: self.l, i] * PRODUCT_SFF_STEP
            pp = self.tangent_projector(x + dx)
            pm = self.tangent_projector(x - dx)
            for jj in range(cols):
                vj = t[:, jj]
                dw = (pp @ vj - pm @ vj) / (2 * PRODUCT_SFF_STEP)
                coef = normals.T @ dw
                full[:, i, jj] += coef
        full = 0.5 * (full + np.transpose(full, (0, 2, 1)))
        return SFFBlocks(frame=fr, full=full)


def random_graph_product(seed, l: int = 2, m: int = 1,
                         scale: float = 0.4) -> LagrangianGraphProduct:
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    cubic = scale * g.normal(size=(l, l, l))
    quad = scale * g.normal(size=(l, l))
    return LagrangianGraphProduct(cubic=cubic, quad=quad, m=m)
