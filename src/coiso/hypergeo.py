"""Extrinsic geometry of coisotropic level-set hypersurfaces in flat C^n.

A hypersurface Y = {rho = 1} with unit gradient on Y is coisotropic of
rank 2(n-1): the null foliation is spanned by the Hamiltonian direction
X_rho = j grad(rho), and the j-invariant complement N_JF = ker(d rho)
intersected with ker(d^c rho) is the maximal complex tangency.  Everything
here is pointwise: second fundamental form blocks in an adapted frame,
leafwise mean curvature, Levi form, the transverse symplectic curvature by
two independent routes, and leaf minimality along the X_rho flow.

A point's geometry is computed once.  ``point_geometry`` builds one
``PointGeometry`` record per point: the normal, X_rho, N_JF and the adapted
frame from one ``tangent_splitting`` call, the Hessian and |grad rho| from
one evaluation each, and the SFF blocks from one ``second_fundamental_form``
call.  Every pointwise routine reads that record and recomputes none of it.

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
# scipy.linalg is imported inside the function that calls it: importing it
# takes longer than most experiments run, and only the graph-product fixture
# uses it

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
    _mgs,
    _standard_j,
    _standard_omega,
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

# projections ``sample_points`` tries per point before it gives up
SAMPLE_ATTEMPTS = 100


def _fd_gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    d = len(x)
    out = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def _fd_hessian(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    d = len(x)
    out = np.zeros((d, d))
    f0 = f(x)
    ee = h * np.eye(d)
    for i in range(d):
        out[i, i] = (f(x + 2 * ee[i]) - 2 * f0 + f(x - 2 * ee[i])) / (4 * h * h)
        for j in range(i + 1, d):
            pij = f(x + ee[i] + ee[j]) - f(x + ee[i] - ee[j]) \
                - f(x - ee[i] + ee[j]) + f(x - ee[i] - ee[j])
            out[i, j] = out[j, i] = pij / (4 * h * h)
    return out


@dataclasses.dataclass(frozen=True)
class LevelSetHypersurface:
    """Y = {rho = 1} in C^n with derivative oracles.

    ``grad`` and ``hess`` are analytic oracles when the fixture provides
    them; otherwise central differences with step ``h`` are used.  With
    ``strict`` set, points where |grad rho| deviates from 1 beyond the
    strict tolerance are rejected; otherwise all formulas normalize by
    |grad rho| pointwise, which is exact for the tangential quantities
    computed here.
    """

    n: int
    rho: Callable[[np.ndarray], float]
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

    def value(self, x: np.ndarray) -> float:
        return float(self.rho(np.asarray(x, dtype=float)))

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

    def on_surface(self, x: np.ndarray, tol: float = DEFAULT.boundary_on_surface) -> bool:
        return abs(self.value(x) - 1.0) < tol

    def unit_normal(self, x: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
        g = self.gradient(x)
        norm = float(np.linalg.norm(g))
        if norm < 1e-12:
            raise UnnormalizedDefiningFunctionError("grad rho vanished")
        if self.strict and abs(norm - 1.0) > tol.unit_gradient_strict:
            raise UnnormalizedDefiningFunctionError(
                f"|grad rho| = {norm:.6f} deviates from 1 beyond "
                f"{tol.unit_gradient_strict:.1e}"
            )
        return g / norm

    def gradient_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.gradient(x)))

    def project(self, x: np.ndarray, iters: int = 50,
                tol: float = 1e-13) -> np.ndarray:
        """Newton projection onto {rho = 1} along the gradient."""
        x = np.array(x, dtype=float)
        for _ in range(iters):
            r = self.value(x) - 1.0
            if abs(r) < tol:
                return x
            g = self.gradient(x)
            x = x - r * g / float(g @ g)
        return x

    def sample_points(self, count: int, seed, offset: float = 0.5) -> np.ndarray:
        """Deterministic points on Y: Gaussian seeds projected to the surface.

        At most ``SAMPLE_ATTEMPTS`` projections per point are tried; when
        they run out, OffSurfaceError."""
        g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
        pts = []
        for _ in range(SAMPLE_ATTEMPTS * count):
            if len(pts) == count:
                break
            x0 = g.normal(size=self.dim) * offset
            try:
                x = self.project(x0 + g.normal(size=self.dim))
            except UnnormalizedDefiningFunctionError:
                continue
            if self.on_surface(x, 1e-9):
                pts.append(x)
        if len(pts) < count:
            raise OffSurfaceError(
                f"{self.name}: {len(pts)} of {count} sample points reached the "
                f"surface in {SAMPLE_ATTEMPTS * count} projections")
        return np.stack(pts)


class TangentSplitting(NamedTuple):
    nu: np.ndarray
    x_rho: np.ndarray
    njf: Subspace
    frame: AdaptedFrame


def tangent_splitting(
    y: LevelSetHypersurface, p: np.ndarray, tol: Tolerances = DEFAULT
) -> TangentSplitting:
    """Outward normal, Hamiltonian direction, maximal complex tangency and
    an adapted frame with e_n along X_rho (so f_n = -nu)."""
    p = np.asarray(p, dtype=float)
    nu = y.unit_normal(p, tol)
    j = _standard_j(y.n)
    xr = j @ nu
    span = np.stack([nu, xr], axis=1)
    u, s, _ = np.linalg.svd(np.eye(y.dim) - span @ span.T)
    njf = Subspace(u[:, : y.dim - 2])
    jn = j @ njf.basis
    if float(np.max(np.linalg.norm(jn - njf.project(jn), axis=0))) > tol.subspace_equality:
        raise InternalConsistencyError("N_JF failed the j-invariance check")
    # complex orthonormal basis of N_JF, deterministic
    k = y.k
    if k:
        uu = np.linalg.svd(complex_coords(njf.basis))[0]
        e_h = real_coords(_canonical_phases(uu[:, :k]))
    else:
        e_h = np.zeros((y.dim, 0))
    e = np.concatenate([e_h, xr[:, None]], axis=1)
    frame = AdaptedFrame(k=k, e=e, f=j @ e)
    return TangentSplitting(nu=nu, x_rho=xr, njf=njf, frame=frame)


@dataclasses.dataclass(frozen=True)
class SFFBlocks:
    """Second fundamental form of Y in an adapted frame, one symmetric
    matrix per normal direction f_alpha.

    ``full`` has shape (n - k, n + k, n + k) on the tangent basis ordered
    (e_1..e_n, f_1..f_k).  The blocks are views into it:

        A = full[:, :n, :n]      (e x e)
        B = full[:, :n, n:]      (e x f)
        C = full[:, n:, :n]      (f x e)
        D = full[:, n:, n:]      (f x f)

    so A = A', D = D' and B = C' are exactly the Cartan-lemma symmetries.
    """

    point: np.ndarray
    frame: AdaptedFrame
    full: np.ndarray

    def __post_init__(self):
        worst = self.symmetry_residual()
        if worst > DEFAULT.sff_symmetry:
            raise NumericalQualityError(
                f"second fundamental form symmetry violated by {worst:.3e}"
            )

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def k(self) -> int:
        return self.frame.k

    @property
    def a(self) -> np.ndarray:
        return self.full[:, : self.n, : self.n]

    @property
    def b(self) -> np.ndarray:
        return self.full[:, : self.n, self.n:]

    @property
    def c(self) -> np.ndarray:
        return self.full[:, self.n:, : self.n]

    @property
    def d(self) -> np.ndarray:
        return self.full[:, self.n:, self.n:]

    def symmetry_residual(self) -> float:
        return max(
            (float(np.max(np.abs(s - s.T))) for s in self.full), default=0.0
        )


def second_fundamental_form(
    p: np.ndarray,
    frame: AdaptedFrame,
    nu: np.ndarray,
    normalized_hessian: np.ndarray,
) -> SFFBlocks:
    """SFF blocks of Y at p in an adapted frame.

    For a level set with unit normal nu = grad(rho)/|grad(rho)| the
    normal-valued form on tangent vectors is
    S(v, w) = -(<Hess(rho) v, w> / |grad rho|) nu, and the blocks are its
    pairings with the frame normals f_alpha; ``normalized_hessian`` is
    Hess(rho) / |grad rho| at p.
    """
    t = frame.tangent_basis()
    ht = t.T @ normalized_hessian @ t
    normals = frame.f[:, frame.k:]
    signs = -(nu @ normals)          # f_n = -nu gives +1 for hypersurfaces
    full = np.stack([s * ht for s in signs])
    return SFFBlocks(point=p, frame=frame, full=full)


@dataclasses.dataclass(frozen=True)
class PointGeometry:
    """The geometry of Y at one point, computed once by ``point_geometry``
    and read by every pointwise routine.

    ``nu``, ``x_rho``, ``njf`` and ``frame`` come from one
    ``tangent_splitting`` call; ``hessian`` is the raw Hessian of rho,
    ``gradient_norm`` is |grad rho| and ``normalized_hessian`` their
    quotient; ``blocks`` are the SFF blocks in ``frame``.  ``tol`` is the
    tolerance record every check at this point reads.
    """

    y: LevelSetHypersurface
    point: np.ndarray
    nu: np.ndarray
    x_rho: np.ndarray
    njf: Subspace
    frame: AdaptedFrame
    hessian: np.ndarray
    gradient_norm: float
    normalized_hessian: np.ndarray
    blocks: SFFBlocks
    tol: Tolerances

    def in_frame(self, frame: AdaptedFrame) -> "PointGeometry":
        """The same point read in another adapted frame: the SFF blocks are
        re-read from the same Hessian, every other field is kept."""
        blocks = second_fundamental_form(
            self.point, frame, self.nu, self.normalized_hessian)
        return dataclasses.replace(self, frame=frame, blocks=blocks)


def point_geometry(
    y: LevelSetHypersurface, p: np.ndarray, tol: Tolerances = DEFAULT
) -> PointGeometry:
    """Splitting, Hessian and SFF blocks of Y at p, each computed once."""
    p = np.asarray(p, dtype=float)
    spl = tangent_splitting(y, p, tol)
    hessian = y.hessian(p)
    gradient_norm = y.gradient_norm(p)
    normalized_hessian = hessian / gradient_norm
    return PointGeometry(
        y=y, point=p, nu=spl.nu, x_rho=spl.x_rho, njf=spl.njf, frame=spl.frame,
        hessian=hessian, gradient_norm=gradient_norm,
        normalized_hessian=normalized_hessian,
        blocks=second_fundamental_form(p, spl.frame, spl.nu, normalized_hessian),
        tol=tol,
    )


def normal_convention_matrix(blocks: SFFBlocks, nu: np.ndarray) -> np.ndarray:
    """The same form read against the outward unit normal:
    S_nu(v, w) = <S(v, w), nu>.  On the unit sphere this is -identity."""
    normals = blocks.frame.f[:, blocks.frame.k:]
    coef = normals.T @ nu
    return np.einsum("a,aij->ij", coef, blocks.full)


@dataclasses.dataclass(frozen=True)
class MeanCurvature:
    """Partial trace of the SFF over the null directions and its
    omega-contraction restricted to the tangent space."""

    h_vector: np.ndarray            # leafwise mean curvature vector in R^{2n}
    alpha: np.ndarray               # one-form values on the tangent basis
    alpha_norm: float
    formula_residual: float         # direct contraction vs frame formula


def leafwise_mean_curvature(geo: PointGeometry) -> MeanCurvature:
    """Leafwise mean curvature vector and one-form at the point.

    The vector is the trace of the SFF over the kernel frame directions;
    its omega-contraction on the tangent basis is cross-checked against the
    frame formula (minus the kernel-block trace of A on the kernel duals),
    in both index patterns, to 1e-6.
    """
    blocks, frame = geo.blocks, geo.frame
    n, k = blocks.n, blocks.k
    normals = frame.f[:, k:]
    kernel_idx = np.arange(k, n)
    trace = blocks.a[:, kernel_idx, kernel_idx].sum(axis=1)   # per alpha
    h_vec = normals @ trace
    omega = _standard_omega(geo.y.n)
    t = frame.tangent_basis()
    # direct contraction: (i_H omega)(t) = omega(H, t)
    alpha_direct = np.array([h_vec @ omega @ t[:, i] for i in range(t.shape[1])])
    # frame formula: -sum_alpha A^beta_{alpha alpha} on the kernel e-duals,
    # and the transposed contraction -sum_alpha A^alpha_{beta alpha}
    formula1 = np.zeros(t.shape[1])
    formula2 = np.zeros(t.shape[1])
    for bi, beta in enumerate(kernel_idx):
        s1 = blocks.a[bi, kernel_idx, kernel_idx].sum()
        formula1[beta] = -s1
        s2 = sum(blocks.a[ai, beta, alpha_i]
                 for ai, alpha_i in enumerate(kernel_idx))
        formula2[beta] = -s2
    residual = max(
        float(np.max(np.abs(alpha_direct - formula1))),
        float(np.max(np.abs(alpha_direct - formula2))),
    )
    if residual > 10 * geo.tol.mean_curvature_consistency:
        raise InternalConsistencyError(
            f"mean curvature contractions disagree by {residual:.3e}"
        )
    return MeanCurvature(
        h_vector=h_vec,
        alpha=alpha_direct,
        alpha_norm=float(np.linalg.norm(alpha_direct)),
        formula_residual=residual,
    )


@dataclasses.dataclass(frozen=True)
class LeviForm:
    """Levi data on the maximal complex tangency.

    ``two_form`` is L(b_i, b_j) = (1/2)(<H J b_i, b_j> - <H b_i, J b_j>)
    with H the |grad|-normalized Hessian; ``hermitian`` the J-invariant
    symmetric reading whose value on a unit vector X is L(X, JX).  The
    convention factor 1/2 makes the unit sphere value 1.
    """

    basis: np.ndarray
    two_form: np.ndarray
    hermitian: np.ndarray
    eigenvalues: np.ndarray
    positive_definite: bool


def levi_form(geo: PointGeometry) -> LeviForm:
    basis = geo.frame.h_vectors()
    j = _standard_j(geo.y.n)
    hess = geo.normalized_hessian
    jb = j @ basis
    two_form = 0.5 * (jb.T @ hess @ basis - basis.T @ hess @ jb)
    hermitian = 0.5 * (basis.T @ hess @ basis + jb.T @ hess @ jb)
    eig = np.linalg.eigvalsh(hermitian) if basis.shape[1] else np.zeros(0)
    return LeviForm(
        basis=basis,
        two_form=two_form,
        hermitian=hermitian,
        eigenvalues=eig,
        positive_definite=bool(basis.shape[1] and np.min(eig) > 0),
    )


@dataclasses.dataclass(frozen=True)
class TransverseCurvature:
    """The null-direction-valued two-form on N_JF measuring
    non-integrability of the j-invariant complement.

    ``components[i, j, a]`` is the coefficient of kernel direction a on
    the basis pair (b_i, b_j); antisymmetric in (i, j).  The complex type
    parts are populated by the second-fundamental-form route only.
    """

    basis: np.ndarray
    components: np.ndarray
    f20: Optional[np.ndarray] = None
    f11: Optional[np.ndarray] = None
    f02: Optional[np.ndarray] = None

    def reassembled(self, tol: float = DEFAULT.type_reassembly) -> np.ndarray:
        """F^{2,0} + F^{1,1} + F^{0,2} evaluated on the real basis pairs;
        must reproduce ``components``."""
        if self.f20 is None:
            raise ValueError("type decomposition not available on this route")
        k = self.components.shape[0] // 2
        # theta^a(e_b) = delta, theta^a(f_b) = i delta on the (e_a, f_a) basis
        theta = np.concatenate([np.eye(k), 1j * np.eye(k)], axis=1)
        tbar = np.conj(theta)
        # each type part F^{pq}(u, v) - F^{pq}(v, u), from the ordered pairing
        ordered = (np.einsum("abl,ai,bj->ijl", self.f20, theta, theta)
                   + np.einsum("abl,ai,bj->ijl", self.f11, theta, tbar)
                   + np.einsum("abl,ai,bj->ijl", self.f02, tbar, tbar))
        out = ordered - ordered.transpose(1, 0, 2)
        if float(np.max(np.abs(out.imag))) > tol:
            raise InternalConsistencyError("type reassembly left an imaginary part")
        return out.real

    def norm(self) -> float:
        return float(np.max(np.abs(self.components))) if self.components.size else 0.0


def transverse_curvature_bracket(
    geo: PointGeometry,
    step: float = 1e-4,
    scheme: str = "projection",
) -> TransverseCurvature:
    """Bracket-route transverse curvature.

    Basis vectors of N_JF are extended to fields normal to the foliation
    either by projecting their constant extensions onto N_JF at nearby
    surface points (``projection``) or by transporting the base frame with
    hint projection (``transport``); the Lie bracket is formed by central
    differences of the field along surface steps and its null-direction
    component extracted.  The bracket must remain tangent to Y.
    """
    y, p, tol = geo.y, geo.point, geo.tol
    basis = geo.frame.h_vectors()
    two_k = basis.shape[1]
    kernel = geo.frame.kernel_vectors()

    # every field's value at one point, from the splitting data there
    if scheme == "projection":
        def fields(nu):
            xr = _standard_j(y.n) @ nu
            return [b - (b @ nu) * nu - (b @ xr) * xr for b in basis.T]

        at_p = fields(geo.nu)

        def fields_at(q):
            return fields(y.unit_normal(q, tol))
    elif scheme == "transport":
        def fields(njf):
            # hint-projected transport of the whole base N_JF frame
            return list(_mgs(njf.project(basis), tol.hint_min_norm).T)

        at_p = fields(geo.njf)

        def fields_at(q):
            return fields(tangent_splitting(y, q, tol).njf)
    else:
        raise ValueError(f"unknown extension scheme {scheme!r}")

    # all fields at the two surface steps along each basis field
    stepped = [(fields_at(y.project(p + step * v)), fields_at(y.project(p - step * v)))
               for v in at_p]
    comps = np.zeros((two_k, two_k, kernel.shape[1]))
    scale = max(1.0, float(np.max(np.abs(geo.hessian))))
    nu = geo.nu
    for i in range(two_k):
        for jj in range(i + 1, two_k):
            (xp_i, xm_i), (xp_j, xm_j) = stepped[i], stepped[jj]
            dxj = (xp_i[jj] - xm_i[jj]) / (2 * step)
            dxi = (xp_j[i] - xm_j[i]) / (2 * step)
            br = dxj - dxi
            if abs(br @ nu) > tol.bracket_tangency * scale * (1 + np.linalg.norm(br)):
                raise ExtensionQualityError(
                    f"bracket has normal component {abs(br @ nu):.3e}"
                )
            coef = kernel.T @ br
            comps[i, jj] = coef
            comps[jj, i] = -coef
    return TransverseCurvature(basis=basis, components=comps)


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
    n, k = blocks.n, blocks.k
    nal = n - k
    ch = blocks.c[:, :, :k]             # C^alpha_{b j}, H columns only
    ah = blocks.a[:, :k, :k]
    dh = blocks.d
    bh = blocks.b[:, :k, :]             # B^alpha_{j b}, H rows only
    comps = np.zeros((2 * k, 2 * k, nal))
    for al in range(nal):
        c_, a_, d_, b_ = ch[al], ah[al], dh[al], bh[al]
        for a in range(k):
            for b in range(k):
                comps[a, b, al] = c_[b, a] - c_[a, b]
                comps[k + a, k + b, al] = b_[a, b] - b_[b, a]
                val = -d_[a, b] - a_[a, b]
                comps[a, k + b, al] += val
                comps[k + b, a, al] -= val
    f20 = np.zeros((k, k, nal), dtype=complex)
    f11 = np.zeros((k, k, nal), dtype=complex)
    f02 = np.zeros((k, k, nal), dtype=complex)
    for al in range(nal):
        e_blk = comps[:k, :k, al]
        g_blk = comps[k:, k:, al]
        m_blk = comps[:k, k:, al]
        m_sym = 0.5 * (m_blk + m_blk.T)
        m_anti = 0.5 * (m_blk - m_blk.T)
        f20[:, :, al] = (e_blk - g_blk) / 8.0 - 0.25j * m_anti
        f11[:, :, al] = (e_blk + g_blk) / 4.0 + 0.5j * m_sym
        f02[:, :, al] = np.conj(f20[:, :, al])
    out = TransverseCurvature(
        basis=blocks.frame.h_vectors(), components=comps, f20=f20, f11=f11, f02=f02)
    bound = geo.tol.type_reassembly
    resid = float(np.max(np.abs(out.reassembled(bound) - comps))) if comps.size else 0.0
    if resid > bound:
        raise InternalConsistencyError(
            f"type decomposition reassembly residual {resid:.3e}"
        )
    return out


def is_integrable_prekahler(
    curv: TransverseCurvature, tol: Tolerances = DEFAULT
) -> bool:
    """True iff the SFF-route transverse curvature ``curv`` is of type (1,1).

    Route one tests the real-block criterion in the bracket-verified index
    order (the two diagonal blocks agree and the mixed block is symmetric);
    route two tests vanishing of the (2,0) and (0,2) parts directly.  The
    routes must agree or an internal consistency error is raised.
    """
    if curv.f20 is None:
        raise ValueError("type decomposition not available on this route")
    comps = curv.components
    k = comps.shape[0] // 2
    resid = 0.0
    for al in range(comps.shape[2]):
        e_blk = comps[:k, :k, al]
        g_blk = comps[k:, k:, al]
        m_blk = comps[:k, k:, al]
        resid = max(resid,
                    float(np.max(np.abs(e_blk - g_blk))) if k else 0.0,
                    float(np.max(np.abs(m_blk - m_blk.T))) if k else 0.0)
    route1 = resid < tol.integrability
    off = max(
        float(np.max(np.abs(curv.f20))) if curv.f20.size else 0.0,
        float(np.max(np.abs(curv.f02))) if curv.f02.size else 0.0,
    )
    route2 = off < tol.integrability / 2
    if route1 != route2:
        raise InternalConsistencyError(
            f"integrability routes disagree: real blocks {resid:.3e} vs "
            f"type parts {off:.3e}"
        )
    return route1


@dataclasses.dataclass(frozen=True)
class Minimality:
    minimal: bool
    curvature_norm: float
    curvature_vector: np.ndarray
    blocks_vector: np.ndarray
    consistency_residual: float
    c_contractions: np.ndarray
    a_contractions: np.ndarray


def _rk4(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def leaf_minimality(geo: PointGeometry, flow_step: float = 1e-3) -> Minimality:
    """Is the null leaf through the point a minimal curve of Y?

    The leaf is the integral curve of X_rho.  Its curvature inside Y is the
    second difference of the flow projected onto the tangent space minus
    the X_rho direction; the leaf is minimal iff that vector vanishes.
    The result is cross-checked against the frame contractions of the SFF
    blocks (the C and A entries pairing H directions with the null
    direction), which express the same curvature.
    """
    y, p, tol = geo.y, geo.point, geo.tol

    def vf(x):
        g = y.gradient(x)
        return _standard_j(y.n) @ (g / np.linalg.norm(g))

    xp = _rk4(vf, p, flow_step)
    xm = _rk4(vf, p, -flow_step)
    acc = (xp - 2 * p + xm) / flow_step ** 2
    kappa = acc - (acc @ geo.nu) * geo.nu - (acc @ geo.x_rho) * geo.x_rho
    norm = float(np.linalg.norm(kappa))

    blocks = geo.blocks
    n, k = blocks.n, blocks.k
    c_con = blocks.c[0, :, n - 1].copy()       # C^n_{a, n}
    a_con = blocks.a[0, :k, n - 1].copy()      # A^n_{a, n}
    e_h = geo.frame.e[:, :k]
    f_h = geo.frame.f[:, :k]
    blocks_vec = -e_h @ c_con + f_h @ a_con
    resid = float(np.linalg.norm(kappa - blocks_vec))
    if resid > tol.minimality_consistency * max(1.0, norm):
        raise InternalConsistencyError(
            f"flow curvature and block contractions disagree: {resid:.3e}"
        )
    return Minimality(
        minimal=norm < tol.minimality,
        curvature_norm=norm,
        curvature_vector=kappa,
        blocks_vector=blocks_vec,
        consistency_residual=resid,
        c_contractions=c_con,
        a_contractions=a_con,
    )


# ---------------------------------------------------------------------------
# fixtures


def sphere(n: int = 2, radius: float = 1.0, analytic: bool = True,
           h: float = FD_STEP) -> LevelSetHypersurface:
    """The round sphere |x| = radius, with rho = |x| - radius + 1 so the
    gradient is exactly unit."""

    def rho(x):
        return float(np.linalg.norm(x)) - radius + 1.0

    def grad(x):
        return x / np.linalg.norm(x)

    def hess(x):
        r = np.linalg.norm(x)
        xh = x / r
        return (np.eye(len(x)) - np.outer(xh, xh)) / r

    return LevelSetHypersurface(
        n=n, rho=rho,
        grad=grad if analytic else None,
        hess=hess if analytic else None,
        h=h, strict=True, name=f"sphere(r={radius})",
    )


def hyperplane(n: int = 2, level: float = 1.0) -> LevelSetHypersurface:
    """The real hyperplane {x_1 = level}, totally geodesic and Levi flat."""

    def rho(x):
        return float(x[0]) - level + 1.0

    def grad(x):
        g = np.zeros(len(x))
        g[0] = 1.0
        return g

    def hess(x):
        return np.zeros((len(x), len(x)))

    return LevelSetHypersurface(
        n=n, rho=rho, grad=grad, hess=hess, strict=True,
        name=f"hyperplane(x1={level})",
    )


def cylinder(n: int = 2, radius: float = 1.0) -> LevelSetHypersurface:
    """{|z_1| = radius} in C^n; curvature concentrated in the z_1 plane."""

    def rho(x):
        nn = len(x) // 2
        return float(np.hypot(x[0], x[nn])) - radius + 1.0

    def grad(x):
        nn = len(x) // 2
        r = np.hypot(x[0], x[nn])
        g = np.zeros(len(x))
        g[0], g[nn] = x[0] / r, x[nn] / r
        return g

    def hess(x):
        nn = len(x) // 2
        r = np.hypot(x[0], x[nn])
        out = np.zeros((len(x), len(x)))
        c, s = x[0] / r, x[nn] / r
        out[0, 0] = s * s / r
        out[nn, nn] = c * c / r
        out[0, nn] = out[nn, 0] = -c * s / r
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

    def rho(x):
        return float(np.sum(w * x * x))

    def grad(x):
        return 2.0 * w * x

    def hess(x):
        return np.diag(2.0 * w)

    return LevelSetHypersurface(
        n=n, rho=rho, grad=grad, hess=hess, strict=False,
        name=f"ellipsoid{tuple(a)}",
    )


def from_polynomial(n: int, terms: Sequence[dict],
                    strict: bool = False) -> LevelSetHypersurface:
    """A defining function given as a polynomial coefficient table.

    Each term is {"exponents": [2n ints], "coeff": float} with total degree
    at most 6.  Gradient and Hessian are produced by exact exponent
    manipulation; no code is evaluated.
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
        return float(np.sum(coefs * np.prod(x ** exps, axis=1)))

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
        out = np.zeros(2 * n)
        for i, e2, c2 in grad_table:
            out[i] = np.sum(c2 * np.prod(x ** e2, axis=1))
        return out

    def hess(x):
        out = np.zeros((2 * n, 2 * n))
        for i, jj, e2, c2 in hess_table:
            out[i, jj] = out[jj, i] = np.sum(c2 * np.prod(x ** e2, axis=1))
        return out

    return LevelSetHypersurface(
        n=n, rho=rho, grad=grad, hess=hess, strict=strict,
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
    """(1 + hf^2)^(-1/2), which makes the graph's tangent columns orthonormal."""
    import scipy.linalg

    return np.linalg.inv(scipy.linalg.sqrtm(np.eye(len(hf)) + hf @ hf).real)


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

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        return self.quad @ x + 0.5 * np.einsum("ijk,j,k->i", self.cubic, x, x)

    def hess_f(self, x: np.ndarray) -> np.ndarray:
        return self.quad + np.einsum("ijk,k->ij", self.cubic, x)

    def embed(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Real coordinates of the point (x + i grad f(x), w) in C^{l+m}."""
        n = self.n
        out = np.zeros(2 * n)
        out[: self.l] = x
        out[self.l: n] = w[: self.m]
        out[n: n + self.l] = self.grad_f(x)
        out[n + self.l:] = w[self.m:]
        return out

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
        for al in range(l):
            for b in range(l):
                for c in range(l):
                    val = np.einsum(
                        "ijk,i,j,k->", self.cubic,
                        minv[:, b], minv[:, c], minv[:, al],
                    )
                    full[al, m + b, m + c] = val
        return SFFBlocks(point=self.embed(x, np.zeros(2 * m)), frame=fr, full=full)

    def sff_numeric(self, x: np.ndarray, step: float = 1e-5) -> SFFBlocks:
        """Blocks by central differences of tangentially extended fields,
        independent of the third-derivative oracle."""
        n, m = self.n, self.m
        fr = self.frame(x)
        t = fr.tangent_basis()
        normals = fr.f[:, m:]
        w0 = np.zeros(2 * m)

        def pullback_step(v, s):
            # move the surface parameters by the tangent vector's components
            dx = v[: self.l] * s
            dw = np.concatenate([v[self.l: n], v[n + self.l:]]) * s
            return x + dx, w0 + dw

        cols = t.shape[1]
        full = np.zeros((normals.shape[1], cols, cols))
        for i in range(cols):
            vi = t[:, i]
            xp, wp = pullback_step(vi, step)
            xm, wm = pullback_step(vi, -step)
            pp = self.tangent_projector(xp)
            pm = self.tangent_projector(xm)
            for jj in range(cols):
                vj = t[:, jj]
                dw = (pp @ vj - pm @ vj) / (2 * step)
                coef = normals.T @ dw
                full[:, i, jj] += coef
        full = 0.5 * (full + np.transpose(full, (0, 2, 1)))
        return SFFBlocks(point=self.embed(x, w0), frame=fr, full=full)


def random_graph_product(seed, l: int = 2, m: int = 1,
                         scale: float = 0.4) -> LagrangianGraphProduct:
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    cubic = scale * g.normal(size=(l, l, l))
    quad = scale * g.normal(size=(l, l))
    return LagrangianGraphProduct(cubic=cubic, quad=quad, m=m)
