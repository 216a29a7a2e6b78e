"""Symplectic linear algebra over R^{2n} with the standard structures.

Coordinates are ordered (x_1 .. x_n, y_1 .. y_n) and identified with C^n
through z_j = x_j + i y_j.  The standard structures in this basis are

    omega = [[0, I], [-I, 0]],    j = [[0, -I], [I, 0]],    g = identity,

so that g(X, Y) = omega(X, j Y) and j acts as multiplication by i.  All
subspaces are stored as matrices with g-orthonormal columns because frames,
not projectors, are the working objects of every downstream computation.

A loop's samples are handled as one stack: a ``Subspace`` may hold a
(..., 2n, m) array of equal-dimensional members, and classification,
complements, principal angles and frame checks act on every member with
one stacked ``np.linalg`` call per step.  A single subspace is the
unstacked case of the same code.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from math import isclose
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances, rng
from .errors import (
    ClassificationError,
    ContinuityLossError,
    DegenerateInputError,
)

__all__ = [
    "SymplecticSpace",
    "Subspace",
    "CoisotropicSubspace",
    "AdaptedFrame",
    "standard_space",
    "complex_coords",
    "real_coords",
    "realify",
    "principal_angles",
    "largest_principal_angles",
    "spans_equal",
    "omega_pairing",
    "symplectic_complement",
    "classify_coisotropic",
    "adapted_frame",
    "transported_frames",
    "grassmannian_dim",
    "random_unitary",
    "random_coisotropic",
    "standard_model",
    "measured_grassmannian_dim",
]


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return a.swapaxes(-1, -2)


def _member_note(index: tuple) -> str:
    """Names the failing member of a stack in an error message."""
    return f" (stack member {', '.join(map(str, index))})" if index else ""


@lru_cache(maxsize=32)
def _standard_omega(n: int) -> np.ndarray:
    o = np.zeros((2 * n, 2 * n))
    o[:n, n:] = np.eye(n)
    o[n:, :n] = -np.eye(n)
    o.setflags(write=False)
    return o


@lru_cache(maxsize=32)
def _standard_j(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    j.setflags(write=False)
    return j


@dataclasses.dataclass(frozen=True)
class SymplecticSpace:
    """(R^{2n}, omega, j, g) with omega antisymmetric, j^2 = -I and
    g = omega(., j .) positive definite."""

    n: int
    omega: np.ndarray
    j: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex dimension must be positive")
        d = 2 * self.n
        if self.omega.shape != (d, d):
            raise ValueError("omega has the wrong shape")
        if np.max(np.abs(self.omega + self.omega.T)) > 1e-12:
            raise ValueError("omega is not antisymmetric")
        if abs(np.linalg.det(self.omega)) < 1e-12:
            raise ValueError("omega is degenerate")
        if np.max(np.abs(self.j @ self.j + np.eye(d))) > 1e-12:
            raise ValueError("j*j != -identity")
        # compatibility: g = omega . j symmetric positive definite
        g = self.omega @ self.j
        if np.max(np.abs(g - self.g)) > 1e-12 or np.max(np.abs(g - g.T)) > 1e-12:
            raise ValueError("g != omega(., j.) or not symmetric")
        if np.min(np.linalg.eigvalsh(g)) <= 0:
            raise ValueError("g is not positive definite")
        # j preserves omega
        if np.max(np.abs(self.j.T @ self.omega @ self.j - self.omega)) > 1e-12:
            raise ValueError("j does not preserve omega")

    @property
    def dim(self) -> int:
        return 2 * self.n


def standard_space(n: int) -> SymplecticSpace:
    """The standard (R^{2n}, omega_0, j, g=identity)."""
    return SymplecticSpace(
        n=n,
        omega=_standard_omega(n),
        j=_standard_j(n),
        g=np.eye(2 * n),
    )


def complex_coords(v: np.ndarray) -> np.ndarray:
    """Real 2n-vectors (or 2n x m column stacks) as complex n-vectors."""
    v = np.asarray(v)
    n = v.shape[0] // 2
    return v[:n] + 1j * v[n:]


def real_coords(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complex_coords`."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=0)


def realify(u: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix of a complex-linear map acting on C^n."""
    u = np.asarray(u, dtype=complex)
    a, b = u.real, u.imag
    return np.block([[a, -b], [b, a]])


def _mgs(cols: np.ndarray, min_norm: float) -> np.ndarray:
    """Modified Gram-Schmidt in fixed column order, two passes for stability.

    Raises ContinuityLossError when a column drops below ``min_norm``.
    """
    q = np.array(cols, dtype=float)
    m = q.shape[1]
    for i in range(m):
        v = q[:, i]
        for _ in range(2):
            for k in range(i):
                v = v - (q[:, k] @ v) * q[:, k]
        nv = np.linalg.norm(v)
        if nv < min_norm:
            raise ContinuityLossError(
                f"column {i} projected to norm {nv:.3e} < {min_norm:.1e}"
            )
        q[:, i] = v / nv
    return q


def _mgs_complex(cols: np.ndarray, min_norm: float) -> np.ndarray:
    q = np.array(cols, dtype=complex)
    m = q.shape[1]
    for i in range(m):
        v = q[:, i]
        for _ in range(2):
            for k in range(i):
                v = v - (np.conj(q[:, k]) @ v) * q[:, k]
        nv = np.linalg.norm(v)
        if nv < min_norm:
            raise ContinuityLossError(
                f"column {i} projected to norm {nv:.3e} < {min_norm:.1e}"
            )
        q[:, i] = v / nv
    return q


def _canonical_signs(cols: np.ndarray) -> np.ndarray:
    """Deterministic sign choice: largest-magnitude entry of each column made
    positive, member by member in a stack."""
    q = np.asarray(cols)
    idx = np.argmax(np.abs(q), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(q, idx, axis=-2) < 0, -q, q)


def _canonical_phases(cols: np.ndarray) -> np.ndarray:
    """Deterministic phase choice: largest-magnitude entry made real positive."""
    q = np.array(cols, dtype=complex)
    for i in range(q.shape[1]):
        idx = int(np.argmax(np.abs(q[:, i])))
        ph = q[idx, i]
        if abs(ph) > 0:
            q[:, i] = q[:, i] * (np.conj(ph) / abs(ph))
    return q


@dataclasses.dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^{2n}, held as a 2n x m matrix with
    g-orthonormal columns, or a stack of equal-dimensional subspaces held as
    a (..., 2n, m) array.  Equality is equality of spans."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim < 2 or b.shape[-2] % 2 != 0:
            raise ValueError("basis must be a 2n x m matrix or a stack of them")
        gram = _t(b) @ b
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[-1]))) > DEFAULT.orthonormality:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    def __getitem__(self, index) -> "Subspace":
        """Members of a stack, selected by a NumPy index on the stack axes;
        ``s[None]`` is the stack of one.  The stack's orthonormality check
        covers its members, so they are not checked again."""
        b = self.basis[index]
        if b.ndim < 2 or b.shape[-2:] != self.basis.shape[-2:]:
            raise IndexError("only the stack axes of a subspace can be indexed")
        sub = object.__new__(Subspace)
        object.__setattr__(sub, "basis", b)
        return sub

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[-2]

    @classmethod
    def from_spanning(cls, cols: np.ndarray, min_norm: float = 1e-12) -> "Subspace":
        return cls(_mgs(np.asarray(cols, dtype=float), min_norm))

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (_t(self.basis) @ v)

    def contains(self, other: "Subspace", tol: float = DEFAULT.subspace_equality) -> bool:
        if other.dim == 0:
            return True
        resid = other.basis - self.project(other.basis)
        return float(np.max(np.linalg.norm(resid, axis=-2))) < tol


def _angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles, ascending, member by member (Bjorck-Golub 1973).

    The steps are those of ``scipy.linalg.subspace_angles``, each one
    stacked SVD: orthonormal bases Qa, Qb from an SVD, cosines from the
    singular values of Qa' Qb and sines from those of Qb - Qa Qa' Qb.  An
    angle whose squared cosine is below 0.5 is read from its cosine, any
    other from its sine, which stays accurate for small angles.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    if a.dim == 0:
        return np.zeros(np.broadcast_shapes(a.basis.shape[:-2], b.basis.shape[:-2]) + (0,))
    qa = np.linalg.svd(a.basis, full_matrices=False)[0]
    qb = np.linalg.svd(b.basis, full_matrices=False)[0]
    cos = _t(qa) @ qb
    cosines = np.linalg.svd(cos, compute_uv=False)
    sines = np.linalg.svd(qb - qa @ cos, compute_uv=False)[..., ::-1]
    return np.where(cosines ** 2 < 0.5,
                    np.arccos(np.clip(cosines, -1.0, 1.0)),
                    np.arcsin(np.clip(sines, -1.0, 1.0)))


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles between equal-dimensional subspaces, ascending
    (descending cosines), each in [0, pi/2]; for stacks, one row per
    member pair."""
    return _angles(a, b)


def largest_principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Largest principal angle between paired members of two stacks of
    equal-dimensional subspaces, one value per member pair."""
    return np.max(_angles(a, b), axis=-1, initial=0.0)


def spans_equal(a: Subspace, b: Subspace, tol: float = DEFAULT.subspace_equality) -> bool:
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    return float(np.max(principal_angles(a, b))) < tol


def omega_pairing(space: SymplecticSpace, a: Subspace, b: Subspace) -> np.ndarray:
    return a.basis.T @ space.omega @ b.basis


def symplectic_complement(
    space: SymplecticSpace, c: Subspace, tol: Tolerances = DEFAULT
) -> Subspace:
    """{v : omega(v, c) = 0 for all c in C}, of dimension 2n - dim C; for a
    stack, the stack of the members' complements.

    Computed as the null space of the m x 2n pairing matrix via SVD with
    singular value cutoff ``tol.svd_cutoff``.
    """
    batch = c.basis.shape[:-2]
    if c.dim == 0:
        return Subspace(np.broadcast_to(np.eye(space.dim), batch + (space.dim,) * 2))
    pairing = _t(c.basis) @ space.omega
    _, s, vh = np.linalg.svd(pairing)
    band = (s > tol.svd_cutoff) & (s < tol.svd_gap * s[..., :1])
    if band.any():
        where = tuple(int(i) for i in np.argwhere(band)[0][:-1])
        raise DegenerateInputError(
            "singular values straddle the rank cutoff: "
            f"{s[where][band[where]]} against largest {s[where][0]:.3e}"
            + _member_note(where)
        )
    ranks = np.sum(s > tol.svd_cutoff, axis=-1)
    rank = int(ranks.max())
    if ranks.min() != rank:
        raise DegenerateInputError(
            f"members of the stack differ in rank: {ranks.min()} to {rank}")
    return Subspace(_canonical_signs(_t(vh[..., rank:, :])))


@dataclasses.dataclass(frozen=True)
class CoisotropicSubspace:
    """A certified coisotropic subspace C = H_C + kernel of dimension n + k.

    ``kernel`` is the symplectic complement C^omega (dimension n - k) and
    ``h_part`` the j-invariant g-orthogonal complement of the kernel inside
    C (dimension 2k).  All three may be stacks of equal shape, one member
    per subspace of a sampled loop.
    """

    space: Subspace
    k: int
    kernel: Subspace
    h_part: Subspace

    def __getitem__(self, index) -> "CoisotropicSubspace":
        """Members of a stack, selected by a NumPy index on the stack axes."""
        return CoisotropicSubspace(space=self.space[index], k=self.k,
                                   kernel=self.kernel[index], h_part=self.h_part[index])

    @property
    def n(self) -> int:
        return self.space.ambient_dim // 2

    @property
    def dim(self) -> int:
        return self.space.dim


def classify_coisotropic(
    space: SymplecticSpace, c: Subspace, tol: Tolerances = DEFAULT
) -> CoisotropicSubspace:
    """Certify C as coisotropic, returning its canonical splitting; for a
    stack, every member at once.

    Succeeds iff the symplectic complement of C lies inside C within the
    angle tolerance; otherwise raises ClassificationError carrying the
    violating pair of the worst member.
    """
    n = space.n
    if c.dim < n:
        raise ClassificationError(
            f"dimension {c.dim} < n = {n}: coisotropic subspaces need dim >= n"
        )
    kernel = symplectic_complement(space, c, tol)
    if kernel.dim:
        resid = kernel.basis - c.project(kernel.basis)
        resid_norms = np.linalg.norm(resid, axis=-2)
        if resid_norms.max() > tol.subspace_equality:
            worst = np.unravel_index(np.argmax(resid_norms), resid_norms.shape)
            member, col = worst[:-1], worst[-1]
            angle = float(np.arcsin(min(1.0, resid_norms[worst])))
            raise ClassificationError(
                f"not coisotropic: kernel direction leaves the subspace "
                f"by angle {angle:.3e}" + _member_note(member),
                witness=(kernel.basis[member][:, col], resid[member][:, col], angle),
            )
    k = c.dim - n
    # h_part: g-orthogonal complement of the kernel inside C
    if k == 0:
        h_part = Subspace(np.zeros(c.basis.shape[:-1] + (0,)))
    else:
        proj = c.basis - kernel.basis @ (_t(kernel.basis) @ c.basis)
        u = np.linalg.svd(proj, full_matrices=False)[0]
        h_part = Subspace(_canonical_signs(u[..., : 2 * k]))
        jh = space.j @ h_part.basis
        resid = jh - h_part.project(jh)
        resid_norms = np.linalg.norm(resid, axis=-2)
        if resid_norms.max() > tol.subspace_equality:
            worst = np.unravel_index(np.argmax(resid_norms), resid_norms.shape)
            member, col = worst[:-1], worst[-1]
            raise ClassificationError(
                "h_part failed the j-invariance check" + _member_note(member),
                witness=(h_part.basis[member][:, col], resid[member][:, col], None),
            )
    return CoisotropicSubspace(space=c, k=k, kernel=kernel, h_part=h_part)


@dataclasses.dataclass(frozen=True)
class AdaptedFrame:
    """A unitary Darboux frame (e_1..e_n, f_1..f_n) with f_i = j e_i.

    Columns e_1..e_k frame the j-invariant part H_C, columns e_{k+1}..e_n
    the kernel C^omega; the index split is recorded in ``k``.
    """

    k: int
    e: np.ndarray
    f: np.ndarray

    @property
    def n(self) -> int:
        return self.e.shape[1]

    def unitary(self) -> np.ndarray:
        """The frame as a unitary n x n complex matrix (columns = e_i)."""
        return complex_coords(self.e)

    def tangent_basis(self) -> np.ndarray:
        """Columns (e_1..e_n, f_1..f_k): a basis of the coisotropic subspace."""
        return np.concatenate([self.e, self.f[:, : self.k]], axis=1)

    def kernel_vectors(self) -> np.ndarray:
        return self.e[:, self.k:]

    def h_vectors(self) -> np.ndarray:
        return np.concatenate([self.e[:, : self.k], self.f[:, : self.k]], axis=1)


def _check_frames(space: SymplecticSpace, c: CoisotropicSubspace,
                  frames: Sequence[AdaptedFrame], tol: Tolerances) -> None:
    """Raise ContinuityLossError, naming the first failing frame, unless
    ``frames[i]`` is an adapted unitary Darboux frame of member i of the
    stack ``c``.  Every check runs once over the stacked frames."""
    k = c.k
    e = np.stack([fr.e for fr in frames])
    f = np.stack([fr.f for fr in frames])
    full = np.concatenate([e, f], axis=-1)
    tangent = np.concatenate([e, f[..., :k]], axis=-1)
    kv = e[..., k:]

    def largest_entry(x):
        return np.max(np.abs(x), axis=(-2, -1))

    def largest_escape(sub, v):
        return np.max(np.linalg.norm(v - sub.project(v), axis=-2), axis=-1, initial=0.0)

    checks = (
        ("is not orthonormal", largest_entry(_t(full) @ full - np.eye(space.dim)),
         10 * tol.orthonormality),
        ("has f != j e", largest_entry(f - space.j @ e), tol.frame_j),
        ("violates the Darboux relations",
         largest_entry(_t(full) @ space.omega @ full - _standard_omega(space.n)),
         tol.darboux),
        ("does not span the target subspace", largest_escape(c.space, tangent),
         tol.subspace_equality),
        ("kernel block does not span the kernel", largest_escape(c.kernel, kv),
         tol.subspace_equality),
    )
    for what, defect, bound in checks:
        bad = np.flatnonzero(defect > bound)
        if bad.size:
            i = int(bad[0])
            raise ContinuityLossError(
                f"frame {i} {what}: defect {defect[i]:.3e} > {bound:.1e}")


def transported_frames(
    space: SymplecticSpace,
    c: CoisotropicSubspace,
    hint: Optional[AdaptedFrame] = None,
    tol: Tolerances = DEFAULT,
) -> tuple[AdaptedFrame, ...]:
    """Adapted unitary Darboux frames along a one-dimensional stack, each
    carried from the one before it.

    Member 0 takes ``hint``; without one its frame is deterministic (SVD
    bases with canonical signs).  Every later member takes the previous
    frame as its hint: each hint column is projected onto the required span
    and re-orthonormalized by modified Gram-Schmidt, which is the discrete
    transport used for loop continuity; a projection below
    ``tol.hint_min_norm`` raises ContinuityLossError.  The transport is
    sequential; the H-block bases before it and the frame checks after it
    are stacked.
    """
    k = c.k
    if k:
        h = c.h_part.basis
        n = space.n
        # unitary bases of the j-invariant parts viewed as C^k
        hbases = np.linalg.svd(h[..., :n, :] + 1j * h[..., n:, :])[0][..., :k]
    frames = []
    for i in range(len(c.space.basis)):
        # kernel block, real orthonormal
        ker = c.kernel.basis[i]
        if ker.shape[1] and hint is not None:
            ker = _mgs(ker @ (ker.T @ hint.kernel_vectors()), tol.hint_min_norm)
        # H block, unitary
        if k:
            hb = hbases[i]
            if hint is not None:
                pr = hb @ (np.conj(hb.T) @ complex_coords(hint.e[:, :k]))
                hcols = _mgs_complex(pr, tol.hint_min_norm)
            else:
                hcols = _canonical_phases(hb)
            e_h = real_coords(hcols)
        else:
            e_h = np.zeros((space.dim, 0))
        e = np.concatenate([e_h, ker], axis=1)
        hint = AdaptedFrame(k=k, e=e, f=space.j @ e)
        frames.append(hint)
    _check_frames(space, c, frames, tol)
    return tuple(frames)


def adapted_frame(
    space: SymplecticSpace,
    c: CoisotropicSubspace,
    hint: Optional[AdaptedFrame] = None,
    tol: Tolerances = DEFAULT,
) -> AdaptedFrame:
    """An adapted unitary Darboux frame for C, the stack-of-one case of
    :func:`transported_frames`.

    Without a hint the construction is deterministic (SVD bases with
    canonical signs).  With a hint, each hint column is projected onto the
    required span and re-orthonormalized by modified Gram-Schmidt; a
    projection below ``tol.hint_min_norm`` raises ContinuityLossError.
    """
    return transported_frames(space, c[None], hint, tol)[0]


def grassmannian_dim(n: int, k: int) -> int:
    """(n + 3k + 1)(n - k) / 2, the dimension of the rank-2k coisotropic
    Grassmannian of R^{2n}."""
    if not (0 <= k <= n):
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return (n + 3 * k + 1) * (n - k) // 2


def random_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian, phases fixed."""
    z = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def standard_model(space: SymplecticSpace, k: int) -> CoisotropicSubspace:
    """The model C^k + R^{n-k}: span(e_1..e_n, f_1..f_k)."""
    n = space.n
    if not (0 <= k <= n):
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}")
    eye = np.eye(2 * n)
    cols = np.concatenate([eye[:, :n], eye[:, n: n + k]], axis=1)
    return classify_coisotropic(space, Subspace(cols))


def random_coisotropic(
    space: SymplecticSpace, k: int, seed, tol: Tolerances = DEFAULT
) -> CoisotropicSubspace:
    """U . (C^k + R^{n-k}) for a seeded Haar-ish random unitary U."""
    gen = seed if isinstance(seed, np.random.Generator) else rng(seed)
    u = realify(random_unitary(space.n, gen))
    model = standard_model(space, k)
    return classify_coisotropic(space, Subspace.from_spanning(u @ model.space.basis), tol)


def _schur_constraint(space: SymplecticSpace, t_basis: np.ndarray,
                      perp: np.ndarray, k: int, z: np.ndarray) -> np.ndarray:
    """Upper triangle of the kernel-block Schur complement of the restricted
    form on the perturbed subspace; zero iff the perturbation stays
    coisotropic to first order."""
    cols = t_basis + perp @ z.T
    om = cols.T @ space.omega @ cols
    hk = 2 * k
    p, m, kk = om[:hk, :hk], om[:hk, hk:], om[hk:, hk:]
    if kk.shape[0] < 2:
        return np.zeros(0)
    s = kk + m.T @ np.linalg.solve(p, m)
    iu = np.triu_indices(s.shape[0], 1)
    return s[iu]


def measured_grassmannian_dim(
    space: SymplecticSpace,
    c: CoisotropicSubspace,
    step: float = DEFAULT.rank_step,
    tol: Tolerances = DEFAULT,
) -> int:
    """Tangent-space dimension of the coisotropic Grassmannian at C,
    measured numerically.

    Nearby (n+k)-dimensional subspaces are graphs over C; the coisotropy
    condition is the vanishing of the kernel-block Schur complement of the
    restricted symplectic form.  The rank of its finite-difference Jacobian
    (central differences of size ``step``) is subtracted from the ambient
    Grassmannian dimension.
    """
    frame = adapted_frame(space, c, tol=tol)
    t_basis = np.concatenate([frame.h_vectors(), frame.kernel_vectors()], axis=1)
    sub = Subspace.from_spanning(t_basis)
    proj = np.eye(space.dim) - sub.basis @ sub.basis.T
    u, s, _ = np.linalg.svd(proj)
    perp = u[:, : space.dim - sub.dim]
    npar = sub.dim * perp.shape[1]
    ncon = _schur_constraint(space, t_basis, perp, c.k, np.zeros((sub.dim, perp.shape[1]))).size
    if ncon == 0:
        return npar
    jac = np.zeros((ncon, npar))
    for a in range(npar):
        z = np.zeros(npar)
        z[a] = step
        zp = z.reshape(sub.dim, perp.shape[1])
        fp = _schur_constraint(space, t_basis, perp, c.k, zp)
        fm = _schur_constraint(space, t_basis, perp, c.k, -zp)
        jac[:, a] = (fp - fm) / (2 * step)
    sv = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(sv > max(1e-7, 1e-6 * sv[0])))
    return npar - rank
