"""Symplectic linear algebra over R^{2n} with the standard structures.

Coordinates are ordered (x_1 .. x_n, y_1 .. y_n) and identified with C^n
through z_j = x_j + i y_j.  The standard structures in this basis are

    omega = [[0, I], [-I, 0]],    j = [[0, -I], [I, 0]],    g = identity,

so that g(X, Y) = omega(X, j Y) and j acts as multiplication by i.  All
subspaces are stored as matrices with g-orthonormal columns because frames,
not projectors, are the working objects of every downstream computation.
No object carries the ambient space: a routine given a (..., 2n, m) array
reads n from its trailing axes, and only the routines that build a
subspace from nothing (``standard_model``, ``random_coisotropic``) take n.

A loop's samples are handled as one stack: a ``Subspace`` may hold a
(..., 2n, m) array of equal-dimensional members, a ``CoisotropicSubspace``
a stack of splittings and an ``AdaptedFrame`` a stack of (..., 2n, n)
frames.  Classification, complements, principal angles and frame checks
act on every member with one stacked ``np.linalg`` call per step, and
frame transport along a stack is a segmented scan of overlap products
(see :func:`transported_frames`).  A single subspace or frame is the
unstacked case of the same code.  Spanning columns and transported hints
are orthonormalized by one routine, modified Gram-Schmidt in column order
vectorized over the stack.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .config import DEFAULT, Tolerances, rng
from .errors import (
    ClassificationError,
    ContinuityLossError,
    DegenerateInputError,
)

__all__ = [
    "Subspace",
    "CoisotropicSubspace",
    "AdaptedFrame",
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


@lru_cache(maxsize=32)
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _check_complex_dim(n: int) -> None:
    """ValueError unless ``n``, the complex dimension of C^n, is positive."""
    if n < 1:
        raise ValueError("complex dimension must be positive")


def complex_coords(v: np.ndarray) -> np.ndarray:
    """Columns of a real 2n x m matrix as complex n-vectors; for a
    (..., 2n, m) stack, the (..., n, m) stack of the members' matrices."""
    v = np.asarray(v)
    n = v.shape[-2] // 2
    return v[..., :n, :] + 1j * v[..., n:, :]


def real_coords(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complex_coords`, on the same trailing axes."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-2)


def realify(u: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix of a complex-linear map acting on C^n; for a
    (..., n, n) stack, the (..., 2n, 2n) stack of the members' matrices."""
    u = np.asarray(u, dtype=complex)
    a, b = u.real, u.imag
    return np.concatenate([np.concatenate([a, -b], axis=-1),
                           np.concatenate([b, a], axis=-1)], axis=-2)


# the smallest projected column norm ``Subspace.from_spanning`` accepts
SPANNING_MIN_NORM = 1e-12

# the smallest normal float: a norm floored at it divides a zero column to
# zero and leaves every other quotient as it is
_TINY = np.finfo(float).tiny


def _mgs(cols: np.ndarray, min_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt in fixed column order, two passes for stability;
    a real or complex (..., d, m) stack is orthonormalized member by member.

    Returns Q and the (..., m) norms of the columns projected off the ones
    before them: Q is the Q factor of the QR whose R diagonal is those
    norms, real and positive.  Raises ContinuityLossError, naming the stack
    member, when a column drops below ``min_norm``; with ``min_norm`` 0 a
    zero column stays zero.  Each member gets the arithmetic of a single
    matrix: ``np.vecdot`` (conjugating its first factor) takes one BLAS dot
    per member, as the 1-D dot does, and a norm is the square root of the
    dot of a contiguous vector.
    """
    q = np.array(cols, dtype=np.result_type(cols, float))
    columns = [q[..., i] for i in range(q.shape[-1])]
    norms = np.empty(q.shape[:-2] + (len(columns),))
    for i, v in enumerate(columns):
        for _ in range(2):
            for qk in columns[:i]:
                v = v - np.vecdot(qk, v, keepdims=True) * qk
        v = np.ascontiguousarray(v)
        nv = np.sqrt(np.vecdot(v, v, keepdims=True).real, out=norms[..., i:i + 1])
        short = nv < min_norm
        if np.count_nonzero(short):
            where = tuple(int(j) for j in np.argwhere(short)[0])
            raise ContinuityLossError(
                f"column {i} projected to norm {nv[where]:.3e} < {min_norm:.1e}"
                + _member_note(where[:-1])
            )
        np.divide(v, np.maximum(nv, _TINY), out=columns[i])
    return q, norms


def _stack_members(obj, array: np.ndarray):
    """The members of a stack along its first axis; a single one raises."""
    if array.ndim < 3:
        raise TypeError(f"a single {type(obj).__name__} is not a stack")
    return (obj[i] for i in range(array.shape[0]))


def _largest_entries(q: np.ndarray) -> np.ndarray:
    """The first largest-magnitude entry of each column, member by member in
    a (..., d, m) stack, as a (..., 1, m) array."""
    d, m = q.shape[-2:]
    flat = q.reshape((math.prod(q.shape[:-2]), d, m))
    rows = np.argmax(np.abs(flat), axis=-2)
    picked = flat[np.arange(len(flat))[:, None], rows, np.arange(m)]
    return picked.reshape(q.shape[:-2] + (1, m))


def _canonical_signs(cols: np.ndarray) -> np.ndarray:
    """Deterministic sign choice: largest-magnitude entry of each column made
    positive, member by member in a stack."""
    q = np.asarray(cols)
    return np.where(_largest_entries(q) < 0, -q, q)


def _canonical_phases(cols: np.ndarray) -> np.ndarray:
    """Deterministic phase choice: largest-magnitude entry of each column
    made real positive, member by member in a stack.  The modulus is
    ``np.hypot``, as the scalar ``abs`` rounds it."""
    q = np.asarray(cols, dtype=complex)
    ph = _largest_entries(q)
    mod = np.hypot(ph.real, ph.imag)
    nonzero = mod > 0
    return q * np.where(nonzero, np.conj(ph) / np.where(nonzero, mod, 1.0), 1.0)


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

    def __iter__(self):
        return _stack_members(self, self.basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @classmethod
    def from_spanning(cls, cols: np.ndarray) -> "Subspace":
        return cls(_mgs(np.asarray(cols, dtype=float), SPANNING_MIN_NORM)[0])

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (_t(self.basis) @ v)


def _angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles, ascending, member by member (Bjorck-Golub 1973).

    Needs orthonormal bases, which a ``Subspace`` holds: with A = ``a.basis``
    and B = ``b.basis`` the cosines are the singular values of A' B and the
    sines those of B - A A' B, each one stacked SVD.  An angle whose squared
    cosine is below 0.5 is read from its cosine, any other from its sine,
    which stays accurate for small angles.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    if a.dim == 0:
        return np.zeros(np.broadcast_shapes(a.basis.shape[:-2], b.basis.shape[:-2]) + (0,))
    cos = _t(a.basis) @ b.basis
    cosines = np.linalg.svd(cos, compute_uv=False)
    sines = np.linalg.svd(b.basis - a.basis @ cos, compute_uv=False)[..., ::-1]
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


def omega_pairing(a: Subspace, b: Subspace) -> np.ndarray:
    return _t(a.basis) @ _standard_omega(a.basis.shape[-2] // 2) @ b.basis


def symplectic_complement(c: Subspace, tol: Tolerances = DEFAULT) -> Subspace:
    """{v : omega(v, c) = 0 for all c in C}, of dimension 2n - dim C; for a
    stack, the stack of the members' complements.

    Computed as the null space of the m x 2n pairing matrix via SVD with
    singular value cutoff ``tol.svd_cutoff``.
    """
    batch, dim = c.basis.shape[:-2], c.basis.shape[-2]
    if c.dim == 0:
        return Subspace(np.broadcast_to(np.eye(dim), batch + (dim, dim)))
    pairing = _t(c.basis) @ _standard_omega(dim // 2)
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

    def __iter__(self):
        return _stack_members(self, self.space.basis)

    @property
    def dim(self) -> int:
        return self.space.dim


def classify_coisotropic(c: Subspace, tol: Tolerances = DEFAULT) -> CoisotropicSubspace:
    """Certify C as coisotropic, returning its canonical splitting; for a
    stack, every member at once.

    Succeeds iff the symplectic complement of C lies inside C within the
    angle tolerance; otherwise raises ClassificationError carrying the
    violating pair of the worst member.
    """
    n = c.basis.shape[-2] // 2
    if c.dim < n:
        raise ClassificationError(
            f"dimension {c.dim} < n = {n}: coisotropic subspaces need dim >= n"
        )
    kernel = symplectic_complement(c, tol)
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
        jh = _standard_j(n) @ h_part.basis
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
    """A unitary Darboux frame (e_1..e_n, f_1..f_n) with f_i = j e_i, or a
    stack of them: ``e`` and ``f`` have shape (..., 2n, n), one member per
    sample of a loop, and every method acts on the trailing two axes.

    Columns e_1..e_k frame the j-invariant part H_C, columns e_{k+1}..e_n
    the kernel C^omega; the index split is recorded in ``k``.
    """

    k: int
    e: np.ndarray
    f: np.ndarray

    def __getitem__(self, index) -> "AdaptedFrame":
        """Members of a stack, selected by a NumPy index on the stack axes."""
        e = self.e[index]
        if e.ndim < 2 or e.shape[-2:] != self.e.shape[-2:]:
            raise IndexError("only the stack axes of a frame can be indexed")
        return AdaptedFrame(k=self.k, e=e, f=self.f[index])

    def __iter__(self):
        return _stack_members(self, self.e)

    @property
    def n(self) -> int:
        return self.e.shape[-1]

    def unitary(self) -> np.ndarray:
        """The frame as a unitary n x n complex matrix (columns = e_i)."""
        return complex_coords(self.e)

    def tangent_basis(self) -> np.ndarray:
        """Columns (e_1..e_n, f_1..f_k): a basis of the coisotropic subspace."""
        return np.concatenate([self.e, self.f[..., : self.k]], axis=-1)

    def kernel_vectors(self) -> np.ndarray:
        return self.e[..., self.k:]

    def h_vectors(self) -> np.ndarray:
        return np.concatenate([self.e[..., : self.k], self.f[..., : self.k]], axis=-1)


def _check_frames(c: CoisotropicSubspace, frames: AdaptedFrame, tol: Tolerances) -> None:
    """Raise ContinuityLossError, naming the first failing frame, unless
    member i of the stack ``frames`` is an adapted unitary Darboux frame of
    member i of the stack ``c``.  Every check runs once over the stack."""
    e, f = frames.e, frames.f
    full = np.concatenate([e, f], axis=-1)
    tangent = frames.tangent_basis()
    omega = _standard_omega(frames.n)

    def largest_entry(x):
        return np.abs(x).max(axis=(-2, -1))

    def largest_escape(sub, v):
        d = v - sub.project(v)
        return np.sqrt((d * d).sum(axis=-2).max(axis=-1, initial=0.0))

    checks = (
        ("is not orthonormal", largest_entry(_t(full) @ full - _identity(2 * frames.n)),
         10 * tol.orthonormality),
        ("has f != j e", largest_entry(f - _standard_j(frames.n) @ e), tol.frame_j),
        ("violates the Darboux relations",
         largest_entry(_t(full) @ omega @ full - omega), tol.darboux),
        ("does not span the target subspace", largest_escape(c.space, tangent),
         tol.subspace_equality),
        ("kernel block does not span the kernel",
         largest_escape(c.kernel, frames.kernel_vectors()), tol.subspace_equality),
    )
    for what, defect, bound in checks:
        over = defect > bound
        if over.any():
            i = int(np.argmax(over))
            raise ContinuityLossError(
                f"frame {i} {what}: defect {defect[i]:.3e} > {bound:.1e}")


# steps per segment of the transport scan; the pi/8 contract bounds the
# condition number of a segment's product (see ``transported_frames``)
_SEGMENT = 16


def _overlaps(h: np.ndarray, kernel: np.ndarray, h_prev: np.ndarray,
              kernel_prev: np.ndarray) -> np.ndarray:
    """Block-diagonal transport overlaps, member by member for stacks of
    equal shape: h^* h_prev on the H block (complex k x k) and K' K_prev on
    the kernel block (real)."""
    k, n = h.shape[-1], h.shape[-2]
    o = np.zeros(h.shape[:-2] + (n, n), dtype=complex)
    o[..., :k, :k] = np.conj(_t(h)) @ h_prev
    o[..., k:, k:] = _t(kernel) @ kernel_prev
    return o


def _chain(steps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The coefficients C_0 = ``start`` and C_i = qf(O_i C_{i-1}) along the
    S overlaps O_i of ``steps``, as a stack of S + 1, where qf is
    Gram-Schmidt in column order (the Q of :func:`_mgs`).

    qf(A qf(B)) = qf(AB), so C_i = qf(O_i ... O_1 C_0).  The prefix
    products are taken within segments of ``_SEGMENT`` steps by log2 of its
    length stacked matmuls; each segment's start is carried from the one
    before it by one qf, and one stacked qf of the segments' products with
    their starts gives every C_i.  A zero projected column stays zero; the
    transport margin reports it.
    """
    s, n = steps.shape[0], steps.shape[-1]
    seg = min(_SEGMENT, s)
    count = -(-s // seg)
    prods = np.empty((count * seg, n, n), dtype=complex)
    prods[:s] = steps
    prods[s:] = np.eye(n)
    prods = prods.reshape(count, seg, n, n)
    shift = 1
    while shift < seg:
        prods[:, shift:] = prods[:, shift:] @ prods[:, :-shift]
        shift *= 2
    starts = np.empty((count, n, n), dtype=complex)
    starts[0] = start
    for j in range(1, count):
        starts[j] = _mgs(prods[j - 1, -1] @ starts[j - 1], 0.0)[0]
    coeffs = _mgs(prods @ starts[:, None], 0.0)[0].reshape(-1, n, n)[:s]
    return np.concatenate([start[None], coeffs])


def _transport(c: CoisotropicSubspace, hint: Optional[AdaptedFrame], tol: Tolerances
               ) -> tuple[AdaptedFrame, float]:
    """:func:`transported_frames` and its margin: the smallest norm of a
    projected hint column (infinite when nothing was projected)."""
    k, n = c.k, c.space.basis.shape[-2] // 2
    # gauge bases: the kernel bases and unitary bases of the j-invariant
    # parts viewed as C^k; without a hint member 0's gauge is its frame, so
    # its phases are made canonical
    kernel = c.kernel.basis
    if k:
        h = np.linalg.svd(complex_coords(c.h_part.basis))[0][..., :k]
        if hint is None:
            h[0] = _canonical_phases(h[0])
    else:
        h = np.zeros(kernel.shape[:-2] + (n, 0), dtype=complex)

    def smallest_projection(projected, first_member):
        """The smallest projected hint-column norm of members
        ``first_member``, ``first_member`` + 1, ...; raises for the first
        member with one below ``tol.hint_min_norm``."""
        short = projected < tol.hint_min_norm
        if short.any():
            i, j = (int(x) for x in np.argwhere(short)[0])
            raise ContinuityLossError(
                f"hint column {j} projected to norm {projected[i, j]:.3e} "
                f"< {tol.hint_min_norm:.1e}" + _member_note((first_member + i,)))
        return float(projected.min())

    margin, coeffs = np.inf, None
    if hint is not None:
        coeffs, projected = _mgs(_overlaps(
            h[0], kernel[0], complex_coords(hint.e[..., :k]), hint.e[..., k:]), 0.0)
        margin = smallest_projection(projected[None], 0)
    if len(kernel) > 1:
        steps = _overlaps(h[1:], kernel[1:], h[:-1], kernel[:-1])
        coeffs = _chain(steps, np.eye(n, dtype=complex) if coeffs is None else coeffs)
        margin = min(margin, smallest_projection(_mgs(steps @ coeffs[:-1], 0.0)[1], 1))
    if coeffs is not None:
        h = h @ coeffs[..., :k, :k]
        kernel = kernel @ coeffs[..., k:, k:].real
    e = np.concatenate([real_coords(h), kernel], axis=-1) if k else np.array(kernel)
    frames = AdaptedFrame(k=k, e=e, f=_standard_j(n) @ e)
    _check_frames(c, frames, tol)
    return frames, margin


def transported_frames(
    c: CoisotropicSubspace,
    hint: Optional[AdaptedFrame] = None,
    tol: Tolerances = DEFAULT,
) -> AdaptedFrame:
    """Adapted unitary Darboux frames along a one-dimensional stack, each
    carried from the one before it, returned as one (M, 2n, n) stack.

    Member 0 takes ``hint``; without one its frame is deterministic (SVD
    bases with canonical signs and phases).  Every later member takes the
    previous frame as its hint.  Taking a hint means projecting each of its
    columns onto the required span and orthonormalizing the projections by
    Gram-Schmidt in column order (the Q of a QR whose R diagonal is real
    positive): this is the discrete parallel transport used for loop
    continuity, and a column whose norm after projection off the columns
    before it falls below ``tol.hint_min_norm`` raises ContinuityLossError
    naming the member.

    In gauge bases (the kernel bases K_i and unitary H bases h_i) frame i
    is K_i C_i and h_i D_i, and the transport is C_i = qf(O_i C_{i-1}) with
    the overlap O_i = K_i' K_{i-1}, likewise D_i with h_i^* h_{i-1}; qf is
    that Gram-Schmidt.  Since qf(A qf(B)) = qf(AB), C_i is qf of the
    overlap product O_i ... O_1 C_0, which is taken in segments of 16
    steps: no Python step is taken per member.

    Every overlap is a contraction.  Under the pi/8 contract between
    consecutive members the principal angles between consecutive kernels
    are at most pi/8 (they are those of the subspaces' orthogonal
    complements), so a kernel overlap has condition number at most
    1/cos(pi/8) < 1.083 and a segment's kernel product at most
    1.083^16 < 3.6, whatever M is.  An H overlap keeps at least
    sqrt(cos(pi/4)) of every vector, so its condition number is below 1.19
    and a segment's H product's below 16; on sampled loops they stay
    within the kernel bound.  An unsegmented product can reach e^30 on fast
    windings.  The projected-column norms are the Gram-Schmidt norms of the
    stacked O_i C_{i-1}, and the frame checks run once over the stack.
    """
    return _transport(c, hint, tol)[0]


def adapted_frame(
    c: CoisotropicSubspace,
    hint: Optional[AdaptedFrame] = None,
    tol: Tolerances = DEFAULT,
) -> AdaptedFrame:
    """An adapted unitary Darboux frame for C, the stack-of-one case of
    :func:`transported_frames`.

    Without a hint the construction is deterministic: the kernel basis of
    C and an SVD basis of H_C with canonical phases.  With a hint, each hint
    column is projected onto the required span and the projections are
    orthonormalized by Gram-Schmidt in column order; a column whose norm
    after projection falls below ``tol.hint_min_norm`` raises
    ContinuityLossError.
    """
    return transported_frames(c[None], hint, tol)[0]


def grassmannian_dim(n: int, k: int) -> int:
    """(n + 3k + 1)(n - k) / 2, the dimension of the rank-2k coisotropic
    Grassmannian of R^{2n}."""
    if not (0 <= k <= n):
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return (n + 3 * k + 1) * (n - k) // 2


def random_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian, phases fixed."""
    _check_complex_dim(n)
    z = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def standard_model(n: int, k: int) -> CoisotropicSubspace:
    """The model C^k + R^{n-k}: span(e_1..e_n, f_1..f_k)."""
    _check_complex_dim(n)
    if not (0 <= k <= n):
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}")
    eye = np.eye(2 * n)
    cols = np.concatenate([eye[:, :n], eye[:, n: n + k]], axis=1)
    return classify_coisotropic(Subspace(cols))


def random_coisotropic(n: int, k: int, seed, tol: Tolerances = DEFAULT) -> CoisotropicSubspace:
    """U . (C^k + R^{n-k}) for a seeded Haar-ish random unitary U."""
    gen = seed if isinstance(seed, np.random.Generator) else rng(seed)
    u = realify(random_unitary(n, gen))
    model = standard_model(n, k)
    return classify_coisotropic(Subspace.from_spanning(u @ model.space.basis), tol)


def _schur_constraint(t_basis: np.ndarray, perp: np.ndarray, k: int,
                      z: np.ndarray) -> np.ndarray:
    """Upper triangle of the kernel-block Schur complement of the restricted
    form on the subspace perturbed by ``z``, one row per member of a
    (..., m, 2n - m) stack of perturbations; zero iff the perturbation stays
    coisotropic to first order."""
    cols = t_basis + perp @ _t(z)
    om = _t(cols) @ _standard_omega(cols.shape[-2] // 2) @ cols
    hk = 2 * k
    p, m, kk = om[..., :hk, :hk], om[..., :hk, hk:], om[..., hk:, hk:]
    if kk.shape[-1] < 2:
        return np.zeros(z.shape[:-2] + (0,))
    s = kk + _t(m) @ np.linalg.solve(p, m)
    iu = np.triu_indices(s.shape[-1], 1)
    return s[..., iu[0], iu[1]]


def measured_grassmannian_dim(c: CoisotropicSubspace, tol: Tolerances = DEFAULT) -> int:
    """Tangent-space dimension of the coisotropic Grassmannian at C,
    measured numerically.

    Nearby (n+k)-dimensional subspaces are graphs over C; the coisotropy
    condition is the vanishing of the kernel-block Schur complement of the
    restricted symplectic form.  The rank of its finite-difference Jacobian
    (central differences of size ``tol.rank_step``, all 2 x npar perturbed
    subspaces evaluated as one stack) is subtracted from the ambient
    Grassmannian dimension.
    """
    frame = adapted_frame(c, tol=tol)
    t_basis = np.concatenate([frame.h_vectors(), frame.kernel_vectors()], axis=1)
    sub = Subspace.from_spanning(t_basis)
    dim = len(t_basis)
    proj = np.eye(dim) - sub.basis @ sub.basis.T
    u, s, _ = np.linalg.svd(proj)
    perp = u[:, : dim - sub.dim]
    npar = sub.dim * perp.shape[1]
    step = tol.rank_step
    # perturbation a moves entry a of the (dim, 2n - dim) graph matrix
    z = (step * np.eye(npar)).reshape(npar, sub.dim, perp.shape[1])
    f = _schur_constraint(t_basis, perp, c.k, np.concatenate([z, -z]))
    if f.shape[-1] == 0:
        return npar
    jac = _t(f[:npar] - f[npar:]) / (2 * step)
    sv = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(sv > max(1e-7, 1e-6 * sv[0])))
    return npar - rank
