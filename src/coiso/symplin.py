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
a (..., n, n) stack of unitary gauges and an ``AdaptedFrame`` a stack of
(..., 2n, n) frames.  Classification, complements and principal angles
act on every member with one stacked ``np.linalg`` call per step; the
principal angle between lines takes none.  A splitting is its gauge
u = [h | K], a point of U(n)/(U(k) x O(n-k)), and one routine,
``_certify``, certifies it from one product u^* u, whether the
classification computed it or a loop generator handed it over; frames, the
transport and the Grassmannian's dimension read what they need off a
certified gauge and check nothing else.  The public transport and
measured dimension certify their input; a stack certified where it was
built goes to ``_transport`` and ``_measured_dim``, which do not certify
it again.  A check
on a stack raises for its first failing member and names it through
``_check``, which every module's stacked checks call.  A single subspace
or frame is the unstacked case of the same code.  Random unitaries
and coisotropic subspaces are drawn as stacks with numpy's ``size``, a stack
reading the generator as successive single draws do, and the Grassmannian's
dimension is measured at every member of a stack at once.  Frames are
transported around a closed stack without being built: the determinant
phases and holonomy of the transported frames are running products of
overlap determinant phases (see :func:`transport_phases`).  Spanning
columns are orthonormalized by one routine, modified Gram-Schmidt in column
order vectorized over the stack.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .config import DEFAULT, Tolerances, rng
from .errors import ClassificationError, ContinuityLossError

__all__ = [
    "Subspace",
    "CoisotropicSubspace",
    "AdaptedFrame",
    "complex_coords",
    "real_coords",
    "realify",
    "principal_angles",
    "largest_principal_angles",
    "symplectic_complement",
    "classify_coisotropic",
    "adapted_frame",
    "transport_phases",
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


def _check(bad: np.ndarray, error: type, message, trailing: int = 0) -> None:
    """Raise ``error`` for the first true entry, in C order, of the boolean
    stack ``bad``: ``message`` words it from its index, and the note names
    the stack member, the index without its last ``trailing`` axes."""
    if np.count_nonzero(bad):
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise error(message(where) + _member_note(where[:len(where) - trailing]))


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


# the smallest projected column norm ``Subspace.from_spanning`` and the
# Gram-Schmidt of a pushforward's image kernel accept
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
        _check(nv < min_norm, ContinuityLossError, lambda w: f"column {i} projected to "
               f"norm {nv[w]:.3e} < {min_norm:.1e}", trailing=1)
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
        if not np.all(np.isfinite(b)):
            raise ValueError("basis columns are not orthonormal: a non-finite entry")
        gram = _t(b) @ b
        # an overflowing Gram entry fails the comparison, and so the check
        if gram.size and not np.max(np.abs(gram - np.eye(b.shape[-1]))) <= DEFAULT.orthonormality:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    def __getitem__(self, index) -> "Subspace":
        """Members of a stack, selected by a NumPy index on the stack axes;
        ``s[None]`` is the stack of one.  The stack's orthonormality check
        covers its members, so they are not checked again."""
        b = self.basis[index]
        if b.ndim < 2 or b.shape[-2:] != self.basis.shape[-2:]:
            raise IndexError("only the stack axes of a subspace can be indexed")
        return _unchecked(b)

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


def _unchecked(basis: np.ndarray) -> Subspace:
    """The ``Subspace`` of a float basis taken or copied from checked stacks
    (members, reorderings, interleavings), or of one that :func:`_certify`
    checks, built without checking its orthonormality here."""
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "basis", basis)
    return sub


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles between equal-dimensional subspaces, ascending
    (descending cosines), each in [0, pi/2]; for stacks, one row per member
    pair (Bjorck-Golub 1973).

    Needs orthonormal bases, which a ``Subspace`` holds: with A = ``a.basis``
    and B = ``b.basis`` the cosines are the singular values of A' B and the
    sines those of B - A A' B, each one stacked SVD.  Lines take no
    decomposition: the cosine is |A' B| and the sine the 2-norm of the
    residual column B - A A' B, the square root of its ``np.vecdot``.  An
    angle whose squared cosine is below 0.5 is read from its cosine, any
    other from its sine, which stays accurate for small angles.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    if a.dim == 0:
        return np.zeros(np.broadcast_shapes(a.basis.shape[:-2], b.basis.shape[:-2]) + (0,))
    cos = _t(a.basis) @ b.basis
    resid = b.basis - a.basis @ cos
    if a.dim == 1:
        cosines = np.abs(cos[..., 0])
        sines = np.sqrt(np.vecdot(resid[..., 0], resid[..., 0]))[..., None]
    else:
        cosines = np.linalg.svd(cos, compute_uv=False)
        sines = np.linalg.svd(resid, compute_uv=False)[..., ::-1]
    return np.where(cosines ** 2 < 0.5,
                    np.arccos(np.clip(cosines, -1.0, 1.0)),
                    np.arcsin(np.clip(sines, -1.0, 1.0)))


def largest_principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Largest principal angle between paired members of two stacks of
    equal-dimensional subspaces, one value per member pair.

    Lines have one angle, that of :func:`principal_angles`, with its
    arithmetic and no decomposition.  Otherwise the largest angle has the
    top sine, the largest singular value of B - A A' B: one stacked SVD.
    Where that sine is below 1/2 (an angle below pi/6) every squared cosine
    is above 3/4 up to rounding, so :func:`principal_angles` reads every
    angle from its sine and the value is arcsin of the top sine, bit for
    bit; only the other members take :func:`principal_angles`.  Loops read
    it for their closure defect and, for kernels wider than a line, only on
    the consecutive pairs that the continuity contract's Frobenius screen
    cannot clear (``grassmann._contract_angle``).
    """
    if a.dim != b.dim or a.dim <= 1:
        return np.max(principal_angles(a, b), axis=-1, initial=0.0)
    top = np.linalg.svd(b.basis - a.basis @ (_t(a.basis) @ b.basis), compute_uv=False)[..., 0]
    largest = np.asarray(np.arcsin(np.clip(top, -1.0, 1.0)))
    wide = top >= 0.5
    if np.any(wide):
        if a.basis.shape != b.basis.shape:
            a, b = (Subspace(x) for x in np.broadcast_arrays(a.basis, b.basis))
        largest[wide] = np.max(principal_angles(a[wide], b[wide]), axis=-1)
    return largest[()]


def symplectic_complement(c: Subspace) -> Subspace:
    """{v : omega(v, c) = 0 for all c in C}, of dimension 2n - dim C; for a
    stack, the stack of the members' complements.

    With B = ``c.basis`` orthonormal, C^omega = j C^perp, and C^perp is
    spanned by the eigenvectors of the projector I - B B' whose eigenvalue
    is 1, the last 2n - dim C of one stacked ``eigh``.  No rank is decided:
    the pairing matrix B' omega of an orthonormal B has every singular value
    1, as omega is orthogonal, so its null space always has dimension
    2n - dim C.
    """
    batch, dim = c.basis.shape[:-2], c.basis.shape[-2]
    if c.dim == 0:
        return Subspace(np.broadcast_to(np.eye(dim), batch + (dim, dim)))
    vecs = np.linalg.eigh(_identity(dim) - c.basis @ _t(c.basis))[1]
    return Subspace(_canonical_signs(_standard_j(dim // 2) @ vecs[..., c.dim:]))


@dataclasses.dataclass(frozen=True)
class CoisotropicSubspace:
    """A coisotropic subspace C = H_C + kernel of dimension n + k, held as
    its unitary gauge.

    ``gauge`` is a complex (..., n, n) unitary u = [h | K] with
    C = u . (C^k + R^{n-k}): its first k columns h are a unitary basis of
    H_C as C^k, the basis that frames are built from, and the rest K is the
    kernel C^omega (dimension n - k) written as complex vectors.  A stack
    holds one member per subspace of a sampled loop.  The real bases are
    read off u, built anew on each access: ``space`` is C as [h | K | j h],
    ``kernel`` is K, and ``h_part`` is the j-invariant g-orthogonal
    complement H_C of the kernel inside C (dimension 2k) as [h | j h].
    Loops read ``kernel``, frames and the transport ``kernel`` and h, and
    :func:`measured_grassmannian_dim` ``h_part``, ``kernel`` and
    C^perp = j K; no library routine reads ``space``.  Building one
    certifies nothing: the gauge that :func:`classify_coisotropic` returns,
    or that a loop generator hands over, is certified by :func:`_certify`.
    """

    k: int
    gauge: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gauge", np.asarray(self.gauge, dtype=complex))

    @classmethod
    def from_kernel(cls, kernel: np.ndarray) -> "CoisotropicSubspace":
        """The splitting whose kernel is the complex (..., n, n-k) stack
        ``kernel`` of orthonormal columns, isotropic as real vectors: the
        gauge is the unitary basis of their complex complement
        (:func:`_complex_complement`) joined to them.  Nothing is checked."""
        return cls(k=kernel.shape[-2] - kernel.shape[-1],
                   gauge=np.concatenate([_complex_complement(kernel), kernel], axis=-1))

    @property
    def space(self) -> Subspace:
        h = self.gauge[..., :self.k]
        return _unchecked(real_coords(np.concatenate([self.gauge, 1j * h], axis=-1)))

    @property
    def kernel(self) -> Subspace:
        return _unchecked(real_coords(self.gauge[..., self.k:]))

    @property
    def h_part(self) -> Subspace:
        h = self.gauge[..., :self.k]
        return _unchecked(real_coords(np.concatenate([h, 1j * h], axis=-1)))

    def __getitem__(self, index) -> "CoisotropicSubspace":
        """Members of a stack, selected by a NumPy index on the stack axes."""
        gauge = self.gauge[index]
        if gauge.ndim < 2 or gauge.shape[-2:] != self.gauge.shape[-2:]:
            raise IndexError("only the stack axes of a subspace can be indexed")
        return CoisotropicSubspace(k=self.k, gauge=gauge)

    def __iter__(self):
        return _stack_members(self, self.gauge)

    @property
    def dim(self) -> int:
        return self.gauge.shape[-1] + self.k


def _rank_parameter(c: Subspace) -> int:
    """k = dim C - n, the rank parameter C has if coisotropic; raises
    ClassificationError when dim C < n, which no coisotropic C has."""
    n = c.basis.shape[-2] // 2
    if c.dim < n:
        raise ClassificationError(
            f"dimension {c.dim} < n = {n}: coisotropic subspaces need dim >= n"
        )
    return c.dim - n


def _check_inside(v: np.ndarray, c: Subspace, tol: Tolerances) -> None:
    """Raise ClassificationError unless every column of every member of the
    kernel stack ``v`` lies in the matching member of ``c`` within the angle
    ``tol.subspace_equality``; the error names the worst member and carries
    its column, the column's residual off C and the angle as witness."""
    resid = v - c.project(v)
    resid_norms = np.linalg.norm(resid, axis=-2)
    if not resid_norms.max(initial=0.0) <= tol.subspace_equality:
        # argmax takes the first NaN, if any, as the worst
        worst = np.unravel_index(np.argmax(resid_norms), resid_norms.shape)
        member, col = worst[:-1], worst[-1]
        angle = float(np.arcsin(np.minimum(1.0, resid_norms[worst])))
        raise ClassificationError(
            "not coisotropic: kernel direction leaves the subspace by angle "
            f"{angle:.3e}" + _member_note(member),
            witness=(v[member][:, col], resid[member][:, col], angle),
        )


def _certify(c: CoisotropicSubspace, tol: Tolerances = DEFAULT) -> CoisotropicSubspace:
    """Certify the splitting ``c`` of C as coisotropic and return it; for a
    stack, every member at once.  Every certified splitting passes here,
    the classification's included.

    Raises ClassificationError unless the gauge u has shape (..., n, n) with
    0 <= k <= n, and then, naming the first failing member of a stack,
    unless u^* u - I has every entry within ``tol.orthonormality`` but for
    Im K^* K, the kernel's omega-pairing with itself, held to the angle
    tolerance ``tol.subspace_equality`` (a pushed-forward kernel is isotropic
    only as far as its matrices are symplectic); a non-finite entry fails.
    A unitary u = [h | K] is all a splitting needs: its real columns
    [h | K | j h] are orthonormal, K is isotropic (Im K^* K = 0) and
    omega-orthogonal to [h | j h], so C is coisotropic with C^omega = K, and
    [h | j h] is the j-invariant complement of K inside C.
    """
    u, k = c.gauge, c.k
    if u.ndim < 2 or u.shape[-1] != u.shape[-2] or not 0 <= k <= u.shape[-1]:
        raise ClassificationError(
            f"a splitting with k = {k} needs a gauge of shape (..., n, n) with n >= {k}, "
            f"got {u.shape}")
    gram = np.conj(_t(u)) @ u - _identity(u.shape[-1])
    pairing = gram[..., k:, k:]
    isotropy = np.abs(pairing.imag).max(axis=(-2, -1), initial=0.0)
    pairing.imag = 0.0
    defect = np.abs(gram).max(axis=(-2, -1))
    _check(~(defect <= tol.orthonormality), ClassificationError, lambda w: "gauge is not "
           f"unitary: defect {defect[w]:.3e} > {tol.orthonormality:.1e}")
    _check(~(isotropy <= tol.subspace_equality), ClassificationError, lambda w: "kernel is "
           f"not isotropic: defect {isotropy[w]:.3e} > {tol.subspace_equality:.1e}")
    return c


def _complex_complement(q: np.ndarray) -> np.ndarray:
    """A unitary basis of the complex complement of the span of each member
    of an (..., n, c) stack of orthonormal complex columns, as an
    (..., n, n-c) stack, computed elementwise with no LAPACK call.

    The complement of a unit vector nu of C^d is spanned by columns 2..d of
    the complex Householder reflector I - 2 v v^* / |v|^2 with
    v = nu + alpha e_1, alpha the phase of nu_1 (1 where nu_1 = 0), which
    maps e_1 to a unit multiple of nu.  For unit nu, |v|^2 = 2 (1 + |nu_1|)
    >= 2, so column j is e_j - v conj(nu_j) / (1 + |nu_1|).  The columns are
    taken in order: each step's complement basis h carries the next step's
    columns, as the coordinates h^* q of the ones still to come, and the
    basis is the product of the steps' h.
    """
    n, c = q.shape[-2:]
    if c == n:
        return np.zeros(q.shape[:-1] + (0,), dtype=complex)
    if c == 0:
        return np.broadcast_to(_identity(n).astype(complex), q.shape[:-1] + (n,))
    basis = None
    for i in range(c):
        nu = q[..., 0]
        first = nu[..., 0]
        mod = np.abs(first)
        alpha = np.where(mod > 0, first / np.where(mod > 0, mod, 1.0), 1.0)
        v = nu.copy()
        v[..., 0] += alpha
        h = -v[..., :, None] * (np.conj(nu[..., None, 1:]) / (1.0 + mod)[..., None, None])
        h[..., 1:, :] += _identity(nu.shape[-1] - 1)
        basis = h if basis is None else basis @ h
        if i + 1 < c:
            q = np.conj(_t(h)) @ q[..., 1:]
    return basis


def classify_coisotropic(c: Subspace, tol: Tolerances = DEFAULT) -> CoisotropicSubspace:
    """Certify C as coisotropic, returning its canonical splitting; for a
    stack, every member at once.

    Succeeds iff the symplectic complement of C lies inside C within the
    angle tolerance; otherwise raises ClassificationError carrying the
    violating kernel vector of the worst member.

    The splitting is ``CoisotropicSubspace.from_kernel`` of the kernel K,
    certified by :func:`_certify` as a loop generator's is.  Its H part
    lies in C unchecked: K = j V with V spanning C^perp, and [h | j h] is
    g-orthogonal to K + j K, which contains V.  A loop generator ``gen`` of
    ``Subspace`` stacks hands over splittings as
    ``lambda t: classify_coisotropic(gen(t))``.
    """
    _rank_parameter(c)
    kernel = symplectic_complement(c)
    _check_inside(kernel.basis, c, tol)
    return _certify(CoisotropicSubspace.from_kernel(complex_coords(kernel.basis)), tol)


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

    def tangent_basis(self) -> np.ndarray:
        """Columns (e_1..e_n, f_1..f_k): a basis of the coisotropic subspace."""
        return np.concatenate([self.e, self.f[..., : self.k]], axis=-1)

    def kernel_vectors(self) -> np.ndarray:
        return self.e[..., self.k:]

    def h_vectors(self) -> np.ndarray:
        return np.concatenate([self.e[..., : self.k], self.f[..., : self.k]], axis=-1)


def adapted_frame(c: CoisotropicSubspace, tol: Tolerances = DEFAULT) -> AdaptedFrame:
    """An adapted unitary Darboux frame for a single coisotropic subspace C:
    the kernel basis of C and the gauge basis h of H_C with canonical
    phases.  It raises ClassificationError when :func:`_certify` refuses
    the gauge, and checks nothing more: [e | j e] is orthonormal as u is
    unitary, and spans [h | K | j h] = C by construction."""
    k, n = _certify(c, tol).k, c.gauge.shape[-1]
    e = np.concatenate([real_coords(_canonical_phases(c.gauge[..., :k])), c.kernel.basis],
                       axis=-1)
    return AdaptedFrame(k=k, e=e, f=_standard_j(n) @ e)


def transport_phases(
    c: CoisotropicSubspace, tol: Tolerances = DEFAULT
) -> tuple[np.ndarray, complex, int, float]:
    """Determinant phases of the adapted frames carried around a closed
    (M, n, n) gauge stack, and the frames' holonomy, without building a frame.

    Returns ``(phases, h_holonomy, kernel_sign, margin)``: the unit stream
    det(U_i) / |det U_i| of the transported unitary frames U_i, the phase
    det(Hol_H) / |det Hol_H| of the H block of the frame monodromy (one more
    step, from member M-1 onto member 0), the sign of det of its kernel
    block (the loop's Z/2 class) and the smallest overlap determinant
    modulus around the loop.

    The frames are those of discrete parallel transport.  Member 0's frame
    is its gauge basis with canonical phases (the frame of
    :func:`adapted_frame`); every later member projects the frame before it
    onto its spans and orthonormalizes the projection by Gram-Schmidt in
    column order, qf, the Q of a QR whose R diagonal is real positive.  In
    the gauges G_i = [h_i | K_i] (unitary bases h_i of the H parts as C^k
    and the kernel bases K_i as complex vectors, as the loop's generator
    handed them over or the classification built them) frame i is
    U_i = G_i B_i, with B_0 = I and B_i = qf(O_i B_{i-1}) for the overlap
    O_i = diag(h_i^* h_{i-1}, K_i' K_{i-1}).  Since
    det qf(A) = det A / prod R_jj with every R_jj > 0,

        det U_i / |det U_i| = ph(det G_i) prod_{j=1..i} ph(det O_j),

    with ph(z) = z / |z|: a running product of overlap determinant phases,
    the discrete Berry phase of King-Smith and Vanderbilt (PRB 47, 1651,
    1993) and Resta (RMP 66, 899, 1994).  The monodromy B_0^* B_M has H
    determinant phase the product of all M H-overlap phases, the closing
    overlap O_0 = diag(h_0^* h_{M-1}, K_0' K_{M-1}) included, and kernel
    determinant the product of the kernel-overlap determinant signs; neither
    depends on the starting frame or the gauges, and another starting frame
    multiplies the whole stream by one constant unit.  |det O_i| is the
    product of the projected column norms of step i.

    The stack is certified first: ClassificationError names the member
    whose gauge :func:`_certify` refuses, the one unitarity policy.  A loop
    certifies each grid as it is generated and hands the certified stack to
    :func:`_transport`, which this routine calls.  ContinuityLossError names
    the member when an overlap determinant modulus falls below
    ``tol.hint_min_norm``.  One stacked determinant per block and per gauge
    basis is taken: no Python step is taken per member.
    """
    return _transport(_certify(c, tol), tol)


def _transport(c: CoisotropicSubspace, tol: Tolerances) -> tuple[np.ndarray, complex, int, float]:
    """:func:`transport_phases` of a stack that :func:`_certify` has
    certified, which is not certified again."""
    k = c.k
    g = c.gauge.copy()
    g[0, :, :k] = _canonical_phases(g[0, :, :k])
    h, kernel = g[..., :k], c.kernel.basis
    # the overlaps O_i, each member against the one before it, the closing
    # O_0 first, one determinant per block
    det_h = np.linalg.det(np.conj(_t(h)) @ np.concatenate([h[-1:], h[:-1]]))
    det_k = np.linalg.det(_t(kernel) @ np.concatenate([kernel[-1:], kernel[:-1]]))
    size = np.abs(det_h) * np.abs(det_k)
    _check(size < tol.hint_min_norm, ContinuityLossError,
           lambda w: f"overlap determinant {size[w]:.3e} < {tol.hint_min_norm:.1e}")
    h_steps, k_signs = det_h / np.abs(det_h), np.sign(det_k)
    phases = np.linalg.det(g) * np.cumprod(
        np.concatenate([[1.0], h_steps[1:] * k_signs[1:]]))
    return (phases / np.abs(phases), complex(np.prod(h_steps)), int(np.prod(k_signs)),
            float(size.min()))


def grassmannian_dim(n: int, k: int) -> int:
    """(n + 3k + 1)(n - k) / 2, the dimension of the rank-2k coisotropic
    Grassmannian of R^{2n}."""
    if not (0 <= k <= n):
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return (n + 3 * k + 1) * (n - k) // 2


def random_unitary(n: int, gen: np.random.Generator, size: tuple = ()) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian, phases fixed.

    ``size`` is numpy's: a stack of that shape, (*size, n, n), from one
    draw of the generator and one stacked QR.  Each member's real and
    imaginary Gaussians are drawn in turn, so the stack reads the generator
    as successive single calls do, and its members are theirs bit for bit.
    """
    _check_complex_dim(n)
    x = gen.normal(size=tuple(size) + (2, n, n))
    q, r = np.linalg.qr(x[..., 0, :, :] + 1j * x[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _check_model(n: int, k: int) -> None:
    """ValueError unless C^k + R^{n-k} is a model: n positive, 0 <= k <= n."""
    _check_complex_dim(n)
    if not (0 <= k <= n):
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}")


def standard_model(n: int, k: int) -> CoisotropicSubspace:
    """The model C^k + R^{n-k}: span(e_1..e_n, f_1..f_k), of gauge I."""
    _check_model(n, k)
    return CoisotropicSubspace(k=k, gauge=np.eye(n, dtype=complex))


def random_coisotropic(n: int, k: int, seed, tol: Tolerances = DEFAULT,
                       size: tuple = ()) -> CoisotropicSubspace:
    """U . (C^k + R^{n-k}) for a seeded Haar-ish random unitary U, the
    certified splitting of gauge U; with ``size``, the stack of that shape
    from :func:`random_unitary`'s stack.  Nothing is classified."""
    _check_model(n, k)
    gen = seed if isinstance(seed, np.random.Generator) else rng(seed)
    return _certify(CoisotropicSubspace(k=k, gauge=random_unitary(n, gen, size)), tol)


def _schur_constraint(t_basis: np.ndarray, perp: np.ndarray, k: int,
                      z: np.ndarray) -> np.ndarray:
    """Upper triangle of the kernel-block Schur complement of the restricted
    form on the subspace perturbed by ``z``, one row per member of a
    (..., m, 2n - m) stack of perturbations, against which the bases
    ``t_basis`` and ``perp`` broadcast; zero iff the perturbation stays
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


def measured_grassmannian_dim(c: CoisotropicSubspace, tol: Tolerances = DEFAULT):
    """Tangent-space dimension of the coisotropic Grassmannian at C,
    measured numerically: an ``int`` for a single C, and for a stack an
    integer array with one dimension per member, from one stacked SVD.
    The gauge is certified first: :func:`_certify` raises
    ClassificationError, naming the member.  :func:`_measured_dim` measures
    a stack that is already certified.

    Nearby (n+k)-dimensional subspaces are graphs of the basis
    [h_part | kernel] of C into C^perp = j K, both read off the gauge; the
    coisotropy condition is the vanishing of the kernel-block Schur
    complement of the restricted symplectic form.  The rank of its
    finite-difference Jacobian (central differences of size
    ``tol.rank_step``, all 2 x npar perturbed subspaces of every member
    evaluated as one stack) is subtracted from the ambient Grassmannian
    dimension.
    """
    return _measured_dim(_certify(c, tol), tol)


def _measured_dim(c: CoisotropicSubspace, tol: Tolerances):
    """:func:`measured_grassmannian_dim` of a splitting or stack that
    :func:`_certify` has certified, which is not certified again."""
    basis = np.concatenate([c.h_part.basis, c.kernel.basis], axis=-1)
    perp = real_coords(1j * c.gauge[..., c.k:])
    batch, (dim, m) = basis.shape[:-2], basis.shape[-2:]
    npar = m * (dim - m)
    step = tol.rank_step
    # perturbation a moves entry a of the (dim, 2n - dim) graph matrix
    z = (step * np.eye(npar)).reshape(npar, m, dim - m)
    f = _schur_constraint(basis[..., None, :, :], perp[..., None, :, :], c.k,
                          np.concatenate([z, -z]))
    if f.shape[-1] == 0:
        ranks = np.zeros(batch, dtype=int)
    else:
        jac = _t(f[..., :npar, :] - f[..., npar:, :]) / (2 * step)
        sv = np.linalg.svd(jac, compute_uv=False)
        ranks = np.sum(sv > np.maximum(1e-7, 1e-6 * sv[..., :1]), axis=-1)
    return npar - ranks if batch else npar - int(ranks)
