"""Loops in the coisotropic Grassmannian and their transported frames.

A loop is held as M uniform samples theta_i = 2*pi*i/M of certified
coisotropic subspaces together with what every index computation reads of
sample 0's adapted frame carried by projection onto consecutive samples (the
discrete parallel transport of flat C^n): the determinant phase of each
frame, and the H determinant phase and kernel sign of the frame monodromy
after one circuit.  These are running products of overlap determinant
phases (``symplin.transport_phases``); no frame is built.

Every loop keeps its generator, and so does every matrix loop: a loop is
resampled, refined or pushed forward by calling it on the new grid.  A
loop generator is called once per grid: it takes a 1-D array of M angles
and hands over the ``CoisotropicSubspace`` stack of its M members, member i
depending on theta_i alone, as its gauges, an (M, n, n) stack of unitaries
u(theta_i) with gamma(theta_i) = u(theta_i) . (C^k + R^{n-k}); a matrix-loop
callable likewise returns an (M, 2n, 2n) stack.  The gauges are certified
unitary as they are handed over (``symplin._certify``), never classified,
so no loop takes a decomposition to split its samples.  Every named family
hands over its u(theta); ``pushforward`` hands over the image gauge built
from A . K, K the source's kernel (``CoisotropicSubspace.from_kernel``),
and an image that fails certification raises InternalConsistencyError.  Its
generator reads the stored members of both loops on their own grids.  The
continuity contract (every consecutive pair within ``tol.consecutive_angle``)
and the closure check read principal angles off the kernels K: C and C' of
equal dimension have the nonzero angles of C^perp = jK and C'^perp = jK'
(Bjorck-Golub 1973).  At n - k = 1 the kernels are lines, whose angle
takes no decomposition; wider kernels are screened by the Frobenius norm of
the residual whose top singular value is the largest angle's sine, and only
the pairs the screen cannot clear take that singular value: a grid whose
every pair clears takes no SVD in the contract.  The closure defect is
exact.  The transport takes one stacked determinant per block, with no
Python step per sample.
Each grid is built and certified once: the generator's members at 0 and
2*pi are compared for closure, not certified; a doubled grid (refinement,
or ``resample(2 * M)``) reuses its even members, bitwise those of the grid
it doubles, and generates and certifies only its odd members; the
transport takes the final grid as certified (``symplin._transport``);
``resample`` keeps the loop's closure defect.
"""

from __future__ import annotations

import dataclasses
from math import lcm, pi, sin
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances, rng, within_tie
from .errors import (
    ClassificationError,
    CoisoError,
    DiscontinuousLoopError,
    InternalConsistencyError,
)
from .symplin import (
    SPANNING_MIN_NORM,
    CoisotropicSubspace,
    Subspace,
    complex_coords,
    largest_principal_angles,
    random_unitary,
    realify,
    standard_model,
    _certify,
    _check,
    _check_complex_dim,
    _check_model,
    _mgs,
    _standard_omega,
    _transport,
)

__all__ = [
    "CoisotropicLoop",
    "SymplecticMatrixLoop",
    "loop_from_family",
    "pushforward",
    "LOOP_FAMILIES",
    "lagrangian_rotation_family",
    "diag_unitary_family",
    "random_unitary_orbit_family",
    "constant_family",
    "unitary_matrix_loop",
    "random_unitary_matrix_loop",
    "random_symplectic_matrix_loop",
]


def _thetas(m: int) -> np.ndarray:
    """The uniform grid of ``m`` angles; ValueError for a count below 1."""
    if m < 1:
        raise ValueError(f"a loop needs at least 1 sample, got {m}")
    return np.arange(m) * (2 * pi / m)


def _check_grid_shape(got: tuple, want: tuple) -> None:
    """ValueError unless a loop callable returned the stack shape ``want``,
    one member per angle of the grid."""
    if got != want:
        raise ValueError(
            f"a loop callable must return one member per angle: expected a "
            f"stack of shape {want}, got shape {got}")


def _members(generator, thetas: np.ndarray, n: Optional[int] = None) -> CoisotropicSubspace:
    """The generator's splitting stack on ``thetas``, its gauge C-contiguous,
    as a stack built member by member would be.  TypeError unless the
    generator returned a ``CoisotropicSubspace``, ValueError unless its gauge
    has shape (M, n, n), n read off the gauge when not given."""
    value = generator(thetas)
    if not isinstance(value, CoisotropicSubspace):
        raise TypeError(f"a loop generator must return a CoisotropicSubspace, "
                        f"got {type(value).__name__}")
    shape = value.gauge.shape
    n = shape[-2] if n is None and len(shape) > 1 else n
    _check_grid_shape(shape, (len(thetas), n, n))
    return CoisotropicSubspace(k=value.k, gauge=np.ascontiguousarray(value.gauge))


@dataclasses.dataclass(frozen=True)
class CoisotropicLoop:
    """M uniformly sampled coisotropic subspaces and their transported
    frames' determinant data.

    ``samples`` is the certified splitting stack, its gauges of shape
    (M, n, n), member i belonging to ``thetas[i]``; ``k`` and ``n`` are
    read off it.  ``closure_defect`` is the largest principal angle
    between the kernels of the generator's value at 2*pi and of sample 0,
    the subspaces' angle (see the module docstring).  The frames U_i
    transported from sample 0's adapted frame (see
    :func:`~coiso.symplin.transport_phases`) are not kept: ``det_phases``
    holds det(U_i) / |det U_i|.  The subspace loop must close; the frames
    need not, and their monodromy after one more step onto sample 0 is
    recorded by the phase ``h_holonomy`` of its H block determinant and the
    sign ``kernel_sign`` of its kernel block determinant, the loop's Z/2
    class.  ``overlap_margin`` is the smallest overlap determinant modulus
    of that transport, which ``tol.hint_min_norm`` bounds from below.
    ``generator`` is the grid callable the samples were taken from.
    """

    thetas: np.ndarray
    samples: CoisotropicSubspace
    closure_defect: float
    det_phases: np.ndarray
    h_holonomy: complex
    kernel_sign: int
    overlap_margin: float
    generator: Callable

    @property
    def m(self) -> int:
        return len(self.thetas)

    @property
    def k(self) -> int:
        return self.samples.k

    @property
    def n(self) -> int:
        return self.samples.gauge.shape[-1]

    def section_gauge(self) -> np.ndarray:
        """Unit phases periodizing the frame trivialization of sections.

        The H block of the frame monodromy carries the holonomy that every
        section coefficient stream picks up after one circuit; spreading
        its squared determinant phase uniformly over the samples makes the
        streams close.  Ratios of sections are unaffected.
        """
        if self.k == 0:
            return np.ones(self.m, dtype=complex)
        phi = float(np.angle(self.h_holonomy ** 2))
        # honest coefficient streams wrap by -phi; the ramp compensates and
        # has zero net winding around the cycle, so index values are blind
        # to it
        return np.exp(-1j * phi * np.arange(self.m) / self.m)

    def resample(self, m: int, tol: Tolerances = DEFAULT) -> "CoisotropicLoop":
        """The loop on the grid of ``m`` samples, never refined but held to
        the continuity contract, with the loop's closure defect; on the
        doubled grid only the new (odd) members are generated and certified."""
        coarse = self.samples if m == 2 * self.m else None
        return _sampled_loop(self.generator, m, False, coarse, self.closure_defect, self.n, tol)


def loop_from_family(
    k: int,
    generator: Callable[[np.ndarray], CoisotropicSubspace],
    samples: int = 16,
    tol: Tolerances = DEFAULT,
) -> CoisotropicLoop:
    """Sample a parametric family into a loop, refining until consecutive
    samples stay within the max-principal-angle contract (pi/8), read off
    their kernels K, as C^perp = jK has the nonzero angles of C.  A pair of
    kernels whose Frobenius sine clears the bound takes no exact angle, so
    a refusal names the exact worst angle of its grid, and a kept grid only
    knows its angles are within the bound.

    The generator is called once per grid: given a 1-D array of M angles it
    hands over the ``CoisotropicSubspace`` stack of M members whose member i
    depends on theta_i alone, its gauges of shape (M, n, n); any other type
    raises TypeError, any other shape, or a count below 1, ValueError.  The
    gauges are certified, never classified (``symplin._certify``), and one
    that is not unitary raises ClassificationError naming its member.  A
    generator ``gen`` of ``Subspace`` stacks is wrapped to classify its own
    members, ``lambda t: classify(gen(t))`` with ``classify`` the
    classification of ``symplin``.  The generator must close: its members
    at 0 and 2*pi, taken from one call, agree within
    ``tol.generator_closure``; that call fixes the n of every later grid,
    and its rank parameter must be ``k``.  Those two members are not
    certified; grid member 0 is.  Refinement doubles the sample count up to
    ``tol.max_loop_samples`` and then raises DiscontinuousLoopError; an
    angle within ``config.TIE_ULPS`` ulps below ``tol.consecutive_angle``
    counts as at it and refines, so that an exact tie does not hang on the
    last bit.  Certification failures of generator output propagate
    unchanged.  The members of a grid are certified together, one stacked
    call per M; a doubled grid generates and certifies only its odd
    members.
    """
    closure, n = _closure(k, generator, tol)
    return _sampled_loop(generator, samples, True, None, closure, n, tol)


def _closure(k, generator, tol) -> tuple[float, int]:
    """The generator's closure defect and the n of its gauges, from one call
    at 0 and 2*pi.  Raises DiscontinuousLoopError when the two members do
    not close, then ClassificationError when their rank parameter is not
    ``k``."""
    ends = _members(generator, np.array([0.0, 2 * pi]))
    closure = float(largest_principal_angles(*ends.kernel))
    if closure > tol.generator_closure:
        raise DiscontinuousLoopError(
            f"generator does not close: defect {closure:.3e}"
        )
    if ends.k != k:
        raise ClassificationError(
            f"generator produced rank parameter {ends.k}, expected {k}"
        )
    return closure, ends.gauge.shape[-1]


def _sampled_loop(generator, m: int, refine: bool, coarse: Optional[CoisotropicSubspace],
                  closure: float, n: int, tol) -> CoisotropicLoop:
    """The loop of the generator's members on the M-grid, each of gauge
    n x n, refining until the continuity contract holds only when
    ``refine``.  ``closure`` is the generator's closure defect, and
    ``coarse``, when given, the certified stack of the M/2 grid (see
    ``_certified_grid``)."""
    stack = _certified_grid(generator, m, n, coarse, tol)
    while True:
        # from each kernel to the next, the last to the first
        kernel = stack.kernel
        worst = _contract_angle(kernel, kernel[(np.arange(m) + 1) % m], tol)
        if worst < tol.consecutive_angle and not within_tie(worst, tol.consecutive_angle):
            break
        if not refine or 2 * m > tol.max_loop_samples:
            raise DiscontinuousLoopError(
                f"consecutive angle {worst:.3f} at M={m}; refinement budget exhausted"
            )
        m *= 2
        stack = _certified_grid(generator, m, n, stack, tol)

    return _closed_loop(_thetas(m), stack, closure, generator, tol)


def _contract_angle(a: Subspace, b: Subspace, tol) -> float:
    """The largest principal angle between paired kernels of ``a`` and ``b``
    that the continuity contract has to read: exact when some pair breaks
    the contract, and below ``tol.consecutive_angle`` when every pair keeps it.

    Kernels of dimension c >= 2 are screened first.  The Frobenius norm of
    B - A A' B is at least its top singular value, the sine of the largest
    angle, so a pair whose norm is below sin(bound) by a relative 1e-12, far
    wider than rounding and the ``within_tie`` window, is inside the
    contract and takes no decomposition.  The bound is capped at pi/6, below
    which :func:`largest_principal_angles` reads the arcsin of that top
    sine.  The other pairs, and lines, take :func:`largest_principal_angles`,
    bit for bit as the whole stack would; 0.0 when no pair is left.
    """
    if a.dim > 1:
        resid = b.basis - a.basis @ (np.swapaxes(a.basis, -1, -2) @ b.basis)
        clear = sin(min(tol.consecutive_angle, pi / 6)) * (1 - 1e-12)
        # squared Frobenius norms; a NaN fails the comparison and is not cleared
        wide = ~(np.einsum("...ij,...ij->...", resid, resid) < clear ** 2)
        if not np.any(wide):
            return 0.0
        a, b = a[wide], b[wide]
    return float(np.max(largest_principal_angles(a, b)))


def _certified_grid(generator, m: int, n: int, coarse: Optional[CoisotropicSubspace],
                     tol) -> CoisotropicSubspace:
    """The generator's members on the M-grid, their gauges n x n, certified
    as one stack by ``symplin._certify``.

    ``coarse``, when given, is the certified stack of the M/2 grid.  Its
    angles are bitwise the even angles of this grid (the ratio is a power of
    two), so only the odd members are generated and certified, and the two
    stacks are interleaved.  When the odd members fail, the whole grid is
    certified instead, so that the error names its member on this grid.
    """
    thetas = _thetas(m)
    if coarse is not None:
        try:
            odd = _certify(_members(generator, thetas[1::2].copy(), n), tol)
        except CoisoError:
            pass   # the whole-grid certification below raises it on this grid
        else:
            return _interleaved(coarse, odd)
    return _certify(_members(generator, thetas, n), tol)


def _interleaved(even: CoisotropicSubspace, odd: CoisotropicSubspace) -> CoisotropicSubspace:
    """The stack whose members 0, 2, 4, ... are ``even`` and 1, 3, 5, ...
    ``odd``, its gauge laid out in memory as ``even``'s is."""
    out = np.empty_like(even.gauge, shape=(2 * len(even.gauge),) + even.gauge.shape[1:])
    out[0::2], out[1::2] = even.gauge, odd.gauge
    return CoisotropicSubspace(k=even.k, gauge=out)


def _closed_loop(thetas, stack: CoisotropicSubspace, closure, generator,
                 tol) -> CoisotropicLoop:
    """The loop of a certified stack, its frames transported around the
    samples and once more onto sample 0; the stack is not certified again."""
    phases, holonomy, sign, margin = _transport(stack, tol)
    return CoisotropicLoop(
        thetas=thetas, samples=stack, closure_defect=closure, det_phases=phases,
        h_holonomy=holonomy, kernel_sign=sign, overlap_margin=margin, generator=generator,
    )


def _symplectic(matrices) -> np.ndarray:
    """The stack ``matrices`` as a float array; ValueError unless every
    member A has A' omega A = omega within 1e-9."""
    a = np.asarray(matrices, dtype=float)
    om = _standard_omega(a.shape[-1] // 2)
    worst = float(np.max(np.abs(np.swapaxes(a, -1, -2) @ om @ a - om)))
    if not worst <= 1e-9:
        raise ValueError(f"samples not symplectic: residual {worst:.3e}")
    return a


@dataclasses.dataclass(frozen=True)
class SymplecticMatrixLoop:
    """M sampled 2n x 2n matrices A(theta_i) with A' omega A = omega, on the
    uniform grid of M angles, and the grid callable ``generator`` they were
    taken from; :meth:`from_callable` builds one."""

    matrices: np.ndarray
    generator: Callable

    def __post_init__(self):
        a = _symplectic(self.matrices)
        # the operator norm of a step is at most its Frobenius norm, so only
        # a step whose Frobenius norm exceeds 0.5 (less a relative 1e-12 for
        # rounding) can fail, and only those take the operator norm's SVD
        diff = np.concatenate([a[1:], a[:1]]) - a
        steps = np.linalg.norm(diff, axis=(-2, -1))
        wide = steps > 0.5 * (1 - 1e-12)
        if np.count_nonzero(wide):
            steps[wide] = np.linalg.norm(diff[wide], 2, axis=(-2, -1))
        _check(steps > 0.5, ValueError, lambda w: f"consecutive samples {w[0]} jump by "
               f"operator norm {steps[w]:.3f} > 0.5", trailing=1)
        object.__setattr__(self, "matrices", a)

    @property
    def m(self) -> int:
        return len(self.matrices)

    @classmethod
    def from_callable(cls, n: int, fn, samples: int) -> "SymplecticMatrixLoop":
        """Matrix loop in C^n on the uniform grid of ``samples`` angles.
        ``fn`` is called once: given a 1-D array of M angles it returns the
        (M, 2n, 2n) stack of the matrices A(theta_i), member i depending on
        theta_i alone; any other shape raises ValueError."""
        _check_complex_dim(n)
        mats = np.asarray(fn(_thetas(samples)))
        _check_grid_shape(mats.shape, (samples, 2 * n, 2 * n))
        return cls(matrices=mats, generator=fn)


def pushforward(
    a: SymplecticMatrixLoop, loop: CoisotropicLoop, tol: Tolerances = DEFAULT
) -> CoisotropicLoop:
    """The loop theta -> A(theta) . gamma(theta), built by
    :func:`loop_from_family` from one generator that hands over the image's
    splitting.

    A symplectic A maps C^omega onto (A C)^omega, so the image's kernel is
    the Gram-Schmidt basis of A K, K the source's kernel (a column below
    ``SPANNING_MIN_NORM`` raises ContinuityLossError), and its H gauge
    basis that of the complex complement of that span
    (``CoisotropicSubspace.from_kernel``).  The generator reads
    ``loop.samples`` and ``a.matrices`` on their own grids and calls the
    loops' generators on any other (the closure ends, the odd members of a
    refinement, a finer common grid): the source's handed-over gauges are
    certified first, and matrices that are not symplectic within 1e-9 raise
    ValueError, since at n - k = 1 certification cannot tell.

    It starts on the least common multiple of the two sample counts and
    refines from there.  A common grid above ``tol.max_loop_samples``
    raises DiscontinuousLoopError; an image that fails certification raises
    InternalConsistencyError, as a symplectic map keeps a subspace
    coisotropic.
    """
    m = lcm(a.m, loop.m)
    if m > tol.max_loop_samples:
        raise DiscontinuousLoopError(f"common grid M={m} exceeds the budget")
    matrix_thetas = _thetas(a.m)

    def gen(thetas):
        if np.array_equal(thetas, loop.thetas):
            source = loop.samples
        else:
            source = _certify(_members(loop.generator, thetas, loop.n), tol)
        if np.array_equal(thetas, matrix_thetas):
            mats = a.matrices
        else:
            mats = _symplectic(a.generator(thetas))
        kernel = complex_coords(_mgs(mats @ source.kernel.basis, SPANNING_MIN_NORM)[0])
        return CoisotropicSubspace.from_kernel(kernel)

    try:
        return loop_from_family(loop.k, gen, samples=m, tol=tol)
    except ClassificationError as exc:
        raise InternalConsistencyError(
            "symplectic image of a coisotropic subspace failed certification") from exc


# ---------------------------------------------------------------------------
# named loop families: each generator builds the unitaries u(theta) with
# gamma(theta) = u(theta) . (C^k + R^{n-k}) and hands them over as the
# gauges of their splittings: the H gauge basis u[:, :k], the kernel u[:, k:]


def _diagonals(d: np.ndarray) -> np.ndarray:
    """The stack of diagonal matrices diag(d_i), one per row of ``d``, laid
    out as ``np.diag`` lays out each."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    idx = np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


def constant_family(n: int, k: int, seed=None):
    """A constant loop: the standard model, or a seeded random position."""
    from .symplin import random_coisotropic

    fixed = standard_model(n, k) if seed is None else random_coisotropic(n, k, seed)

    def gen(thetas, _c=fixed):
        return _c[None][np.zeros(len(thetas), dtype=int)]

    return gen


def lagrangian_rotation_family(n: int, turns: int = 1):
    """gamma(theta) = exp(i * turns * theta / 2) . R^n, a Lagrangian loop."""
    _check_complex_dim(n)

    def gen(thetas):
        return CoisotropicSubspace(k=0, gauge=np.exp(1j * turns * thetas / 2)[:, None, None]
                                   * np.eye(n))

    return gen


def diag_unitary_family(n: int, k: int, windings: Sequence[float]):
    """diag(exp(i m_j theta)) applied to the standard model C^k + R^{n-k}.

    Entries acting on the kernel coordinates (j > k) may carry half-integer
    windings: the half turn lands in the isotropy group of the model.
    """
    _check_model(n, k)
    if len(windings) != n:
        raise ValueError("need one winding per complex coordinate")
    w = np.asarray(windings, dtype=float)

    def gen(thetas):
        return CoisotropicSubspace(k=k, gauge=_diagonals(np.exp(1j * w * thetas[:, None])))

    gen.windings = w
    return gen


def _closed_exponential(h1: np.ndarray, h2: np.ndarray, c: complex):
    """Grid callable of theta -> exp(c x(theta)), x(theta) = (cos theta - 1) h1
    + sin theta h2, for Hermitian (or real symmetric) h1 and h2.

    x(theta) is Hermitian and vanishes at theta = 0 and 2*pi, so the loop
    closes.  Its exponential is V diag(exp(c lambda)) V^* from one stacked
    ``np.linalg.eigh`` of the grid's x, no Python step per angle: unitary
    for c = i, real symmetric positive definite for c = 1 and real h.
    """
    def fn(thetas):
        c_t, s_t = (np.cos(thetas) - 1)[:, None, None], np.sin(thetas)[:, None, None]
        lam, v = np.linalg.eigh(c_t * h1 + s_t * h2)
        return (v * np.exp(c * lam)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))

    return fn


def _closed_wiggle(n: int, gen: np.random.Generator, scale: float):
    """A contractible loop of unitaries on a grid of angles: exp of the
    skew-Hermitian path (cos theta - 1) s1 + sin theta s2, s1 and s2 drawn
    from ``gen``; the path is i times the Hermitian path of -i s1, -i s2."""
    def skew(size):
        z = gen.normal(size=(size, size)) + 1j * gen.normal(size=(size, size))
        return scale * (z - np.conj(z.T)) / 2

    s1, s2 = skew(n), skew(n)
    return _closed_exponential(-1j * s1, -1j * s2, 1j)


def random_unitary_orbit_family(
    n: int, k: int, seed, max_winding: int = 2, wiggle: float = 0.4
):
    """A seeded random loop in the coisotropic Grassmannian.

    gamma(theta) = V . W(theta) . diag(exp(i mu_j theta)) . (C^k + R^{n-k})
    with V a fixed random unitary, W a contractible unitary wiggle and
    integer windings mu_j on the H coordinates, half-integer allowed on the
    kernel coordinates.
    """
    _check_model(n, k)
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    v = random_unitary(n, g)
    wig = _closed_wiggle(n, g, wiggle)
    mu = np.empty(n)
    mu[:k] = g.integers(-max_winding, max_winding + 1, size=k)
    mu[k:] = g.integers(-2 * max_winding, 2 * max_winding + 1, size=n - k) / 2.0

    def gen(thetas):
        u = v @ wig(thetas) @ _diagonals(np.exp(1j * mu * thetas[:, None]))
        return CoisotropicSubspace(k=k, gauge=u)

    gen.windings = mu
    gen.conjugator = v
    return gen


def unitary_matrix_loop(n: int, fn_complex, samples: int) -> SymplecticMatrixLoop:
    """Matrix loop from a callable returning complex unitaries: given a 1-D
    array of M angles, ``fn_complex`` returns the (M, n, n) stack of the
    unitaries, member i depending on theta_i alone."""
    return SymplecticMatrixLoop.from_callable(
        n, lambda thetas: realify(fn_complex(thetas)), samples
    )


def _random_unitary_grid(n: int, g: np.random.Generator, max_winding: int, wiggle: float):
    """Grid callable of a seeded closed loop of n x n unitaries
    V W(theta) diag(exp(i mu_j theta)) V^*; draws V, the wiggle W and the
    windings mu from ``g`` in that order."""
    v = random_unitary(n, g)
    wig = _closed_wiggle(n, g, wiggle)
    mu = g.integers(-max_winding, max_winding + 1, size=n)

    def fn(thetas):
        return v @ wig(thetas) @ _diagonals(np.exp(1j * mu * thetas[:, None])) @ np.conj(v.T)

    return fn


def random_unitary_matrix_loop(
    n: int, seed, samples: int, max_winding: int = 2, wiggle: float = 0.3,
) -> SymplecticMatrixLoop:
    """A seeded closed loop of unitaries, determinant winding allowed."""
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return unitary_matrix_loop(n, _random_unitary_grid(n, g, max_winding, wiggle), samples)


# scale of the symmetric sp(2n) generators of the random symplectic stretch
STRETCH = 0.3


def random_symplectic_matrix_loop(
    n: int, seed, samples: int, max_winding: int = 2,
) -> SymplecticMatrixLoop:
    """Unitary loop times a closed positive symplectic stretch.

    The stretch is exp of (cos theta - 1) S1 + sin theta S2 with S1 and S2
    symmetric elements [[A, B], [B, -A]] of sp(2n), A and B real symmetric
    and drawn after the unitary loop: a real symmetric path, so each member
    is symmetric positive definite and symplectic, and the grid's members
    come from one stacked ``eigh``.
    """
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    unitaries = _random_unitary_grid(n, g, max_winding, wiggle=0.3)

    def sym(size):
        a = g.normal(size=(size, size))
        return STRETCH * (a + a.T) / 2

    def stretch(a, b):
        # a symmetric element of sp(2n): [[A, B], [B, -A]], A and B symmetric
        return np.block([[a, b], [b, -a]])

    a1, b1 = sym(n), sym(n)
    a2, b2 = sym(n), sym(n)
    stretch_fn = _closed_exponential(stretch(a1, b1), stretch(a2, b2), 1.0)

    def fn(thetas):
        return realify(unitaries(thetas)) @ stretch_fn(thetas)

    return SymplecticMatrixLoop.from_callable(n, fn, samples)


# name -> builder of the family's generator from (n, k, family_params, seed);
# a random orbit takes the seed unless its parameters name their own
LOOP_FAMILIES = {
    "constant": lambda n, k, fp, seed: constant_family(n, k, fp.get("seed")),
    "lagrangian-rotation": lambda n, k, fp, seed: lagrangian_rotation_family(
        n, int(fp.get("turns", 1))),
    "diag-unitary": lambda n, k, fp, seed: diag_unitary_family(n, k, fp["windings"]),
    "random-unitary-orbit": lambda n, k, fp, seed: random_unitary_orbit_family(
        n, k, fp.get("seed", seed), int(fp.get("max_winding", 2)),
        float(fp.get("wiggle", 0.4))),
}
