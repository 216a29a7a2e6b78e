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
and returns the stack of its M members, a ``Subspace`` or
``CoisotropicSubspace`` whose space has shape (M, 2n, m) and whose member i
depends on theta_i alone; a matrix-loop callable likewise returns an (M, 2n, 2n)
stack.  A ``Subspace`` stack is classified by one stacked call into a
``CoisotropicSubspace``, whose gauge stack has shape (M, n, n); the gauge of
a ``CoisotropicSubspace`` stack is certified unitary as it is handed over,
not reclassified (``symplin._certify``, which the classification ends in
too).  Every named family hands over its unitary u(theta), with
gamma(theta) = u(theta) . (C^k + R^{n-k}), as the gauge, so its loops take
no decomposition to split their samples.  Nor does ``pushforward``: its
image gauge is built from A . K, K the source's kernel
(``CoisotropicSubspace.from_kernel``), and an image that fails
certification raises InternalConsistencyError.  Its generator reads the
stored members of both loops on their own grids.  The continuity contract
reads one stacked largest principal angle per consecutive pair, and the
transport takes one stacked determinant per block, with no Python step per
sample.
Each grid is built once: the generator's members at 0 and 2*pi are
compared for closure, not certified; a doubled grid (refinement, or
``resample(2 * M)``) reuses its even members, bitwise those of the grid it
doubles, and generates and certifies only its odd members; ``resample``
keeps the loop's closure defect.
"""

from __future__ import annotations

import dataclasses
from math import lcm, pi
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
    classify_coisotropic,
    complex_coords,
    largest_principal_angles,
    principal_angles,
    random_unitary,
    realify,
    standard_model,
    transport_phases,
    _certify,
    _check,
    _check_complex_dim,
    _check_model,
    _mgs,
    _rank_parameter,
    _standard_omega,
    _unchecked,
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


def _as_subspace(value) -> Subspace:
    if isinstance(value, CoisotropicSubspace):
        return value.space
    if isinstance(value, Subspace):
        return value
    raise TypeError("generator must return Subspace or CoisotropicSubspace")


def _check_grid_shape(got: tuple, want: tuple) -> None:
    """ValueError unless a loop callable returned the stack shape ``want``,
    one member per angle of the grid."""
    if got != want:
        raise ValueError(
            f"a loop callable must return one member per angle: expected a "
            f"stack of shape {want}, got shape {got}")


def _members(generator, thetas: np.ndarray, dim: Optional[int] = None):
    """The generator's stack on ``thetas``, a ``Subspace`` or
    ``CoisotropicSubspace`` whose array is C-contiguous, as a stack built
    member by member would be.  Its members have ``dim`` = 2n rows when
    ``dim`` is given, else as many as the trailing axes returned show.  A
    splitting's space is not built: its shape is read off the gauge."""
    value = generator(thetas)
    if isinstance(value, CoisotropicSubspace):
        g = value.gauge.shape
        shape = g[:-2] + (2 * g[-2], value.dim) if len(g) > 1 else g
    else:
        shape = _as_subspace(value).basis.shape
    rows = shape[-2] if dim is None and len(shape) > 1 else dim
    _check_grid_shape(shape, (len(thetas), rows, shape[-1]))
    if isinstance(value, CoisotropicSubspace):
        return CoisotropicSubspace(k=value.k, gauge=np.ascontiguousarray(value.gauge))
    return _unchecked(np.ascontiguousarray(value.basis))


def _certified(value, tol) -> CoisotropicSubspace:
    """A generator's stack split and certified: a handed-over splitting is
    certified as it is, a ``Subspace`` classified."""
    if isinstance(value, CoisotropicSubspace):
        return _certify(value, tol)
    return classify_coisotropic(value, tol)


@dataclasses.dataclass(frozen=True)
class CoisotropicLoop:
    """M uniformly sampled coisotropic subspaces and their transported
    frames' determinant data.

    ``samples`` is the certified stack of shape (M, 2n, n+k), member i
    belonging to ``thetas[i]``.  ``closure_defect`` is the principal-angle
    distance between the generator's value at 2*pi and sample 0.  The
    frames U_i transported from sample 0's adapted frame (see
    :func:`~coiso.symplin.transport_phases`) are not kept: ``det_phases``
    holds det(U_i) / |det U_i|.  The subspace loop must close; the frames
    need not, and their monodromy after one more step onto sample 0 is
    recorded by the phase ``h_holonomy`` of its H block determinant and the
    sign ``kernel_sign`` of its kernel block determinant, the loop's Z/2
    class.  ``overlap_margin`` is the smallest overlap determinant modulus
    of that transport, which ``tol.hint_min_norm`` bounds from below.
    ``generator`` is the grid callable the samples were taken from.
    """

    k: int
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
        return _sampled_loop(self.k, self.generator, m, False, coarse, self.closure_defect,
                             2 * self.n, tol)


def loop_from_family(
    k: int,
    generator: Callable[[np.ndarray], object],
    samples: int = 16,
    tol: Tolerances = DEFAULT,
) -> CoisotropicLoop:
    """Sample a parametric family into a loop, refining until consecutive
    samples stay within the max-principal-angle contract (pi/8).

    The generator is called once per grid: given a 1-D array of M angles it
    returns a ``Subspace`` or ``CoisotropicSubspace`` stack of M members
    whose member i depends on theta_i alone, a space of shape (M, 2n, m);
    any other shape, or a count below 1, raises ValueError.  A ``Subspace``
    stack is classified; a returned splitting is certified, not
    reclassified (``symplin._certify``), and a gauge that is not unitary
    raises ClassificationError naming its member.  The generator
    must close: its members at 0 and 2*pi, taken
    from one call, agree within ``tol.generator_closure``; that call fixes
    the 2n of every later grid and, through their dimension, the rank
    parameter, which must be ``k``.  Those two members are not certified;
    grid member 0 is.  Refinement doubles the sample count up to
    ``tol.max_loop_samples`` and then raises DiscontinuousLoopError; an
    angle within ``config.TIE_ULPS`` ulps below ``tol.consecutive_angle``
    counts as at it and refines, so that an exact tie does not hang on the
    last bit.  Certification failures of generator output propagate
    unchanged.  The members of a grid are certified together, one stacked
    call per M; a doubled grid generates and certifies only its odd
    members.
    """
    closure, dim = _closure(k, generator, tol)
    return _sampled_loop(k, generator, samples, True, None, closure, dim, tol)


def _closure(k, generator, tol) -> tuple[float, int]:
    """The generator's closure defect and the 2n rows of its members, from
    one call at 0 and 2*pi.  Raises ClassificationError when their
    dimension is below n, then DiscontinuousLoopError when they do not
    close, then ClassificationError when their rank parameter is not
    ``k``."""
    ends = _as_subspace(_members(generator, np.array([0.0, 2 * pi])))
    rank = _rank_parameter(ends)
    closure = float(np.max(principal_angles(ends[0], ends[1]), initial=0.0))
    if closure > tol.generator_closure:
        raise DiscontinuousLoopError(
            f"generator does not close: defect {closure:.3e}"
        )
    if rank != k:
        raise ClassificationError(
            f"generator produced rank parameter {rank}, expected {k}"
        )
    return closure, ends.basis.shape[-2]


def _sampled_loop(k, generator, m: int, refine: bool,
                  coarse: Optional[CoisotropicSubspace], closure: float, dim: int,
                  tol) -> CoisotropicLoop:
    """The loop of the generator's members on the M-grid, each with ``dim``
    = 2n rows, refining until the continuity contract holds only when
    ``refine``.  ``closure`` is the generator's closure defect, and
    ``coarse``, when given, the certified stack of the M/2 grid (see
    ``_certified_grid``)."""
    stack = _certified_grid(generator, m, dim, coarse, tol)
    while True:
        # largest principal angle from each member to the next, the last to the first
        space = stack.space
        worst = float(np.max(largest_principal_angles(space, space[(np.arange(m) + 1) % m])))
        if worst < tol.consecutive_angle and not within_tie(worst, tol.consecutive_angle):
            break
        if not refine or 2 * m > tol.max_loop_samples:
            raise DiscontinuousLoopError(
                f"consecutive angle {worst:.3f} at M={m}; refinement budget exhausted"
            )
        m *= 2
        stack = _certified_grid(generator, m, dim, stack, tol)

    return _closed_loop(k, _thetas(m), stack, closure, generator, tol)


def _certified_grid(generator, m: int, dim: int, coarse: Optional[CoisotropicSubspace],
                     tol) -> CoisotropicSubspace:
    """The generator's members on the M-grid, each with ``dim`` = 2n rows,
    certified as one stack (see ``_certified``).

    ``coarse``, when given, is the certified stack of the M/2 grid.  Its
    angles are bitwise the even angles of this grid (the ratio is a power of
    two), so only the odd members are generated and certified, and the two
    stacks are interleaved.  When the odd members fail, the whole grid is
    certified instead, so that the error names its member on this grid.
    """
    thetas = _thetas(m)
    if coarse is not None:
        try:
            odd = _certified(_members(generator, thetas[1::2].copy(), dim), tol)
        except CoisoError:
            pass   # the whole-grid certification below raises it on this grid
        else:
            return _interleaved(coarse, odd)
    return _certified(_members(generator, thetas, dim), tol)


def _interleaved(even: CoisotropicSubspace, odd: CoisotropicSubspace) -> CoisotropicSubspace:
    """The stack whose members 0, 2, 4, ... are ``even`` and 1, 3, 5, ...
    ``odd``, its gauge laid out in memory as ``even``'s is."""
    out = np.empty_like(even.gauge, shape=(2 * len(even.gauge),) + even.gauge.shape[1:])
    out[0::2], out[1::2] = even.gauge, odd.gauge
    return CoisotropicSubspace(k=even.k, gauge=out)


def _closed_loop(k, thetas, stack: CoisotropicSubspace, closure,
                 generator, tol) -> CoisotropicLoop:
    """The loop of a certified stack, its frames transported around the
    samples and once more onto sample 0."""
    phases, holonomy, sign, margin = transport_phases(stack, tol)
    return CoisotropicLoop(
        k=k, thetas=thetas, samples=stack, closure_defect=closure, det_phases=phases,
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
        diff = np.roll(a, -1, axis=0) - a
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
    (``CoisotropicSubspace.from_kernel``).  The
    generator reads ``loop.samples`` and ``a.matrices`` on their own grids
    and calls the loops' generators on any other (the closure ends, the odd
    members of a refinement, a finer common grid): a source ``Subspace`` is
    classified first, and matrices that are not symplectic within 1e-9
    raise ValueError, since at n - k = 1 certification cannot tell.

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
            source = _certified(_members(loop.generator, thetas, 2 * loop.n), tol)
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
