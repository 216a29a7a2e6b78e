"""Loops in the coisotropic Grassmannian and their propagated frames.

A loop is held as M uniform samples theta_i = 2*pi*i/M of certified
coisotropic subspaces together with adapted frames chained by projection
onto consecutive samples.  In flat C^n that chaining is the discrete
parallel transport, so the frame monodromy after one circuit carries the
winding data every index computation consumes; it is retained, never
discarded.

Construction works on the stack of all M samples at once.  The generator
is evaluated sample by sample; its M outputs are then classified by one
stacked call, the continuity contract reads one stacked largest principal
angle per consecutive pair, and the frames are transported sample by
sample and checked once as a stack.
"""

from __future__ import annotations

import dataclasses
from math import lcm, pi
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances, rng
from .errors import (
    ClassificationError,
    DiscontinuousLoopError,
    InternalConsistencyError,
)
from .symplin import (
    AdaptedFrame,
    CoisotropicSubspace,
    Subspace,
    SymplecticSpace,
    classify_coisotropic,
    complex_coords,
    largest_principal_angles,
    principal_angles,
    random_unitary,
    realify,
    standard_model,
    transported_frames,
)

__all__ = [
    "CoisotropicLoop",
    "SymplecticMatrixLoop",
    "loop_from_family",
    "pushforward",
    "transverse_frame_loop",
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
    return np.arange(m) * (2 * pi / m)


def _as_subspace(value) -> Subspace:
    if isinstance(value, CoisotropicSubspace):
        return value.space
    if isinstance(value, Subspace):
        return value
    raise TypeError("generator must return Subspace or CoisotropicSubspace")


def _as_coisotropic(space, value, tol) -> CoisotropicSubspace:
    if isinstance(value, CoisotropicSubspace):
        return value
    return classify_coisotropic(space, _as_subspace(value), tol)


def _consecutive_angles(spaces: Subspace) -> np.ndarray:
    """Largest principal angle from each member of a stack to the next,
    the last one to the first."""
    return largest_principal_angles(spaces, Subspace(np.roll(spaces.basis, -1, axis=0)))


def _closed_chain(space, stack: CoisotropicSubspace, hint, tol):
    """Members and transported frames of a sampled loop, with the frame
    monodromy U_0^* U_pred, where U_pred is the last frame transported once
    more onto sample 0."""
    m = len(stack.space.basis)
    frames = transported_frames(space, stack[np.append(np.arange(m), 0)], hint, tol)
    monodromy = np.conj(frames[0].unitary().T) @ frames[-1].unitary()
    return tuple(stack[i] for i in range(m)), frames[:-1], monodromy


@dataclasses.dataclass(frozen=True)
class CoisotropicLoop:
    """M uniformly sampled coisotropic subspaces with chained frames.

    ``samples`` and ``frames`` are the members of the stacks the loop was
    built from: the samples classified by one stacked call, the frames
    transported one after the other and checked as one stack.
    ``closure_defect`` is the principal-angle distance between the
    generator's value at 2*pi and sample 0.  The subspace loop must close;
    the frames need not, and ``monodromy`` (U_0^* U_pred, where U_pred is
    the frame transported once more onto sample 0) records how far they
    fail to.
    """

    space: SymplecticSpace
    k: int
    thetas: np.ndarray
    samples: tuple
    frames: tuple
    closure_defect: float
    monodromy: np.ndarray
    generator: Optional[Callable] = None

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def n(self) -> int:
        return self.space.n

    def unitaries(self) -> np.ndarray:
        """Stack of the frames' complex matrices, shape (M, n, n)."""
        return np.stack([f.unitary() for f in self.frames])

    def section_gauge(self) -> np.ndarray:
        """Unit phases periodizing the frame trivialization of sections.

        The H block of the frame monodromy carries the holonomy that every
        section coefficient stream picks up after one circuit; spreading
        its squared determinant phase uniformly over the samples makes the
        streams close.  Ratios of sections are unaffected.
        """
        k = self.k
        if k == 0:
            return np.ones(self.m, dtype=complex)
        det = np.linalg.det(self.monodromy[:k, :k])
        if abs(det) < 1e-6:
            raise InternalConsistencyError("frame monodromy lost its H block")
        phi = float(np.angle((det / abs(det)) ** 2))
        # honest coefficient streams wrap by -phi; the ramp compensates and
        # has zero net winding around the cycle, so index values are blind
        # to it
        return np.exp(-1j * phi * np.arange(self.m) / self.m)

    def consecutive_angles(self) -> np.ndarray:
        """Largest principal angle from each sample to the next."""
        return _consecutive_angles(Subspace(np.stack([s.space.basis for s in self.samples])))

    def resample(self, m: int, tol: Tolerances = DEFAULT) -> "CoisotropicLoop":
        if self.generator is None:
            raise ValueError("loop has no generator; cannot resample")
        return loop_from_family(
            self.space, self.k, self.generator, samples=m,
            hint=self.frames[0], auto_refine=False, tol=tol,
        )


def loop_from_family(
    space: SymplecticSpace,
    k: int,
    generator: Callable[[float], object],
    samples: int = 16,
    hint: Optional[AdaptedFrame] = None,
    auto_refine: bool = True,
    tol: Tolerances = DEFAULT,
) -> CoisotropicLoop:
    """Sample a parametric family into a loop, refining until consecutive
    samples stay within the max-principal-angle contract (pi/8).

    The generator must close: generator(0) and generator(2*pi) agree within
    ``tol.generator_closure``.  Refinement doubles the sample count up to
    ``tol.max_loop_samples`` and then raises DiscontinuousLoopError.
    Classification failures of generator output propagate unchanged.  The
    generator's outputs are classified together, one stacked call per M.
    """
    start = _as_coisotropic(space, generator(0.0), tol)
    end = _as_coisotropic(space, generator(2 * pi), tol)
    if start.space.dim:
        closure = float(np.max(principal_angles(start.space, end.space)))
    else:
        closure = 0.0
    if closure > tol.generator_closure:
        raise DiscontinuousLoopError(
            f"generator does not close: defect {closure:.3e}"
        )
    if start.k != k:
        raise ClassificationError(
            f"generator produced rank parameter {start.k}, expected {k}"
        )

    m = samples
    while True:
        thetas = _thetas(m)
        bases = np.stack([_as_subspace(generator(t)).basis for t in thetas])
        stack = classify_coisotropic(space, Subspace(bases), tol)
        worst = float(np.max(_consecutive_angles(stack.space)))
        if worst < tol.consecutive_angle:
            break
        if not auto_refine or 2 * m > tol.max_loop_samples:
            raise DiscontinuousLoopError(
                f"consecutive angle {worst:.3f} at M={m}; refinement budget exhausted"
            )
        m *= 2

    subs, frames, monodromy = _closed_chain(space, stack, hint, tol)
    return CoisotropicLoop(
        space=space, k=k, thetas=thetas, samples=subs,
        frames=frames, closure_defect=closure,
        monodromy=monodromy, generator=generator,
    )


@dataclasses.dataclass(frozen=True)
class SymplecticMatrixLoop:
    """M sampled 2n x 2n matrices A(theta_i) with A' omega A = omega."""

    space: SymplecticSpace
    thetas: np.ndarray
    matrices: np.ndarray
    generator: Optional[Callable] = None

    def __post_init__(self):
        a = np.asarray(self.matrices, dtype=float)
        om = self.space.omega
        worst = float(np.max(np.abs(np.swapaxes(a, -1, -2) @ om @ a - om)))
        if worst > 1e-9:
            raise ValueError(f"samples not symplectic: residual {worst:.3e}")
        steps = np.linalg.norm(np.roll(a, -1, axis=0) - a, 2, axis=(-2, -1))
        jumps = np.flatnonzero(steps > 0.5)
        if jumps.size:
            i = int(jumps[0])
            raise ValueError(
                f"consecutive samples {i} jump by operator norm {steps[i]:.3f} > 0.5"
            )
        object.__setattr__(self, "matrices", a)

    @property
    def m(self) -> int:
        return len(self.matrices)

    @classmethod
    def from_callable(cls, space, fn, samples: int) -> "SymplecticMatrixLoop":
        thetas = _thetas(samples)
        mats = np.stack([fn(t) for t in thetas])
        return cls(space=space, thetas=thetas, matrices=mats, generator=fn)

    def resample(self, m: int) -> "SymplecticMatrixLoop":
        if self.m == m:
            return self
        if self.generator is None:
            raise ValueError("matrix loop has no generator; cannot resample")
        return SymplecticMatrixLoop.from_callable(self.space, self.generator, m)


def pushforward(
    a: SymplecticMatrixLoop, loop: CoisotropicLoop, tol: Tolerances = DEFAULT
) -> CoisotropicLoop:
    """The loop theta -> A(theta) . gamma(theta), reclassified samplewise
    with frames propagated from scratch.

    Both loops are resampled to the least common multiple of their sample
    counts, which requires generators when the counts differ.
    """
    m = lcm(a.m, loop.m)
    if m > tol.max_loop_samples:
        raise DiscontinuousLoopError(f"common grid M={m} exceeds the budget")

    failed = "symplectic image of a coisotropic subspace failed to classify"

    def image(mat, value):
        return Subspace.from_spanning(mat @ _as_subspace(value).basis)

    if loop.generator is not None and a.generator is not None:
        agen, lgen = a.generator, loop.generator

        def gen(theta, _a=agen, _l=lgen):
            return image(_a(theta), _l(theta))

        try:
            return loop_from_family(loop.space, loop.k, gen, samples=m, tol=tol)
        except ClassificationError as exc:
            raise InternalConsistencyError(failed) from exc

    # sampled data only: stay on the common grid, no refinement possible
    a = a.resample(m)
    loop_m = loop if loop.m == m else loop.resample(m, tol)
    bases = np.stack([image(a.matrices[i], loop_m.samples[i]).basis for i in range(m)])
    try:
        stack = classify_coisotropic(loop.space, Subspace(bases), tol)
    except ClassificationError as exc:
        raise InternalConsistencyError(failed) from exc
    subs, frames, monodromy = _closed_chain(loop.space, stack, None, tol)
    worst = float(np.max(_consecutive_angles(stack.space)))
    if worst >= tol.consecutive_angle:
        raise DiscontinuousLoopError(
            f"pushforward violated the continuity contract: {worst:.3f}"
        )
    return CoisotropicLoop(
        space=loop.space, k=loop.k, thetas=_thetas(m), samples=subs,
        frames=frames, closure_defect=loop_m.closure_defect,
        monodromy=monodromy, generator=None,
    )


def transverse_frame_loop(loop: CoisotropicLoop):
    """Per-sample unitary (n-k)-frames of the transverse (1,0)-space.

    Returns ``(frames, monodromy)`` where ``frames[i]`` is the n x (n-k)
    complex matrix whose columns are the kernel frame vectors of sample i in
    complex coordinates, and ``monodromy`` is the kernel block of the frame
    monodromy after one circuit (the empty product, an identity of size 0,
    when k = n).
    """
    k = loop.k
    frames = [complex_coords(f.kernel_vectors()) for f in loop.frames]
    mono = loop.monodromy[k:, k:]
    return frames, mono


# ---------------------------------------------------------------------------
# named loop families


def constant_family(space: SymplecticSpace, k: int, seed=None):
    """A constant loop: the standard model, or a seeded random position."""
    from .symplin import random_coisotropic

    fixed = standard_model(space, k) if seed is None else random_coisotropic(space, k, seed)

    def gen(theta, _c=fixed):
        return _c

    return gen


def lagrangian_rotation_family(space: SymplecticSpace, turns: int = 1):
    """gamma(theta) = exp(i * turns * theta / 2) . R^n, a Lagrangian loop."""
    n = space.n
    base = np.eye(2 * n)[:, :n]

    def gen(theta):
        u = realify(np.exp(1j * turns * theta / 2) * np.eye(n))
        return Subspace.from_spanning(u @ base)

    return gen


def diag_unitary_family(space: SymplecticSpace, k: int, windings: Sequence[float]):
    """diag(exp(i m_j theta)) applied to the standard model C^k + R^{n-k}.

    Entries acting on the kernel coordinates (j > k) may carry half-integer
    windings: the half turn lands in the isotropy group of the model.
    """
    n = space.n
    if len(windings) != n:
        raise ValueError("need one winding per complex coordinate")
    w = np.asarray(windings, dtype=float)
    base = standard_model(space, k).space.basis

    def gen(theta):
        u = realify(np.diag(np.exp(1j * w * theta)))
        return Subspace.from_spanning(u @ base)

    return gen


def _closed_wiggle(n: int, gen: np.random.Generator, scale: float):
    """A contractible loop of unitaries: exp of a skew-Hermitian path that
    vanishes at theta = 0 and 2*pi."""
    def skew(size):
        z = gen.normal(size=(size, size)) + 1j * gen.normal(size=(size, size))
        return scale * (z - np.conj(z.T)) / 2

    s1, s2 = skew(n), skew(n)

    def fn(theta):
        x = (np.cos(theta) - 1) * s1 + np.sin(theta) * s2
        return scipy.linalg.expm(x)

    return fn


def random_unitary_orbit_family(
    space: SymplecticSpace, k: int, seed, max_winding: int = 2, wiggle: float = 0.4
):
    """A seeded random loop in the coisotropic Grassmannian.

    gamma(theta) = V . W(theta) . diag(exp(i mu_j theta)) . (C^k + R^{n-k})
    with V a fixed random unitary, W a contractible unitary wiggle and
    integer windings mu_j on the H coordinates, half-integer allowed on the
    kernel coordinates.
    """
    n = space.n
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    v = random_unitary(n, g)
    wig = _closed_wiggle(n, g, wiggle)
    mu = np.empty(n)
    mu[:k] = g.integers(-max_winding, max_winding + 1, size=k)
    mu[k:] = g.integers(-2 * max_winding, 2 * max_winding + 1, size=n - k) / 2.0
    base = standard_model(space, k).space.basis

    def gen(theta):
        u = v @ wig(theta) @ np.diag(np.exp(1j * mu * theta))
        return Subspace.from_spanning(realify(u) @ base)

    gen.windings = mu
    gen.conjugator = v
    return gen


def unitary_matrix_loop(space: SymplecticSpace, fn_complex, samples: int) -> SymplecticMatrixLoop:
    """Matrix loop from a callable returning complex unitaries."""
    return SymplecticMatrixLoop.from_callable(
        space, lambda t: realify(fn_complex(t)), samples
    )


def random_unitary_matrix_loop(
    space: SymplecticSpace, seed, samples: int,
    max_winding: int = 2, wiggle: float = 0.3,
) -> SymplecticMatrixLoop:
    """A seeded closed loop of unitaries, determinant winding allowed."""
    n = space.n
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    v = random_unitary(n, g)
    wig = _closed_wiggle(n, g, wiggle)
    mu = g.integers(-max_winding, max_winding + 1, size=n)

    def fn(theta):
        return v @ wig(theta) @ np.diag(np.exp(1j * mu * theta)) @ np.conj(v.T)

    return unitary_matrix_loop(space, fn, samples)


def random_symplectic_matrix_loop(
    space: SymplecticSpace, seed, samples: int,
    max_winding: int = 2, stretch: float = 0.3,
) -> SymplecticMatrixLoop:
    """Unitary loop times a closed positive symplectic stretch.

    The polar decomposition of each sample recovers the unitary factor
    exactly, which downstream section transport relies on.
    """
    n = space.n
    g = rng(seed) if not isinstance(seed, np.random.Generator) else seed
    uloop = random_unitary_matrix_loop(space, g, samples, max_winding)

    def sym(size):
        a = g.normal(size=(size, size))
        return stretch * (a + a.T) / 2

    a1, b1 = sym(n), sym(n)
    a2, b2 = sym(n), sym(n)

    def stretch_fn(theta):
        # symmetric elements of sp(2n): [[A, B], [B, -A]] with A, B symmetric
        c, s = np.cos(theta) - 1, np.sin(theta)
        a = c * a1 + s * a2
        b = c * b1 + s * b2
        x = np.block([[a, b], [b, -a]])
        return scipy.linalg.expm(x)

    gen_u = uloop.generator

    def fn(theta):
        return gen_u(theta) @ stretch_fn(theta)

    return SymplecticMatrixLoop.from_callable(space, fn, samples)


LOOP_FAMILIES = {
    "constant": constant_family,
    "lagrangian-rotation": lagrangian_rotation_family,
    "diag-unitary": diag_unitary_family,
    "random-unitary-orbit": random_unitary_orbit_family,
}
