"""Shared numerical configuration: tolerances and seeded random streams."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["Tolerances", "DEFAULT", "rng"]


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """The tunable thresholds of the library's checks, one record per run.

    Each field is read by some check from the record its caller passes.
    Defaults suit double precision at the sizes the library targets (n <= 6).
    Two type invariants check against ``DEFAULT`` by design, as their
    objects are built without a record: ``Subspace`` orthonormality and the
    closure jump of a ``MaslovSection`` (``phase_jump``).  Nor do the
    ``SymplecticMatrixLoop`` checks read a record: they use literals 1e-9 and 0.5.
    No field is a rank cutoff for the symplectic complement: a ``Subspace``
    is orthonormal, so its complement's dimension is 2n - dim C with no
    rank to decide.
    """

    orthonormality: float = 1e-10        # basis' G basis == identity
    subspace_equality: float = 1e-8      # max principal angle for span equality
    hint_min_norm: float = 1e-6          # floor for overlap dets, bracket columns
    generator_closure: float = 1e-10     # generator(0) vs generator(2*pi)
    consecutive_angle: float = math.pi / 8
    max_loop_samples: int = 2 ** 20
    phase_jump: float = math.pi / 2
    winding_residual: float = 0.05
    boundary_on_surface: float = 1e-8
    unit_gradient_strict: float = 1e-4
    sff_symmetry: float = 1e-5
    mean_curvature_consistency: float = 1e-6
    leafwise_special: float = 1e-6
    bracket_vs_sff: float = 1e-3
    bracket_tangency: float = 1e-3
    type_reassembly: float = 1e-6
    integrability: float = 1e-5
    minimality: float = 1e-5
    minimality_consistency: float = 1e-4
    rank_step: float = 1e-5

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        """The fields in declaration order, not deep-copied: each is a scalar."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


DEFAULT = Tolerances()

# A value this many units in the last place of a threshold or closer to it
# counts as at the threshold.  Where a loop meets a threshold exactly (a
# consecutive angle of pi/8, a phase jump of pi/2), rounding has been seen
# to land up to 17 ulps past it; the margin is twice that, so that a tie is
# decided the same way whichever side rounding puts it on.
TIE_ULPS = 32


def within_tie(value: float, threshold: float) -> bool:
    """Whether ``value`` is within ``TIE_ULPS`` ulps of ``threshold``."""
    return abs(value - threshold) <= TIE_ULPS * math.ulp(threshold)


def rng(seed, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Streams split deterministically: distinct stream numbers under one seed
    give statistically independent, reproducible generators.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))

