"""Shared numerical configuration: tolerances and seeded random streams."""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Every tolerance used by the library, collected in one tunable record.

    Defaults are chosen for double precision and the desk-scale problem
    sizes the library targets (n <= 6).  Operations accept an instance of
    this record so individual experiments can loosen or tighten bounds.
    """

    orthonormality: float = 1e-10        # basis' G basis == identity
    subspace_equality: float = 1e-8      # max principal angle for span equality
    kernel_pairing: float = 1e-9         # |omega(kernel, space)| bound
    darboux: float = 1e-9                # Darboux relations of adapted frames
    frame_j: float = 1e-12               # f_i == j e_i
    svd_cutoff: float = 1e-10            # null space singular value cutoff
    svd_gap: float = 1e-3                # ill-conditioning gap ratio
    hint_min_norm: float = 1e-6          # floor for projected hint columns
    generator_closure: float = 1e-10     # generator(0) vs generator(2*pi)
    loop_closure: float = 1e-8           # stored subspace-loop closure defect
    consecutive_angle: float = math.pi / 8
    max_loop_samples: int = 2 ** 20
    unit_modulus: float = 1e-9
    phase_jump: float = math.pi / 2
    winding_residual: float = 0.05
    equivariance: float = 1e-9
    boundary_on_surface: float = 1e-8
    unit_gradient: float = 1e-6
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
    fd_step: float = 1e-5
    rank_step: float = 1e-5

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT = Tolerances()


def rng(seed, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Streams split deterministically: distinct stream numbers under one seed
    give statistically independent, reproducible generators.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))

