"""The symplectic complement and the H part of a subspace by stacked SVDs:
the oracle that ``symplin.symplectic_complement`` and the H part of
``symplin.classify_coisotropic`` are checked against; span equality and the
omega pairing that the classification tests read."""

import numpy as np

import coiso
from coiso.symplin import _standard_omega, principal_angles


def _t(a):
    return np.swapaxes(a, -1, -2)


# the singular value at or below which the reference counts a direction of
# the pairing matrix as null
RANK_CUTOFF = 1e-10


def reference_complement(basis):
    """The null space of the m x 2n pairing matrix B' omega of each member
    of a (..., 2n, m) stack of orthonormal bases B: the right singular
    vectors past the rank, counted against ``RANK_CUTOFF``."""
    _, s, vh = np.linalg.svd(_t(basis) @ _standard_omega(basis.shape[-2] // 2))
    ranks = np.sum(s > RANK_CUTOFF, axis=-1)
    assert np.all(ranks == ranks.max())
    return _t(vh[..., int(ranks.max()):, :])


def reference_h_part(basis, kernel, k):
    """The g-orthogonal complement of the kernel inside the span of the
    basis: the first 2k left singular vectors of the basis with the kernel
    projected out."""
    proj = basis - kernel @ (_t(kernel) @ basis)
    return np.linalg.svd(proj, full_matrices=False)[0][..., :2 * k]


def spans_equal(a, b, tol=coiso.DEFAULT.subspace_equality):
    """Whether two subspaces are equal: equal dimensions and every principal
    angle below ``tol``."""
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    return float(np.max(principal_angles(a, b))) < tol


def omega_pairing(a, b):
    """The matrix omega(a_i, b_j) of the basis columns of two subspaces, one
    per member pair of two stacks."""
    return _t(a.basis) @ _standard_omega(a.basis.shape[-2] // 2) @ b.basis
