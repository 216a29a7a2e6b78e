"""The second fundamental form read against the outward unit normal: the
classical convention the SFF tests compare with closed-form curvatures."""

import numpy as np


def normal_convention_matrix(blocks, nu):
    """S_nu(v, w) = <S(v, w), nu> for ``SFFBlocks`` and the outward unit
    normal, member by member in a stack.  On the unit sphere this is
    -identity."""
    normals = blocks.frame.f[..., blocks.frame.k:]
    coef = np.einsum("...ia,...i->...a", normals, nu)
    return np.einsum("...a,...aij->...ij", coef, blocks.full)
