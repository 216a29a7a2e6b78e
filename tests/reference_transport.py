"""Sequential frame transport, one Python step per member: the oracle that
the loop's determinant phases, holonomy and overlap margin are checked
against, and that per-sample frame computations read."""

import numpy as np

import coiso


def reference_transport(c, tol=coiso.DEFAULT, start=None):
    """Frames along a stack of coisotropic subspaces, each carried from the
    one before it.

    Member 0's frame is ``start`` when given, a real (2n, n) adapted frame of
    member 0 (k H columns, then the kernel columns), else the kernel basis
    and the library's gauge basis of the H part with canonical phases: for
    k >= 2 the start fixes the det stream only up to a constant unit, so it
    is the library's.  Every later member projects the previous frame onto
    its kernel and onto its H part, the H projector read from ``h_part``
    alone as Z Z^* / 2, Z the complex coordinates of its real orthonormal
    basis.  A projection is orthonormalized by two-pass modified
    Gram-Schmidt in column order.  Returns the (M, 2n, n) frame stack and,
    per member, the product of its projected column norms (1 for member 0).
    """
    k, n = c.k, c.space.basis.shape[-2] // 2
    sizes = np.ones(len(c.space.basis))

    def mgs(cols, i):
        q = np.array(cols)
        for col in range(q.shape[1]):
            v = q[:, col]
            for _ in range(2):
                for j in range(col):
                    v = v - (np.conj(q[:, j]) @ v) * q[:, j]
            norm = np.linalg.norm(v)
            assert norm >= tol.hint_min_norm
            sizes[i] *= norm
            q[:, col] = v / norm
        return q

    e = np.empty(c.kernel.basis.shape[:-1] + (n,))
    prev = None
    for i, (ker, hb) in enumerate(zip(c.kernel.basis, c.h_part.basis)):
        if prev is None and start is not None:
            e[i] = start
        elif prev is None:
            gauge = coiso.symplin._gauge_bases(c[i])[0]
            e[i, :, k:] = ker
            e[i, :, :k] = coiso.real_coords(coiso.symplin._canonical_phases(gauge))
        else:
            e[i, :, k:] = mgs(ker @ (ker.T @ prev[:, k:]), i)
            z = coiso.complex_coords(hb)
            pr = z @ (np.conj(z.T) @ coiso.complex_coords(prev[:, :k])) / 2
            e[i, :, :k] = coiso.real_coords(mgs(pr, i))
        prev = e[i]
    return e, sizes
