"""Symplectic linear algebra: structures, classification, frames."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import coiso
from coiso import (
    ClassificationError,
    Subspace,
    adapted_frame,
    classify_coisotropic,
    grassmannian_dim,
    principal_angles,
    random_coisotropic,
    realify,
    spans_equal,
    standard_model,
    standard_space,
    symplectic_complement,
)

SP2 = standard_space(2)
SP3 = standard_space(3)


def basis_vec(n, i):
    v = np.zeros(2 * n)
    v[i] = 1.0
    return v


def test_standard_space_invariants():
    for sp in (SP2, SP3):
        d = sp.dim
        assert_allclose(sp.omega, -sp.omega.T, atol=1e-15)
        assert abs(np.linalg.det(sp.omega)) > 0.5
        assert_allclose(sp.j @ sp.j, -np.eye(d), atol=1e-15)
        g = sp.omega @ sp.j
        assert_allclose(g, g.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(g)) > 0
        assert_allclose(sp.j.T @ sp.omega @ sp.j, sp.omega, atol=1e-15)


def test_subspace_orthonormality_enforced():
    bad = np.ones((4, 2))
    with pytest.raises(ValueError):
        Subspace(bad)
    ok = Subspace.from_spanning(np.array([[1.0, 1.0], [0, 1], [0, 0], [0, 0]]))
    assert_allclose(ok.basis.T @ ok.basis, np.eye(2), atol=1e-12)


def test_complement_whole_space_is_zero():
    whole = Subspace(np.eye(4))
    comp = symplectic_complement(SP2, whole)
    assert comp.dim == 0


def test_complement_lagrangian_is_itself():
    lag = Subspace(np.eye(4)[:, :2])  # span{e1, e2}
    comp = symplectic_complement(SP2, lag)
    assert spans_equal(comp, lag)


def test_complement_standard_model():
    # span{e1, f1, e2} in C^2 has complement span{e2}
    cols = np.stack([basis_vec(2, 0), basis_vec(2, 2), basis_vec(2, 1)], axis=1)
    comp = symplectic_complement(SP2, Subspace(cols))
    assert spans_equal(comp, Subspace(basis_vec(2, 1)[:, None]))


def test_classify_rejects_symplectic_plane():
    c = Subspace(np.stack([basis_vec(2, 0), basis_vec(2, 2)], axis=1))
    with pytest.raises(ClassificationError) as err:
        classify_coisotropic(SP2, c)
    assert err.value.witness is not None


def test_classify_lagrangian():
    c = Subspace(np.eye(4)[:, :2])
    out = classify_coisotropic(SP2, c)
    assert out.k == 0
    assert spans_equal(out.kernel, c)
    assert out.h_part.dim == 0


def test_classify_standard_model():
    cols = np.stack([basis_vec(2, 0), basis_vec(2, 2), basis_vec(2, 1)], axis=1)
    out = classify_coisotropic(SP2, Subspace(cols))
    assert out.k == 1
    assert spans_equal(out.kernel, Subspace(basis_vec(2, 1)[:, None]))
    h = Subspace(np.stack([basis_vec(2, 0), basis_vec(2, 2)], axis=1))
    assert spans_equal(out.h_part, h)


def test_classify_kernel_pairing_scan():
    for seed in range(5):
        c = random_coisotropic(SP3, 1, seed)
        pairing = coiso.omega_pairing(SP3, c.kernel, c.space)
        assert np.max(np.abs(pairing)) < 1e-9


def test_adapted_frame_standard_model_is_standard_basis():
    model = standard_model(SP2, 1)
    fr = adapted_frame(SP2, model)
    eye = np.eye(4)
    assert_allclose(fr.e, eye[:, :2], atol=1e-12)
    assert_allclose(fr.f, eye[:, 2:], atol=1e-12)


def test_adapted_frame_hint_fixed_point():
    c = random_coisotropic(SP2, 1, 3)
    fr = adapted_frame(SP2, c)
    again = adapted_frame(SP2, c, hint=fr)
    assert np.max(np.abs(again.e - fr.e)) < 1e-12
    assert np.max(np.abs(again.f - fr.f)) < 1e-12


def test_adapted_frame_perturbation_tracks_hint():
    # rotate the standard model by a global phase of size eps; the hinted
    # frame must stay within O(eps) of the hint
    eps = 1e-3
    model = standard_model(SP2, 1)
    fr = adapted_frame(SP2, model)
    u = realify(np.exp(1j * eps) * np.eye(2))
    rotated = classify_coisotropic(SP2, Subspace.from_spanning(u @ model.space.basis))
    moved = adapted_frame(SP2, rotated, hint=fr)
    dist = max(
        float(np.max(np.linalg.norm(moved.e - fr.e, axis=0))),
        float(np.max(np.linalg.norm(moved.f - fr.f, axis=0))),
    )
    assert dist < 2e-3


def test_adapted_frame_darboux_and_j_consistency():
    for seed, k in [(0, 0), (1, 1), (2, 2)]:
        c = random_coisotropic(SP2, k, seed)
        fr = adapted_frame(SP2, c)
        full = np.concatenate([fr.e, fr.f], axis=1)
        pair = full.T @ SP2.omega @ full
        want = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        assert np.max(np.abs(pair - want)) < 1e-9
        assert np.max(np.abs(fr.f - SP2.j @ fr.e)) < 1e-12


def test_grassmannian_dim_values():
    assert grassmannian_dim(2, 0) == 3
    assert grassmannian_dim(2, 1) == 3
    assert grassmannian_dim(3, 3) == 0
    for n in range(1, 7):
        assert grassmannian_dim(n, 0) == n * (n + 1) // 2
    with pytest.raises(ValueError):
        grassmannian_dim(2, 3)
    with pytest.raises(ValueError):
        grassmannian_dim(2, -1)


def test_random_coisotropic_k_equals_n_is_whole_space():
    c = random_coisotropic(SP2, 2, 11)
    assert c.space.dim == 4
    assert c.kernel.dim == 0


def test_random_coisotropic_lagrangian_classifies():
    c = random_coisotropic(SP3, 0, 5)
    assert c.k == 0
    assert spans_equal(c.kernel, c.space)


def test_random_coisotropic_deterministic():
    a = random_coisotropic(SP3, 1, 9)
    b = random_coisotropic(SP3, 1, 9)
    assert np.array_equal(a.space.basis, b.space.basis)


def test_principal_angles_identical_subspaces():
    c = random_coisotropic(SP2, 1, 2).space
    assert_allclose(principal_angles(c, c), 0.0, atol=1e-9)


def test_principal_angles_orthogonal_lines():
    a = Subspace(basis_vec(2, 0)[:, None])
    b = Subspace(basis_vec(2, 2)[:, None])
    assert_allclose(principal_angles(a, b), [np.pi / 2], atol=1e-12)


def test_principal_angles_dimension_mismatch():
    a = Subspace(np.eye(4)[:, :1])
    b = Subspace(np.eye(4)[:, :2])
    with pytest.raises(ValueError):
        principal_angles(a, b)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=1.5))
def test_principal_angle_of_rotation(t):
    a = Subspace(basis_vec(2, 0)[:, None])
    col = np.cos(t) * basis_vec(2, 0) + np.sin(t) * basis_vec(2, 1)
    b = Subspace(col[:, None])
    assert_allclose(principal_angles(a, b), [t], atol=1e-12)


def test_complement_involution_on_random_coisotropics():
    count = 0
    for n, sp in [(2, SP2), (3, SP3)]:
        for k in range(n + 1):
            for seed in range(10):
                c = random_coisotropic(sp, k, 1000 * n + 10 * k + seed)
                back = symplectic_complement(sp, symplectic_complement(sp, c.space))
                assert c.space.dim == 0 or np.max(
                    principal_angles(back, c.space)) < 1e-8
                count += 1
    assert count >= 70  # plus the kernel cases below make over 100 spans
    for seed in range(30):
        c = random_coisotropic(SP3, seed % 3, 5000 + seed)
        back = symplectic_complement(SP3, symplectic_complement(SP3, c.kernel))
        assert np.max(principal_angles(back, c.kernel)) < 1e-8
        count += 1
    assert count >= 100


def test_measured_dimension_matches_formula_spot_checks():
    for (n, k, sp) in [(2, 1, SP2), (3, 2, SP3)]:
        c = random_coisotropic(sp, k, 21)
        assert coiso.measured_grassmannian_dim(sp, c) == grassmannian_dim(n, k)


# ---------------------------------------------------------------------------
# stacked helpers: largest principal angles, stacked classification, frame
# checks over a chain


def _rotated_pairs(seed, n, m, angles):
    """Pairs (A, B) of m-dimensional subspaces of R^{2n} whose principal
    angles are exactly ``angles[i]`` (one row per pair), each B given in a
    random basis of its span."""
    g = np.random.default_rng(seed)
    a, b = [], []
    for th in angles:
        q, _ = np.linalg.qr(g.normal(size=(2 * n, 2 * n)))
        r, _ = np.linalg.qr(g.normal(size=(m, m)))
        a.append(q[:, :m])
        b.append((q[:, :m] * np.cos(th) + q[:, m:2 * m] * np.sin(th)) @ r)
    return Subspace(np.stack(a)), Subspace(np.stack(b))


# angles per regime from u in [3, 12]; "small" (1e-9 rotations among them)
# and "near_half_pi" are offsets 10**-u
_REGIMES = {
    "small": lambda u: 10.0 ** -u,
    "below_quarter": lambda u: np.pi / 4 * (u - 3) / 10,
    "above_quarter": lambda u: np.pi / 4 + np.pi / 4 * (u - 3) / 10,
    "near_half_pi": lambda u: np.pi / 2 - 10.0 ** -u,
}


@st.composite
def _angle_stacks(draw, regimes):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    count = draw(st.integers(1, 4))
    regime = draw(st.sampled_from(regimes))
    u = st.floats(min_value=3.0, max_value=12.0)
    angles = np.array([[_REGIMES[regime](draw(u)) for _ in range(m)]
                       for _ in range(count)])
    return draw(st.integers(0, 2 ** 32 - 1)), n, m, angles


@settings(max_examples=60, deadline=None)
@given(_angle_stacks(list(_REGIMES)))
def test_largest_principal_angles_match_scipy(case):
    seed, n, m, angles = case
    a, b = _rotated_pairs(seed, n, m, angles)
    got = coiso.largest_principal_angles(a, b)
    every = principal_angles(a, b)
    assert got.shape == (len(angles),)
    assert every.shape == angles.shape
    for i in range(len(angles)):
        want = scipy.linalg.subspace_angles(a.basis[i], b.basis[i])
        assert abs(got[i] - np.max(want)) < 1e-12
        assert abs(got[i] - np.max(angles[i])) < 1e-12
        assert_allclose(every[i], np.sort(want), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3),
       st.floats(min_value=3.0, max_value=12.0))
def test_principal_angles_mixed_pair_near_half_pi(seed, n, u):
    # one angle below pi/4 and the largest near pi/2: each angle is read by
    # its own route, the largest from its cosine.  scipy.linalg.subspace_angles
    # picks the routes in cosine order instead and reads this angle from an
    # arcsine near 1, off by up to a few 1e-8.
    angles = np.array([[0.3, np.pi / 2 - 10.0 ** -u]])
    a, b = _rotated_pairs(seed, n, 2, angles)
    assert_allclose(principal_angles(a, b)[0], angles[0], rtol=0, atol=1e-12)
    assert abs(coiso.largest_principal_angles(a, b)[0] - angles[0, 1]) < 1e-12


def test_classify_stack_names_the_bad_member():
    good = [random_coisotropic(SP3, 1, seed).space.basis for seed in range(5)]
    g = np.random.default_rng(7)
    bad = np.linalg.qr(g.normal(size=(6, 4)))[0]   # generic 4-plane in R^6
    stack = Subspace(np.stack(good[:3] + [bad] + good[3:]))
    with pytest.raises(ClassificationError, match="stack member 3") as err:
        classify_coisotropic(SP3, stack)
    vec, resid, angle = err.value.witness
    # the witness is a vector of the bad member's symplectic complement that
    # leaves the bad member, by the reported angle
    assert np.max(np.abs(bad.T @ SP3.omega @ vec)) < 1e-9
    assert_allclose(resid, vec - bad @ (bad.T @ vec), atol=1e-12)
    assert abs(np.arcsin(min(1.0, np.linalg.norm(resid))) - angle) < 1e-12
    assert angle > 1e-3


def test_classify_stack_members_match_single_calls():
    spaces = [random_coisotropic(SP3, 1, seed).space for seed in range(4)]
    stack = classify_coisotropic(SP3, Subspace(np.stack([s.basis for s in spaces])))
    for i, s in enumerate(spaces):
        single = classify_coisotropic(SP3, s)
        assert stack.k == single.k
        assert np.array_equal(stack[i].kernel.basis, single.kernel.basis)
        assert np.array_equal(stack[i].h_part.basis, single.h_part.basis)


def _chain(seed=12, m=9):
    spaces = [random_coisotropic(SP3, 1, seed + i).space.basis for i in range(m)]
    stack = classify_coisotropic(SP3, Subspace(np.stack(spaces)))
    return stack, list(coiso.transported_frames(SP3, stack))


def _scaled(fr):
    return coiso.AdaptedFrame(k=fr.k, e=1.001 * fr.e, f=1.001 * fr.f)


def _broken_f(fr):
    return coiso.AdaptedFrame(k=fr.k, e=fr.e, f=-fr.f)


@pytest.mark.parametrize("corrupt, defect", [
    (_scaled, "is not orthonormal"),
    (_broken_f, "has f != j e"),
    (lambda fr: _chain(seed=40)[1][4], "does not span the target subspace"),
])
def test_frame_chain_check_names_the_corrupted_member(corrupt, defect):
    stack, frames = _chain()
    coiso.symplin._check_frames(SP3, stack, frames, coiso.DEFAULT)
    # corrupt two members in the middle; the first is reported
    frames[4], frames[6] = corrupt(frames[4]), corrupt(frames[6])
    with pytest.raises(coiso.ContinuityLossError, match=f"frame 4 {defect}"):
        coiso.symplin._check_frames(SP3, stack, frames, coiso.DEFAULT)


def test_transported_frames_follow_their_hints():
    stack, frames = _chain()
    for i in range(1, len(frames)):
        assert np.array_equal(frames[i].e, adapted_frame(SP3, stack[i], hint=frames[i - 1]).e)
