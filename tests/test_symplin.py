"""Symplectic linear algebra: structures, classification, frames."""

import dataclasses
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
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
    standard_model,
    symplectic_complement,
)
from coiso.symplin import (
    _certify,
    _check,
    _complex_complement,
    _standard_j,
    _standard_omega,
)
from reference_classify import (
    omega_pairing,
    reference_complement,
    reference_h_part,
    spans_equal,
)
from reference_transport import reference_transport


def basis_vec(n, i):
    v = np.zeros(2 * n)
    v[i] = 1.0
    return v


def test_standard_structures_invariants():
    for n in (2, 3):
        omega, j = _standard_omega(n), _standard_j(n)
        assert_allclose(omega, -omega.T, atol=1e-15)
        assert abs(np.linalg.det(omega)) > 0.5
        assert_allclose(j @ j, -np.eye(2 * n), atol=1e-15)
        g = omega @ j
        assert_allclose(g, g.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(g)) > 0
        assert_allclose(j.T @ omega @ j, omega, atol=1e-15)


def test_subspace_orthonormality_enforced():
    bad = np.ones((4, 2))
    with pytest.raises(ValueError):
        Subspace(bad)
    ok = Subspace.from_spanning(np.array([[1.0, 1.0], [0, 1], [0, 0], [0, 0]]))
    assert_allclose(ok.basis.T @ ok.basis, np.eye(2), atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_subspace_refuses_a_non_finite_basis():
    # NaN fails every comparison, so a bare "defect > tol" let it through
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        Subspace(np.full((4, 3), np.nan))
    stack = np.stack([np.eye(4)[:, :2]] * 3)
    stack[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        Subspace(stack)


def test_complement_whole_space_is_zero():
    whole = Subspace(np.eye(4))
    comp = symplectic_complement(whole)
    assert comp.dim == 0


def test_complement_lagrangian_is_itself():
    lag = Subspace(np.eye(4)[:, :2])  # span{e1, e2}
    comp = symplectic_complement(lag)
    assert spans_equal(comp, lag)


def test_complement_standard_model():
    # span{e1, f1, e2} in C^2 has complement span{e2}
    cols = np.stack([basis_vec(2, 0), basis_vec(2, 2), basis_vec(2, 1)], axis=1)
    comp = symplectic_complement(Subspace(cols))
    assert spans_equal(comp, Subspace(basis_vec(2, 1)[:, None]))


@settings(max_examples=60)
@given(st.integers(1, 5), st.data(), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_complement_of_every_dimension_matches_the_svd_reference(n, data, count, seed):
    # random orthonormal bases of every dimension m = 0..2n, so C may be
    # isotropic, symplectic or neither: the complement decides no rank, and
    # it is the reference's null space of B' omega, of dimension 2n - m; a
    # stack (count >= 1) has the single calls as members bit for bit, and
    # count 0 is a single subspace
    m = data.draw(st.integers(0, 2 * n))
    g = coiso.rng(seed)
    bases = [np.linalg.qr(g.normal(size=(2 * n, m)))[0] for _ in range(max(count, 1))]
    space = Subspace(np.stack(bases) if count else bases[0])
    comp = symplectic_complement(space)
    assert comp.dim == 2 * n - m
    pairing = space.basis.swapaxes(-1, -2) @ _standard_omega(n) @ comp.basis
    assert np.max(np.linalg.norm(pairing, axis=(-2, -1))) <= 1e-12
    want = Subspace(reference_complement(space.basis))
    assert np.max(coiso.largest_principal_angles(comp, want)) <= 1e-12
    for i in range(count):
        assert np.array_equal(comp[i].basis, symplectic_complement(Subspace(bases[i])).basis)


def test_classify_rejects_symplectic_plane():
    c = Subspace(np.stack([basis_vec(2, 0), basis_vec(2, 2)], axis=1))
    with pytest.raises(ClassificationError) as err:
        classify_coisotropic(c)
    assert err.value.witness is not None


def test_classify_lagrangian():
    c = Subspace(np.eye(4)[:, :2])
    out = classify_coisotropic(c)
    assert out.k == 0
    assert spans_equal(out.kernel, c)
    assert out.h_part.dim == 0


def test_classify_standard_model():
    cols = np.stack([basis_vec(2, 0), basis_vec(2, 2), basis_vec(2, 1)], axis=1)
    out = classify_coisotropic(Subspace(cols))
    assert out.k == 1
    assert spans_equal(out.kernel, Subspace(basis_vec(2, 1)[:, None]))
    h = Subspace(np.stack([basis_vec(2, 0), basis_vec(2, 2)], axis=1))
    assert spans_equal(out.h_part, h)


def test_classify_kernel_pairing_scan():
    members = [random_coisotropic(3, 1, seed) for seed in range(5)]
    for c in members:
        pairing = omega_pairing(c.kernel, c.space)
        assert np.max(np.abs(pairing)) < 1e-9
    # the same pairings on a stack of the first four subspaces
    kernels = Subspace(np.stack([c.kernel.basis for c in members[:4]]))
    spaces = Subspace(np.stack([c.space.basis for c in members[:4]]))
    stacked = omega_pairing(kernels, spaces)
    assert stacked.shape == (4, 2, 4)
    for i, c in enumerate(members[:4]):
        assert np.array_equal(stacked[i], omega_pairing(c.kernel, c.space))


def test_adapted_frame_standard_model_is_standard_basis():
    model = standard_model(2, 1)
    fr = adapted_frame(model)
    eye = np.eye(4)
    assert_allclose(fr.e, eye[:, :2], atol=1e-12)
    assert_allclose(fr.f, eye[:, 2:], atol=1e-12)


def test_adapted_frame_darboux_and_j_consistency():
    for seed, k in [(0, 0), (1, 1), (2, 2)]:
        c = random_coisotropic(2, k, seed)
        fr = adapted_frame(c)
        full = np.concatenate([fr.e, fr.f], axis=1)
        pair = full.T @ _standard_omega(2) @ full
        want = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        assert np.max(np.abs(pair - want)) < 1e-9
        assert np.max(np.abs(fr.f - _standard_j(2) @ fr.e)) < 1e-12


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
    c = random_coisotropic(2, 2, 11)
    assert c.space.dim == 4
    assert c.kernel.dim == 0


def test_random_coisotropic_lagrangian_classifies():
    c = random_coisotropic(3, 0, 5)
    assert c.k == 0
    assert spans_equal(c.kernel, c.space)


def test_random_coisotropic_deterministic():
    a = random_coisotropic(3, 1, 9)
    b = random_coisotropic(3, 1, 9)
    assert np.array_equal(a.space.basis, b.space.basis)


def test_principal_angles_identical_subspaces():
    c = random_coisotropic(2, 1, 2).space
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


@settings(max_examples=25)
@given(st.floats(min_value=0.01, max_value=1.5))
def test_principal_angle_of_rotation(t):
    a = Subspace(basis_vec(2, 0)[:, None])
    col = np.cos(t) * basis_vec(2, 0) + np.sin(t) * basis_vec(2, 1)
    b = Subspace(col[:, None])
    assert_allclose(principal_angles(a, b), [t], atol=1e-12)


def test_complement_involution_on_random_coisotropics():
    count = 0
    for n in (2, 3):
        for k in range(n + 1):
            for seed in range(10):
                c = random_coisotropic(n, k, 1000 * n + 10 * k + seed)
                back = symplectic_complement(symplectic_complement(c.space))
                assert c.space.dim == 0 or np.max(
                    principal_angles(back, c.space)) < 1e-8
                count += 1
    assert count >= 70  # plus the kernel cases below make over 100 spans
    for seed in range(30):
        c = random_coisotropic(3, seed % 3, 5000 + seed)
        back = symplectic_complement(symplectic_complement(c.kernel))
        assert np.max(principal_angles(back, c.kernel)) < 1e-8
        count += 1
    assert count >= 100


def test_measured_dimension_matches_formula_spot_checks():
    for n, k in [(2, 1), (3, 2)]:
        c = random_coisotropic(n, k, 21)
        assert coiso.measured_grassmannian_dim(c) == grassmannian_dim(n, k)


def test_stacked_draws_are_the_successive_single_draws():
    # a stack of P reads the generator as P single calls do: the same
    # members bit for bit, and the generators end in the same state
    for n in range(1, 6):
        for k in range(n + 1):
            for p in range(1, 6):
                a, b = coiso.rng(600 + n, 10 * k + p), coiso.rng(600 + n, 10 * k + p)
                unitaries = coiso.random_unitary(n, a, (p,))
                assert unitaries.shape == (p, n, n)
                for member in unitaries:
                    assert np.array_equal(member, coiso.random_unitary(n, b))
                stack = random_coisotropic(n, k, a, size=(p,))
                for member in stack:
                    single = random_coisotropic(n, k, b)
                    for part in ("space", "kernel", "h_part"):
                        assert np.array_equal(getattr(member, part).basis,
                                              getattr(single, part).basis), (n, k, p, part)
                assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
    # a size of two axes lays the same draws out in C order
    flat = coiso.random_unitary(2, coiso.rng(5), (6,))
    assert np.array_equal(coiso.random_unitary(2, coiso.rng(5), (2, 3)),
                          flat.reshape(2, 3, 2, 2))


def test_measured_dimension_of_a_stack_is_its_members():
    for n in range(1, 6):
        for k in range(n + 1):
            stack = random_coisotropic(n, k, 700 + 10 * n + k, size=(3,))
            dims = coiso.measured_grassmannian_dim(stack)
            singles = [coiso.measured_grassmannian_dim(c) for c in stack]
            assert all(type(d) is int for d in singles)
            assert dims.shape == (3,)
            assert dims.tolist() == singles == [grassmannian_dim(n, k)] * 3


def test_complex_complement_completes_orthonormal_columns_to_a_unitary():
    # columns of stacked random unitaries, one with a zero first entry
    # (the reflector's phase is 1 there)
    for n in range(1, 6):
        u = coiso.random_unitary(n, coiso.rng(40 + n), (4,))
        u[1] = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        for c in range(n + 1):
            comp = _complex_complement(u[..., :c])
            assert comp.shape == (4, n, n - c)
            full = np.concatenate([u[..., :c], comp], axis=-1)
            assert np.max(np.abs(np.conj(np.swapaxes(full, -1, -2)) @ full - np.eye(n))) < 1e-14


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


@settings(max_examples=60)
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


@settings(max_examples=40)
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


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.data())
def test_largest_principal_angles_are_the_largest_angles_bit_for_bit(seed, n, data):
    # members below pi/6 read the top sine alone, the others take
    # principal_angles: both give its largest value exactly, on stacks that
    # mix the regimes and against one unstacked subspace
    m = data.draw(st.integers(1, n))
    count = data.draw(st.integers(1, 6))
    u = st.floats(min_value=3.0, max_value=12.0)
    angles = np.array([[_REGIMES[data.draw(st.sampled_from(list(_REGIMES)))](data.draw(u))
                        for _ in range(m)] for _ in range(count)])
    a, b = _rotated_pairs(seed, n, m, angles)
    for first in (a, a[0]):
        assert np.array_equal(coiso.largest_principal_angles(first, b),
                              np.max(principal_angles(first, b), axis=-1))


def test_classify_stack_names_the_bad_member():
    good = [random_coisotropic(3, 1, seed).space.basis for seed in range(5)]
    g = np.random.default_rng(7)
    bad = np.linalg.qr(g.normal(size=(6, 4)))[0]   # generic 4-plane in R^6
    stack = Subspace(np.stack(good[:3] + [bad] + good[3:]))
    with pytest.raises(ClassificationError, match="stack member 3") as err:
        classify_coisotropic(stack)
    vec, resid, angle = err.value.witness
    # the witness is a vector of the bad member's symplectic complement that
    # leaves the bad member, by the reported angle
    assert np.max(np.abs(bad.T @ _standard_omega(3) @ vec)) < 1e-9
    assert_allclose(resid, vec - bad @ (bad.T @ vec), atol=1e-12)
    assert abs(np.arcsin(min(1.0, np.linalg.norm(resid))) - angle) < 1e-12
    assert angle > 1e-3


def test_classify_stack_members_match_single_calls():
    spaces = [random_coisotropic(3, 1, seed).space for seed in range(4)]
    stack = classify_coisotropic(Subspace(np.stack([s.basis for s in spaces])))
    for i, s in enumerate(spaces):
        single = classify_coisotropic(s)
        assert stack.k == single.k
        assert np.array_equal(stack[i].kernel.basis, single.kernel.basis)
        assert np.array_equal(stack[i].h_part.basis, single.h_part.basis)


@settings(max_examples=40)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1))
def test_classification_matches_the_svd_reference(n, k, count, seed):
    # the projector eighs of the library against the SVDs of the reference:
    # the same kernel and H part spans, a unitary gauge basis spanning the
    # H projector Z Z^* / 2 of the H part, and a stack (count >= 1) whose
    # members are the single calls bit for bit; count 0 is a single subspace
    k %= n + 1
    g = coiso.rng(seed)
    bases = [random_coisotropic(n, k, g).space.basis for _ in range(max(count, 1))]
    space = Subspace(np.stack(bases) if count else bases[0])
    out = classify_coisotropic(space)
    kernel = reference_complement(space.basis)
    h_part = reference_h_part(space.basis, kernel, k)
    for got, want in ((out.kernel, kernel), (out.h_part, h_part)):
        assert np.max(coiso.largest_principal_angles(got, Subspace(want))) <= 1e-12
    gauge = out.gauge[..., :k]
    gauge_h, z = np.conj(np.swapaxes(gauge, -1, -2)), coiso.complex_coords(out.h_part.basis)
    assert np.max(np.abs(gauge_h @ gauge - np.eye(k)), initial=0.0) <= 1e-13
    assert np.max(np.abs(gauge @ gauge_h - z @ np.conj(np.swapaxes(z, -1, -2)) / 2)) <= 1e-12
    for i in range(count):
        single = classify_coisotropic(Subspace(bases[i]))
        assert np.array_equal(out[i].kernel.basis, single.kernel.basis)
        assert np.array_equal(out[i].h_part.basis, single.h_part.basis)
        assert np.array_equal(gauge[i], single.gauge[..., :k])


@settings(max_examples=60)
@given(st.integers(1, 5), st.data(), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_a_unitary_gauge_is_a_coisotropic_splitting(n, data, count, seed):
    # the premise of certification by unitarity alone: for a random unitary
    # u = [h | K], the kernel and H part read off it are the reference's
    # complement and H part of its space, and classifying that space gives
    # the same spans; a stack (count >= 1) or a single gauge (count 0)
    k = data.draw(st.integers(0, n))
    u = coiso.random_unitary(n, coiso.rng(seed), (count,) if count else ())
    c = _certify(coiso.CoisotropicSubspace(k=k, gauge=u))
    kernel = reference_complement(c.space.basis)
    want = {"kernel": kernel, "h_part": reference_h_part(c.space.basis, kernel, k)}
    for part, basis in want.items():
        assert np.max(coiso.largest_principal_angles(getattr(c, part), Subspace(basis))) <= 1e-12
    classified = classify_coisotropic(c.space)
    assert classified.k == k
    for part in ("space", "kernel", "h_part"):
        assert np.max(coiso.largest_principal_angles(getattr(classified, part),
                                                     getattr(c, part))) <= 1e-12
    # pushed past the unitarity bound, a gauge is refused, naming its member
    member = data.draw(st.integers(0, max(count, 1) - 1))
    at = (member,) if count else ()
    u[at] *= 1 + 1e-10
    note = rf" \(stack member {member}\)" if count else ""
    with pytest.raises(ClassificationError, match=(
            rf"^gauge is not unitary: defect 2\.\d{{3}}e-10 > 1\.0e-10{note}$")):
        _certify(coiso.CoisotropicSubspace(k=k, gauge=u))


def test_certification_bounds_the_kernel_isotropy_by_the_angle_tolerance():
    # kernel column 2 of member 2 turned by i eps towards column 1: the
    # gauge stays unitary to eps^2 but for Im K^* K = eps, which is bounded
    # by subspace_equality (1e-8), not by orthonormality (1e-10)
    u = coiso.random_unitary(3, coiso.rng(7), (4,))
    u[2, :, 2] += 1e-9j * u[2, :, 1]
    _certify(coiso.CoisotropicSubspace(k=1, gauge=u))
    tight = dataclasses.replace(coiso.DEFAULT, subspace_equality=1e-10)
    with pytest.raises(ClassificationError, match=(
            r"^kernel is not isotropic: defect 1\.000e-09 > 1\.0e-10 \(stack member 2\)$")):
        _certify(coiso.CoisotropicSubspace(k=1, gauge=u), tight)
    u[2, :, 2] += 1e-7j * u[2, :, 1]
    with pytest.raises(ClassificationError, match=(
            r"^kernel is not isotropic: defect 1\.010e-07 > 1\.0e-08 \(stack member 2\)$")):
        _certify(coiso.CoisotropicSubspace(k=1, gauge=u))


def test_a_real_or_integer_gauge_is_held_as_complex():
    # an integer orthogonal gauge is a unitary one; held as complex, its
    # transport re-phases a copy of it with no ComplexWarning and no
    # truncation
    c = coiso.CoisotropicSubspace(k=1, gauge=np.stack([np.eye(2, dtype=int)] * 4))
    assert c.gauge.dtype == complex
    phases, holonomy, sign, margin = coiso.transport_phases(_certify(c))
    assert_allclose(phases, 1.0, atol=1e-15)
    assert (holonomy, sign, margin) == (1.0, 1, 1.0)


def _frame_stack(seed=12, m=9):
    """A classified stack of m random coisotropic subspaces and the stack of
    their adapted frames."""
    spaces = [random_coisotropic(3, 1, seed + i).space.basis for i in range(m)]
    stack = classify_coisotropic(Subspace(np.stack(spaces)))
    frames = [adapted_frame(c) for c in stack]
    return stack, coiso.AdaptedFrame(k=stack.k, e=np.stack([f.e for f in frames]),
                                     f=np.stack([f.f for f in frames]))


def _outcome(fn):
    """What an index computation prints: its integer or its error type."""
    try:
        return fn()
    except coiso.CoisoError as exc:
        return type(exc).__name__


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 40), st.floats(0.0, 1.5), st.sampled_from([16, 64, 256, 512, 1024]))
# fast conjugated windings, on which one unsegmented overlap product of the
# frames lost 1e-10 of them
@example(3, 0, 11, 28, 0.3, 512)
@example(3, 0, 9, 28, 0.3, 512)
# four windings on 64 samples: both routes print the same AliasingError
@example(4, 0, 2701, 4, 0.0, 16)
def test_transported_frames_follow_their_hints(n, k, seed, winding, wiggle, m):
    # conjugated, wiggled loops winding up to 40 times, sampled at up to
    # M = 1024 under the pi/8 contract: the overlap determinant products give
    # the determinant phases, H holonomy, kernel sign and overlap margin of
    # the sequential chain's frames, each the previous frame projected, to
    # 1e-12, and print the same integers
    k %= n + 1
    gen = coiso.random_unitary_orbit_family(n, k, seed, max_winding=winding,
                                            wiggle=wiggle)
    tol = coiso.DEFAULT.replace(max_loop_samples=1024)
    try:
        loop = coiso.loop_from_family(k, gen, samples=m, tol=tol)
    except coiso.DiscontinuousLoopError:
        assume(False)
    ref, sizes = reference_transport(loop.samples[np.append(np.arange(loop.m), 0)])
    u = coiso.complex_coords(ref)
    dets = np.linalg.det(u)
    phases = dets / np.abs(dets)
    assert_allclose(loop.det_phases, phases[:-1], rtol=0, atol=1e-12)
    assert_allclose(loop.det_phases ** 2, phases[:-1] ** 2, rtol=0, atol=1e-12)
    mono = np.conj(u[0].T) @ u[-1]
    holonomy = np.linalg.det(mono[:k, :k])
    assert abs(loop.h_holonomy - holonomy / abs(holonomy)) < 1e-12
    assert loop.kernel_sign == np.sign(np.linalg.det(mono[k:, k:]).real)
    assert abs(loop.overlap_margin - sizes[1:].min()) < 1e-12
    reference = dataclasses.replace(loop, det_phases=phases[:-1],
                                    h_holonomy=holonomy / abs(holonomy))
    section = coiso.MaslovSection.from_function(loop.thetas, lambda t: np.exp(2j * t))
    for route in (lambda lp: coiso.winding(coiso.canonical_section(lp).samples),
                  lambda lp: coiso.maslov_index(lp, section)):
        assert _outcome(lambda: route(loop)) == _outcome(lambda: route(reference))


def _orbit_loop(m):
    """A (3, 1) loop of diagonal windings, whose generator builds its
    members without ``_mgs``."""
    base = standard_model(3, 1).space.basis
    windings = np.array([1.0, -2.0, 1.5])

    def gen(thetas):
        return classify_coisotropic(Subspace(
            realify(np.exp(1j * windings * thetas[:, None])[..., None] * np.eye(3)) @ base))

    return coiso.loop_from_family(1, gen, samples=m)


def _tangent_loop(m):
    """The tangent loop of the unit sphere of C^2 along a (2, 1) latitude."""
    boundary = coiso.BOUNDARY_FAMILIES["latitude"]({"alpha": 0.9, "p": 2, "q": 1})
    return coiso.tangent_boundary_loop(coiso.sphere(2), boundary, samples=m)[0]


def _loop_calls(build, m, monkeypatch):
    """Calls to the orthonormalization ``_mgs``, the callers of
    ``np.linalg.svd`` with their call counts, and all Python and C function
    calls, made while ``build`` builds a loop of M samples."""
    counts = {"mgs": 0, "svd": Counter(), "calls": 0}
    mgs, svd = coiso.symplin._mgs, np.linalg.svd

    def counted_mgs(*args, **kwargs):
        counts["mgs"] += 1
        return mgs(*args, **kwargs)

    def counted_svd(*args, **kwargs):
        counts["svd"][sys._getframe(1).f_code.co_name] += 1
        return svd(*args, **kwargs)

    def profile(frame, event, arg):
        counts["calls"] += event in ("call", "c_call")

    with monkeypatch.context() as patch:
        patch.setattr(coiso.symplin, "_mgs", counted_mgs)
        patch.setattr(np.linalg, "svd", counted_svd)
        sys.setprofile(profile)
        try:
            loop = build(m)
        finally:
            sys.setprofile(None)
    assert loop.m == m
    return counts


def test_transport_takes_no_step_per_sample(monkeypatch):
    # building a loop orthonormalizes nothing, and takes as many SVDs and
    # function calls at M = 1024 as at M = 256, where one Python step per
    # sample makes several calls per sample; only the largest principal
    # angles of the closure and continuity checks take an SVD, as
    # classification, gauges and tangent spaces take projector eighs
    for build in (_orbit_loop, _tangent_loop):
        few, many = (_loop_calls(build, m, monkeypatch) for m in (256, 1024))
        assert few["mgs"] == many["mgs"] == 0
        assert few["svd"] == many["svd"]
        assert set(few["svd"]) == {"largest_principal_angles"}
        assert many["calls"] - few["calls"] <= 100


def test_transport_names_the_member_whose_hint_projects_short():
    # Lagrangian lines exp(i t) R in C^1; from t = 0.2 to t = 0.2 + pi/2 the
    # previous frame is orthogonal to the next line
    ts = np.array([0.0, 0.1, 0.2, 0.2 + np.pi / 2, 0.3 + np.pi / 2])
    stack = classify_coisotropic(Subspace(realify(np.exp(1j * ts)[:, None, None])[..., :1]))
    with pytest.raises(coiso.ContinuityLossError, match=(
            r"^overlap determinant \S+ < 1\.0e-06 \(stack member 3\)$")):
        coiso.transport_phases(stack)
    # exactly orthogonal lines: the overlaps are zero, and nothing divides
    # by them
    stack = classify_coisotropic(Subspace(np.array([[[1.0], [0.0]], [[0.0], [1.0]]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(coiso.ContinuityLossError, match=(
                r"^overlap determinant 0\.000e\+00 < 1\.0e-06 \(stack member 0\)$")):
            coiso.transport_phases(stack)


def test_transport_names_the_member_whose_gauge_basis_is_not_unitary():
    # Lagrangian planes of C^2; in a splitting built without certification,
    # member 2's kernel replaced by the symplectic plane span(e_1, f_1),
    # whose complex coordinates (1, 0) and (i, 0) are not orthogonal: u^* u
    # - I is Im K^* K alone, and transport refuses it as certification does
    stack = coiso.grassmann._certified_grid(coiso.lagrangian_rotation_family(2), 8, 2,
                                            None, coiso.DEFAULT)
    gauge = stack.gauge.copy()
    gauge[2] = [[1, 1j], [0, 0]]
    with pytest.raises(ClassificationError, match=(
            r"^kernel is not isotropic: defect 1\.000e\+00 > 1\.0e-08 \(stack member 2\)$")):
        coiso.transport_phases(coiso.CoisotropicSubspace(k=0, gauge=gauge))


# ---------------------------------------------------------------------------
# stacked orthonormalization and realification: each member of a stacked
# result equals the same computation on that member alone, bit for bit


@st.composite
def _spanning_stacks(draw, complex_entries=False):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2 * n))
    count = draw(st.integers(1, 5))
    g = coiso.rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = g.normal(size=(count, 2 * n, m))
    return cols + 1j * g.normal(size=cols.shape) if complex_entries else cols


def _reference_mgs(cols):
    """Per-matrix modified Gram-Schmidt on 1-D columns, the first factor of
    each dot conjugated: the arithmetic the stacked version must reproduce
    bit for bit."""
    q = np.array(cols, dtype=np.result_type(cols, float))
    for i in range(q.shape[1]):
        v = q[:, i]
        for _ in range(2):
            for k in range(i):
                v = v - np.vecdot(q[:, k], v) * q[:, k]
        v = np.ascontiguousarray(v)
        q[:, i] = v / np.sqrt(np.vecdot(v, v).real)
    return q


@settings(max_examples=60)
@given(_spanning_stacks())
def test_from_spanning_stack_equals_members(cols):
    stacked = Subspace.from_spanning(cols).basis
    assert stacked.shape == cols.shape
    for i in range(len(cols)):
        assert np.array_equal(stacked[i], Subspace.from_spanning(cols[i]).basis)
        assert np.array_equal(stacked[i], _reference_mgs(cols[i]))


@settings(max_examples=60)
@given(_spanning_stacks(complex_entries=True))
def test_complex_mgs_is_the_positive_diagonal_qr(cols):
    # member by member the arithmetic of one matrix, and the Q of LAPACK's
    # QR with its R diagonal made real positive, whose moduli are the norms
    q, norms = coiso.symplin._mgs(cols, 0.0)
    assert q.shape == cols.shape and norms.shape == (len(cols), cols.shape[-1])
    for i in range(len(cols)):
        assert np.array_equal(q[i], _reference_mgs(cols[i]))
    lq, r = np.linalg.qr(cols)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    assert_allclose(q, lq * (d / np.abs(d))[..., None, :], rtol=0, atol=1e-13)
    assert_allclose(norms, np.abs(d), rtol=1e-13, atol=0)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 5))
def test_realify_stack_equals_members(seed, n, count):
    g = coiso.rng(seed)
    u = g.normal(size=(count, n, n)) + 1j * g.normal(size=(count, n, n))
    stacked = realify(u)
    assert stacked.shape == (count, 2 * n, 2 * n)
    for i in range(count):
        a, b = u[i].real, u[i].imag
        assert np.array_equal(stacked[i], realify(u[i]))
        assert np.array_equal(stacked[i], np.block([[a, -b], [b, a]]))


@settings(max_examples=60)
@given(_spanning_stacks())
def test_coords_stack_equals_members(v):
    z = coiso.complex_coords(v)
    back = coiso.real_coords(z)
    assert z.shape == (len(v), v.shape[1] // 2, v.shape[2])
    assert np.array_equal(back, v)
    for i in range(len(v)):
        assert np.array_equal(z[i], coiso.complex_coords(v[i]))
        assert np.array_equal(back[i], coiso.real_coords(z[i]))


@settings(max_examples=60)
@given(st.integers(1, 4), st.data(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_adapted_frame_stack_equals_members(n, data, count, seed):
    k = data.draw(st.integers(0, n))
    g = coiso.rng(seed)
    frames = coiso.AdaptedFrame(k=k, e=g.normal(size=(count, 2 * n, n)),
                                f=g.normal(size=(count, 2 * n, n)))
    methods = ("tangent_basis", "kernel_vectors", "h_vectors")
    for i in range(count):
        member = coiso.AdaptedFrame(k=k, e=frames.e[i], f=frames.f[i])
        assert np.array_equal(frames[i].e, member.e) and np.array_equal(frames[i].f, member.f)
        for name in methods:
            assert np.array_equal(getattr(frames, name)()[i], getattr(member, name)()), name
    with pytest.raises(IndexError):
        frames[0, 0]


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.data())
def test_from_spanning_names_the_rank_deficient_member(seed, count, data):
    bad = data.draw(st.integers(0, count - 1))
    cols = coiso.rng(seed).normal(size=(count, 6, 3))
    cols[bad, :, 2] = cols[bad, :, 0] - 2.0 * cols[bad, :, 1]
    with pytest.raises(coiso.ContinuityLossError,
                       match=rf"^column 2 projected .* \(stack member {bad}\)$"):
        Subspace.from_spanning(cols)
    with pytest.raises(coiso.ContinuityLossError,
                       match=r"^column 2 projected to norm \S+ < 1\.0e-12$"):
        Subspace.from_spanning(cols[bad])


@settings(max_examples=200)
@given(st.sampled_from([(), (3,), (2, 3), (2, 3, 4)]).flatmap(
    lambda shape: st.tuples(hnp.arrays(bool, shape), st.integers(0, len(shape)))))
def test_check_raises_for_the_first_true_entry(case):
    # the first true index in C order is worded, and the note names its
    # leading ndim - trailing entries, or is left out when there are none
    bad, trailing = case
    worded = []

    def message(where):
        worded.append(where)
        return f"entry {where}"

    if not bad.any():
        _check(bad, ValueError, message, trailing)
        assert not worded
        return
    first = next(i for i in np.ndindex(bad.shape) if bad[i])
    member = first[:bad.ndim - trailing]
    note = f" (stack member {', '.join(map(str, member))})" if member else ""
    with pytest.raises(ValueError) as err:
        _check(bad, ValueError, message, trailing)
    assert str(err.value) == f"entry {first}{note}"
    assert worded == [first] and all(type(i) is int for i in worded[0])


def test_single_subspace_or_frame_is_not_iterable():
    c = random_coisotropic(2, 1, 3)
    frame = adapted_frame(c)
    for single in (c, c.space, c.kernel, frame):
        with pytest.raises(TypeError, match="not a stack"):
            iter(single)


def test_stack_iterates_over_its_members():
    stack, frames = _frame_stack(seed=0, m=4)
    members, frame_members = list(stack), list(frames)
    assert len(members) == len(frame_members) == 4
    for i, (c, f) in enumerate(zip(members, frame_members)):
        assert np.array_equal(c.space.basis, stack.space.basis[i])
        assert np.array_equal(c.kernel.basis, stack.kernel.basis[i])
        assert np.array_equal(f.e, frames.e[i]) and np.array_equal(f.f, frames.f[i])
    assert [s.basis.shape for s in stack.h_part] == [(6, 2)] * 4


# ---------------------------------------------------------------------------
# classification's gauge is the kernel's, from the one kernel-to-gauge door


@pytest.mark.parametrize("n, k, count", [(2, 1, 0), (3, 1, 5), (3, 2, 4), (3, 3, 3), (4, 2, 6)])
def test_h_part_is_the_realified_gauge_eigh(n, k, count):
    # the gauge is from_kernel's of the complement in complex coordinates,
    # bit for bit, and h_part is [h | j h] of its H gauge h
    g = coiso.rng(70 + n + k)
    bases = [random_coisotropic(n, k, g).space.basis for _ in range(max(count, 1))]
    spaces = Subspace(np.stack(bases) if count else bases[0])
    out = classify_coisotropic(spaces)
    kc = coiso.complex_coords(symplectic_complement(spaces).basis)
    gauge = coiso.CoisotropicSubspace.from_kernel(kc).gauge
    h = gauge[..., :k]
    assert out.k == k and np.array_equal(out.gauge, gauge)
    assert np.array_equal(out.h_part.basis,
                          coiso.real_coords(np.concatenate([h, 1j * h], axis=-1)))


def test_frames_and_transport_take_no_decomposition(linalg_calls):
    # classification takes the complement's eigh per stack at every k;
    # frames and transport take none
    for n, k in ((3, 1), (3, 3), (2, 0)):
        g = coiso.rng(80 + k)
        spaces = Subspace(np.stack([random_coisotropic(n, k, g).space.basis
                                    for _ in range(16)]))
        linalg_calls.clear()
        stack = classify_coisotropic(spaces)
        assert linalg_calls == Counter(eigh=1)
        linalg_calls.clear()
        coiso.transport_phases(stack)
        adapted_frame(stack[3])
        assert not linalg_calls
