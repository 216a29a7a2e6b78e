"""Loop construction, pushforward, transverse frames."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import coiso
from coiso import (
    DiscontinuousLoopError,
    Subspace,
    SymplecticMatrixLoop,
    constant_family,
    diag_unitary_family,
    lagrangian_rotation_family,
    loop_from_family,
    principal_angles,
    pushforward,
    realify,
    standard_model,
    standard_space,
    transverse_frame_loop,
    unitary_matrix_loop,
)

SP1 = standard_space(1)
SP2 = standard_space(2)


def test_constant_loop():
    gen = constant_family(SP2, 1)
    loop = loop_from_family(SP2, 1, gen, samples=16)
    assert loop.m == 16
    assert loop.closure_defect < 1e-12
    base = loop.samples[0].space
    for s in loop.samples:
        assert np.max(principal_angles(s.space, base)) < 1e-12


def test_lagrangian_rotation_half_turn_is_orthogonal():
    gen = lagrangian_rotation_family(SP2, turns=1)
    loop = loop_from_family(SP2, 0, gen, samples=64)
    for s in loop.samples:
        assert s.k == 0
    half = loop.samples[32].space      # theta = pi, i.e. rotation by i
    ang = principal_angles(loop.samples[0].space, half)
    assert_allclose(ang, [np.pi / 2, np.pi / 2], atol=1e-9)


def test_diag_unitary_loop_classifies_everywhere():
    gen = diag_unitary_family(SP2, 1, [1.0, 0.0])
    loop = loop_from_family(SP2, 1, gen, samples=64)
    for s in loop.samples:
        # classification oracle: re-certify every sample from scratch
        again = coiso.classify_coisotropic(SP2, s.space)
        assert again.k == 1
        assert again.kernel.dim == 1


def test_refinement_triggers_on_coarse_sampling():
    gen = diag_unitary_family(SP2, 1, [0.0, 1.5])
    loop = loop_from_family(SP2, 1, gen, samples=8)
    assert loop.m > 8
    assert np.max(loop.consecutive_angles()) < np.pi / 8


def test_refinement_budget_exhausts():
    tol = coiso.DEFAULT.replace(max_loop_samples=32)

    def jumpy(theta):
        u = realify(np.diag([1.0, np.exp(37j * theta)]))
        return Subspace.from_spanning(u @ standard_model(SP2, 1).space.basis)

    with pytest.raises(DiscontinuousLoopError):
        loop_from_family(SP2, 1, jumpy, samples=8, tol=tol)


def test_open_generator_rejected():
    def open_path(theta):
        u = realify(np.diag([1.0, np.exp(0.25j * theta)]))
        return Subspace.from_spanning(u @ standard_model(SP2, 1).space.basis)

    with pytest.raises(DiscontinuousLoopError):
        loop_from_family(SP2, 1, open_path, samples=16)


def test_resample_restriction_reproduces_samples_exactly():
    gen = diag_unitary_family(SP2, 1, [1.0, 0.5])
    loop = loop_from_family(SP2, 1, gen, samples=16)
    fine = loop.resample(32)
    for i in range(loop.m):
        a = fine.samples[2 * i].space.basis
        b = loop.samples[i].space.basis
        assert np.array_equal(a, b)


def test_kernel_dimension_exact_on_every_sample():
    gen = coiso.random_unitary_orbit_family(SP2, 1, coiso.rng(4))
    loop = loop_from_family(SP2, 1, gen, samples=64)
    for s in loop.samples:
        assert s.kernel.dim == 1
        assert s.space.dim == 3


def test_matrix_loop_validation():
    with pytest.raises(ValueError):
        SymplecticMatrixLoop(
            space=SP2,
            thetas=np.zeros(1),
            matrices=2.0 * np.eye(4)[None],   # not symplectic
        )


def test_pushforward_identity():
    gen = diag_unitary_family(SP2, 1, [1.0, 0.0])
    loop = loop_from_family(SP2, 1, gen, samples=32)
    a = unitary_matrix_loop(SP2, lambda t: np.eye(2, dtype=complex), 32)
    out = pushforward(a, loop)
    for s, t in zip(out.samples, loop.samples):
        assert np.max(principal_angles(s.space, t.space)) < 1e-12


def test_pushforward_constant_unitary():
    u = coiso.symplin.random_unitary(2, coiso.rng(8))
    loop = loop_from_family(SP2, 1, constant_family(SP2, 1), samples=16)
    a = unitary_matrix_loop(SP2, lambda t, _u=u: _u, 16)
    out = pushforward(a, loop)
    target = coiso.classify_coisotropic(
        SP2, Subspace.from_spanning(realify(u) @ standard_model(SP2, 1).space.basis))
    for s in out.samples:
        assert np.max(principal_angles(s.space, target.space)) < 1e-9


def test_pushforward_matches_direct_family():
    # rotating a constant loop equals sampling the rotated family directly
    loop = loop_from_family(SP2, 1, constant_family(SP2, 1), samples=64)
    a = unitary_matrix_loop(SP2, lambda t: np.diag([np.exp(1j * t), 1.0]), 64)
    out = pushforward(a, loop)
    direct = loop_from_family(
        SP2, 1, diag_unitary_family(SP2, 1, [1.0, 0.0]), samples=64)
    for s, t in zip(out.samples, direct.samples):
        assert np.max(principal_angles(s.space, t.space)) < 1e-9


def test_pushforward_roundtrip():
    gen = coiso.random_unitary_orbit_family(SP2, 1, coiso.rng(15))
    loop = loop_from_family(SP2, 1, gen, samples=64)
    fwd = unitary_matrix_loop(SP2, lambda t: np.diag([np.exp(1j * t), 1.0]), 64)
    back = unitary_matrix_loop(SP2, lambda t: np.diag([np.exp(-1j * t), 1.0]), 64)
    there = pushforward(fwd, loop)
    home = pushforward(back, there)
    for s, t in zip(home.samples, loop.samples):
        assert np.max(principal_angles(s.space, t.space)) < 1e-8


def test_transverse_frames_constant_loop():
    loop = loop_from_family(SP2, 1, constant_family(SP2, 1), samples=16)
    frames, mono = transverse_frame_loop(loop)
    assert frames[0].shape == (2, 1)
    for f in frames:
        assert_allclose(f, frames[0], atol=1e-12)
    assert_allclose(mono, np.eye(1), atol=1e-9)


def test_transverse_monodromy_of_rotation_is_minus_one():
    gen = lagrangian_rotation_family(SP1, turns=1)
    loop = loop_from_family(SP1, 0, gen, samples=64)
    _, mono = transverse_frame_loop(loop)
    assert mono.shape == (1, 1)
    assert_allclose(mono, [[-1.0]], atol=1e-9)


def test_transverse_frames_k_equals_n():
    loop = loop_from_family(SP2, 2, constant_family(SP2, 2), samples=8)
    frames, mono = transverse_frame_loop(loop)
    assert frames[0].shape == (2, 0)
    assert mono.shape == (0, 0)


def test_consecutive_angles_match_per_pair_principal_angles():
    gen = coiso.random_unitary_orbit_family(standard_space(3), 1, coiso.rng(21))
    loop = loop_from_family(standard_space(3), 1, gen, samples=32)
    got = loop.consecutive_angles()
    assert got.shape == (loop.m,)
    for i in range(loop.m):
        want = np.max(principal_angles(loop.samples[i].space,
                                       loop.samples[(i + 1) % loop.m].space))
        assert abs(got[i] - want) < 1e-12


def test_matrix_loop_rejects_a_step_above_half():
    mats = np.stack([np.eye(4)] * 8)
    mats[5] = realify(np.diag([np.exp(1j), 1.0]))   # |e^i - 1| = 0.96
    with pytest.raises(ValueError, match="samples 4 jump by operator norm 0.959"):
        SymplecticMatrixLoop(space=SP2, thetas=np.zeros(8), matrices=mats)
    mats[5] = realify(np.diag([np.exp(0.4j), 1.0]))  # |e^0.4i - 1| = 0.40
    SymplecticMatrixLoop(space=SP2, thetas=np.zeros(8), matrices=mats)
