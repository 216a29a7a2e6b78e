"""Loop construction, pushforward, transported frame data."""

import dataclasses
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import coiso
from coiso import (
    BOUNDARY_FAMILIES,
    ClassificationError,
    DiscontinuousLoopError,
    InternalConsistencyError,
    Subspace,
    SymplecticMatrixLoop,
    classify_coisotropic,
    constant_family,
    diag_unitary_family,
    lagrangian_rotation_family,
    loop_from_family,
    principal_angles,
    pushforward,
    realify,
    standard_model,
    tangent_boundary_loop,
    unitary_matrix_loop,
)


def diagonals(*entries):
    """The stack of diagonal matrices diag(entries) on a grid of angles;
    each entry is a per-angle array or a constant."""
    d = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return d[..., None] * np.eye(d.shape[-1])


def constant_unitaries(u):
    """The grid callable of the constant unitary loop u."""
    return lambda thetas: np.tile(u, (len(thetas), 1, 1))


def test_constant_loop():
    gen = constant_family(2, 1)
    loop = loop_from_family(1, gen, samples=16)
    assert loop.m == 16
    assert loop.closure_defect < 1e-12
    base = loop.samples[0].space
    for s in loop.samples:
        assert np.max(principal_angles(s.space, base)) < 1e-12


def test_lagrangian_rotation_half_turn_is_orthogonal():
    gen = lagrangian_rotation_family(2, turns=1)
    loop = loop_from_family(0, gen, samples=64)
    for s in loop.samples:
        assert s.k == 0
    half = loop.samples[32].space      # theta = pi, i.e. rotation by i
    ang = principal_angles(loop.samples[0].space, half)
    assert_allclose(ang, [np.pi / 2, np.pi / 2], atol=1e-9)


def consecutive_angles(loop):
    """Largest principal angle from each sample's kernel to the next's, as
    the loop's continuity contract reads them: one stacked call."""
    kernels = loop.samples.kernel
    return coiso.largest_principal_angles(kernels, Subspace(np.roll(kernels.basis, -1, axis=0)))


def test_diag_unitary_loop_classifies_everywhere():
    gen = diag_unitary_family(2, 1, [1.0, 0.0])
    loop = loop_from_family(1, gen, samples=64)
    for s in loop.samples:
        # classification oracle: re-certify every sample from scratch
        again = coiso.classify_coisotropic(s.space)
        assert again.k == 1
        assert again.kernel.dim == 1


def test_refinement_triggers_on_coarse_sampling():
    gen = diag_unitary_family(2, 1, [0.0, 1.5])
    loop = loop_from_family(1, gen, samples=8)
    assert loop.m > 8
    assert np.max(consecutive_angles(loop)) < np.pi / 8


def test_an_angle_at_the_contract_refines_from_either_side():
    # a half turn of a Lagrangian line in C^1, or plane in C^2, over 8
    # samples: every consecutive angle is pi/8 up to rounding; the plane's
    # two kernel angles are both pi/8, so its Frobenius sine is above
    # sin(pi/8) and every pair takes the exact angle
    for n in (1, 2):
        gen = lagrangian_rotation_family(n, 1)
        worst = float(np.max(consecutive_angles(loop_from_family(
            0, gen, samples=8, tol=coiso.DEFAULT.replace(consecutive_angle=1.0,
                                                         max_loop_samples=8)))))
        assert abs(worst - np.pi / 8) < 1e-15
        assert loop_from_family(0, gen, samples=8).m == 16
        # the contract bound 1 ulp above the angle, or below it: a tie either way
        for bound in (np.nextafter(worst, np.inf), np.nextafter(worst, 0.0)):
            tol = coiso.DEFAULT.replace(consecutive_angle=bound)
            assert loop_from_family(0, gen, samples=8, tol=tol).m == 16
            with pytest.raises(DiscontinuousLoopError):
                loop_from_family(0, gen, samples=8, tol=tol.replace(max_loop_samples=8))
        # well clear of the margin the angle is inside the contract
        tol = coiso.DEFAULT.replace(consecutive_angle=worst + 1e-12)
        assert loop_from_family(0, gen, samples=8, tol=tol).m == 8


def _loop_outcome(k, gen, m, tol):
    """What a loop build gives: its grid size and stored transport data,
    bitwise, or its refusal's type and text."""
    try:
        loop = loop_from_family(k, gen, samples=m, tol=tol)
    except coiso.CoisoError as exc:
        return type(exc), str(exc)
    return (loop.m, loop.det_phases.tobytes(), loop.h_holonomy, loop.kernel_sign,
            loop.overlap_margin, loop.closure_defect)


@settings(max_examples=60)
@given(st.integers(2, 5), st.data(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 8, 16, 32]), st.floats(0.0, 1.5))
def test_screened_contract_decides_and_words_as_the_exact_one(n, data, seed, m, wiggle):
    # kernels of dimension n - k >= 2 are screened by their Frobenius sine;
    # every refinement, kept grid and refusal text is that of the exact
    # largest angle of every step, with budgets that refuse some grids, and
    # at a bound above pi/6, where the screen is capped
    k = data.draw(st.integers(0, n - 2))
    budget = data.draw(st.sampled_from([m, 4 * m, 2 ** 20]))
    bound = data.draw(st.sampled_from([coiso.DEFAULT.consecutive_angle, 1.0]))
    tol = coiso.DEFAULT.replace(max_loop_samples=budget, consecutive_angle=bound)
    gen = coiso.random_unitary_orbit_family(n, k, seed, wiggle=wiggle)
    screened = _loop_outcome(k, gen, m, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coiso.grassmann, "_contract_angle", lambda a, b, tol: float(
            np.max(coiso.largest_principal_angles(a, b))))
        assert _loop_outcome(k, gen, m, tol) == screened


def _alternating_planes(step):
    """Lagrangian planes exp(i phi) R^2 of C^2 with phi 0 and ``step`` in
    turn on a grid of 8: both kernel angles of each step are ``step``."""
    def gen(thetas):
        phi = step * (1 - np.cos(4 * thetas)) / 2
        return coiso.CoisotropicSubspace(k=0, gauge=np.exp(1j * phi)[:, None, None] * np.eye(2))

    return gen


def test_the_contract_takes_an_svd_only_on_steps_the_screen_cannot_clear(linalg_calls):
    # plane steps of 0.1 have the Frobenius sine sqrt(2) sin 0.1 = 0.141,
    # which clears sin(pi/8) = 0.383, so only the closure check takes an
    # SVD; steps of 0.3 < pi/8 have 0.418, take the exact angle in one more
    # SVD, and keep their grid
    for step, svds, angle in ((0.1, 1, 0.0), (0.3, 2, 0.3)):
        linalg_calls.clear()
        loop = loop_from_family(0, _alternating_planes(step), samples=8)
        assert loop.m == 8
        assert linalg_calls["svd"] == svds
        kernel = loop.samples.kernel
        linalg_calls.clear()
        worst = coiso.grassmann._contract_angle(kernel, kernel[(np.arange(8) + 1) % 8],
                                                coiso.DEFAULT)
        assert abs(worst - angle) < 1e-15
        assert linalg_calls["svd"] == svds - 1


def test_refinement_budget_exhausts():
    tol = coiso.DEFAULT.replace(max_loop_samples=32)

    def jumpy(thetas):
        u = realify(diagonals(1.0, np.exp(37j * thetas)))
        return classify_coisotropic(Subspace.from_spanning(u @ standard_model(2, 1).space.basis))

    with pytest.raises(DiscontinuousLoopError):
        loop_from_family(1, jumpy, samples=8, tol=tol)


def test_open_generator_rejected():
    def open_path(thetas):
        u = realify(diagonals(1.0, np.exp(0.25j * thetas)))
        return classify_coisotropic(Subspace.from_spanning(u @ standard_model(2, 1).space.basis))

    with pytest.raises(DiscontinuousLoopError):
        loop_from_family(1, open_path, samples=16)


def test_resample_restriction_reproduces_samples_exactly():
    gen = diag_unitary_family(2, 1, [1.0, 0.5])
    loop = loop_from_family(1, gen, samples=16)
    fine = loop.resample(32)
    for i in range(loop.m):
        a = fine.samples[2 * i].space.basis
        b = loop.samples[i].space.basis
        assert np.array_equal(a, b)


def test_kernel_dimension_exact_on_every_sample():
    gen = coiso.random_unitary_orbit_family(2, 1, coiso.rng(4))
    loop = loop_from_family(1, gen, samples=64)
    for s in loop.samples:
        assert s.kernel.dim == 1
        assert s.space.dim == 3


def test_matrix_loop_validation():
    with pytest.raises(ValueError, match="samples not symplectic"):
        SymplecticMatrixLoop.from_callable(
            2, constant_unitaries(2.0 * np.eye(4)), 1)   # not symplectic


def test_pushforward_identity():
    gen = diag_unitary_family(2, 1, [1.0, 0.0])
    loop = loop_from_family(1, gen, samples=32)
    a = unitary_matrix_loop(2, constant_unitaries(np.eye(2, dtype=complex)), 32)
    out = pushforward(a, loop)
    for s, t in zip(out.samples, loop.samples):
        assert np.max(principal_angles(s.space, t.space)) < 1e-12


def test_pushforward_constant_unitary():
    u = coiso.symplin.random_unitary(2, coiso.rng(8))
    loop = loop_from_family(1, constant_family(2, 1), samples=16)
    a = unitary_matrix_loop(2, constant_unitaries(u), 16)
    out = pushforward(a, loop)
    target = coiso.classify_coisotropic(
        Subspace.from_spanning(realify(u) @ standard_model(2, 1).space.basis))
    for s in out.samples:
        assert np.max(principal_angles(s.space, target.space)) < 1e-9


def test_pushforward_matches_direct_family():
    # rotating a constant loop equals sampling the rotated family directly
    loop = loop_from_family(1, constant_family(2, 1), samples=64)
    a = unitary_matrix_loop(2, lambda t: diagonals(np.exp(1j * t), 1.0), 64)
    out = pushforward(a, loop)
    direct = loop_from_family(
        1, diag_unitary_family(2, 1, [1.0, 0.0]), samples=64)
    for s, t in zip(out.samples, direct.samples):
        assert np.max(principal_angles(s.space, t.space)) < 1e-9


def test_pushforward_roundtrip():
    gen = coiso.random_unitary_orbit_family(2, 1, coiso.rng(15))
    loop = loop_from_family(1, gen, samples=64)
    fwd = unitary_matrix_loop(2, lambda t: diagonals(np.exp(1j * t), 1.0), 64)
    back = unitary_matrix_loop(2, lambda t: diagonals(np.exp(-1j * t), 1.0), 64)
    there = pushforward(fwd, loop)
    home = pushforward(back, there)
    for s, t in zip(home.samples, loop.samples):
        assert np.max(principal_angles(s.space, t.space)) < 1e-8


def test_pushforward_on_unequal_grids_starts_on_their_lcm():
    loop = loop_from_family(1, coiso.random_unitary_orbit_family(2, 1, coiso.rng(15)),
                            samples=16)
    assert loop.m == 64
    a = coiso.random_unitary_matrix_loop(2, coiso.rng(0), 24)
    out = pushforward(a, loop)
    assert out.m == 192
    # member i is A(theta_i) applied to the loop's member at theta_i
    image = Subspace.from_spanning(
        a.generator(out.thetas) @ loop.generator(out.thetas).space.basis)
    for s, t in zip(out.samples, image):
        assert np.max(principal_angles(s.space, t)) < 1e-12
    with pytest.raises(DiscontinuousLoopError, match="common grid M=192 exceeds the budget"):
        pushforward(a, loop, coiso.DEFAULT.replace(max_loop_samples=40))


def _projectors(basis):
    return basis @ np.swapaxes(basis, -1, -2)


@pytest.mark.parametrize("matrix_loop", ["unitary", "symplectic"])
@pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 4) for k in range(n + 1)])
def test_pushforward_hands_over_the_splitting_of_the_image(n, k, matrix_loop):
    # oracle: the image kernel span(A K) and its complex complement are the
    # splitting that classifying the orthonormalized A C gives
    loop = loop_from_family(k, coiso.random_unitary_orbit_family(n, k, coiso.rng(10 * n + k)),
                            samples=256)
    build = {"unitary": coiso.random_unitary_matrix_loop,
             "symplectic": coiso.random_symplectic_matrix_loop}[matrix_loop]
    a = build(n, coiso.rng(10 * n + k, 5), loop.m)
    out = pushforward(a, loop)
    ref = coiso.classify_coisotropic(Subspace.from_spanning(
        a.generator(out.thetas) @ loop.generator(out.thetas).space.basis))
    for part in ("kernel", "h_part"):
        got, want = (_projectors(getattr(s, part).basis) for s in (out.samples, ref))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, part


def _recorded(name, fn, calls):
    def wrapped(thetas):
        calls.append((name, len(thetas)))
        return fn(thetas)

    return wrapped


def test_pushforward_reads_the_stored_members_on_equal_grids():
    calls = []
    loop = loop_from_family(1, coiso.random_unitary_orbit_family(2, 1, coiso.rng(15)),
                            samples=64)
    a = coiso.random_unitary_matrix_loop(2, coiso.rng(0), 64)
    out = pushforward(
        SymplecticMatrixLoop(matrices=a.matrices, generator=_recorded("a", a.generator, calls)),
        dataclasses.replace(loop, generator=_recorded("loop", loop.generator, calls)))
    assert out.m == 64
    # only the closure check's two angles call the generators
    assert calls == [("loop", 2), ("a", 2)]


def test_an_image_failing_certification_is_an_internal_error(monkeypatch):
    # only the image's grid certification refuses; the source's, in the
    # image generator, passes
    loop = loop_from_family(1, coiso.random_unitary_orbit_family(2, 1, coiso.rng(15)),
                            samples=64)
    a = coiso.random_unitary_matrix_loop(2, coiso.rng(0), 64)
    certify = coiso.grassmann._certify

    def refuse(c, tol):
        if sys._getframe(1).f_code.co_name == "_certified_grid":
            raise ClassificationError("refused")
        return certify(c, tol)

    monkeypatch.setattr(coiso.grassmann, "_certify", refuse)
    with pytest.raises(InternalConsistencyError, match="failed certification"):
        pushforward(a, loop)


def test_pushforward_refuses_matrices_that_are_not_symplectic_off_their_grid():
    # A(theta) = I + 0.1 sin(12 theta) diag(1, 0, 0, 0) is the identity on
    # its own 24-grid, but the common 192-grid reads it between
    loop = loop_from_family(1, coiso.random_unitary_orbit_family(2, 1, coiso.rng(15)),
                            samples=64)
    a = SymplecticMatrixLoop.from_callable(
        2, lambda t: np.eye(4) + 0.1 * np.sin(12 * t)[:, None, None] * np.diag([1.0, 0, 0, 0]),
        24)
    with pytest.raises(ValueError, match="samples not symplectic"):
        pushforward(a, loop)


def test_pushforward_takes_matrices_symplectic_to_within_their_bound():
    # A = I + eps P is symplectic only to a residual of about 5e-10, within
    # the 1e-9 that SymplecticMatrixLoop accepts; the image kernels are
    # isotropic only as far, within the bound certification puts on that
    n = 3
    loop = loop_from_family(1, coiso.random_unitary_orbit_family(n, 1, 5), samples=64)
    om = coiso.symplin._standard_omega(n)
    p = coiso.rng(1).normal(size=(2 * n, 2 * n))
    p *= 5e-10 / np.abs(p.T @ om + om @ p).max()
    a = SymplecticMatrixLoop.from_callable(
        n, lambda t: np.broadcast_to(np.eye(2 * n) + p, (len(t), 2 * n, 2 * n)), 64)
    residual = np.abs(np.swapaxes(a.matrices, -1, -2) @ om @ a.matrices - om).max()
    assert 4e-10 < residual < 6e-10
    out = pushforward(a, loop)
    assert out.m == loop.m
    for s, t in zip(out.samples, loop.samples):
        assert np.max(principal_angles(s.space, t.space)) < 1e-8


def test_transverse_frames_constant_loop():
    # the frames of a constant loop do not move: constant determinant
    # phases and a trivial monodromy
    loop = loop_from_family(1, constant_family(2, 1), samples=16)
    assert_allclose(loop.det_phases, np.full(16, loop.det_phases[0]), atol=1e-12)
    assert abs(loop.h_holonomy - 1) < 1e-9
    assert loop.kernel_sign == 1
    assert abs(loop.overlap_margin - 1) < 1e-12


def test_transverse_monodromy_of_rotation_is_minus_one():
    gen = lagrangian_rotation_family(1, turns=1)
    loop = loop_from_family(0, gen, samples=64)
    assert loop.kernel_sign == -1
    assert loop.h_holonomy == 1


def test_transverse_frames_k_equals_n():
    # no kernel: the kernel block of the monodromy is the empty product
    loop = loop_from_family(2, constant_family(2, 2), samples=8)
    assert loop.det_phases.shape == (8,)
    assert loop.kernel_sign == 1
    assert abs(loop.h_holonomy - 1) < 1e-9


def _parity_loops():
    """Loops with trivial H holonomy: random orbits at k = 0, diag-unitary
    loops with integer and half-integer kernel windings, Lagrangian
    rotations at odd and even turns, and loops at k = n."""
    for n in (1, 2, 3):
        for seed in range(4):
            yield 0, coiso.random_unitary_orbit_family(n, 0, 300 + 10 * n + seed)
        for turns in (1, 2, 3):
            yield 0, lagrangian_rotation_family(n, turns)
        yield n, coiso.random_unitary_orbit_family(n, n, 400 + n)
    for windings in ([2.0, 0.5], [-1.0, 1.0], [0.0, 0.5, 1.5], [1.0, -0.5, 2.0],
                     [3.0, 1.5, -0.5, 0.5], [0.0, 1.0, -1.0, 2.5]):
        n = len(windings)
        for k in range(n):
            yield k, diag_unitary_family(n, k, windings)


def test_canonical_winding_parity_is_the_kernel_sign():
    # the Z/2 class of a coisotropic loop is the sign of det of the kernel
    # monodromy; where the H holonomy is trivial it is the parity of the
    # canonical section's winding
    signs = []
    for k, gen in _parity_loops():
        loop = loop_from_family(k, gen, samples=64)
        assert abs(loop.h_holonomy - 1) < 1e-9
        w = coiso.winding(coiso.canonical_section(loop).samples)
        assert (w % 2 == 1) == (loop.kernel_sign == -1), (k, w, loop.kernel_sign)
        signs.append(loop.kernel_sign)
    assert {-1, 1} <= set(signs)


def test_consecutive_angles_match_per_pair_principal_angles():
    # the kernels' largest angles are those of the whole (n + k)-dimensional
    # subspaces, C^perp = jK having the nonzero angles of C; at k = n the
    # kernel is empty and the angle 0
    for n, k in ((2, 0), (3, 1), (3, 2), (4, 1), (5, 2), (3, 3)):
        gen = coiso.random_unitary_orbit_family(n, k, coiso.rng(21 + 10 * n + k))
        loop = loop_from_family(k, gen, samples=32)
        got = consecutive_angles(loop)
        assert got.shape == (loop.m,)
        for i in range(loop.m):
            want = np.max(principal_angles(loop.samples[i].space,
                                           loop.samples[(i + 1) % loop.m].space))
            assert abs(got[i] - want) < 1e-12, (n, k, i)
        assert k < n or not got.any()


def test_loop_holds_its_samples_and_frames_as_stacks():
    loop = loop_from_family(1, coiso.random_unitary_orbit_family(3, 1, coiso.rng(21)),
                            samples=32)
    still = SymplecticMatrixLoop.from_callable(3, constant_unitaries(np.eye(6)), loop.m)
    for out in (loop, pushforward(still, loop)):
        assert out.m == len(out.thetas) == 32
        assert out.samples.space.basis.shape == (32, 6, 4)
        assert out.samples.kernel.basis.shape == (32, 6, 2)
        assert out.det_phases.shape == (32,)
        assert_allclose(np.abs(out.det_phases), 1.0, rtol=0, atol=1e-15)
        assert out.kernel_sign in (-1, 1)


def test_matrix_loop_rejects_a_step_above_half():
    mats = np.stack([np.eye(4)] * 8)
    mats[5] = realify(np.diag([np.exp(1j), 1.0]))   # |e^i - 1| = 0.96
    with pytest.raises(ValueError, match="samples 4 jump by operator norm 0.959"):
        SymplecticMatrixLoop.from_callable(2, lambda t: mats, 8)
    mats[5] = realify(np.diag([np.exp(0.4j), 1.0]))  # |e^0.4i - 1| = 0.40
    SymplecticMatrixLoop.from_callable(2, lambda t: mats, 8)


@settings(max_examples=30)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.sampled_from([8, 12, 16, 24, 32, 64]))
def test_matrix_loop_jump_check_matches_every_operator_norm(n, seed, m):
    # only steps whose Frobenius norm exceeds 0.5 take the operator norm's
    # SVD; the first failing member and its message are those of the
    # operator norms of all steps
    fn = coiso.random_symplectic_matrix_loop(n, coiso.rng(seed), 512).generator
    mats = fn(np.arange(m) * (2 * np.pi / m))
    steps = np.linalg.norm(np.roll(mats, -1, axis=0) - mats, 2, axis=(-2, -1))
    bad = np.flatnonzero(steps > 0.5)
    if len(bad):
        i = bad[0]
        with pytest.raises(ValueError, match=(
                rf"^consecutive samples {i} jump by operator norm {steps[i]:.3f} > 0\.5$")):
            SymplecticMatrixLoop.from_callable(n, fn, m)
    else:
        SymplecticMatrixLoop.from_callable(n, fn, m)


# every routine that builds data from nothing takes n, and refuses n < 1
BUILDERS_FROM_N = {
    "standard_model": lambda n: standard_model(n, 0),
    "random_coisotropic": lambda n: coiso.random_coisotropic(n, 0, 1),
    **{name: lambda n, _b=build: _b(n, 0, {"windings": [0.0] * n}, 1)
       for name, build in coiso.LOOP_FAMILIES.items()},
    "unitary_matrix_loop": lambda n: unitary_matrix_loop(
        n, constant_unitaries(np.eye(max(n, 1), dtype=complex)), 8),
    "random_unitary_matrix_loop": lambda n: coiso.random_unitary_matrix_loop(n, 1, 8),
    "random_symplectic_matrix_loop": lambda n: coiso.random_symplectic_matrix_loop(n, 1, 8),
    "from_callable": lambda n: SymplecticMatrixLoop.from_callable(
        n, constant_unitaries(np.eye(2 * max(n, 1))), 8),
}


@pytest.mark.parametrize("name", BUILDERS_FROM_N)
def test_builders_refuse_a_nonpositive_complex_dimension(name):
    for n in (0, -1):
        with pytest.raises(ValueError, match="complex dimension must be positive"):
            BUILDERS_FROM_N[name](n)
    BUILDERS_FROM_N[name](1)


# ---------------------------------------------------------------------------
# grid protocol: a generator maps M angles to M members, member i depending
# on theta_i alone, so each member of a grid's stack equals the stack of one
# on its own angle, bit for bit


def _family_generators(n, k, seed):
    """One generator of every LOOP_FAMILIES entry in C^n."""
    g = coiso.rng(seed)
    gens = {
        "constant": coiso.constant_family(n, k, seed),
        "diag-unitary": coiso.diag_unitary_family(
            n, k, list(g.integers(-4, 5, size=n) / 2.0)),
        "random-unitary-orbit": coiso.random_unitary_orbit_family(n, k, seed),
        "lagrangian-rotation": coiso.lagrangian_rotation_family(
            n, int(g.integers(-2, 3))),
    }
    assert gens.keys() == coiso.LOOP_FAMILIES.keys()
    return gens


def test_loop_family_builders_hold_the_defaults():
    n = 2
    thetas = _grid(5, 3)
    built = {name: build(n, 1, {"windings": [1, -0.5]}, 7)
             for name, build in coiso.LOOP_FAMILIES.items()}
    direct = {
        "constant": coiso.constant_family(n, 1),
        "diag-unitary": coiso.diag_unitary_family(n, 1, [1, -0.5]),
        "random-unitary-orbit": coiso.random_unitary_orbit_family(
            n, 1, 7, max_winding=2, wiggle=0.4),
        "lagrangian-rotation": coiso.lagrangian_rotation_family(n, 1),
    }
    for name, gen in direct.items():
        assert np.array_equal(built[name](thetas).space.basis, gen(thetas).space.basis), name


def _grid(draw_count, seed):
    g = coiso.rng(seed, 1)
    return np.concatenate([g.uniform(0, 2 * np.pi, size=draw_count), [0.0, 2 * np.pi]])


SPLIT = ("space", "kernel", "h_part")


@settings(max_examples=40)
@given(st.integers(1, 4), st.data(), st.integers(0, 2 ** 32 - 1), st.integers(1, 9))
def test_loop_family_stack_equals_members(n, data, seed, count):
    # every family hands over its splitting, and each part of a member is
    # the part of the stack of one
    k = data.draw(st.integers(0, n))
    thetas = _grid(count, seed)
    for name, gen in _family_generators(n, k, seed).items():
        stacked = gen(thetas)
        rank = 0 if name == "lagrangian-rotation" else k
        assert isinstance(stacked, coiso.CoisotropicSubspace) and stacked.k == rank, name
        assert stacked.space.basis.shape == (len(thetas), 2 * n, n + rank), name
        for i in range(len(thetas)):
            single = gen(thetas[i:i + 1])
            for part in SPLIT:
                assert np.array_equal(getattr(stacked, part).basis[i],
                                      getattr(single, part).basis[0]), (name, i, part)


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.integers(1, 9))
def test_matrix_loop_callables_stack_equal_members(n, seed, count):
    thetas = _grid(count, seed)
    for maker in (coiso.random_unitary_matrix_loop, coiso.random_symplectic_matrix_loop):
        fn = maker(n, coiso.rng(seed), 512, max_winding=1).generator
        stacked = fn(thetas)
        assert stacked.shape == (len(thetas), 2 * n, 2 * n)
        for i in range(len(thetas)):
            assert np.array_equal(stacked[i], fn(thetas[i:i + 1])[0]), (maker.__name__, i)


@settings(max_examples=40)
@given(st.integers(1, 4), st.integers(1, 256), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 2.0))
def test_closed_exponentials_match_expm(n, m, seed, scale):
    # the wiggles and stretches of the random families, each member
    # V diag(exp(c lambda)) V^* from one stacked eigh, against scipy's Pade
    # expm: wiggles agree to 1e-13 and stay unitary; stretches agree to
    # 1e-12 of their norm, as far as expm itself is accurate (2e-13 of the
    # norm at |x| near 3 against 40-digit mpmath), match mpmath to 1e-14 of
    # it where the two differ most, and stay real and symplectic
    g = coiso.rng(seed)
    thetas = g.uniform(0, 2 * np.pi, size=m)
    c, s = (np.cos(thetas) - 1)[:, None, None], np.sin(thetas)[:, None, None]

    def skew():
        z = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
        return scale * (z - np.conj(z.T)) / 2

    s1, s2 = skew(), skew()
    wiggle = coiso.grassmann._closed_exponential(-1j * s1, -1j * s2, 1j)(thetas)
    assert np.max(np.abs(wiggle - scipy.linalg.expm(c * s1 + s * s2))) <= 1e-13
    assert np.max(np.abs(np.conj(np.swapaxes(wiggle, -1, -2)) @ wiggle - np.eye(n))) <= 1e-13

    def sym():
        a = g.normal(size=(n, n))
        return coiso.grassmann.STRETCH * (a + a.T) / 2

    gens = [np.block([[a, b], [b, -a]]) for a, b in ((sym(), sym()), (sym(), sym()))]
    stretch = coiso.grassmann._closed_exponential(*gens, 1.0)(thetas)
    assert not np.iscomplexobj(stretch)
    x = c * gens[0] + s * gens[1]
    size = np.max(np.abs(stretch), axis=(-2, -1))
    gap = np.max(np.abs(stretch - scipy.linalg.expm(x)), axis=(-2, -1)) / size
    assert np.max(gap) <= 1e-12
    i = int(np.argmax(gap))
    with mpmath.workdps(40):
        exact = np.array(mpmath.expm(mpmath.matrix(x[i].tolist())).tolist(), dtype=float)
    assert np.max(np.abs(stretch[i] - exact)) <= 1e-14 * size[i]
    om = coiso.symplin._standard_omega(n)
    residual = np.max(np.abs(np.swapaxes(stretch, -1, -2) @ om @ stretch - om), axis=(-2, -1))
    assert np.max(residual / size ** 2) <= 1e-13


def test_per_angle_generator_is_refused_with_the_shapes():
    def per_angle(theta):
        return standard_model(2, 1)

    with pytest.raises(ValueError, match=r"expected a stack of shape \(2, 2, 2\), "
                                         r"got shape \(2, 2\)"):
        loop_from_family(1, per_angle, samples=8)

    def one_short(thetas):
        return constant_family(2, 1)(thetas[1:])

    with pytest.raises(ValueError, match=r"expected a stack of shape \(2, 2, 2\), "
                                         r"got shape \(1, 2, 2\)"):
        loop_from_family(1, one_short, samples=8)


@pytest.mark.parametrize("samples", [0, -4])
def test_a_sample_count_below_one_is_refused(samples):
    message = rf"^a loop needs at least 1 sample, got {samples}$"
    with pytest.raises(ValueError, match=message):
        loop_from_family(1, diag_unitary_family(2, 1, [1, 0]), samples=samples)
    with pytest.raises(ValueError, match=message):
        SymplecticMatrixLoop.from_callable(2, constant_unitaries(np.eye(4)), samples)


def test_per_angle_matrix_callable_is_refused_with_the_shapes():
    with pytest.raises(ValueError, match=r"expected a stack of shape \(8, 4, 4\), "
                                         r"got shape \(4, 4\)"):
        SymplecticMatrixLoop.from_callable(2, lambda theta: np.eye(4), 8)
    with pytest.raises(ValueError, match=r"expected a stack of shape \(8, 4, 4\), "
                                         r"got shape \(4, 4\)"):
        unitary_matrix_loop(2, lambda theta: np.eye(2, dtype=complex), 8)


# ---------------------------------------------------------------------------
# a doubled grid reuses the even members of the grid it doubles


def _assert_same_loop(a, b):
    assert np.array_equal(a.thetas, b.thetas)
    for part in ("space", "kernel", "h_part"):
        assert np.array_equal(getattr(a.samples, part).basis,
                              getattr(b.samples, part).basis), part
    assert np.array_equal(a.det_phases, b.det_phases)
    assert (a.h_holonomy, a.kernel_sign, a.overlap_margin, a.closure_defect) == (
        b.h_holonomy, b.kernel_sign, b.overlap_margin, b.closure_defect)


def _pushforward_generator():
    a = coiso.random_unitary_matrix_loop(3, coiso.rng(17), 64, max_winding=1)
    loop = loop_from_family(2, constant_family(3, 2, 19), samples=8)
    return 2, pushforward(a, loop).generator


def _orbit(n, k, seed):
    return lambda: (k, coiso.random_unitary_orbit_family(n, k, seed))


# name -> (k, generator) of a loop that refines from 8 samples
REFINING = {
    "diag-unitary": lambda: (1, diag_unitary_family(2, 1, [0.0, 1.5])),
    "lagrangian-rotation": lambda: (0, lagrangian_rotation_family(2, turns=3)),
    **{f"orbit-n{n}k{k}": _orbit(n, k, seed)
       for n, k, seed in ((2, 0, 3), (2, 1, 5), (3, 0, 7), (3, 1, 11), (3, 2, 13))},
    "pushforward": _pushforward_generator,
}


@pytest.mark.parametrize("name", REFINING)
def test_refined_and_resampled_loops_equal_the_full_grid_build(name):
    k, gen = REFINING[name]()
    loop = loop_from_family(k, gen, samples=8)
    assert loop.m > 8
    _assert_same_loop(loop, loop_from_family(k, gen, samples=loop.m))
    fine = loop.resample(2 * loop.m)
    _assert_same_loop(fine, loop_from_family(
        k, gen, samples=2 * loop.m, tol=coiso.DEFAULT.replace(max_loop_samples=2 * loop.m)))


def test_refined_tangent_loop_equals_the_full_grid_build():
    boundary = BOUNDARY_FAMILIES["latitude"]({"alpha": 0.9, "p": 2, "q": 1})
    y = coiso.sphere(2)
    loop, points = tangent_boundary_loop(y, boundary, samples=8)
    assert loop.m > 8
    full, full_points = tangent_boundary_loop(y, boundary, samples=loop.m)
    _assert_same_loop(loop, full)
    assert np.array_equal(points, full_points)
    _assert_same_loop(loop.resample(2 * loop.m),
                      tangent_boundary_loop(y, boundary, samples=2 * loop.m)[0])


def test_doubled_grid_generates_only_its_odd_members():
    calls = []
    family = diag_unitary_family(2, 1, [0.0, 1.5])

    def gen(thetas):
        calls.append(thetas)
        return family(thetas)

    loop = loop_from_family(1, gen, samples=8)
    assert loop.m == 32
    loop.resample(64)
    # the closure check's two angles, then M = 8 and the odd members of 16
    # and 32; the resample keeps the loop's closure and generates only the
    # odd members of 64
    assert [len(t) for t in calls] == [2, 8, 8, 16, 32]
    for t, m in zip(calls[2:], (16, 32, 64)):
        assert np.array_equal(t, (np.arange(m) * (2 * np.pi / m))[1::2])


def test_each_generated_grid_is_certified_once(monkeypatch):
    # the closure check compares the generator's ends uncertified; each
    # grid is certified as it is generated, a doubled grid its odd members
    # only, and the transport takes the final grid as certified.  The
    # number of members of each certified stack is recorded
    certify, sizes = coiso.symplin._certify, []

    def counted(c, tol=coiso.DEFAULT):
        sizes.append(len(c.gauge))
        return certify(c, tol)

    monkeypatch.setattr(coiso.symplin, "_certify", counted)
    monkeypatch.setattr(coiso.grassmann, "_certify", counted)
    # this orbit refines 8 -> 16 and holds the contract at 16
    for samples, grids in ((16, [16]), (8, [8, 8])):
        sizes.clear()
        loop = loop_from_family(1, coiso.random_unitary_orbit_family(3, 1, 2, 1, 0.2),
                                samples=samples)
        assert loop.m == 16 and sizes == grids
    sizes.clear()
    assert loop.resample(32).m == 32 and sizes == [16]


def _rotation_with_a_symplectic_plane(bad_theta):
    """Lagrangian planes of C^2 turned by exp(1.5 i theta) in the first
    coordinate, except at ``bad_theta``: there the member is the symplectic
    plane span(e_1, f_1), which is not coisotropic and fails the
    generator's classification of its members."""
    base = standard_model(2, 0).space.basis

    def gen(thetas):
        basis = realify(diagonals(np.exp(1.5j * thetas), 1.0)) @ base
        basis[np.isclose(thetas, bad_theta, rtol=0, atol=1e-12)] = np.eye(4)[:, [0, 2]]
        return classify_coisotropic(Subspace(basis))

    return gen


def test_odd_member_failure_names_its_full_grid_index():
    # refinement 8 -> 16: the bad member is member 3 of 16
    gen = _rotation_with_a_symplectic_plane(3 * 2 * np.pi / 16)
    with pytest.raises(ClassificationError, match=r"\(stack member 3\)$"):
        loop_from_family(0, gen, samples=8)
    # a resample 32 -> 64: the bad member is member 5 of 64
    loop = loop_from_family(0, _rotation_with_a_symplectic_plane(5 * 2 * np.pi / 64),
                            samples=32)
    assert loop.m == 32
    with pytest.raises(ClassificationError, match=r"\(stack member 5\)$"):
        loop.resample(64)


# ---------------------------------------------------------------------------
# the ends at 0 and 2*pi: compared, not classified


def _recording(family, calls):
    def gen(thetas):
        calls.append(thetas)
        return family(thetas)

    return gen


def test_an_open_generator_fails_before_any_grid_call():
    calls = []

    def open_path(thetas):
        u = realify(diagonals(1.0, np.exp(0.25j * thetas)))
        return classify_coisotropic(Subspace.from_spanning(u @ standard_model(2, 1).space.basis))

    with pytest.raises(DiscontinuousLoopError, match=r"^generator does not close: defect "):
        loop_from_family(1, _recording(open_path, calls), samples=16)
    assert [list(t) for t in calls] == [[0.0, 2 * np.pi]]


def test_the_ends_fix_the_dimension_and_the_rank_parameter():
    # a line of C^2 handed over as a (2, 1) gauge is not a splitting
    calls = []
    line = _recording(lambda thetas: coiso.CoisotropicSubspace(
        k=0, gauge=np.tile(np.eye(2)[:, :1], (len(thetas), 1, 1))), calls)
    with pytest.raises(ValueError, match=(
            r"^a loop callable must return one member per angle: expected a stack of shape "
            r"\(2, 2, 2\), got shape \(2, 2, 1\)$")):
        loop_from_family(0, line, samples=8)
    with pytest.raises(ClassificationError, match=(
            r"^generator produced rank parameter 1, expected 0$")):
        loop_from_family(0, _recording(constant_family(2, 1), calls), samples=8)
    assert [len(t) for t in calls] == [2, 2]


def test_a_subspace_generator_is_refused_before_any_grid_call():
    # a generator hands over splittings; one of bare subspaces is refused on
    # the closure call, and classifying its members inside it is the way
    calls = []
    base = standard_model(2, 1).space[None]

    def spaces(thetas):
        return base[np.zeros(len(thetas), dtype=int)]

    with pytest.raises(TypeError, match=(
            r"^a loop generator must return a CoisotropicSubspace, got Subspace$")):
        loop_from_family(1, _recording(spaces, calls), samples=8)
    assert [len(t) for t in calls] == [2]
    loop = loop_from_family(1, lambda thetas: classify_coisotropic(spaces(thetas)), samples=8)
    assert loop.m == 8 and loop.k == 1


def test_a_member_0_that_is_not_coisotropic_is_named_on_the_grid():
    # a closed loop of Lagrangian planes of C^2 whose members at 0 and 2*pi
    # are the symplectic plane span(e_1, f_1): the generator's classification
    # of the ends names member 0
    base = standard_model(2, 0).space.basis

    def gen(thetas):
        basis = realify(diagonals(np.exp(1j * thetas), 1.0)) @ base
        basis[np.isclose(np.cos(thetas), 1.0, rtol=0, atol=1e-12)] = np.eye(4)[:, [0, 2]]
        return classify_coisotropic(Subspace(basis))

    with pytest.raises(ClassificationError, match=(
            r"^not coisotropic: kernel direction leaves the subspace by angle 1\.571e\+00 "
            r"\(stack member 0\)$")):
        loop_from_family(0, gen, samples=8)


# the builds whose decompositions are counted: (k, generator, the eighs of
# one generator call); the orbit's generator takes one eigh per call, for its
# wiggle, and the tangent generator none
COUNTED = {
    "orbit-n3k1": lambda: (1, coiso.random_unitary_orbit_family(3, 1, 23), 1),
    "orbit-n2k0": lambda: (0, coiso.random_unitary_orbit_family(2, 0, 29), 1),
    "diag-unitary-n3k3": lambda: (3, diag_unitary_family(3, 3, [1.0, -2.0, 0.0]), 0),
    "tangent-latitude": lambda: (1, tangent_boundary_loop(
        coiso.sphere(2), BOUNDARY_FAMILIES["latitude"]({"alpha": 1.25, "p": 1, "q": 0}),
        samples=16)[0].generator, 0),
}


@pytest.mark.parametrize("name", COUNTED)
def test_each_grid_is_built_once(name, linalg_calls):
    # one closure call and one grid call per build; each grid's handed-over
    # splitting is certified with no decomposition, so the generator's own
    # eighs are all the eighs taken, and the continuity contract takes its
    # one SVD; the counts do not grow with M, and resample(2M) generates and
    # certifies the odd members only
    k, family, generator_eighs = COUNTED[name]()
    counts = {}
    for m in (256, 1024):
        calls = []
        linalg_calls.clear()
        loop = loop_from_family(k, _recording(family, calls), samples=m)
        assert loop.m == m
        assert [len(t) for t in calls] == [2, m]
        assert linalg_calls["eigh"] == 2 * generator_eighs
        counts[m] = dict(linalg_calls)
        calls.clear()
        linalg_calls.clear()
        fine = loop.resample(2 * m)
        assert len(calls) == 1 and np.array_equal(calls[0], fine.thetas[1::2])
        assert linalg_calls["eigh"] == generator_eighs
    assert counts[256] == counts[1024]


# ---------------------------------------------------------------------------
# handed-over splittings: certified, not reclassified

def _orbit_with(member_fix, n=3, k=1, at=3):
    """An orbit generator whose grid member ``at`` of the 8-grid has its
    gauge replaced by ``member_fix(gauge)``; the ends at 0 and 2*pi are
    left as they are."""
    orbit = coiso.random_unitary_orbit_family(n, k, 41)

    def gen(thetas):
        gauge = orbit(thetas).gauge.copy()
        for i in np.flatnonzero(np.isclose(thetas, at * np.pi / 4, rtol=0, atol=1e-12)):
            gauge[i] = member_fix(gauge[i])
        return coiso.CoisotropicSubspace(k=k, gauge=gauge)

    return gen


def _with_nan(gauge):
    gauge = gauge.copy()
    gauge[0, 0] = np.nan
    return gauge


# each breaks the unitarity of one member; a handed-over unitary gauge
# cannot break any other property of a splitting
BAD_SPLITTINGS = {
    "nan": (_with_nan, r"gauge is not unitary: defect nan > 1\.0e-10"),
    "orthonormality": (lambda u: np.stack([u[:, 0], u[:, 0], u[:, 2]], axis=-1),
                       r"gauge is not unitary: defect 1\.000e\+00 > 1\.0e-10"),
}


@pytest.mark.parametrize("name", BAD_SPLITTINGS)
def test_each_certification_check_refuses_a_bad_splitting(name):
    # the loop refuses a broken member of an orbit's 8-grid, naming it
    fix, message = BAD_SPLITTINGS[name]
    with pytest.raises(ClassificationError, match=rf"^{message} \(stack member 3\)$"):
        loop_from_family(1, _orbit_with(fix), samples=8)


def test_a_splitting_of_the_wrong_shape_is_refused():
    # the grid calls hand over (8, 3, 2) gauges; the ends at 0 and 2*pi are
    # whole and fix n = 3
    orbit = coiso.random_unitary_orbit_family(3, 1, 41)

    def gen(thetas):
        c = orbit(thetas)
        return c if len(thetas) == 2 else coiso.CoisotropicSubspace(k=1, gauge=c.gauge[..., :2])

    with pytest.raises(ValueError, match=(
            r"expected a stack of shape \(8, 3, 3\), got shape \(8, 3, 2\)$")):
        loop_from_family(1, gen, samples=8)


def _nearly_isotropic(eps):
    """The constant n = 3, k = 1 gauge [e_1 | e_2 | e_3 + i eps e_2], whose
    kernel has Im K^* K = eps off its diagonal and is otherwise unitary to
    eps^2."""
    u = np.eye(3, dtype=complex)
    u[1, 2] = 1j * eps
    return lambda thetas: coiso.CoisotropicSubspace(k=1, gauge=np.tile(u, (len(thetas), 1, 1)))


def test_certification_and_transport_decide_unitarity_alike():
    # the kernel's isotropy is held to subspace_equality (1e-8) by
    # certification, and transport, frames and the measured dimension refuse
    # nothing that certification accepts: at 2e-9 and 5e-9 each builds, at
    # 2e-8 each refuses member 0 of a stack, or the single gauge, alike
    for eps in (2e-9, 5e-9):
        loop = loop_from_family(1, _nearly_isotropic(eps), samples=8)
        assert loop.m == 8 and loop.kernel_sign == 1
        single = _nearly_isotropic(eps)(np.zeros(1))[0]
        assert coiso.adapted_frame(single).k == 1
        assert coiso.measured_grassmannian_dim(single) == coiso.grassmannian_dim(3, 1)
    gen = _nearly_isotropic(2e-8)
    message = r"^kernel is not isotropic: defect 2\.000e-08 > 1\.0e-08"
    with pytest.raises(ClassificationError, match=message + r" \(stack member 0\)$"):
        loop_from_family(1, gen, samples=8)
    with pytest.raises(ClassificationError, match=message + r" \(stack member 0\)$"):
        coiso.transport_phases(gen(np.zeros(8)))
    for measure in (coiso.adapted_frame, coiso.measured_grassmannian_dim):
        with pytest.raises(ClassificationError, match=message + "$"):
            measure(gen(np.zeros(1))[0])


def test_loops_never_build_the_real_basis_of_their_samples(monkeypatch):
    # construction, refinement, resampling, pushforward and the tangent
    # loop read the gauge's kernel, never the (n + k)-column real basis
    def refuse(self):
        raise AssertionError("a loop built the real basis of a sample")

    monkeypatch.setattr(coiso.CoisotropicSubspace, "space", property(refuse))
    loop = loop_from_family(1, coiso.random_unitary_orbit_family(3, 1, coiso.rng(21)),
                            samples=4)
    assert loop.m > 4
    assert loop.resample(2 * loop.m).m == 2 * loop.m
    matrices = unitary_matrix_loop(3, lambda t: diagonals(np.exp(1j * t), 1.0, np.exp(-2j * t)),
                                   loop.m)
    assert pushforward(matrices, loop).m >= loop.m
    boundary = BOUNDARY_FAMILIES["latitude"]({"alpha": 0.9, "p": 2, "q": 1})
    assert tangent_boundary_loop(coiso.sphere(2), boundary, samples=64)[0].m >= 64
    with pytest.raises(AssertionError, match="real basis"):
        loop.samples.space


def _torus_orbit(semi_axes, radii, powers):
    """The boundary theta -> (a_j r_j exp(i p_j theta))_j on the ellipsoid
    of semi-axes a_j, for radii with sum r_j^2 = 1."""
    a, r, p = (np.asarray(x, dtype=float) for x in (semi_axes, radii, powers))

    def w(thetas):
        z = a * r * np.exp(1j * p * thetas[:, None])
        return np.concatenate([z.real, z.imag], axis=-1)

    return w


def _outcome(loop):
    """The loop's printed integer against the section exp(i theta), or the
    error that refuses it."""
    try:
        section = coiso.MaslovSection.from_function(loop.thetas, lambda t: np.exp(1j * t))
        return coiso.maslov_index(loop, section)
    except coiso.CoisoError as exc:
        return type(exc).__name__


def _oracle_cases():
    for n in (2, 3, 4):
        for k in range(n + 1):
            for seed in (0, 1):
                yield (f"orbit-n{n}k{k}-{seed}", k,
                       coiso.random_unitary_orbit_family(n, k, 900 + 10 * n + seed), 64)
    surfaces = {
        "sphere-latitude": (coiso.sphere(2), BOUNDARY_FAMILIES["latitude"](
            {"alpha": 0.9, "p": 1, "q": -2})),
        "sphere-hopf": (coiso.sphere(2), BOUNDARY_FAMILIES["hopf"]({"power": 2})),
        "sphere-n3": (coiso.sphere(3), _torus_orbit([1, 1, 1], [0.6, 0.64, 0.48], [1, 0, -1])),
        "ellipsoid-n2": (coiso.ellipsoid([1.0, 1.7]), _torus_orbit([1.0, 1.7], [0.8, 0.6],
                                                                   [1, 2])),
        "ellipsoid-n3": (coiso.ellipsoid([0.8, 1.2, 1.5]),
                         _torus_orbit([0.8, 1.2, 1.5], [0.6, 0.64, 0.48], [2, -1, 1])),
    }
    for name, (y, boundary) in surfaces.items():
        yield (name, y.n - 1, tangent_boundary_loop(y, boundary, samples=16)[0].generator, 256)


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda case: case[0])
def test_certified_loops_agree_with_reclassified_ones(case):
    # the loop of a handed-over splitting against the loop of its space
    # classified: the same grid, integer, holonomy and Z/2 class, and det
    # streams equal up to one constant unit (another starting frame)
    _, k, gen, m = case
    certified = loop_from_family(k, gen, samples=m)
    classified = loop_from_family(k, lambda thetas: classify_coisotropic(gen(thetas).space),
                                  samples=m)
    assert certified.m == classified.m
    assert _outcome(certified) == _outcome(classified)
    assert abs(certified.h_holonomy - classified.h_holonomy) <= 1e-12
    assert certified.kernel_sign == classified.kernel_sign
    ratio = certified.det_phases ** 2 / classified.det_phases ** 2
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
