"""Sections, windings, indices and their invariances."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import coiso
from coiso import (
    AliasingError,
    BOUNDARY_FAMILIES,
    MaslovSection,
    canonical_section,
    constant_family,
    disc_index_detail,
    lagrangian_rotation_family,
    loop_from_family,
    maslov_index,
    pushforward_section,
    tangent_boundary_loop,
    unitary_matrix_loop,
    winding,
)
from reference_transport import reference_transport


def diagonals(*entries):
    """The stack of diagonal matrices diag(entries) on a grid of angles;
    each entry is a per-angle array or a constant."""
    d = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return d[..., None] * np.eye(d.shape[-1])


def constant_unitaries(u):
    """The grid callable of the constant unitary loop u."""
    return lambda thetas: np.tile(u, (len(thetas), 1, 1))


def rotation_loop(n, turns=1, samples=64):
    return loop_from_family(0, lagrangian_rotation_family(n, turns), samples=samples)


def ones_section(loop):
    return MaslovSection.from_function(loop.thetas, lambda t: np.ones(len(t)))


# ---------------------------------------------------------------------------
# canonical section


def test_canonical_section_rotation_matches_det_squared_oracle():
    # oracle: the generating unitary is exp(i theta / 2) I_n, whose squared
    # determinant phase is exp(i n theta); the section must follow it up to
    # the constant initial phase
    for n in (1, 2, 3):
        loop = rotation_loop(n)
        sec = canonical_section(loop)
        oracle = np.exp(1j * n * loop.thetas)
        ratio = sec.samples / (oracle * sec.samples[0])
        assert np.max(np.abs(ratio - 1.0)) < 1e-9


def test_canonical_section_constant_loop():
    loop = loop_from_family(1, constant_family(2, 1), samples=16)
    sec = canonical_section(loop)
    assert np.max(np.abs(sec.samples - sec.samples[0])) < 1e-12


def test_canonical_section_full_rank_is_one():
    loop = loop_from_family(2, constant_family(2, 2), samples=8)
    sec = canonical_section(loop)
    assert_allclose(sec.samples, np.ones(8), atol=1e-12)


def test_section_invariants():
    loop = rotation_loop(1)
    sec = canonical_section(loop)
    assert np.max(np.abs(np.abs(sec.samples) - 1.0)) < 1e-9
    with pytest.raises(ValueError):
        MaslovSection(thetas=loop.thetas, samples=2.0 * np.ones(loop.m))


def test_section_refuses_a_nan_sample():
    # NaN fails every comparison, so a bare "defect > tol" let it through
    with pytest.raises(ValueError, match="section samples must have unit modulus"):
        MaslovSection(thetas=np.arange(4.0), samples=[1, np.nan, 1, 1])


def test_section_function_refuses_a_vanishing_value():
    loop = rotation_loop(1)
    with pytest.raises(coiso.FrameDegeneracyError,
                       match=r"^section value vanished at theta=0\.0000$"):
        MaslovSection.from_function(loop.thetas, lambda t: np.sin(t) + 0j)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 1.0)])
def test_section_function_refuses_a_non_finite_value(value):
    # NaN fails "modulus below the floor", so the check compares the other
    # way round; the refusal is typed and names the angle
    with pytest.raises(coiso.FrameDegeneracyError,
                       match=r"^section value is not finite at theta=1\.0000$"):
        MaslovSection.from_function(np.arange(4.0), lambda t: np.where(t == 1, value, 1.0 + 0j))


# ---------------------------------------------------------------------------
# winding


def test_winding_single_turn():
    t = np.arange(16) / 16
    assert winding(np.exp(2j * np.pi * t)) == 1


def test_winding_constant():
    assert winding(np.ones(8, dtype=complex)) == 0


def test_winding_minus_two():
    t = np.arange(32) / 32
    assert winding(np.exp(-4j * np.pi * t)) == -2


def test_winding_aliasing_error():
    t = np.arange(8) / 8
    with pytest.raises(AliasingError):
        winding(np.exp(2j * np.pi * 3 * t))


def test_a_jump_at_the_bound_is_ambiguous_from_either_side():
    z = np.exp(2j * np.pi * np.arange(5) / 5)
    jump = coiso.winding_detail(z).max_jump
    # the bound 1 ulp above the largest jump, or below it: a tie either way
    for bound in (np.nextafter(jump, np.inf), np.nextafter(jump, 0.0)):
        with pytest.raises(AliasingError, match="ambiguous"):
            coiso.winding_detail(z, coiso.DEFAULT.replace(phase_jump=bound))
    assert coiso.winding_detail(z, coiso.DEFAULT.replace(phase_jump=jump + 1e-12)).value == 1
    # a quarter turn per sample meets the default bound pi/2
    with pytest.raises(AliasingError, match="ambiguous"):
        winding(np.exp(0.5j * np.pi * np.arange(4)))


def test_winding_names_the_phase_jump_bound_it_checks():
    # a fifth of a turn per sample is under the default bound pi/2 and over
    # a record's bound of 1
    z = np.exp(2j * np.pi * np.arange(5) / 5)
    assert winding(z) == 1
    with pytest.raises(AliasingError,
                       match=r"^phase jump 1\.257 >= 1\.000; refine the sampling$"):
        coiso.winding_detail(z, coiso.DEFAULT.replace(phase_jump=1.0))


def test_undersampled_canonical_section_raises_aliasing_error():
    # four unitary windings of up to 4 turns on 64 samples: the squared
    # determinant phase steps by pi/2 or more across the closing sample
    gen = coiso.random_unitary_orbit_family(4, 0, 2701, max_winding=4, wiggle=0.0)
    loop = coiso.loop_from_family(0, gen, samples=16,
                                  tol=coiso.DEFAULT.replace(max_loop_samples=1024))
    section = coiso.MaslovSection.from_function(loop.thetas, lambda t: np.exp(2j * t))
    with pytest.raises(AliasingError, match="canonical section does not close"):
        coiso.canonical_section(loop)
    with pytest.raises(AliasingError, match="canonical section does not close"):
        coiso.maslov_index(loop, section)


def test_canonical_section_reads_the_phase_jump_it_is_passed():
    # the closing jump of det(U)^2 is under the default bound and over a
    # record's bound of half of it
    samples = canonical_section(rotation_loop(1, turns=2, samples=16)).samples
    jump = abs(float(np.angle(samples[0] / samples[-1])))
    assert 0 < jump < coiso.DEFAULT.phase_jump
    with pytest.raises(AliasingError, match="canonical section does not close"):
        canonical_section(rotation_loop(1, turns=2, samples=16),
                          coiso.DEFAULT.replace(phase_jump=jump / 2))


@settings(max_examples=30)
@given(st.integers(-3, 3), st.integers(-3, 3), st.floats(0, 2 * np.pi))
def test_winding_additivity(m1, m2, phase):
    m = 16 * (abs(m1) + abs(m2) + 1)
    t = np.arange(m) / m
    u = np.exp(2j * np.pi * m1 * t + 1j * phase)
    v = np.exp(2j * np.pi * m2 * t)
    assert winding(u * v) == winding(u) + winding(v)


# ---------------------------------------------------------------------------
# maslov index


def test_index_constant_pair_is_zero():
    loop = loop_from_family(1, constant_family(2, 1), samples=16)
    assert maslov_index(loop, ones_section(loop)) == 0


def test_index_of_winding_section_over_constant_loop():
    loop = loop_from_family(1, constant_family(2, 1), samples=32)
    sec = MaslovSection.from_function(loop.thetas, lambda t: np.exp(1j * t))
    assert maslov_index(loop, sec) == 1


def test_index_rotation_loop_n1_is_minus_one():
    loop = rotation_loop(1)
    mu = maslov_index(loop, ones_section(loop))
    assert mu == -1
    # magnitude agrees with the classical squared-determinant oracle
    classical = winding(np.exp(1j * loop.thetas))
    assert abs(mu) == abs(classical) == 1


def test_index_requires_matching_grid():
    loop = rotation_loop(1)
    other = MaslovSection.from_function(np.arange(32) * 2 * np.pi / 32,
                                        lambda t: np.ones(len(t)))
    with pytest.raises(ValueError):
        maslov_index(loop, other)


def test_reparameterization_invariance():
    # orientation-preserving circle diffeomorphism leaves indices unchanged
    gen = coiso.random_unitary_orbit_family(2, 1, coiso.rng(77))

    def phi(theta):
        return theta + 0.35 * np.sin(theta)

    loop = loop_from_family(1, gen, samples=128)
    warped = loop_from_family(1, lambda t: gen(phi(t)), samples=128)
    sec = MaslovSection.from_function(loop.thetas, lambda t: np.exp(2j * t))
    sec_w = MaslovSection.from_function(warped.thetas,
                                        lambda t: np.exp(2j * phi(t)))
    assert maslov_index(loop, sec) == maslov_index(warped, sec_w)


# ---------------------------------------------------------------------------
# pushforward of sections


def test_pushforward_section_identity():
    gen = coiso.random_unitary_orbit_family(2, 1, coiso.rng(5))
    loop = loop_from_family(1, gen, samples=64)
    sec = MaslovSection.from_function(loop.thetas, lambda t: np.exp(1j * t))
    a = unitary_matrix_loop(2, constant_unitaries(np.eye(2, dtype=complex)), 64)
    out, moved = pushforward_section(a, loop, sec)
    assert_allclose(moved.samples, sec.samples, atol=1e-9)


def test_pushforward_section_transverse_rotation():
    # constant pair pushed by a unitary rotating the null coordinate: the
    # section and the image loop's canonical section wind together and the
    # index is preserved
    loop = loop_from_family(1, constant_family(2, 1), samples=64)
    sec = ones_section(loop)
    a = unitary_matrix_loop(2, lambda t: diagonals(1.0, np.exp(-1j * t)), 64)
    out, moved = pushforward_section(a, loop, sec)
    assert winding(moved.samples) == -2
    assert winding(canonical_section(out).samples) == -2
    assert maslov_index(out, moved) == maslov_index(loop, sec) == 0


def test_pushforward_index_equality_small_suite():
    for trial in range(6):
        gen = coiso.random_unitary_orbit_family(2, 1, coiso.rng(30, trial))
        loop = loop_from_family(1, gen, samples=128)
        g = coiso.rng(31, trial)
        w = int(g.integers(-2, 3))
        sec = MaslovSection.from_function(
            loop.thetas, lambda t, _w=w: np.exp(1j * _w * t))
        mu = maslov_index(loop, sec)
        maker = (coiso.random_unitary_matrix_loop if trial % 2 == 0
                 else coiso.random_symplectic_matrix_loop)
        a = maker(2, g, loop.m, max_winding=1)
        out, moved = pushforward_section(a, loop, sec)
        assert maslov_index(out, moved) == mu


def test_polar_factor_of_unitary_loop_is_itself():
    a = coiso.random_unitary_matrix_loop(2, coiso.rng(3), 64)
    for mat in a.matrices:
        q, p = scipy.linalg.polar(mat)
        assert_allclose(p, np.eye(4), atol=1e-9)
        assert_allclose(q, mat, atol=1e-9)


# ---------------------------------------------------------------------------
# frame independence (kernel re-framing)


def _reframe_kernel(loop, seed):
    """Rebuild the loop (0 < k) with every sample's kernel basis mixed by a
    random orthogonal map and its H-part basis by a random k x k unitary,
    and the frames re-propagated from the mixed initial data."""
    g = coiso.rng(seed)
    s = loop.samples
    d, k = s.kernel.dim, s.k
    q = np.stack([np.linalg.qr(g.normal(size=(d, d)))[0] for _ in range(loop.m)])
    v = np.stack([coiso.symplin.random_unitary(k, g) for _ in range(loop.m)])
    new_samples = coiso.CoisotropicSubspace(
        k=k, gauge=np.concatenate([s.gauge[..., :k] @ v, s.gauge[..., k:] @ q], axis=-1))
    return coiso.grassmann._closed_loop(loop.thetas, new_samples, loop.closure_defect,
                                        loop.generator, coiso.DEFAULT)


def test_kernel_reframing_changes_nothing():
    # a re-framing multiplies the determinant stream by one constant unit,
    # the change of member 0's frame, and leaves the H holonomy, the Z/2
    # class and every winding as they are; at k = 2 the canonical phases
    # of member 0 leave a unitary freedom, so the constant need not be +-1
    for n, k, seed in ((2, 1, 50), (3, 2, 51)):
        gen = coiso.random_unitary_orbit_family(n, k, coiso.rng(seed))
        loop = loop_from_family(k, gen, samples=64)
        sec = MaslovSection.from_function(loop.thetas, lambda t: np.exp(1j * t))
        mu = maslov_index(loop, sec)
        base = canonical_section(loop).samples
        for trial in range(10):
            mixed = _reframe_kernel(loop, 600 + trial)
            ratio = mixed.det_phases / loop.det_phases
            assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
            assert abs(mixed.h_holonomy - loop.h_holonomy) < 1e-12
            assert mixed.kernel_sign == loop.kernel_sign
            assert_allclose(canonical_section(mixed).samples, base * ratio[0] ** 2, atol=1e-9)
            assert winding(canonical_section(mixed).samples) == winding(base)
            assert maslov_index(mixed, sec) == mu


@pytest.mark.parametrize("n, k, seed", [(3, 2, 52), (4, 2, 53)])
def test_random_starting_frame_moves_the_det_stream_by_one_unit(n, k, seed):
    # the sequential chain started from a random adapted frame of member 0,
    # the canonical frame times diag(V, Q) with V in U(k) and Q in O(n-k):
    # every det phase is the loop's times det(V) det(Q), and the H holonomy
    # and the kernel sign are the loop's
    gen = coiso.random_unitary_orbit_family(n, k, coiso.rng(seed))
    loop = loop_from_family(k, gen, samples=64)
    closed = loop.samples[np.append(np.arange(loop.m), 0)]
    canonical = reference_transport(closed)[0][0]
    for trial in range(10):
        g = coiso.rng(seed, trial)
        v = coiso.symplin.random_unitary(k, g)
        q = np.linalg.qr(g.normal(size=(n - k, n - k)))[0]
        start = np.concatenate([coiso.real_coords(coiso.complex_coords(canonical[:, :k]) @ v),
                                canonical[:, k:] @ q], axis=1)
        u = coiso.complex_coords(reference_transport(closed, start=start)[0])
        dets = np.linalg.det(u)
        ratio = dets[:-1] / np.abs(dets[:-1]) / loop.det_phases
        assert abs(ratio[0] - np.linalg.det(v) * np.linalg.det(q)) <= 1e-12
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
        mono = np.conj(u[0].T) @ u[-1]
        holonomy = np.linalg.det(mono[:k, :k])
        assert abs(holonomy / abs(holonomy) - loop.h_holonomy) <= 1e-12
        assert np.sign(np.linalg.det(mono[k:, k:]).real) == loop.kernel_sign


# ---------------------------------------------------------------------------
# gradings


def test_grading_equivariance():
    # a loop whose frames change by a unitary V (every sample re-framed, V
    # the change of member 0's frame) has every determinant phase times
    # det V, so a grading read against its canonical section reads
    # det(V)^{-2} times as much, and the index does not move; a diagonal
    # loop has trivial H holonomy, so the canonical grading's section, the
    # constant charge 1 times the loop's gauge, closes
    loop = loop_from_family(2, coiso.diag_unitary_family(3, 2, [1, -1, 0.5]), samples=64)
    charge = MaslovSection(thetas=loop.thetas, samples=loop.section_gauge())
    sec = MaslovSection.from_function(loop.thetas, lambda t: np.exp(1j * t))
    for trial in range(20):
        moved = _reframe_kernel(loop, 900 + trial)
        det_v = moved.det_phases[0] / loop.det_phases[0]
        assert_allclose(moved.det_phases, loop.det_phases * det_v, rtol=0, atol=1e-9)
        assert_allclose(charge.samples / canonical_section(moved).samples,
                        charge.samples / canonical_section(loop).samples * np.conj(det_v) ** 2,
                        rtol=0, atol=1e-9)
        assert maslov_index(moved, sec) == maslov_index(loop, sec)


def test_constant_grading_section_is_gauge_only():
    # a constant charge's section is its phase times the loop's gauge, on a
    # latitude whose H holonomy makes that gauge a non-trivial ramp
    boundary = BOUNDARY_FAMILIES["latitude"]({"alpha": 1.25, "p": 1, "q": 0})
    for charge, unit in ((None, 1.0),
                         (lambda p: np.full(len(p), 2.0 * np.exp(0.7j)), np.exp(0.7j))):
        detail = disc_index_detail(coiso.sphere(2), boundary, charge, samples=64)
        gauge = detail["loop"].section_gauge()
        assert np.max(np.abs(np.angle(gauge))) > 0.1
        assert_allclose(detail["section"].samples, unit * gauge, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# stacked evaluation: every member equals the per-sample computation


@settings(max_examples=15)
@given(st.floats(0.2, 1.4), st.integers(-2, 2), st.integers(-2, 2),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 9))
def test_tangent_stack_equals_members(alpha, p, q, seed, count):
    boundary = BOUNDARY_FAMILIES["latitude"]({"alpha": alpha, "p": p, "q": q})
    loop, points = tangent_boundary_loop(coiso.sphere(2), boundary, samples=16)
    assert np.array_equal(points, boundary(loop.thetas))
    for i in range(loop.m):
        assert np.array_equal(points[i], boundary(loop.thetas[i:i + 1])[0])
    thetas = coiso.rng(seed).uniform(0, 2 * np.pi, size=count)
    stacked = loop.generator(thetas)
    assert stacked.space.basis.shape == (count, 4, 3)
    for i in range(count):
        single = loop.generator(thetas[i:i + 1])
        for part in ("space", "kernel", "h_part"):
            assert np.array_equal(getattr(stacked, part).basis[i],
                                  getattr(single, part).basis[0]), part


def test_off_surface_boundary_point_is_named_by_its_angle():
    # the Hopf circle with its point at theta = pi pushed off the sphere; the
    # 16-point grid holds that angle and no other within 0.1 of it
    hopf = BOUNDARY_FAMILIES["hopf"]({})

    def moved(thetas):
        points = hopf(thetas)
        points[np.abs(thetas - np.pi) < 0.1] *= 1.5
        return points

    with pytest.raises(coiso.OffSurfaceError,
                       match=r"^boundary point at theta=3\.1416 is off the surface$"):
        tangent_boundary_loop(coiso.sphere(2), moved, samples=16)


# the parameters of each boundary family
_BOUNDARY_PARAMS = {
    "hopf": st.fixed_dictionaries({"power": st.integers(-3, 3)}),
    "latitude": st.fixed_dictionaries({"alpha": st.floats(0.1, 1.5), "p": st.integers(-3, 3),
                                       "q": st.integers(-3, 3)}),
    "planar-circle": st.fixed_dictionaries({"r1": st.floats(0.1, 1.2),
                                            "r2": st.floats(0.1, 1.2)}),
}


@settings(max_examples=30)
@given(st.sampled_from(sorted(BOUNDARY_FAMILIES)).flatmap(
           lambda name: st.tuples(st.just(name), _BOUNDARY_PARAMS[name])),
       st.lists(st.floats(0, 2 * np.pi), min_size=1, max_size=9))
def test_boundary_families_follow_the_grid_protocol(family, angles):
    name, params = family
    boundary = BOUNDARY_FAMILIES[name](params)
    thetas = np.array(angles)
    stacked = boundary(thetas)
    assert stacked.shape == (len(thetas), 4)
    for i in range(len(thetas)):
        assert np.array_equal(stacked[i], boundary(thetas[i:i + 1])[0]), (name, i)


def test_per_angle_boundary_charge_and_section_are_refused_with_the_shapes():
    y = coiso.sphere(2)
    with pytest.raises(ValueError, match=r"expected a stack of shape \(2, 4\), "
                                         r"got shape \(4,\)"):
        tangent_boundary_loop(y, lambda theta: np.array([1.0, 0.0, 0.0, 0.0]), samples=16)
    hopf = BOUNDARY_FAMILIES["hopf"]({})
    loop = tangent_boundary_loop(y, hopf, samples=16)[0]
    m = loop.m
    for charge, got in ((lambda p: 1.0 + 0j, r"\(\)"),
                        (lambda p: np.ones(len(p) - 1), rf"\({m - 1},\)")):
        with pytest.raises(ValueError, match=rf"expected a stack of shape \({m},\), "
                                             rf"got shape {got}$"):
            disc_index_detail(y, hopf, charge, samples=16)
    with pytest.raises(ValueError, match=rf"expected a stack of shape \({m},\), "
                                         r"got shape \(\)$"):
        MaslovSection.from_function(loop.thetas, lambda t: 1.0 + 0j)
    # the vanishing check covers every point at once
    with pytest.raises(coiso.FrameDegeneracyError, match="grading charge vanished"):
        disc_index_detail(y, hopf, lambda p: np.arange(len(p)) % 7, samples=16)


def test_a_non_finite_grading_charge_is_refused_at_its_angle():
    # refused before any division: with warnings as errors, no
    # RuntimeWarning comes first
    y, hopf = coiso.sphere(2), BOUNDARY_FAMILIES["hopf"]({})
    m = tangent_boundary_loop(y, hopf, samples=16)[0].m
    with pytest.raises(coiso.FrameDegeneracyError, match=(
            rf"^grading charge is not finite at theta={5 * 2 * np.pi / m:.4f}$")):
        disc_index_detail(y, hopf, lambda p: np.where(np.arange(len(p)) == 5, np.nan, 1.0),
                          samples=16)


def _polar_pushforward_section(a, loop, out, sec):
    """The pushed section sample by sample through the unitary polar factor
    Q of A: the section picks up det(r)^2 det(Q)^2 with r = (Q U)^* U_out,
    the change from the moved frames to the image loop's frames.  The
    frames U and U_out are transported sequentially.  At k = n the
    canonical section is identically 1, the det stream of frames that start
    at the standard basis, so both transports start there; a loop's own
    gauge at member 0 (a generator's unitary) may start elsewhere."""
    n = loop.n
    start = np.eye(2 * n)[:, :n] if loop.k == n else None
    raw = sec.samples / loop.section_gauge()
    gauge = out.section_gauge()
    frames = coiso.complex_coords(reference_transport(loop.samples, start=start)[0])
    out_frames = coiso.complex_coords(reference_transport(out.samples, start=start)[0])
    moved = np.empty(out.m, dtype=complex)
    for i in range(out.m):
        q, _ = scipy.linalg.polar(a.matrices[i])
        qc = q[:n, :n] + 1j * q[n:, :n]
        r = np.conj((qc @ frames[i]).T) @ out_frames[i]
        val = raw[i] * (np.linalg.det(r) ** 2) * (np.linalg.det(qc) ** 2) * gauge[i]
        moved[i] = val / abs(val)
    return moved


@st.composite
def _pushforward_cases(draw):
    n = draw(st.integers(1, 3))
    return (n, draw(st.integers(0, n)), draw(st.integers(0, 1)),
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 2)))


@settings(max_examples=20)
@given(_pushforward_cases())
@example((2, 1, 0, 50_097, 1))
@example((2, 1, 1, 50_098, 1))
@example((3, 1, 1, 7, 2))
def test_pushforward_section_equals_the_per_sample_computation(case):
    # ``refine`` = 2 samples A on twice the loop's grid, so the image loop
    # is finer than the source and the pushforward resamples the pair
    n, k, which, seed, refine = case
    maker = (coiso.random_unitary_matrix_loop, coiso.random_symplectic_matrix_loop)[which]
    gen = coiso.random_unitary_orbit_family(n, k, coiso.rng(seed, 0))
    loop = loop_from_family(k, gen, samples=128)
    fn = lambda t: np.exp(1j * t)
    sec = MaslovSection.from_function(loop.thetas, fn)
    try:
        a = maker(n, coiso.rng(seed, 1), refine * loop.m, max_winding=1)
    except ValueError:
        assume(False)    # a draw too coarse for the matrix loop's jump check
    out, moved = pushforward_section(a, loop, sec)
    if refine == 2:
        assert out.m > loop.m
    if out.m != loop.m:
        loop = loop.resample(out.m)
        sec = MaslovSection.from_function(loop.thetas, fn)
        a = coiso.SymplecticMatrixLoop.from_callable(n, a.generator, out.m)
    reference = _polar_pushforward_section(a, loop, out, sec)
    assert_allclose(moved.samples, reference, rtol=0, atol=1e-12)


def test_leafwise_special_witness_is_the_first_maximizer():
    # tied largest norms: the witness is the first of them, as a scan that
    # keeps a strictly larger norm finds it
    points = np.arange(12.0).reshape(4, 3)
    for norms, result in (([0.5, 2.0, 2.0, 1.0], False), ([1e-7, 3e-7, 3e-7, 0.0], True)):
        special = coiso.is_leafwise_special(points, norms)
        assert special.result is result
        assert special.max_alpha == norms[1]
        assert np.array_equal(special.witness, points[1])
    with pytest.raises(ValueError, match="3 norms for 4 points"):
        coiso.is_leafwise_special(points, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        coiso.is_leafwise_special(points[:0], [])
