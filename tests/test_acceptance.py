"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; pytest failure
output marks the criterion otherwise.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import math

import numpy as np
from numpy.testing import assert_allclose

import coiso
from coiso import (
    BOUNDARY_FAMILIES,
    MaslovSection,
    canonical_section,
    cylinder,
    ellipsoid,
    hyperplane,
    leaf_minimality,
    leafwise_mean_curvature,
    levi_form,
    loop_from_family,
    maslov_index,
    point_geometry,
    pushforward_section,
    sphere,
    transverse_curvature_bracket,
    transverse_curvature_sff,
    winding,
)
from coiso.cli import run


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_01_dimension_formula_matches_measured_rank():
    expected = {(2, 0): 3, (2, 1): 3, (3, 0): 6, (3, 1): 7, (3, 2): 5}
    for (n, k), dim in expected.items():
        assert coiso.grassmannian_dim(n, k) == dim
        for seed in range(20):
            c = coiso.random_coisotropic(n, k, 100 * n + 10 * k + seed)
            measured = coiso.measured_grassmannian_dim(c)
            assert measured == dim, (n, k, seed, measured)
    _ok("1 dimension formula (20 points x 5 configurations, exact)")


def test_02_lagrangian_reduction():
    # rotation loops: |index| = n for n = 1..4
    for n in range(1, 5):
        loop = loop_from_family(
            0, coiso.lagrangian_rotation_family(n, 1), samples=64)
        ones = MaslovSection.from_function(loop.thetas, lambda t: np.ones(len(t)))
        assert abs(maslov_index(loop, ones)) == n
    # 50 random Lagrangian loops against the classical squared-determinant
    # winding oracle, computed from the generating unitaries directly
    count = 0
    for n in (1, 2, 3):
        for seed in range(17):
            gen = coiso.random_unitary_orbit_family(n, 0, coiso.rng(7000 + seed, n))
            loop = loop_from_family(0, gen, samples=128)
            ones = MaslovSection.from_function(loop.thetas, lambda t: np.ones(len(t)))
            mu = maslov_index(loop, ones)
            dets = np.array([
                np.linalg.det(gen.conjugator) ** 2
                * np.exp(2j * np.sum(gen.windings) * t)
                for t in loop.thetas
            ])
            classical = winding(dets / np.abs(dets))
            assert mu == -classical, (n, seed, mu, classical)
            count += 1
    assert count >= 50
    _ok("2 Lagrangian reduction (rotation n=1..4 and 51 random loops, exact)")


def test_03_symplectic_invariance():
    configs = [(2, 0, 34), (2, 1, 33), (3, 1, 33)]
    total = 0
    for n, k, trials in configs:
        for trial in range(trials):
            gen = coiso.random_unitary_orbit_family(
                n, k, coiso.rng(50_000 + 97 * trial, 10 * n + k))
            loop = loop_from_family(k, gen, samples=128)
            g = coiso.rng(60_000 + trial, 10 * n + k)
            w = int(g.integers(-2, 3))
            section = MaslovSection.from_function(
                loop.thetas, lambda t, _w=w: np.exp(1j * _w * t))
            mu = maslov_index(loop, section)
            maker = (coiso.random_unitary_matrix_loop if trial % 2 == 0
                     else coiso.random_symplectic_matrix_loop)
            a = maker(n, g, loop.m, max_winding=1)
            out, moved = pushforward_section(a, loop, section)
            mu2 = maslov_index(out, moved)
            assert mu2 == mu, (n, k, trial, mu, mu2)
            total += 1
    assert total == 100
    _ok("3 symplectic invariance (100 randomized triples, exact)")


def test_04_frame_independence():
    gen = coiso.random_unitary_orbit_family(2, 1, coiso.rng(404))
    loop = loop_from_family(1, gen, samples=128)
    section = MaslovSection.from_function(loop.thetas, lambda t: np.exp(1j * t))
    mu = maslov_index(loop, section)
    base = canonical_section(loop).samples
    for trial in range(50):
        g = coiso.rng(405, trial)
        s = loop.samples
        d = s.kernel.dim
        q = np.stack([np.linalg.qr(g.normal(size=(d, d)))[0] for _ in range(loop.m)])
        new_samples = coiso.CoisotropicSubspace(
            k=s.k, gauge=np.concatenate([s.gauge[..., :s.k], s.gauge[..., s.k:] @ q], axis=-1))
        mixed = coiso.grassmann._closed_loop(1, loop.thetas, new_samples,
                                             loop.closure_defect, loop.generator,
                                             coiso.DEFAULT)
        assert_allclose(canonical_section(mixed).samples, base, atol=1e-9)
        assert maslov_index(mixed, section) == mu
    _ok("4 frame independence (50 kernel re-framings, index change 0)")


def test_05_two_route_disc_index():
    sphere_y = sphere(2)
    plane_y = hyperplane(2)
    loops = []
    for r1, r2 in [(0.5, 0.3), (0.8, 0.2), (0.3, 0.7), (1.1, 0.4), (0.6, 0.6),
                   (0.2, 0.9), (0.9, 0.5), (0.4, 0.4), (0.7, 1.0), (1.0, 0.8)]:
        loops.append((plane_y, BOUNDARY_FAMILIES["planar-circle"](
            {"r1": r1, "r2": r2}), True))
    for power in (1, 2, -1, -2):
        loops.append((sphere_y, BOUNDARY_FAMILIES["hopf"]({"power": power}), False))
    for alpha, p, q in [(1.25, 1, 0), (1.25, 2, 1), (0.25, 1, 0),
                        (1.35, 1, -1), (1.3, 2, 0), (0.3, 1, 1)]:
        loops.append((sphere_y, BOUNDARY_FAMILIES["latitude"](
            {"alpha": alpha, "p": p, "q": q}), False))
    assert len(loops) == 20
    for i, (y, w, expect_zero) in enumerate(loops):
        detail = coiso.disc_index_detail(y, w, samples=256)
        assert detail["residual"] < 0.05
        assert detail["index"] == detail["connection_index"], i
        if expect_zero:
            # the adapted frame extends over a neighborhood: index vanishes
            assert detail["index"] == 0, i
    _ok("5 two-route disc index (20 boundary loops, exact equality)")


def test_06_flat_homotopy_invariance():
    y = hyperplane(2)
    rng = coiso.rng(606)
    for pair in range(10):
        r = rng.uniform(0.2, 1.0, size=4)

        def w1(thetas, _r=r):
            return np.stack([np.ones_like(thetas), _r[0] * np.cos(thetas),
                             _r[1] * np.sin(thetas), _r[2] * np.cos(thetas)], axis=-1)

        def w2(thetas, _r=r):
            return np.stack([np.ones_like(thetas),
                             _r[2] * np.cos(thetas) + 0.1 * np.cos(2 * thetas),
                             _r[3] * np.sin(thetas), _r[0] * np.sin(thetas)], axis=-1)

        i1 = coiso.disc_index_detail(y, w1, samples=128)["index"]
        i2 = coiso.disc_index_detail(y, w2, samples=128)["index"]
        assert i1 == i2, pair
    _ok("6 flat homotopy invariance (10 homotopic pairs, equal indices)")


def test_07_sff_symmetries():
    for y in (sphere(2), cylinder(2), ellipsoid([1.0, 1.3])):
        pts = y.sample_points(32, 707)
        for p in pts:
            blocks = point_geometry(y, p).blocks
            assert blocks.symmetry_residual() < 1e-5
    # product fixture with two-dimensional leaves: full trilinear symmetry
    gp = coiso.random_graph_product(708, l=2, m=1)
    g = coiso.rng(709)
    for _ in range(8):
        x = g.normal(size=2) * 0.4
        blocks = gp.sff_numeric(x)
        a = blocks.a[:, 1:, 1:]
        worst = 0.0
        for al in range(2):
            worst = max(worst, float(np.max(np.abs(a[al] - a[al].T))))
            for be in range(2):
                for ga in range(2):
                    worst = max(worst, abs(a[al][be, ga] - a[be][al, ga]))
        assert worst < 1e-5
        assert blocks.symmetry_residual() < 1e-5
    _ok("7 SFF symmetries (3 fixtures x 32 points and product fixture, < 1e-5)")


def test_08_curvature_cross_check():
    for y in (sphere(2), cylinder(2), ellipsoid([1.0, 1.3]), hyperplane(2)):
        pts = y.sample_points(6, 808) if y.name != "hyperplane(x1=1.0)" else \
            np.array([[1.0, 0.3, -0.2, 0.5], [1.0, 0.0, 0.0, 0.0]])
        for p in pts:
            geo = point_geometry(y, p)
            br = transverse_curvature_bracket(geo)
            sf = transverse_curvature_sff(geo)
            assert np.max(np.abs(br.components - sf.components)) < 1e-3
            assert np.max(np.abs(sf.reassembled() - sf.components)) < 1e-6
            assert np.max(np.abs(sf.f20)) < 1e-6
            assert np.max(np.abs(sf.f02)) < 1e-6
    _ok("8 curvature cross-check (two routes < 1e-3, type (1,1), reassembly < 1e-6)")


def test_09_levi_form_values():
    p = np.array([1.0, 0.0, 0.0, 0.0])
    lv = levi_form(point_geometry(sphere(2), p))
    assert abs(lv.hermitian[0, 0] - 1.0) < 1e-4
    assert np.max(np.abs(levi_form(point_geometry(hyperplane(2), p)).hermitian)) < 1e-6
    assert np.max(np.abs(levi_form(point_geometry(cylinder(2), p)).hermitian)) < 1e-6
    # bracket coefficient against the Levi value, with the pinned factor -2
    # between the honest bracket and the 1/2-convention Levi form
    br = transverse_curvature_bracket(point_geometry(sphere(2), p))
    assert abs(br.components[0, 1, 0] / (-2.0) - lv.hermitian[0, 0]) < 1e-3
    _ok("9 Levi form (sphere 1, flat directions 0, bracket comparison < 1e-3)")


def test_10_minimality():
    assert leaf_minimality(
        point_geometry(hyperplane(2), np.array([1.0, 0.2, -0.1, 0.4]))).minimal
    y = sphere(2)
    for p in y.sample_points(5, 1010):
        res = leaf_minimality(point_geometry(y, p))
        assert res.minimal and res.curvature_norm < 1e-5
    y = ellipsoid([1.0, 1.3])
    p = y.project(np.array([0.7, 0.8, 0.5, 0.6]))
    res = leaf_minimality(point_geometry(y, p))
    assert (not res.minimal) and res.curvature_norm > 1e-2
    _ok("10 minimality (hyperplane/sphere true, ellipsoid (1,1.3) false)")


def test_11_fd_convergence():
    p = np.array([1.0, 0.0, 0.0, 0.0])

    def levi_entry(h):
        return levi_form(point_geometry(sphere(2, analytic=False, h=h), p)).hermitian[0, 0]

    def sff_entry(h):
        return point_geometry(sphere(2, analytic=False, h=h), p).blocks.a[0, 1, 1]

    for entry in (levi_entry, sff_entry):
        d1 = abs(entry(2e-3) - entry(1e-3))
        d2 = abs(entry(1e-3) - entry(5e-4))
        order = math.log2(d1 / d2)
        assert order >= 1.8, order
    _ok("11 finite-difference convergence (observed order >= 1.8)")


def test_12_determinism():
    specs = [
        {"kind": "invariance-suite",
         "parameters": {"n": 2, "k": 1, "trials": 3, "M": 128, "seed": 21}},
        {"kind": "hypersurface-report",
         "parameters": {"fixture": "sphere", "points": 4, "seed": 21}},
        {"kind": "minimality-scan",
         "parameters": {"fixture": "ellipsoid",
                        "fixture_params": {"semi_axes": [1.0, 1.3]},
                        "points": 4, "seed": 21}},
    ]
    for spec in specs:
        first = run(spec).to_json()
        second = run(spec).to_json()
        assert first == second
        assert json.loads(first)["passed"]
    _ok("12 determinism (byte-identical reports for identical seed)")
