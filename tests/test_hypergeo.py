"""Hypersurface geometry: splittings, curvature forms, minimality."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import coiso
from coiso import (
    ExtensionQualityError,
    InternalConsistencyError,
    DEFAULT,
    FIXTURES,
    LevelSetHypersurface,
    NumericalQualityError,
    UnnormalizedDefiningFunctionError,
    cylinder,
    ellipsoid,
    from_polynomial,
    hyperplane,
    is_integrable_prekahler,
    leaf_minimality,
    leafwise_mean_curvature,
    levi_form,
    point_geometry,
    sphere,
    tangent_splitting,
    transverse_curvature_bracket,
    transverse_curvature_sff,
)
from coiso.symplin import _standard_j
from reference_classify import spans_equal
from reference_sff import normal_convention_matrix

P_AXIS = np.array([1.0, 0.0, 0.0, 0.0])


def fixture_points(y, count, seed):
    return y.sample_points(count, seed)


# ---------------------------------------------------------------------------
# tangent splitting


def test_splitting_hyperplane():
    y = hyperplane(2)
    spl = tangent_splitting(y, P_AXIS)
    assert_allclose(spl.nu, [1, 0, 0, 0], atol=1e-12)
    assert_allclose(spl.x_rho, [0, 0, 1, 0], atol=1e-12)
    z2 = np.zeros((4, 2))
    z2[1, 0] = z2[3, 1] = 1.0
    assert spans_equal(spl.njf, coiso.Subspace(z2))


def test_splitting_sphere():
    y = sphere(2)
    spl = tangent_splitting(y, P_AXIS)
    assert_allclose(spl.nu, [1, 0, 0, 0], atol=1e-12)
    assert_allclose(spl.x_rho, [0, 0, 1, 0], atol=1e-12)
    assert spl.frame.k == 1
    # e_n along X_rho, f_n = -nu
    assert_allclose(spl.frame.e[:, 1], spl.x_rho, atol=1e-12)
    assert_allclose(spl.frame.f[:, 1], -spl.nu, atol=1e-12)


def test_splitting_cylinder_j_invariance():
    y = cylinder(2)
    spl = tangent_splitting(y, P_AXIS)
    j = _standard_j(2)
    jb = j @ spl.njf.basis
    resid = jb - spl.njf.project(jb)
    assert np.max(np.abs(resid)) < 1e-10


def test_splitting_rejects_bad_gradient_in_strict_mode():
    y = coiso.LevelSetHypersurface(
        n=2, rho=lambda x: float(2 * x[0]), grad=lambda x: np.array([2.0, 0, 0, 0]),
        hess=lambda x: np.zeros((4, 4)), strict=True)
    with pytest.raises(UnnormalizedDefiningFunctionError):
        tangent_splitting(y, np.array([0.5, 0, 0, 0]))


# ---------------------------------------------------------------------------
# second fundamental form


def test_sff_hyperplane_vanishes():
    y = hyperplane(2)
    blocks = point_geometry(y, P_AXIS).blocks
    assert np.max(np.abs(blocks.full)) < 1e-12


def test_sff_sphere_is_minus_identity_against_outward_normal():
    y = sphere(2)
    blocks = point_geometry(y, P_AXIS).blocks
    s_nu = normal_convention_matrix(blocks, y.unit_normal(P_AXIS))
    assert_allclose(s_nu, -np.eye(3), atol=1e-10)
    # a stack of points: -identity at each, and each member as on its own
    pts = y.sample_points(3, 11)
    stacked = normal_convention_matrix(point_geometry(y, pts).blocks, y.unit_normal(pts))
    assert stacked.shape == (3, 3, 3)
    for i, p in enumerate(pts):
        assert_allclose(stacked[i], -np.eye(3), atol=1e-10)
        member = normal_convention_matrix(point_geometry(y, p).blocks, y.unit_normal(p))
        assert np.array_equal(stacked[i], member)


def test_zero_sample_points_are_an_empty_stack():
    # no attempt is drawn, and the empty stack has every point's geometry
    for y in (sphere(2), ellipsoid([1.0, 1.5, 2.0]), cylinder(2)):
        g = coiso.rng(5)
        pts = y.sample_points(0, g)
        assert pts.shape == (0, y.dim) and pts.dtype == float
        assert g.normal() == coiso.rng(5).normal()
        assert point_geometry(y, pts).hessian.shape == (0, y.dim, y.dim)


def test_sff_ellipsoid_axis_principal_curvatures():
    a1, a2 = 1.0, 1.3
    y = ellipsoid([a1, a2])
    blocks = point_geometry(y, P_AXIS).blocks
    s_nu = normal_convention_matrix(blocks, y.unit_normal(P_AXIS))
    # classical oracle: level-set curvatures a1/a_j^2 at the a1 axis point
    expected = sorted([-a1 / a1 ** 2, -a1 / a2 ** 2, -a1 / a2 ** 2])
    assert_allclose(sorted(np.linalg.eigvalsh(s_nu)), expected, atol=1e-10)


def test_sff_symmetries_on_fixtures():
    for y in (sphere(2), cylinder(2), ellipsoid([1.0, 1.3]), sphere(3)):
        for p in fixture_points(y, 6, 2):
            blocks = point_geometry(y, p).blocks
            assert blocks.symmetry_residual() < 1e-6


# ---------------------------------------------------------------------------
# leafwise mean curvature


def test_mean_curvature_hyperplane():
    mc = leafwise_mean_curvature(point_geometry(hyperplane(2), P_AXIS))
    assert mc.alpha_norm < 1e-12
    assert np.max(np.abs(mc.h_vector)) < 1e-12


def test_mean_curvature_sphere():
    y = sphere(2)
    mc = leafwise_mean_curvature(point_geometry(y, P_AXIS))
    assert_allclose(mc.h_vector, -y.unit_normal(P_AXIS), atol=1e-10)
    assert abs(mc.alpha_norm - 1.0) < 1e-10
    assert mc.formula_residual < 1e-6


def test_mean_curvature_radius_scaling():
    for r in (0.5, 2.0):
        y = sphere(2, radius=r)
        p = np.array([r, 0.0, 0.0, 0.0])
        mc = leafwise_mean_curvature(point_geometry(y, p))
        assert abs(mc.alpha_norm - 1.0 / r) < 1e-9


def test_mean_curvature_cylinder():
    mc = leafwise_mean_curvature(point_geometry(cylinder(2), P_AXIS))
    assert abs(mc.alpha_norm - 1.0) < 1e-10


def test_mean_curvature_formula_consistency_everywhere():
    for y in (sphere(2), cylinder(2), ellipsoid([1.0, 1.3])):
        for p in fixture_points(y, 8, 5):
            mc = leafwise_mean_curvature(point_geometry(y, p))
            assert mc.formula_residual < 1e-6


# ---------------------------------------------------------------------------
# Levi form


def test_levi_hyperplane_flat():
    lv = levi_form(point_geometry(hyperplane(2), P_AXIS))
    assert np.max(np.abs(lv.hermitian)) < 1e-12
    assert not lv.positive_definite


def test_levi_sphere_unit_value():
    lv = levi_form(point_geometry(sphere(2), P_AXIS))
    assert_allclose(lv.two_form, [[0, 1], [-1, 0]], atol=1e-10)
    assert_allclose(lv.eigenvalues, [1.0, 1.0], atol=1e-10)
    assert lv.positive_definite


def test_levi_sphere_fd_route():
    y = sphere(2, analytic=False, h=1e-5)
    lv = levi_form(point_geometry(y, P_AXIS))
    assert_allclose(lv.eigenvalues, [1.0, 1.0], atol=1e-4)


def test_levi_cylinder_flat_directions():
    lv = levi_form(point_geometry(cylinder(2), P_AXIS))
    assert np.max(np.abs(lv.hermitian)) < 1e-10


# ---------------------------------------------------------------------------
# transverse curvature


def test_curvature_hyperplane_zero():
    y = hyperplane(2)
    geo = point_geometry(y, P_AXIS)
    br = transverse_curvature_bracket(geo)
    sf = transverse_curvature_sff(geo)
    assert np.max(np.abs(br.components)) < 1e-10
    assert np.max(np.abs(sf.components)) < 1e-10


def test_curvature_sphere_matches_levi_with_convention_factor():
    # the honest bracket doubles the 1/2-convention Levi value and points
    # against it in sign: F(X, JX) = -2 levi(X, JX)
    y = sphere(2)
    geo = point_geometry(y, P_AXIS)
    br = transverse_curvature_bracket(geo)
    lv = levi_form(geo)
    f_xjx = br.components[0, 1, 0]
    assert abs(f_xjx / (-2.0) - lv.hermitian[0, 0]) < 1e-3


def test_curvature_cylinder_flat_pair():
    br = transverse_curvature_bracket(point_geometry(cylinder(2), P_AXIS))
    assert np.max(np.abs(br.components)) < 1e-4


def test_curvature_two_routes_agree():
    for y in (sphere(2), cylinder(2), ellipsoid([1.0, 1.3]), sphere(3)):
        for p in fixture_points(y, 4, 7):
            geo = point_geometry(y, p)
            br = transverse_curvature_bracket(geo)
            sf = transverse_curvature_sff(geo)
            assert np.max(np.abs(br.components - sf.components)) < 1e-3


def test_curvature_extension_scheme_independence():
    y = sphere(2)
    p = y.project(np.array([0.4, 0.8, -0.2, 0.3]))
    geo = point_geometry(y, p)
    b1 = transverse_curvature_bracket(geo, scheme="projection")
    b2 = transverse_curvature_bracket(geo, scheme="transport")
    assert np.max(np.abs(b1.components - b2.components)) < 1e-3


def test_curvature_type_decomposition_reassembles():
    for y in (sphere(2), ellipsoid([1.0, 1.3]), sphere(3)):
        p = fixture_points(y, 1, 3)[0]
        sf = transverse_curvature_sff(point_geometry(y, p))
        assert np.max(np.abs(sf.reassembled() - sf.components)) < 1e-6


def test_curvature_is_type_11_on_fixtures():
    for y in (sphere(2), cylinder(2), ellipsoid([1.0, 1.3]), sphere(3),
              ellipsoid([1.0, 1.2, 0.8])):
        for p in fixture_points(y, 3, 9):
            sf = transverse_curvature_sff(point_geometry(y, p))
            assert np.max(np.abs(sf.f20)) < 1e-6
            assert np.max(np.abs(sf.f02)) < 1e-6
            assert coiso.is_integrable_prekahler(sf)


# ---------------------------------------------------------------------------
# minimality


def test_minimality_hyperplane():
    res = leaf_minimality(point_geometry(hyperplane(2), P_AXIS))
    assert res.minimal
    assert res.curvature_norm < 1e-10


def test_minimality_sphere_great_circle_leaves():
    y = sphere(2)
    for p in fixture_points(y, 5, 13):
        res = leaf_minimality(point_geometry(y, p))
        assert res.minimal
        assert res.curvature_norm < 1e-5


def test_minimality_ellipsoid_fails_generically():
    y = ellipsoid([1.0, 1.3])
    p = y.project(np.array([0.7, 0.8, 0.5, 0.6]))
    res = leaf_minimality(point_geometry(y, p))
    assert not res.minimal
    assert res.curvature_norm > 1e-2
    assert res.consistency_residual < 1e-4 * max(1.0, res.curvature_norm)


# ---------------------------------------------------------------------------
# one geometry record per point


def quartic(n):
    """A quadric in C^n with one quartic term, as a polynomial fixture."""
    terms = [{"exponents": [2 if i == c else 0 for i in range(2 * n)],
              "coeff": 1.0 / (1.0 + 0.1 * c) ** 2} for c in range(2 * n)]
    terms.append({"exponents": [4] + [0] * (2 * n - 1), "coeff": 0.3})
    return from_polynomial(n, terms)


def all_fixtures():
    for n in (2, 3, 4):
        yield sphere(n)
        yield hyperplane(n)
        yield cylinder(n)
        yield ellipsoid([1.0, 1.3, 0.8, 1.1][:n])
        yield quartic(n)


def assert_same(a, b):
    """Field by field, every array bit for bit."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif a is None:
        assert b is None
    else:
        assert np.array_equal(a, b), (a, b)


# every pointwise routine, as a function of the record
ROUTINES = [
    leafwise_mean_curvature,
    levi_form,
    transverse_curvature_sff,
    lambda geo: transverse_curvature_bracket(geo, scheme="projection"),
    lambda geo: transverse_curvature_bracket(geo, scheme="transport"),
    lambda geo: is_integrable_prekahler(transverse_curvature_sff(geo)),
    leaf_minimality,
]


def test_shared_record_matches_standalone_calls():
    for y in all_fixtures():
        p = y.sample_points(1, 31)[0]
        geo = point_geometry(y, p)
        spl = tangent_splitting(y, p)
        for field in ("nu", "x_rho"):
            assert np.array_equal(getattr(geo, field), getattr(spl, field))
        assert np.array_equal(geo.frame.e, spl.frame.e)
        assert np.array_equal(geo.normalized_hessian, y.hessian(p) / y.gradient_norm(p))
        shared = [fn(geo) for fn in ROUTINES]
        # each routine on a fresh record, last one first
        fresh = [fn(point_geometry(y, p)) for fn in reversed(ROUTINES)][::-1]
        for a, b in zip(shared, fresh, strict=True):
            assert_same(a, b)


def reassembled_by_loops(curv):
    """Reference: the type parts summed entry by entry."""
    two_k = curv.components.shape[0]
    k = two_k // 2
    nal = curv.components.shape[2]
    theta = np.zeros((k, two_k), dtype=complex)
    for a in range(k):
        theta[a, a] = 1.0
        theta[a, k + a] = 1j
    tbar = np.conj(theta)
    out = np.zeros((two_k, two_k, nal), dtype=complex)
    for i in range(two_k):
        for jj in range(two_k):
            for al in range(nal):
                out[i, jj, al] = sum(
                    curv.f20[a, b, al] * (theta[a, i] * theta[b, jj] - theta[a, jj] * theta[b, i])
                    + curv.f11[a, b, al] * (theta[a, i] * tbar[b, jj] - theta[a, jj] * tbar[b, i])
                    + curv.f02[a, b, al] * (tbar[a, i] * tbar[b, jj] - tbar[a, jj] * tbar[b, i])
                    for a in range(k) for b in range(k))
    return out.real


def test_reassembled_matches_loop_reference():
    for y in (sphere(2), ellipsoid([1.0, 1.3]), ellipsoid([1.0, 1.2, 0.8]), quartic(3),
              ellipsoid([1.0, 1.3, 0.8, 1.1])):
        for p in fixture_points(y, 2, 41):
            sf = transverse_curvature_sff(point_geometry(y, p))
            assert np.max(np.abs(sf.reassembled() - reassembled_by_loops(sf))) <= 1e-15


def test_reassembled_rejects_corrupted_type_part():
    y = ellipsoid([1.0, 1.2, 0.8])
    sf = transverse_curvature_sff(point_geometry(y, fixture_points(y, 1, 43)[0]))
    bad = sf.f20.copy()
    bad[0, 1, 0] += 1.0
    with pytest.raises(InternalConsistencyError):
        dataclasses.replace(sf, f20=bad).reassembled()


def test_bracket_projects_twice_per_basis_vector(monkeypatch):
    calls = []
    project = LevelSetHypersurface.project

    def counting(self, x, *args, **kwargs):
        calls.append(np.shape(x)[:-1])
        return project(self, x, *args, **kwargs)

    for n in (2, 3, 4):
        y = ellipsoid([1.0, 1.3, 0.8, 1.1][:n])
        geo = point_geometry(y, fixture_points(y, 1, 47)[0])
        two_k = geo.frame.h_vectors().shape[1]
        for scheme in ("projection", "transport"):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(LevelSetHypersurface, "project", counting)
                transverse_curvature_bracket(geo, scheme=scheme)
            # one stacked projection: the two steps along each basis vector
            assert calls == [(two_k, 2)]


# ---------------------------------------------------------------------------
# frame independence of scalar outputs


def test_scalar_outputs_frame_independent():
    y = ellipsoid([1.0, 1.3])
    p = y.project(np.array([0.3, 0.9, -0.4, 0.5]))
    spl = tangent_splitting(y, p)
    g = coiso.rng(17)
    geo = point_geometry(y, p)
    base_alpha = leafwise_mean_curvature(geo).alpha_norm
    base_levi = sorted(levi_form(geo).eigenvalues)
    base_f = transverse_curvature_sff(geo).norm()
    for _ in range(5):
        phase = g.uniform(0, 2 * np.pi)
        sign = g.choice([-1.0, 1.0])
        e_new = np.concatenate([
            np.cos(phase) * spl.frame.e[:, :1] + np.sin(phase) * spl.frame.f[:, :1],
            sign * spl.frame.e[:, 1:],
        ], axis=1)
        fr = coiso.AdaptedFrame(k=1, e=e_new, f=_standard_j(2) @ e_new)
        mc = leafwise_mean_curvature(geo.in_frame(fr))
        assert abs(mc.alpha_norm - base_alpha) < 1e-6
        lv = levi_form(geo.in_frame(fr))
        assert np.max(np.abs(np.array(sorted(lv.eigenvalues)) - base_levi)) < 1e-6
        sf = transverse_curvature_sff(geo.in_frame(fr))
        assert abs(sf.norm() - base_f) < 1e-6


# ---------------------------------------------------------------------------
# finite-difference convergence


def levi_entry(h):
    y = sphere(2, analytic=False, h=h)
    return levi_form(point_geometry(y, P_AXIS)).hermitian[0, 0]


def sff_entry(h):
    y = sphere(2, analytic=False, h=h)
    return point_geometry(y, P_AXIS).blocks.a[0, 0, 0]


def test_fd_convergence_order():
    for entry in (levi_entry, sff_entry):
        d1 = abs(entry(2e-3) - entry(1e-3))
        d2 = abs(entry(1e-3) - entry(5e-4))
        order = math.log2(d1 / d2)
        assert order >= 1.8


# ---------------------------------------------------------------------------
# polynomial defining functions


def test_polynomial_fixture_matches_hyperplane():
    terms = [{"exponents": [1, 0, 0, 0], "coeff": 1.0}]
    y = from_polynomial(2, terms)
    blocks = point_geometry(y, P_AXIS).blocks
    assert np.max(np.abs(blocks.full)) < 1e-12
    lv = levi_form(point_geometry(y, P_AXIS))
    assert np.max(np.abs(lv.hermitian)) < 1e-12


def test_polynomial_quadric_matches_ellipsoid():
    a1, a2 = 1.0, 1.3
    terms = [
        {"exponents": [2, 0, 0, 0], "coeff": 1 / a1 ** 2},
        {"exponents": [0, 2, 0, 0], "coeff": 1 / a2 ** 2},
        {"exponents": [0, 0, 2, 0], "coeff": 1 / a1 ** 2},
        {"exponents": [0, 0, 0, 2], "coeff": 1 / a2 ** 2},
    ]
    y = from_polynomial(2, terms)
    ref = ellipsoid([a1, a2])
    p = ref.project(np.array([0.7, 0.8, 0.5, 0.6]))
    got = point_geometry(y, p).blocks.full
    want = point_geometry(ref, p).blocks.full
    assert_allclose(got, want, atol=1e-9)


def polynomial_derivatives_per_call(n, terms, x):
    """Reference: gradient and Hessian with the exponent tables rebuilt
    on every call."""
    exps = np.stack([np.asarray(t["exponents"], dtype=int) for t in terms])
    coefs = np.asarray([float(t["coeff"]) for t in terms])
    grad = np.zeros(2 * n)
    for i in range(2 * n):
        mask = exps[:, i] > 0
        if not np.any(mask):
            continue
        e2 = exps[mask].copy()
        c2 = coefs[mask] * e2[:, i]
        e2[:, i] -= 1
        grad[i] = np.sum(c2 * np.prod(x ** e2, axis=1))
    hess = np.zeros((2 * n, 2 * n))
    for i in range(2 * n):
        for jj in range(i, 2 * n):
            e2 = exps.copy().astype(float)
            c2 = coefs * exps[:, i]
            e2[:, i] -= 1
            c2 = c2 * np.where(e2[:, jj] > -1, e2[:, jj], 0)
            e2[:, jj] -= 1
            mask = c2 != 0
            val = np.sum(c2[mask] * np.prod(x ** e2[mask], axis=1)) if np.any(mask) else 0.0
            hess[i, jj] = hess[jj, i] = val
    return grad, hess


def test_polynomial_derivative_tables_match_per_call_reference():
    g = coiso.rng(53)
    for n in (1, 2, 3):
        high = 6 // (2 * n) + 1    # keeps the degree at most 6
        terms = [{"exponents": [int(e) for e in g.integers(0, high, size=2 * n)],
                  "coeff": float(g.normal())} for _ in range(5)]
        terms.append({"exponents": [0] * (2 * n), "coeff": 0.5})
        y = from_polynomial(n, terms)
        for x in g.normal(size=(4, 2 * n)):
            grad, hess = polynomial_derivatives_per_call(n, terms, x)
            assert np.array_equal(y.gradient(x), grad)
            assert np.array_equal(y.hessian(x), hess)


def test_polynomial_degree_bound():
    with pytest.raises(ValueError):
        from_polynomial(1, [{"exponents": [7, 0], "coeff": 1.0}])


# ---------------------------------------------------------------------------
# product fixture: multi-dimensional leaves


def test_product_numeric_matches_cubic_oracle():
    gp = coiso.random_graph_product(11, l=2, m=1)
    for x in (np.array([0.2, -0.3]), np.array([-0.1, 0.4])):
        num = gp.sff_numeric(x)
        orc = gp.sff_oracle(x)
        assert np.max(np.abs(num.full - orc.full)) < 1e-8


@pytest.mark.parametrize("l, m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_product_cubic_oracle_matches_its_entrywise_contraction(l, m):
    # full[a, m+b, m+c] = sum_ijk cubic[i,j,k] minv[i,b] minv[j,c] minv[k,a],
    # one contraction per entry as the reference
    for seed in range(5):
        gp = coiso.random_graph_product(seed, l=l, m=m)
        x = 0.3 * coiso.rng(seed, 1).normal(size=l)
        minv = coiso.hypergeo._inverse_sqrt_metric(gp.hess_f(x))
        want = np.zeros((l, l + 2 * m, l + 2 * m))
        for a in range(l):
            for b in range(l):
                for c in range(l):
                    want[a, m + b, m + c] = np.einsum(
                        "ijk,i,j,k->", gp.cubic, minv[:, b], minv[:, c], minv[:, a])
        assert_allclose(gp.sff_oracle(x).full, want, rtol=0, atol=1e-13)


def test_inverse_sqrt_metric_matches_sqrtm():
    # (1 + hf^2)^(-1/2) from one eigh of hf against scipy's Schur sqrtm
    for seed in range(20):
        g = coiso.rng(seed)
        a = g.normal(size=(1 + seed % 4,) * 2)
        hf = (a + a.T) * (0.5 + seed % 3)
        got = coiso.hypergeo._inverse_sqrt_metric(hf)
        metric = np.eye(len(hf)) + hf @ hf
        assert_allclose(got, np.linalg.inv(scipy.linalg.sqrtm(metric).real), rtol=0, atol=1e-13)
        assert_allclose(got @ metric @ got, np.eye(len(hf)), rtol=0, atol=1e-13)


def test_product_leaf_trilinear_symmetry():
    # <S(X,Y), JZ> symmetric under any permutation of the leaf vectors,
    # including the pairing index
    gp = coiso.random_graph_product(23, l=2, m=1)
    blocks = gp.sff_numeric(np.array([0.15, 0.25]))
    a = blocks.a[:, 1:, 1:]   # normals alpha x kernel (beta, gamma)
    l = a.shape[0]
    worst = 0.0
    for al in range(l):
        worst = max(worst, float(np.max(np.abs(a[al] - a[al].T))))
        for be in range(l):
            for ga in range(l):
                worst = max(worst, abs(a[al][be, ga] - a[be][al, ga]))
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# the point axis is a stack axis: a point's results do not depend on its stack


@st.composite
def fixture_specs(draw):
    """A ``FIXTURES`` name with parameters, or the FD-derivative sphere."""
    name = draw(st.sampled_from(sorted(FIXTURES) + ["fd-sphere"]))
    n = draw(st.integers(1, 4))
    if name == "ellipsoid":
        return name, {"semi_axes": draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4))}
    if name == "polynomial":
        n = draw(st.integers(1, 3))
        terms = []
        for _ in range(draw(st.integers(1, 6))):
            exponents = [0] * (2 * n)
            for _ in range(draw(st.integers(0, 6))):
                exponents[draw(st.integers(0, 2 * n - 1))] += 1
            terms.append({"coeff": draw(st.floats(-2.0, 2.0)), "exponents": exponents})
        return name, {"n": n, "terms": terms}
    return name, {"n": n, "r": draw(st.floats(0.3, 2.0))}


def build_fixture(name, params):
    if name == "fd-sphere":
        return sphere(params["n"], radius=params["r"], analytic=False)
    return FIXTURES[name](params)


@settings(max_examples=80)
@given(fixture_specs(), st.data())
def test_stacked_oracles_equal_row_by_row_evaluation(spec, data):
    y = build_fixture(*spec)
    stack = data.draw(st.sampled_from([(1,), (5,), (2, 3)]))
    x = data.draw(hnp.arrays(float, stack + (y.dim,), elements=st.floats(-2.0, 2.0)))
    rows = x.reshape(-1, y.dim)
    with np.errstate(all="ignore"):
        for method in (y.value, y.gradient, y.hessian):
            stacked = method(x)
            single = np.stack([method(row) for row in rows])
            assert np.array_equal(stacked.reshape(single.shape), single, equal_nan=True)


def stacked_fixtures():
    yield from all_fixtures()
    yield sphere(1, radius=0.7)
    yield cylinder(1, radius=1.3)
    yield sphere(2, analytic=False)
    yield sphere(3, radius=1.2, analytic=False)


def assert_member(stacked, single, i):
    """Member i of a stacked result equals the only member of a one-point
    stack, field by field and bit for bit."""
    if isinstance(stacked, (LevelSetHypersurface, coiso.Tolerances)):
        assert stacked is single
    elif dataclasses.is_dataclass(stacked):
        assert type(stacked) is type(single)
        for f in dataclasses.fields(stacked):
            assert_member(getattr(stacked, f.name), getattr(single, f.name), i)
    elif stacked is None:
        assert single is None
    elif isinstance(stacked, int):
        assert stacked == single
    else:
        assert np.array_equal(np.asarray(stacked)[i], np.asarray(single)[0])


def test_point_geometry_and_routines_equal_one_point_stacks():
    for y in stacked_fixtures():
        pts = y.sample_points(5, 59)
        geo = point_geometry(y, pts)
        results = [fn(geo) for fn in ROUTINES]
        for i in range(len(pts)):
            one = point_geometry(y, pts[i:i + 1])
            assert_member(geo, one, i)
            for stacked, single in zip(results, [fn(one) for fn in ROUTINES], strict=True):
                assert_member(stacked, single, i)


def half_space():
    """rho = max(x_1, 0)^2: the level set x_1 = 1, and a zero gradient on
    the half-space x_1 <= 0, where a projection stops."""

    def rho(x):
        return np.maximum(x[..., 0], 0.0) ** 2

    def grad(x):
        g = np.zeros(x.shape)
        g[..., 0] = 2.0 * np.maximum(x[..., 0], 0.0)
        return g

    return LevelSetHypersurface(n=2, rho=rho, grad=grad, hess=None, strict=False,
                                name="half-space")


def replayed_sample_points(y, count, gen):
    """Reference: one attempt after another, each projected on its own;
    returns the points and the number of attempts."""
    pts, attempts = [], 0
    while len(pts) < count:
        attempts += 1
        x0 = gen.normal(size=y.dim) * coiso.hypergeo.SAMPLE_OFFSET
        try:
            x = y.project(x0 + gen.normal(size=y.dim))
        except UnnormalizedDefiningFunctionError:
            continue
        if y.on_surface(x, 1e-9):
            pts.append(x)
    return np.stack(pts), attempts


def test_stacked_sample_points_equal_a_point_by_point_replay():
    for y in list(stacked_fixtures()) + [half_space()]:
        gen, same = coiso.rng(67), coiso.rng(67)
        pts = y.sample_points(7, gen)
        replay, attempts = replayed_sample_points(y, 7, same)
        assert np.array_equal(pts, replay)
        # both read the generator equally far
        assert np.array_equal(gen.normal(size=8), same.normal(size=8))
        # the half-space misses about half its attempts, the others none
        assert (attempts > 7) == (y.name == "half-space")


def test_projection_stops_at_a_zero_gradient():
    y = half_space()
    good = np.array([0.4, 0.1, -0.3, 0.2])
    flat = np.array([-0.4, 0.1, -0.3, 0.2])
    assert y.on_surface(y.project(good), 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnnormalizedDefiningFunctionError, match="stack member 1"):
            y.project(np.stack([good, flat, good]))
        with pytest.raises(UnnormalizedDefiningFunctionError):
            y.project(flat)


def test_sff_symmetry_check_reads_the_callers_tolerances():
    y = ellipsoid([1.0, 1.3])
    pts = y.sample_points(3, 61)
    geo = point_geometry(y, pts, DEFAULT)
    assert np.all(geo.blocks.symmetry_residual() <= DEFAULT.sff_symmetry)
    strict = DEFAULT.replace(sff_symmetry=-1.0)
    with pytest.raises(NumericalQualityError, match="stack member 0"):
        point_geometry(y, pts, strict)
    with pytest.raises(NumericalQualityError):
        dataclasses.replace(geo, tol=strict).in_frame(geo.frame)
