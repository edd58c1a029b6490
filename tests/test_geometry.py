"""Surface geometry engine against frozen closed-form values.

The reference numbers were computed symbolically (exact rationals) for
the two-circle surface in R^6 — the real part of the doubled degree-
(1,2,3) curve — before this implementation existed:

    at (1, 0):  f  = (1, 0, 1, 0, 2/3, 0)
                f_x = (1, 0, 2, 0, 2, 0),  f_y = (0, -1, 0, -2, 0, -2)
                E = G = 9, F = 0
    Gauss curvature:  K = -8 / (1 + 2(x^2 + y^2))^4,  K(0,0) = -8
"""

import math

import numpy as np
import pytest
import sympy as sp

from isopedal import geometry, jets
from isopedal.config import RunConfig
from isopedal.geometry import (
    FRAME_EPS,
    RANK_SV_RTOL,
    SurfaceJets,
    first_normal_rank,
    hodge_relation_residuals,
)
from isopedal.grid import Grid
from isopedal.jets import Jet, JetVec, jet_gram_schmidt
from isopedal.pedal import SurfacePipeline
from isopedal.verify import run_all
from isopedal.weierstrass import (
    IsotropicSpec,
    SurfaceEvaluator,
    preset_curve,
    surface_evaluator,
    w_generate,
)
from oracles import (
    ck_first_level_pair,
    complex_tangent_coeffs,
    coordinate,
    intrinsic_gauss,
    isotropy_order,
    jet_connection,
    projected_fzz,
    third_form_recursive_defect,
    uncapped_second_order,
    unit_delta_wirtinger,
)


def holo3():
    return surface_evaluator(preset_curve("holo3"))


def closed_form_K(x, y):
    return -8.0 / (1.0 + 2.0 * (x * x + y * y)) ** 4


def test_frozen_position_and_metric_at_probe():
    ev = holo3()
    b = SurfaceJets(ev, np.array([1.0]), np.array([0.0]), 3)
    f = b.f.value().real[:, 0]
    assert np.max(np.abs(f - np.array([1, 0, 1, 0, 2 / 3, 0]))) < 1e-14
    fx = b.partial(1, 0).value().real[:, 0]
    fy = b.partial(0, 1).value().real[:, 0]
    assert np.max(np.abs(fx - np.array([1, 0, 2, 0, 2, 0]))) < 1e-14
    assert np.max(np.abs(fy - np.array([0, -1, 0, -2, 0, -2]))) < 1e-14
    E, F, G = b.E0[0], b.F0[0], b.G0[0]
    assert abs(E - 9) < 1e-12 and abs(G - 9) < 1e-12 and abs(F) < 1e-12


def test_gauss_curvature_closed_form_on_grid():
    ev = holo3()
    grid = Grid()
    x, y = grid.points()
    b = SurfaceJets(ev, x, y, 3)
    K = b.curvature_scalars["K"]
    want = closed_form_K(x, y)
    assert np.max(np.abs(K - want) / np.abs(want)) < 1e-10


def test_gauss_curvature_at_origin():
    b = SurfaceJets(holo3(), np.array([0.0, 1.0]), np.array([0.0, 0.0]), 4)
    K = b.curvature_scalars["K"]
    assert abs(K[0] + 8.0) < 1e-12
    assert abs(K[1] + 8.0 / 81.0) < 1e-12


def test_extrinsic_matches_intrinsic_gauss():
    ev = holo3()
    x = np.array([0.5, 0.9, 1.2])
    y = np.array([0.8, 0.35, 1.1])
    b = SurfaceJets(ev, x, y, 4)
    K_ext = b.curvature_scalars["K"]
    K_int = intrinsic_gauss(b)
    assert np.max(np.abs(K_ext - K_int)) < 1e-8 * np.max(np.abs(K_ext))


def test_minimal_surface_has_vanishing_mean_curvature():
    ev = holo3()
    grid = Grid(nx=9, ny=9)
    x, y = grid.points()
    b = SurfaceJets(ev, x, y, 3)
    a11, a12, a22 = b.second_fundamental
    H = (np.linalg.norm(a11.value().real + a22.value().real, axis=0)) / 2
    scale = np.linalg.norm(a11.value().real, axis=0) + np.linalg.norm(a12.value().real, axis=0)
    assert np.max(H / np.maximum(scale, 1e-300)) < 1e-12


def test_conformal_parametrization_is_isothermal():
    # real part of a holomorphic curve in isotropic position: E = G, F = 0
    ev = holo3()
    x = np.array([0.4, 1.3])
    y = np.array([0.6, 0.2])
    b = SurfaceJets(ev, x, y, 2)
    E, F, G = b.E0, b.F0, b.G0
    assert np.max(np.abs(E - G)) < 1e-12 * np.max(E)
    assert np.max(np.abs(F)) < 1e-12 * np.max(E)


def test_two_circles_for_two_isotropic_preset():
    ev = holo3()
    x = np.array([0.7, 1.0])
    y = np.array([0.5, 0.9])
    order, defects = isotropy_order(ev, x, y, order=4)
    assert order == 2
    assert defects[0] < 1e-12 and defects[1] < 1e-12


def test_three_circles_for_higher_preset():
    ev = surface_evaluator(preset_curve("holo4"))
    x = np.array([0.7])
    y = np.array([0.5])
    order, _ = isotropy_order(ev, x, y, order=5)
    assert order == 3


def test_noniso_preset_has_one_circle_only():
    ev = surface_evaluator(preset_curve("noniso"))
    x = np.array([0.7, 1.1])
    y = np.array([0.5, 0.4])
    order, defects = isotropy_order(ev, x, y, order=4)
    assert order == 1
    assert defects[0] < 1e-12
    assert defects[1] > 1e-3  # genuinely elliptic second ellipse


def test_ellipse_samples_match_flag_levels():
    b = SurfaceJets(holo3(), np.array([0.8]), np.array([0.6]), 4)
    d1, lam1 = b.circle_defect(1)
    d2, lam2 = b.circle_defect(2)
    assert b.flag(2)[1].valid[0]
    assert d1[0] < 1e-12
    assert d2[0] < 1e-12
    assert abs(lam1[0] - 1.0) < 1e-12  # circles: axis ratio 1
    assert abs(lam2[0] - 1.0) < 1e-12


def test_wintgen_equality_for_superconformal_minimal():
    # K + |K_N| <= ||H||^2 with equality iff the first ellipse is a circle
    b = SurfaceJets(holo3(), np.array([0.9]), np.array([0.4]), 4)
    sc = b.curvature_scalars
    K, KN, H2 = sc["K"][0], sc["K_N"][0], sc["H_norm_sq"][0]
    assert abs(K + abs(KN) - H2) < 1e-12 * max(abs(K), 1.0)


def test_second_fundamental_traceless_split():
    b = SurfaceJets(holo3(), np.array([1.1]), np.array([0.3]), 4)
    v11 = b.second_fundamental[0].value().real[:, 0]
    H = b.mean_curvature().value().real[:, 0]
    xi1, xi2 = (xi.value().real[:, 0] for xi in b.traceless_second())
    assert np.max(np.abs(H)) < 1e-12 * np.max(np.abs(v11))
    assert np.max(np.abs(xi1 - v11)) < 1e-12 * np.max(np.abs(v11))
    # circle condition: ||xi1|| = ||xi2||, <xi1, xi2> = 0
    assert abs(np.dot(xi1, xi2)) < 1e-12 * np.dot(xi1, xi1)
    assert abs(np.dot(xi1, xi1) - np.dot(xi2, xi2)) < 1e-12 * np.dot(xi1, xi1)


def test_first_normal_rank_two_for_minimal_immersion():
    ev = holo3()
    grid = Grid(nx=5, ny=5)
    x, y = grid.points()
    b = SurfaceJets(ev, x, y, 2)
    rank = first_normal_rank(b)
    assert np.all(rank == 2)


def svd_rank(mat):
    """Reference rank of each matrix of the stack `mat` (rows, cols,
    *batch): its singular values above RANK_SV_RTOL of the largest."""
    sv = np.linalg.svd(np.moveaxis(mat, (0, 1), (-2, -1)), compute_uv=False)
    return np.sum(sv > RANK_SV_RTOL * np.maximum(sv[..., :1], 1e-300), axis=-1)


# singular values of the synthetic matrices, relative to the largest: the
# cut RANK_SV_RTOL = 1e-7 sits between 1e-5 and 1e-9
SV_RATIOS = (1.0, 1e-3, 1e-5, 1e-9, 1e-12, 0.0)


def gapped(rng, rows, cols):
    """A (rows, cols) matrix whose singular values are drawn from
    SV_RATIOS times a random scale."""
    k = min(rows, cols)
    u = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, k)))[0]
    sv = np.concatenate([[1.0], rng.choice(SV_RATIOS, k - 1)]) * 10.0 ** rng.uniform(-8, 8)
    return (u * sv) @ v.T


def synthetic_stack(rng, rows, cols, count):
    """`count` gapped matrices, then one with a zero first column, one with
    a duplicated column and an all-zero one, stacked as (rows, cols, *)."""
    mats = [gapped(rng, rows, cols) for _ in range(count)]
    if cols > 1:
        a = gapped(rng, rows, cols - 1)
        mats += [np.column_stack([np.zeros(rows), a]), np.column_stack([a, a[:, :1]])]
    return np.stack(mats + [np.zeros((rows, cols))], axis=-1)


def test_rank_equals_the_svd_rank_on_synthetic_stacks():
    rng = np.random.default_rng(20261020)
    for rows in (4, 5, 8, 13, 24):
        for cols in range(1, 6):
            mat = synthetic_stack(rng, rows, cols, 40)
            want = svd_rank(mat)
            assert np.array_equal(geometry._rank(mat), want), (rows, cols)
            assert np.array_equal(geometry._rank(mat.astype(np.longdouble)), want), (rows, cols)


def test_rank_of_a_non_finite_matrix_is_zero():
    mat = np.ones((6, 3, 3))
    mat[2, 1, 0], mat[0, 0, 1] = np.nan, np.inf
    assert geometry._rank(mat).tolist() == [0, 0, 1]


@pytest.mark.parametrize("preset", ["holo3", "holo4", "noniso"])
def test_rank_equals_the_svd_rank_on_a_run(monkeypatch, preset):
    rank, calls = geometry._rank, []

    def spy(mat):
        got = rank(mat)
        calls.append(np.array_equal(got, svd_rank(mat)))
        return got

    monkeypatch.setattr(geometry, "_rank", spy)
    run_all(RunConfig.from_document({"seed_preset": preset}))
    assert calls and all(calls)


def test_hodge_relations_select_minus_convention():
    ev = holo3()
    x = np.array([0.6, 1.0, 1.2])
    y = np.array([0.8, 0.4, 1.1])
    b = SurfaceJets(ev, x, y, 4)
    res = hodge_relation_residuals(b)
    assert np.max(res["minus"]) < 1e-10
    assert np.min(res["plus"]) > 1e-1
    assert np.max(np.abs(b.flag(2)[1].lam - 1.0)) < 1e-10


R5_SPEC = IsotropicSpec(ambient_dim=5, isotropy_order=1, alpha0=[[1, 0, 0.5]], betas=[[1], [0, 1]])


def test_hodge_relations_need_two_rank_2_normal_planes():
    # in R^5 the second normal plane has rank 1: one form per N_1 frame
    b = SurfaceJets(surface_evaluator(w_generate(R5_SPEC)), np.array([0.6]), np.array([0.8]), 4)
    assert b.connection_forms()["omega"].shape == (2, 2, 1, 1)
    with pytest.raises(ValueError, match="two rank-2 normal bundles"):
        hodge_relation_residuals(b)


@pytest.mark.parametrize("name", ["holo3", "holo4"])
def test_connection_forms_and_hodge_relations_do_not_depend_on_the_order(name):
    # N_1's frames carry one derivative at every order d >= 3, and the
    # levels past it are values
    got = []
    for order in (3, 4):
        b = SurfacePipeline(surface_evaluator(preset_curve(name)), Grid(nx=7, ny=7), order).base
        conn, hodge = b.connection_forms(), hodge_relation_residuals(b)
        assert [fr.order for lev in b.flag(2) for fr in lev.frames] == [1, 1, 0, 0]
        got.append([conn[k].tobytes() for k in ("omega", "omega_dz", "valid")]
                   + [hodge[k].tobytes() for k in ("minus", "plus", "valid")])
    assert got[0] == got[1]


def test_tangent_coefficients_express_the_frame_as_jets():
    # a polynomial map that is not isothermal: <f_x, f_y> = 2x + xy + 2x^3 y
    def fn(x, y, order):
        X, Y = coordinate(x, 0, order), coordinate(y, 1, order)
        return JetVec([X, Y + X * X, X * Y, (X * X) * Y]), True

    b = SurfaceJets(SurfaceEvaluator(4, "polynomial", fn), np.array([0.4, 0.9]),
                    np.array([0.7, -0.3]), 4)
    assert np.all(b.valid)
    fx, fy = b.partial(1, 0), b.partial(0, 1)
    assert np.min(np.abs(fx.dot(fy).value())) > 0.1
    a, bb, c = b.tangent_coeff_jets
    # every jet coefficient a, b and c carry, not just the values
    for frame, combination in ((b.e1, fx.scale(a)), (b.e2, fx.scale(bb) + fy.scale(c))):
        assert combination.order == b.second_order == 1
        assert np.max(np.abs(frame.truncate(1).t - combination.t)) < 1e-12


def test_connection_omega_antisymmetric():
    # <D f3, f5> = -<f3, D f5>, with N_2's frames differentiated as jets:
    # orthonormalised from the complex route's pair, which keeps order 1
    b = SurfaceJets(holo3(), np.array([0.7, 1.1]), np.array([0.6, 0.9]), 4)
    n1, n2 = b.flag(2)
    u, v, _, valid = complex_route_level(b, 2)
    assert np.all(valid)
    jet_n2, _, _ = jet_gram_schmidt([u, v], guard=valid, eps=FRAME_EPS)
    a, bb, c = (t.value() for t in b.tangent_coeff_jets)
    om = b.connection_forms()["omega"]
    for j, f in enumerate(jet_n2):
        assert f.order == 1
        dx, dy = f.dx().value(), f.dy().value()
        for i, d in enumerate((dx * a, dx * bb + dy * c)):
            for k, e in enumerate(n1.frames):
                want = -np.sum(e.value() * d, axis=0)
                assert np.max(np.abs(om[i, k, j] - want)) < 1e-12 * np.max(np.abs(om))


def test_third_form_two_routes_agree():
    ev = holo3()
    x = np.array([0.5, 1.0])
    y = np.array([0.7, 1.2])
    b = SurfaceJets(ev, x, y, 4)
    assert np.max(third_form_recursive_defect(b)) < 1e-10


def test_degenerate_point_is_not_immersed():
    # doubled curve with derivative vanishing at the origin
    from isopedal.weierstrass import holomorphic_curve

    ev = surface_evaluator(holomorphic_curve([[0, 0, 1]]))  # w = z^2
    b = SurfaceJets(ev, np.array([0.0, 0.5]), np.array([0.0, 0.5]), 4)
    assert not b.immersed[0] and b.immersed[1]
    assert not b.valid[0]


def test_geometry_sample_roundtrip():
    b = SurfaceJets(holo3(), np.array([0.9]), np.array([0.9]), 4)
    assert b.valid[0]
    assert abs(b.curvature_scalars["K"][0] - closed_form_K(0.9, 0.9)) < 1e-10
    assert b.circle_defect(1)[0][0] < 1e-12
    lev2 = b.flag(2)[1]
    assert len(lev2.frames) == 2 and lev2.valid[0]
    d2, lam2 = b.circle_defect(2)
    assert d2[0] < 1e-12
    assert abs(lam2[0] - 1.0) < 1e-10
    E, F, G = b.E0[0], b.F0[0], b.G0[0]
    assert abs(E - G) < 1e-10 * abs(E) and abs(F) < 1e-10 * abs(E)


def complex_route_level(bundle, r):
    """(u, v, rank, valid) of flag level r built by the complex route: each
    partial projected off the osculating frames of the bundle's lower
    levels, then weighted by the complex coefficient jets
    c_k = C(s, k) cx^(s-k) cy^k, with u = 2 Re A and v = -2 Im A."""
    s = r + 1
    levels = bundle.flag(r)
    frames = [bundle.e1, bundle.e2] + [e for lev in levels[:r - 1] for e in lev.frames]
    projs = [bundle.partial(s - k, k).project_off(frames) for k in range(s + 1)]
    rank = svd_rank(np.stack([p.value() for p in projs], axis=1))
    cx, cy = complex_tangent_coeffs(bundle)
    cx_pow = [Jet.const(np.ones(bundle.batch), cx.order)]
    cy_pow = [Jet.const(np.ones(bundle.batch), cy.order)]
    for _ in range(s):
        cx_pow.append(cx_pow[-1] * cx)
        cy_pow.append(cy_pow[-1] * cy)
    A = None
    for k in range(s + 1):
        term = projs[k].scale((cx_pow[s - k] * cy_pow[k]).scale(math.comb(s, k)))
        A = term if A is None else A + term
    u, v = A.real().scale(2.0), A.imag().scale(-2.0)
    expected = len(levels[r - 1].frames)
    valid = (levels[r - 2].valid if r > 1 else bundle.valid) & (rank == expected)
    _, _, ok = jet_gram_schmidt([u, v][:expected], guard=valid, eps=FRAME_EPS)
    return u, v, rank, valid & ok


@pytest.mark.parametrize("which", ["surface", "pedal"])
def test_flag_pair_equals_the_complex_route(monkeypatch, which):
    # the pedal is not minimal, so its projected partials keep their lower
    # frequencies and the pair is not the ellipse of a minimal surface
    pipe = SurfacePipeline(holo3(), Grid(x0=-0.5, x1=0.5, y0=-0.5, y1=0.5, nx=5, ny=5), 5)
    bundle = pipe.base if which == "surface" else pipe.pedal
    seen = []  # (vectors, guard) of each level's Gram-Schmidt
    gram_schmidt = geometry.jet_gram_schmidt
    monkeypatch.setattr(geometry, "jet_gram_schmidt", lambda vecs, guard, eps: (
        seen.append((vecs, guard)) or gram_schmidt(vecs, guard=guard, eps=eps)))
    levels = bundle.flag(2)
    assert which == "pedal" or all(np.sum(lev.valid) >= 20 for lev in levels)
    for r, ((pair, guard), lev) in enumerate(zip(seen, levels), start=1):
        u, v, rank, valid = complex_route_level(bundle, r)
        assert which == "surface" or np.any(rank > len(lev.frames))
        for got, want in zip(pair, (u, v)):
            # levels past the first are values
            assert got.order == (bundle.second_order if r == 1 else 0)
            want = want.truncate(got.order)
            assert got.t.dtype == np.float64
            scale = np.max(np.abs(want.t), axis=(0, 1))
            assert np.all(np.max(np.abs(got.t - want.t), axis=(0, 1)) <= 1e-12 * scale)
        prev = bundle.valid if r == 1 else levels[r - 2].valid
        assert np.array_equal(guard, prev & (rank == len(lev.frames)))
        assert np.array_equal(lev.valid, valid)


SECOND_ORDER_SURFACES = ["holo3", "holo4", "noniso", "holo3-pedal"]


def second_order_bundle(name):
    """A preset's bundle, or (name ending in -pedal) its pedal's, which is
    not minimal, on a 5 x 5 grid at order 4."""
    preset, _, pedal = name.partition("-")
    pipe = SurfacePipeline(surface_evaluator(preset_curve(preset)), Grid(nx=5, ny=5), 4)
    return pipe.pedal if pedal else pipe.base


@pytest.mark.parametrize("name", SECOND_ORDER_SURFACES)
def test_first_flag_level_pair_is_the_ck_projection(monkeypatch, name):
    # level 1's pair is the traceless second form; the complexified
    # tangent's coefficient jets on the second partials are a second route
    bundle = second_order_bundle(name)
    seen = []
    gram_schmidt = geometry.jet_gram_schmidt
    monkeypatch.setattr(geometry, "jet_gram_schmidt", lambda vecs, guard, eps: (
        seen.append(vecs) or gram_schmidt(vecs, guard=guard, eps=eps)))
    bundle.flag(1)
    pair = seen[0]
    want = ck_first_level_pair(bundle)
    assert len(pair) == 2
    for got, ref in zip(pair, want):
        assert got.order == ref.order == bundle.second_order
        scale = np.max(np.abs(ref.t), axis=(0, 1))
        assert np.all(np.max(np.abs(got.t - ref.t), axis=(0, 1)) <= 1e-14 * scale)


@pytest.mark.parametrize("name, order", [("holo3", 4), ("holo4", 5), ("noniso", 4)])
def test_second_order_data_is_the_uncapped_data_truncated_to_the_cap(name, order):
    # the cap drops coefficients and changes none it keeps: each capped jet
    # equals the uncapped route bitwise, at the points of flag level 1, and
    # the pedal's delta and theta are the uncapped jets' order-0 values
    pipe = SurfacePipeline(surface_evaluator(preset_curve(name)), Grid(nx=5, ny=5), order)
    base, split = pipe.base, pipe.split
    carried = base.second_fundamental
    assert [jet.order for jet in carried] == [geometry.SECOND_ORDER_CAP] * 3
    ok = base.flag(1)[0].valid
    assert np.any(ok)
    uncapped = uncapped_second_order(base)
    for got, ref in zip(carried, uncapped["second_fundamental"]):
        assert ref.order == order - 2
        np.testing.assert_array_equal(got.t[..., ok], ref.truncate(got.order).t[..., ok])
    for got, ref in ((split.first_normal_part, uncapped["first_normal_part"]),
                     (split.theta, uncapped["theta"])):
        assert ref.order == order - 2 and isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got[..., ok], ref.value()[..., ok])


@pytest.mark.parametrize("name", ["holo3", "holo4"])
def test_omega_dz_is_the_wirtinger_pairing_of_the_flag_frames(name):
    base = SurfacePipeline(surface_evaluator(preset_curve(name)), Grid(nx=5, ny=5), 4).base
    omega_dz = base.connection_forms()["omega_dz"]
    n1, n2 = base.flag(2)
    assert omega_dz.shape == (2, len(n2.frames), 25)
    for a, e in enumerate(n1.frames):
        for b, f in enumerate(n2.frames):
            np.testing.assert_array_equal(omega_dz[a, b], e.wirtinger().dot_value(f))


@pytest.mark.parametrize("name, order", [("holo3", 4), ("holo4", 5)])
def test_connection_forms_pair_values_bit_for_bit_as_jets(monkeypatch, name, order):
    # the pairings read the values of the frames, of their derivatives and
    # of the frame coefficients: the bits of the order-0 jet products and
    # pairings, from no product of jet tables
    base = SurfacePipeline(surface_evaluator(preset_curve(name)), Grid(), order).base
    want = jet_connection(base)
    products = []
    product = jets._product
    monkeypatch.setattr(jets, "_product", lambda *a: products.append(a) or product(*a))
    conn = base.connection_forms()
    assert products == [] and want[0].shape[:3] == (2, 2, 2)
    for got, ref in zip((conn["omega"], conn["omega_dz"]), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["holo3", "holo4", "noniso"])
def test_unit_delta_derivative_is_carried_by_the_connection_forms(name):
    # delta lies in span(f3, f4) as a jet identity, so e3 = delta/|delta| =
    # c f3 + s f4 and <d_z e3, f5> = c omega_35(d_z) + s omega_45(d_z)
    pipe = SurfacePipeline(surface_evaluator(preset_curve(name)), Grid(nx=5, ny=5), 4)
    base, delta = pipe.base, pipe.split.first_normal_part
    ok = base.flag(2)[1].valid
    assert np.any(ok)
    e3 = delta / np.sqrt(np.sum(delta * delta, axis=0))
    f3, f4 = (fr.value() for fr in base.flag(1)[0].frames)
    c, s = np.sum(e3 * f3, axis=0), np.sum(e3 * f4, axis=0)
    w35, w45 = base.connection_forms()["omega_dz"][:, 0]
    got = (c * w35 + s * w45)[ok]
    want = unit_delta_wirtinger(base)[ok]
    assert np.min(np.abs(want)) > 0
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("name", SECOND_ORDER_SURFACES)
def test_wirtinger_second_form_is_the_normal_part_of_f_zz(name):
    bundle = second_order_bundle(name)
    got = bundle.alpha_wirtinger
    assert got.dtype == np.complex128 and got.shape == (bundle.n, *bundle.batch)
    want = projected_fzz(bundle).value()
    norm = np.sqrt(np.sum(np.abs(want) ** 2, axis=0))
    assert np.min(norm) > 0
    assert np.max(np.sqrt(np.sum(np.abs(got - want) ** 2, axis=0)) / norm) <= 1e-13


def test_flag_makes_no_complex_vector_product(monkeypatch):
    calls = []
    product = jets._product
    monkeypatch.setattr(jets, "_product", lambda a, b, lead: calls.append(
        (lead, np.iscomplexobj(a) or np.iscomplexobj(b))) or product(a, b, lead))
    x, y = np.meshgrid(np.linspace(0.3, 1.3, 3), np.linspace(0.3, 1.3, 3))
    SurfaceJets(holo3(), x, y, 4).flag(2)
    assert (2, False) in calls
    assert not any(is_complex for _, is_complex in calls)
