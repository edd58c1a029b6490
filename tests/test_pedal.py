"""Pedal decomposition against frozen exact values and direct jets.

Reference numbers (exact rationals, computed symbolically for the
two-circle surface in R^6 before this implementation existed), at the
parameter point (1, 0):

    Z     = (13/27) (1, 0, 2, 0, 2, 0)         tangential part of f
    g     = (14/27, 0, 1/27, 0, -8/27, 0)      pedal point f - Z
    delta = (10/27, 0, 5/27, 0, -10/27, 0)     first-normal part of g
    eta   = (4/27, 0, -4/27, 0, 2/27, 0)       higher-normal part
    ||Z||^2 = 169/81,  ||delta||^2 = 25/81,  theta = 194/81
    H_g   = (9/97) (1, 0, 7, 0, 12, 0) = (2/theta)(Z - delta)
    ||g_x||^2 / ||f_x||^2 = 776/6561 = -K theta / 2
"""

import numpy as np

from isopedal.geometry import SurfaceJets
from isopedal.pedal import (
    SurfacePipeline,
    pedal_regularity,
    pedal_split,
    pedal_surface,
)
from isopedal.grid import Grid
from isopedal.weierstrass import preset_curve, surface_evaluator
from oracles import deriv


def holo3():
    return surface_evaluator(preset_curve("holo3"))


def test_frozen_decomposition_at_probe():
    x, y = np.array([1.0]), np.array([0.0])
    pb = pedal_split(SurfaceJets(holo3(), x, y, 4))
    reg = pedal_regularity(pb)
    Z = (13 / 27) * np.array([1, 0, 2, 0, 2, 0.0])
    g = np.array([14, 0, 1, 0, -8, 0.0]) / 27
    delta = np.array([10, 0, 5, 0, -10, 0.0]) / 27
    eta = np.array([4, 0, -4, 0, 2, 0.0]) / 27
    assert np.max(np.abs(pb.tangent_part[:, 0] - Z)) < 1e-13
    assert np.max(np.abs(pb.foot.value().real[:, 0] - g)) < 1e-13
    assert np.max(np.abs(pb.first_normal_part[:, 0] - delta)) < 1e-13
    assert np.max(np.abs(pb.higher_normal_part[:, 0] - eta)) < 1e-13
    assert abs(pb.theta[0] - 194 / 81) < 1e-13
    assert abs(np.dot(Z, Z) - 169 / 81) < 1e-13  # oracle self-consistency
    H = (9 / 97) * np.array([1, 0, 7, 0, 12, 0.0])
    assert np.max(np.abs(pb.mean_curvature_predicted()[:, 0] - H)) < 1e-13
    assert abs(pb.conformal_factor_predicted()[0] - 776 / 6561) < 1e-15
    assert reg["tangent_nonzero"][0] and reg["first_normal_nonzero"][0]
    assert reg["immersed"][0] and not reg["excluded"][0]


def test_decomposition_parts_are_orthogonal_and_sum():
    ev = holo3()
    grid = Grid(nx=7, ny=7)
    x, y = grid.points()
    pb = pedal_split(SurfaceJets(ev, x, y, 4))
    f = pb.base.f.value().real
    total = pb.tangent_part + pb.foot.value().real
    assert np.max(np.abs(total - f)) < 1e-12
    gsum = pb.first_normal_part + pb.higher_normal_part
    assert np.max(np.abs(gsum - pb.foot.value().real)) < 1e-12
    # mutual orthogonality of the three parts
    for a, b in ((pb.tangent_part, pb.first_normal_part),
                 (pb.tangent_part, pb.higher_normal_part),
                 (pb.first_normal_part, pb.higher_normal_part)):
        ip = np.sum(a * b, axis=0)
        assert np.max(np.abs(ip)) < 1e-11


def test_pedal_evaluator_matches_split_foot():
    ev = holo3()
    g_ev = pedal_surface(ev)
    x = np.array([0.5, 0.9, 1.3])
    y = np.array([0.8, 0.4, 0.6])
    jets = g_ev.jets(x, y, 3)
    pb = pedal_split(SurfaceJets(ev, x, y, 4))
    assert np.max(np.abs(jets.value() - pb.foot.value())) < 1e-13
    # derivative jets agree too (the evaluator requests one extra order)
    assert np.max(np.abs(deriv(jets, 1, 0) - deriv(pb.foot, 1, 0))) < 1e-12
    assert np.max(np.abs(deriv(jets, 2, 1) - deriv(pb.foot, 2, 1))) < 1e-11


def test_every_route_to_the_pedal_reads_the_split_foot():
    ev = holo3()
    pipe = SurfacePipeline(ev, Grid(nx=5, ny=5), 4)
    g = pipe.pedal_evaluated.jets(pipe.x, pipe.y, 3)
    assert np.array_equal(g.t, pipe.split.foot.truncate(3).t)
    x = np.array([0.5, 0.9, 1.3])
    y = np.array([0.8, 0.4, 0.6])
    for k in (2, 3):
        foot = pedal_split(SurfaceJets(ev, x, y, k + 1)).foot
        assert np.array_equal(pedal_surface(ev).jets(x, y, k).t, foot.truncate(k).t)


def test_the_pedal_alone_builds_no_flag_level():
    pipe = SurfacePipeline(holo3(), Grid(nx=5, ny=5), 4)
    assert pipe.pedal.valid.shape == (25,)
    assert len(pipe.base._levels) == 0
    assert pipe.split.valid.shape == (25,)
    assert len(pipe.base._levels) == 1


def test_predicted_mean_curvature_matches_direct_jets():
    ev = holo3()
    g_ev = pedal_surface(ev)
    x = np.array([0.45, 0.8, 1.25])
    y = np.array([0.95, 0.55, 0.35])
    gb = SurfaceJets(g_ev, x, y, 3)
    a11, _, a22 = gb.second_fundamental
    H_direct = (a11.value().real + a22.value().real) / 2
    pb = pedal_split(SurfaceJets(ev, x, y, 4))
    H_pred = pb.mean_curvature_predicted()
    scale = np.max(np.abs(H_direct))
    assert np.max(np.abs(H_direct - H_pred)) < 1e-11 * scale


def test_laplace_identity_against_curvature():
    # g_xx + g_yy = 2 E_f K (delta - Z) in the isothermal parameter
    ev = holo3()
    x = np.array([0.6, 1.1])
    y = np.array([0.7, 0.5])
    pb = pedal_split(SurfaceJets(ev, x, y, 4))
    gxx = deriv(pb.foot, 2, 0).real
    gyy = deriv(pb.foot, 0, 2).real
    E = pb.base.E0
    K = pb.base.curvature_scalars["K"]
    lhs = (gxx + gyy) / E
    rhs = 2.0 * K * (pb.first_normal_part - pb.tangent_part)
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(rhs))


def test_conformal_factor_two_routes():
    ev = holo3()
    grid = Grid(nx=9, ny=9)
    x, y = grid.points()
    pb = pedal_split(SurfaceJets(ev, x, y, 3))
    assert not np.any(pedal_regularity(pb)["excluded"])
    # ||g_x||^2 / ||f_x||^2 from jets against the closed form -K theta / 2
    gx = pb.foot.dx()
    ratio = gx.dot_value(gx).real / np.maximum(pb.base.E0, 1e-300)
    predicted = pb.conformal_factor_predicted()
    scale = np.maximum(np.maximum(np.abs(ratio), np.abs(predicted)), 1e-300)
    assert np.max(np.abs(ratio - predicted) / scale) < 1e-11


def test_pedal_degenerates_at_origin():
    # at z = 0 the position vector vanishes: no tangential part to speak of
    ev = holo3()
    x = np.array([0.0, 0.5])
    y = np.array([0.0, 0.5])
    reg = pedal_regularity(pedal_split(SurfaceJets(ev, x, y, 3)))
    assert bool(reg["excluded"][0]) and not bool(reg["excluded"][1])
    assert any("tangential" in why for _, why in reg["reasons"])


def test_pedal_scaling_covariance():
    # pedal of c*f is c*(pedal of f): check c = 2 pointwise
    ev = holo3()
    doubled = ev.affine(scale=2.0)
    x = np.array([0.7, 1.0])
    y = np.array([0.9, 0.6])
    g1 = pedal_surface(ev).jets(x, y, 2).value().real
    g2 = pedal_surface(doubled).jets(x, y, 2).value().real
    assert np.max(np.abs(g2 - 2.0 * g1)) < 1e-12


def test_pedal_is_superconformal_but_not_minimal():
    ev = holo3()
    g_ev = pedal_surface(ev)
    x = np.array([0.5, 1.2])
    y = np.array([0.9, 0.4])
    gb = SurfaceJets(g_ev, x, y, 3)
    defect, _ = gb.circle_defect(1)
    assert np.max(defect) < 1e-12
    sc = gb.curvature_scalars
    assert np.min(sc["H_norm_sq"]) > 1e-3  # genuinely non-minimal
    assert np.max(np.abs(sc["wintgen_defect"])) < 1e-12 * np.max(sc["H_norm_sq"])
