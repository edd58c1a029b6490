"""Sphere inversions: jets, transformation laws, and the residual system.

The shape-operator and mean-curvature transformation laws are verified
by comparing direct jets of the inverted surface against the closed
forms; the Moebius structure (involution, sphere fixed-point set,
near-isometry far away) is exercised on raw points.
"""

import numpy as np
import pytest

from isopedal.errors import ConfigError, PoleProximity
from isopedal.geometry import SurfaceJets
from isopedal.grid import Grid
from isopedal.moebius import (
    POLE_RTOL,
    InversionSpec,
    first_normal_rank,
    invert_evaluator,
    invert_point,
    inverted_shape_and_mean,
    mean_curvature_norm,
    minimality_residuals,
    normal_isometry,
    transformation_residuals,
)
from isopedal.pedal import PedalBundle, pedal_split, pedal_surface
from isopedal.weierstrass import holomorphic_curve, preset_curve, surface_evaluator


def holo3():
    return surface_evaluator(preset_curve("holo3"))


def test_inversion_is_an_involution_on_points():
    inv = InversionSpec(center=(0.5, -1.0, 0.2, 0.0, 0.7, -0.3), radius=1.3)
    rng = np.random.default_rng(3)
    p = rng.normal(size=(6, 40))
    back = inv.apply(inv.apply(p))
    assert np.max(np.abs(back - p)) < 1e-10


def test_sphere_is_pointwise_fixed():
    inv = InversionSpec(center=(1.0, 0, 0, 0, 0, 0), radius=0.8)
    rng = np.random.default_rng(4)
    d = rng.normal(size=(6, 25))
    d /= np.linalg.norm(d, axis=0)
    on_sphere = inv.center_array[:, None] + 0.8 * d
    assert np.max(np.abs(inv.apply(on_sphere) - on_sphere)) < 1e-12


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError):
        InversionSpec(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(ConfigError):
        InversionSpec(center=(np.inf, 0.0), radius=1.0)


def test_inverted_evaluator_matches_pointwise_inversion():
    ev = holo3()
    inv = InversionSpec(center=(2.0, 1.0, -1.0, 0.5, 0.0, 1.5), radius=1.0)
    tilted = invert_evaluator(ev, inv)
    x = np.array([0.6, 1.1])
    y = np.array([0.8, 0.4])
    direct = inv.apply(ev.jets(x, y, 2).value().real)
    via_jets = tilted.jets(x, y, 2).value().real
    assert np.max(np.abs(direct - via_jets)) < 1e-12


def test_transformation_laws_close_on_grid():
    ev = holo3()
    inv = InversionSpec(center=(1.6, -1.6, 0.0, 1.6, -1.6, 0.0), radius=1.0)
    grid = Grid(nx=5, ny=5)
    x, y = grid.points()
    res = transformation_residuals(ev, inv, x, y, order=3)
    assert np.all(res["valid"])
    assert np.max(res["shape_residual"]) < 1e-10
    assert np.max(res["mean_residual"]) < 1e-10


def test_single_point_shape_routes_agree():
    out = inverted_shape_and_mean(
        holo3(), (0.9, 0.7), InversionSpec(center=(0, 0, 0, 0, 0, 3.0), radius=2.0)
    )
    assert out["shape_residual"] < 1e-11
    assert out["mean_residual"] < 1e-11
    # a minimal surface does not stay minimal: the law adds the normal
    # displacement term, nonzero for generic centers
    assert np.linalg.norm(out["H_direct"]) > 1e-3


def test_pole_proximity_raised_at_center():
    ev = holo3()
    # center the sphere exactly on a surface point
    p0 = ev.jets(np.array([0.8]), np.array([0.5]), 2).value().real[:, 0]
    inv = InversionSpec(center=tuple(p0), radius=1.0)
    with pytest.raises(PoleProximity):
        invert_point(ev, inv, (0.8, 0.5))
    # the batched evaluator masks instead of raising
    tilted = invert_evaluator(ev, inv)
    m = tilted.mask(np.array([0.8, 1.2]), np.array([0.5, 0.9]))
    assert not bool(m[0]) and bool(m[1])


def test_normal_isometry_preserves_length_and_normality():
    ev = holo3()
    inv = InversionSpec(center=(2, 0, 0, 0, 0, 0), radius=1.5)
    b = SurfaceJets(ev, np.array([0.7]), np.array([0.9]), 3)
    q = b.f.value().real[:, 0]
    mu = b.flag(1)[0].frames[0].value().real[:, 0]
    nu = normal_isometry(q, mu, inv)
    assert abs(np.linalg.norm(nu) - np.linalg.norm(mu)) < 1e-12
    # normal to the inverted surface: orthogonal to its tangent plane
    tilted = SurfaceJets(invert_evaluator(ev, inv), np.array([0.7]), np.array([0.9]), 2)
    for e in (tilted.e1, tilted.e2):
        assert abs(float(e.value().real[:, 0] @ nu)) < 1e-10


def test_far_away_inversion_nearly_preserves_mean_curvature():
    # sphere through the origin centered far away: near the surface the
    # map is close to an isometry, so ||H|| changes by a few percent
    ev = pedal_surface(holo3())
    far = np.zeros(6)
    far[1] = 40.0
    inv = InversionSpec(center=tuple(far), radius=40.0)
    x = np.array([0.8])
    y = np.array([0.8])
    h0, _ = mean_curvature_norm(ev, x, y)
    h1, _ = mean_curvature_norm(invert_evaluator(ev, inv), x, y)
    assert abs(h1[0] - h0[0]) < 0.05 * h0[0]


def test_first_normal_rank_point_api():
    assert first_normal_rank(holo3(), (0.7, 0.6)) == 2
    assert first_normal_rank(pedal_surface(holo3()), (0.7, 0.6), order=2) == 3


def test_minimality_residual_system_positive_on_lattice():
    ev = holo3()
    grid = Grid(nx=7, ny=7)
    x, y = grid.points()
    pb = pedal_split(ev, x, y, 4)
    rng = np.random.default_rng(9)
    centers = rng.uniform(-1.6, 1.6, size=(20, 6))
    out = minimality_residuals(pb, centers, radius=1.0)
    assert out["r1"].shape == (20, x.size)
    assert np.all(out["margin_per_center"] > 1e-3)
    assert out["margin"] > 1e-3
    # the inverted pedal's mean curvature never vanishes on the grid
    assert np.min(out["mean_norm"]) > 0.0


def test_minimality_residuals_rows_do_not_depend_on_the_block():
    grid = Grid(nx=7, ny=7)
    x, y = grid.points()
    pb = pedal_split(holo3(), x, y, 4)
    rng = np.random.default_rng(9)
    centers = rng.uniform(-1.6, 1.6, size=(20, 6))
    whole = minimality_residuals(pb, centers, radius=1.0)
    g = pb.foot.value().real.reshape(6, -1)
    dense_sq = np.sum((g[:, None, :] - centers.T[:, :, None]) ** 2, axis=0)
    assert np.array_equal(whole["pos_sq"], np.maximum(dense_sq, 1e-300))
    # blocks of two or more centers reproduce the whole call's rows bit for bit
    for lo, hi in ((0, 2), (2, 9), (9, 20)):
        part = minimality_residuals(pb, centers[lo:hi], radius=1.0)
        for key in ("r1", "r2", "r3", "mean_norm", "pos_sq", "margin_per_center"):
            assert np.array_equal(part[key], whole[key][lo:hi]), key


def _parent_mask_route(surface, inv, x, y):
    """The mask of invert_evaluator(pedal_surface(surface), inv) the way
    two-callable evaluators built it: the pedal's mask was the validity
    of an order-2 bundle of `surface`, and the inversion ANDed a pole
    test on order-2 pedal values into it."""
    pedal_mask = SurfaceJets(surface, x, y, 2).valid
    vals = pedal_surface(surface).jets(x, y, 2).value().real
    c = inv.center_array.reshape((-1,) + (1,) * (vals.ndim - 1))
    dsq = np.sum((vals - c) ** 2, axis=0)
    return pedal_mask & (dsq > (POLE_RTOL * inv.radius) ** 2)


def test_evaluate_masks_the_pole_and_the_degenerate_base_points():
    # (z^2, z^3) doubled has a branch point at z = 0, the grid center
    ev = surface_evaluator(holomorphic_curve([[0, 0, 1], [0, 0, 0, 1]]))
    x, y = Grid(-0.5, 0.5, -0.5, 0.5, 5, 5).points()
    g = pedal_surface(ev)
    pole = g.jets(x, y, 2).value().real[:, 7]
    inv = InversionSpec(center=tuple(pole), radius=1.0)
    want = _parent_mask_route(ev, inv, x, y)
    assert not want[7] and not want[12] and np.sum(~want) == 2
    for order in (2, 3):
        jets, valid = invert_evaluator(g, inv).evaluate(x, y, order)
        assert jets.order == order
        assert valid.dtype == bool and np.array_equal(valid, want)
    # the pedal alone masks only the branch point, a plain surface nothing
    assert np.array_equal(g.evaluate(x, y, 2)[1], np.arange(25) != 12)
    assert np.all(ev.evaluate(x, y, 2)[1])


def test_minimality_setup_is_computed_once_per_pedal_bundle(monkeypatch):
    x, y = Grid(nx=7, ny=7).points()
    pb = pedal_split(holo3(), x, y, 4)
    calls = []
    rotation = PedalBundle.rotation_section

    def spy(self):
        calls.append(self)
        return rotation(self)

    monkeypatch.setattr(PedalBundle, "rotation_section", spy)
    centers = np.random.default_rng(9).uniform(-1.6, 1.6, size=(20, 6))
    for block in (slice(0, 7), slice(7, 20)):
        minimality_residuals(pb, centers[block], radius=1.0)
    assert calls == [pb]


def test_minimality_margin_runs_over_the_callers_mask():
    x, y = Grid(nx=7, ny=7).points()
    pb = pedal_split(holo3(), x, y, 4)
    centers = np.random.default_rng(9).uniform(-1.6, 1.6, size=(20, 6))
    mask = pb.valid.reshape(-1).copy()
    mask[::3] = False
    out = minimality_residuals(pb, centers, radius=1.0, valid=mask)
    rho = out["pos_sq"]
    combined = np.maximum(
        np.maximum(np.abs(out["r1"]) / rho, np.abs(out["r2"]) / rho),
        np.abs(out["r3"]) / np.sqrt(rho),
    )
    want = np.where(mask[None, :], combined, 0.0).max(axis=1)
    assert np.array_equal(out["margin_per_center"], want)
    assert out["margin"] == want.min()
    # without a mask the margin runs over the bundle's own flag mask
    plain = minimality_residuals(pb, centers, radius=1.0)
    assert np.array_equal(plain["margin_per_center"],
                          np.where(pb.valid.reshape(-1)[None, :], combined, 0.0).max(axis=1))
