"""Sphere inversions: jets, transformation laws, and the residual system.

The shape-operator and mean-curvature transformation laws are verified
by comparing direct jets of the inverted surface against the closed
forms (tests/oracles.py); the Moebius structure (involution, sphere
fixed-point set, near-isometry far away) is exercised on raw points.
"""

from functools import cached_property

import numpy as np
import pytest

from isopedal.errors import ConfigError
from isopedal.geometry import SurfaceJets, first_normal_rank
from isopedal.grid import Grid
from isopedal.jets import JetVec
from isopedal.moebius import POLE_RTOL, invert_evaluator, invert_jets, minimality_residuals
from isopedal.pedal import PedalBundle, pedal_split
from isopedal.verify import _PRUNE_SLACK
from isopedal.weierstrass import holomorphic_curve, preset_curve, surface_evaluator
from oracles import invert_points, pedal_surface, reflect, transformation_residuals


def holo3():
    return surface_evaluator(preset_curve("holo3"))


def _homothety(jets, centers, factor):
    """`jets` scaled by `factor` about `centers`, one center per stacked
    map: the unit inversion scaled by R^2 about its center is the
    inversion of radius R."""
    c = np.asarray(centers, dtype=float).T
    return jets.translate(-c).scale(factor).translate(c)


def _inverted_points(points, center, radius):
    """Raw points, shape (n, ...), inverted by `invert_jets` as order-0 jets
    and scaled by radius^2 about the center."""
    jets, _ = invert_jets(JetVec._of(points[None]), True, center)
    return _homothety(jets, center, radius**2).value()


def test_inversion_is_an_involution_on_points():
    center = np.array([0.5, -1.0, 0.2, 0.0, 0.7, -0.3])
    rng = np.random.default_rng(3)
    p = rng.normal(size=(6, 40))
    back = _inverted_points(_inverted_points(p, center, 1.3), center, 1.3)
    assert np.max(np.abs(back - p)) < 1e-10


def test_sphere_is_pointwise_fixed():
    center = np.array([1.0, 0, 0, 0, 0, 0])
    rng = np.random.default_rng(4)
    d = rng.normal(size=(6, 25))
    d /= np.linalg.norm(d, axis=0)
    on_sphere = center[:, None] + 0.8 * d
    assert np.max(np.abs(_inverted_points(on_sphere, center, 0.8) - on_sphere)) < 1e-12


def test_invalid_spec_rejected():
    ev = holo3()
    with pytest.raises(ConfigError):
        invert_evaluator(ev, (np.inf,) + (0.0,) * 5)
    with pytest.raises(ConfigError):
        invert_evaluator(ev, (0.0, 0.0))
    with pytest.raises(ConfigError):
        invert_evaluator(ev, np.zeros((2, 3, 6)))


def test_inverted_evaluator_matches_pointwise_inversion():
    ev = holo3()
    center = (2.0, 1.0, -1.0, 0.5, 0.0, 1.5)
    tilted = invert_evaluator(ev, center)
    x = np.array([0.6, 1.1])
    y = np.array([0.8, 0.4])
    direct = invert_points(center, 1.0, ev.jets(x, y, 2).value().real)
    via_jets = tilted.jets(x, y, 2).value().real
    assert np.max(np.abs(direct - via_jets)) < 1e-12


def test_transformation_laws_close_on_grid():
    ev = holo3()
    grid = Grid(nx=5, ny=5)
    x, y = grid.points()
    res = transformation_residuals(ev, (1.6, -1.6, 0.0, 1.6, -1.6, 0.0), 1.0, x, y, order=3)
    assert np.all(res["valid"])
    assert np.max(res["shape_residual"]) < 1e-10
    assert np.max(res["mean_residual"]) < 1e-10


def test_single_point_shape_routes_agree():
    out = transformation_residuals(
        holo3(), (0, 0, 0, 0, 0, 3.0), 2.0, np.array([0.9]), np.array([0.7]), order=3,
    )
    assert out["valid"][0]
    assert out["shape_residual"][0] < 1e-11
    assert out["mean_residual"][0] < 1e-11
    # a minimal surface does not stay minimal: the law adds the normal
    # displacement term, nonzero for generic centers
    assert np.linalg.norm(out["H_direct"][:, 0]) > 1e-3


def test_pole_is_masked_at_center():
    ev = holo3()
    # center the sphere exactly on a surface point
    p0 = ev.jets(np.array([0.8]), np.array([0.5]), 2).value().real[:, 0]
    tilted = invert_evaluator(ev, p0)
    m = tilted.mask(np.array([0.8, 1.2]), np.array([0.5, 0.9]))
    assert not bool(m[0]) and bool(m[1])


def test_normal_isometry_preserves_length_and_normality():
    ev = holo3()
    center = (2, 0, 0, 0, 0, 0)
    b = SurfaceJets(ev, np.array([0.7]), np.array([0.9]), 3)
    q = b.f.value().real[:, 0]
    mu = b.flag(1)[0].frames[0].value().real[:, 0]
    nu = reflect(center, q, mu)
    assert abs(np.linalg.norm(nu) - np.linalg.norm(mu)) < 1e-12
    # normal to the inverted surface: orthogonal to its tangent plane
    tilted = SurfaceJets(invert_evaluator(ev, center), np.array([0.7]), np.array([0.9]), 2)
    for e in (tilted.e1, tilted.e2):
        assert abs(float(e.value().real[:, 0] @ nu)) < 1e-10


def test_far_away_inversion_nearly_preserves_mean_curvature():
    # sphere through the origin centered far away: near the surface the
    # map is close to an isometry, so ||H|| changes by a few percent
    ev = pedal_surface(holo3())
    far = np.zeros(6)
    far[1] = 40.0
    x = np.array([0.8])
    y = np.array([0.8])
    # the inversion of radius 40: the unit one scaled by 40^2 about its center
    inverted = invert_evaluator(ev, far).affine(scale=40.0**2, translation=(1 - 40.0**2) * far)
    h0, h1 = (np.linalg.norm(SurfaceJets(s, x, y, 2).mean_curvature().value().real, axis=0)
              for s in (ev, inverted))
    assert abs(h1[0] - h0[0]) < 0.05 * h0[0]


def test_first_normal_rank_point_api():
    x, y = np.array([0.7]), np.array([0.6])
    for surface, rank in ((holo3(), 2), (pedal_surface(holo3()), 3)):
        b = SurfaceJets(surface, x, y, 2)
        assert b.immersed[0]
        assert first_normal_rank(b)[0] == rank


def test_minimality_residual_system_positive_on_lattice():
    ev = holo3()
    grid = Grid(nx=7, ny=7)
    x, y = grid.points()
    pb = pedal_split(SurfaceJets(ev, x, y, 4))
    rng = np.random.default_rng(9)
    centers = rng.uniform(-1.6, 1.6, size=(20, 6))
    out = minimality_residuals(pb, centers)
    assert out["r1"].shape == (20, x.size)
    assert np.all(out["margin_per_center"] > 1e-3)
    assert out["margin_per_center"].min() > 1e-3
    # the inverted pedal's mean curvature never vanishes on the grid
    assert np.min(out["mean_norm"]) > 0.0


def test_minimality_residuals_rows_do_not_depend_on_the_block():
    grid = Grid(nx=7, ny=7)
    x, y = grid.points()
    pb = pedal_split(SurfaceJets(holo3(), x, y, 4))
    rng = np.random.default_rng(9)
    centers = rng.uniform(-1.6, 1.6, size=(20, 6))
    whole = minimality_residuals(pb, centers)
    g = pb.foot.value().real.reshape(6, -1)
    dense_sq = np.sum((g[:, None, :] - centers.T[:, :, None]) ** 2, axis=0)
    assert np.array_equal(whole["pos_sq"], np.maximum(dense_sq, 1e-300))
    # any block, a single center included, reproduces the whole call's rows
    # bit for bit
    for lo, hi in ((0, 1), (0, 2), (2, 9), (9, 20), (19, 20)):
        part = minimality_residuals(pb, centers[lo:hi])
        for key in ("r1", "r2", "r3", "mean_norm", "pos_sq", "margin_per_center"):
            assert np.array_equal(part[key], whole[key][lo:hi]), key


def _parent_mask_route(surface, center, x, y):
    """The mask of invert_evaluator(pedal_surface(surface), center)
    the way two-callable evaluators built it: the pedal's mask was the
    validity of an order-2 bundle of `surface`, and the inversion ANDed a
    pole test on order-2 pedal values into it."""
    pedal_mask = SurfaceJets(surface, x, y, 2).valid
    vals = pedal_surface(surface).jets(x, y, 2).value().real
    c = np.asarray(center).reshape((-1,) + (1,) * (vals.ndim - 1))
    dsq = np.sum((vals - c) ** 2, axis=0)
    return pedal_mask & (dsq > POLE_RTOL**2)


def test_evaluate_masks_the_pole_and_the_degenerate_base_points():
    # (z^2, z^3) doubled has a branch point at z = 0, the grid center
    ev = surface_evaluator(holomorphic_curve([[0, 0, 1], [0, 0, 0, 1]]))
    x, y = Grid(-0.5, 0.5, -0.5, 0.5, 5, 5).points()
    g = pedal_surface(ev)
    pole = g.jets(x, y, 2).value().real[:, 7]
    want = _parent_mask_route(ev, pole, x, y)
    assert not want[7] and not want[12] and np.sum(~want) == 2
    for order in (2, 3):
        jets, valid = invert_evaluator(g, pole).evaluate(x, y, order)
        assert jets.order == order
        assert valid.dtype == bool and np.array_equal(valid, want)
    # the pedal alone masks only the branch point, a plain surface nothing
    assert np.array_equal(g.evaluate(x, y, 2)[1], np.arange(25) != 12)
    assert np.all(ev.evaluate(x, y, 2)[1])


def test_stacked_inversions_equal_the_single_inversions():
    # one evaluation of the pedal inverted about k centers at once; the
    # last center is the pedal's point 7, so only its slice masks a pole
    x, y = Grid(nx=5, ny=5).points()
    g = pedal_surface(holo3()).evaluated(x, y, 3)
    centers = np.random.default_rng(5).uniform(-1.6, 1.6, size=(4, 6))
    centers[3] = g.jets(x, y, 3).value()[:, 7]
    # each inversion scaled by 1.3^2 about its center: radius 1.3
    jets, valid = invert_jets(*g.evaluate(x, y, 3), centers)
    jets = _homothety(jets, centers, 1.3**2)
    assert jets.batch == (4, 25) and valid.shape == (4, 25)
    for k, center in enumerate(centers):
        want, want_valid = invert_evaluator(g, center).evaluate(x, y, 3)
        assert np.array_equal(jets.t[:, :, k], _homothety(want, center, 1.3**2).t)
        assert np.array_equal(valid[k], want_valid)
    assert np.array_equal(np.flatnonzero(~valid), [3 * 25 + 7])
    # the evaluator of the stack serves the same stacked jets
    stacked, stacked_valid = invert_evaluator(g, centers).evaluate(x, y, 3)
    assert np.array_equal(_homothety(stacked, centers, 1.3**2).t, jets.t)
    assert np.array_equal(stacked_valid, valid)


def test_minimality_setup_is_computed_once_per_pedal_bundle(monkeypatch):
    x, y = Grid(nx=7, ny=7).points()
    pb = pedal_split(SurfaceJets(holo3(), x, y, 4))
    calls = []
    sections = PedalBundle.sections.func

    def spy(self):
        calls.append(self)
        return sections(self)

    prop = cached_property(spy)
    prop.__set_name__(PedalBundle, "sections")
    monkeypatch.setattr(PedalBundle, "sections", prop)
    centers = np.random.default_rng(9).uniform(-1.6, 1.6, size=(20, 6))
    for block in (slice(0, 7), slice(7, 20)):
        minimality_residuals(pb, centers[block])
    assert calls == [pb]


def test_minimality_residuals_on_a_point_subset():
    x, y = Grid(nx=7, ny=7).points()
    pb = pedal_split(SurfaceJets(holo3(), x, y, 4))
    centers = np.random.default_rng(9).uniform(-1.6, 1.6, size=(20, 6))
    mask = pb.valid.reshape(-1).copy()
    mask[::5] = False
    whole = minimality_residuals(pb, centers, valid=mask)
    points = np.arange(0, x.size, 3)  # masked points included
    part = minimality_residuals(pb, centers, valid=mask, points=points)
    for key in ("r1", "r2", "r3", "mean_norm", "pos_sq"):
        assert part[key].shape == (20, points.size)
    # elementwise, so exact; the products may round differently over a
    # column subset, within the slack the lattice walk allows for
    assert np.array_equal(part["pos_sq"], whole["pos_sq"][:, points])
    rho = whole["pos_sq"]
    combined = np.maximum(
        np.maximum(np.abs(whole["r1"]) / rho, np.abs(whole["r2"]) / rho),
        np.abs(whole["r3"]) / np.sqrt(rho),
    )
    want = np.where(mask[None, :], combined, 0.0)[:, points].max(axis=1)
    np.testing.assert_allclose(part["margin_per_center"], want, rtol=_PRUNE_SLACK, atol=0)
    for key in ("r1", "r2", "r3", "mean_norm"):
        np.testing.assert_allclose(part[key], whole[key][:, points], rtol=_PRUNE_SLACK,
                                   atol=_PRUNE_SLACK * np.abs(whole[key]).max())


def test_minimality_margin_runs_over_the_callers_mask():
    x, y = Grid(nx=7, ny=7).points()
    pb = pedal_split(SurfaceJets(holo3(), x, y, 4))
    centers = np.random.default_rng(9).uniform(-1.6, 1.6, size=(20, 6))
    mask = pb.valid.reshape(-1).copy()
    mask[::3] = False
    out = minimality_residuals(pb, centers, valid=mask)
    rho = out["pos_sq"]
    combined = np.maximum(
        np.maximum(np.abs(out["r1"]) / rho, np.abs(out["r2"]) / rho),
        np.abs(out["r3"]) / np.sqrt(rho),
    )
    want = np.where(mask[None, :], combined, 0.0).max(axis=1)
    assert np.array_equal(out["margin_per_center"], want)
    assert out["margin_per_center"].min() == want.min()
    # without a mask the margin runs over the bundle's own flag mask
    plain = minimality_residuals(pb, centers)
    assert np.array_equal(plain["margin_per_center"],
                          np.where(pb.valid.reshape(-1)[None, :], combined, 0.0).max(axis=1))
