"""Sphere inversions acting on surface patches.

The inversion with center p0 and radius R,

    I(q) = p0 + R^2 (q - p0) / ||q - p0||^2,

is the basic nontrivial Moebius transformation of Euclidean space.  Its
differential at q is (R^2 / ||d||^2) P_d with d = q - p0 and

    P_d(v) = v - 2 <v, d> d / ||d||^2

the reflection in the hyperplane orthogonal to d; inversions are
therefore conformal with factor R^2/||d||^2, P_d maps tangent planes to
tangent planes and normal spaces to normal spaces, and second-order data
transforms by the closed-form laws

    <alpha~(X, Y), P_d(mu)> = R^2 [ <alpha(X, Y), mu> / ||d||^2
                                    + 2 <X, Y> <d, mu> / ||d||^4 ],
    shape~_{P_d(mu)}        = (||d||^2 A_mu + 2 <d, mu> Id) / R^2,
    H~ = ( ||d||^2 P_d(H) + 2 P_d(d_normal) ) / R^2,

where d_normal is the component of d orthogonal to the tangent plane.
(The laws are rederived here independently in `transformation_residuals`
by comparing against direct jet differentiation through the inversion.)

Everything degenerates on the sphere center: points within
POLE_RTOL * R of the center are masked out in grid pipelines and raise
PoleProximity in the single-point API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PoleProximity
from .jets import DEFAULT_ORDER, JetVec
from .geometry import SurfaceJets, _nvalue
from .weierstrass import SurfaceEvaluator

POLE_RTOL = 1e-9


@dataclass(frozen=True)
class InversionSpec:
    """Sphere inversion: center and radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ConfigError("inversion center must be a flat coordinate list")
        if not np.all(np.isfinite(c)):
            raise ConfigError("inversion center must be finite")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"inversion radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    @property
    def center_array(self):
        return np.asarray(self.center, dtype=float)

    def apply(self, points):
        """Invert raw points, shape (n, ...); no masking, caller beware."""
        p = np.asarray(points, dtype=float)
        c = self.center_array.reshape((-1,) + (1,) * (p.ndim - 1))
        d = p - c
        dsq = np.sum(d * d, axis=0)
        return c + self.radius**2 * d / np.maximum(dsq, 1e-300)

    def reflect(self, at_points, vectors):
        """Apply the reflection P_d at each base point to ambient vectors."""
        d = np.asarray(at_points, dtype=float) - self.center_array.reshape(
            (-1,) + (1,) * (np.asarray(at_points).ndim - 1)
        )
        dsq = np.maximum(np.sum(d * d, axis=0), 1e-300)
        v = np.asarray(vectors, dtype=float)
        return v - 2 * np.sum(v * d, axis=0) * d / dsq


def invert_evaluator(surface: SurfaceEvaluator, inv: InversionSpec) -> SurfaceEvaluator:
    """Evaluator of the inverted surface, with a pole-proximity mask.

    Inversion is an analytic ambient map, so jets compose without order
    loss.  Points closer than POLE_RTOL * radius to the center are
    masked invalid, on top of the surface's own mask.
    """
    if len(inv.center) != surface.ambient_dim:
        raise ConfigError(
            f"inversion center has dimension {len(inv.center)}, "
            f"surface lives in dimension {surface.ambient_dim}"
        )
    c = inv.center_array
    R2 = inv.radius**2
    limit_sq = (POLE_RTOL * inv.radius) ** 2

    def fn(x, y, order):
        f, valid = surface.evaluate(x, y, order)
        vals = f.value().real
        pole_sq = np.sum((vals - c.reshape((-1,) + (1,) * (vals.ndim - 1))) ** 2, axis=0)
        d = f.translate(-c)
        dsq = d.norm_sq()
        good = np.abs(dsq.value()) > limit_sq
        scale = dsq.recip(guard=good).scale(R2)
        return d.scale(scale).translate(c), valid & (pole_sq > limit_sq)

    return SurfaceEvaluator(
        ambient_dim=surface.ambient_dim,
        provenance=f"invert({surface.provenance}; "
        f"center={np.round(c, 6).tolist()}, radius={inv.radius:g})",
        fn=fn,
    )


def invert_point(surface: SurfaceEvaluator, inv: InversionSpec, p, order: int = DEFAULT_ORDER) -> JetVec:
    """Jets of the inverted surface at one point; raises PoleProximity."""
    x = np.asarray([p[0]], dtype=float)
    y = np.asarray([p[1]], dtype=float)
    vals = surface.jets(x, y, 2).value().real[:, 0]
    dist = np.linalg.norm(vals - inv.center_array)
    if dist <= POLE_RTOL * inv.radius:
        raise PoleProximity(
            f"surface point at {tuple(p)} lies {dist:.3e} from the inversion "
            f"center (limit {POLE_RTOL * inv.radius:.3e})"
        )
    return invert_evaluator(surface, inv).jets(x, y, order)


def _coordinate_shape_data(bundle: SurfaceJets):
    """Gram matrix and coordinate second derivatives at order 0."""
    fx = _nvalue(bundle.partial(1, 0))
    fy = _nvalue(bundle.partial(0, 1))
    G = np.stack([
        np.stack([np.sum(fx * fx, 0), np.sum(fx * fy, 0)], axis=-1),
        np.stack([np.sum(fx * fy, 0), np.sum(fy * fy, 0)], axis=-1),
    ], axis=-2)
    seconds = [_nvalue(bundle.partial(2, 0)),
               _nvalue(bundle.partial(1, 1)),
               _nvalue(bundle.partial(0, 2))]
    return G, seconds


def _shape_endomorphism(G, seconds, mu):
    """Shape operator of the normal direction mu in the coordinate basis."""
    S = np.stack([
        np.stack([np.sum(seconds[0] * mu, 0), np.sum(seconds[1] * mu, 0)], axis=-1),
        np.stack([np.sum(seconds[1] * mu, 0), np.sum(seconds[2] * mu, 0)], axis=-1),
    ], axis=-2)
    return np.linalg.solve(G, S)


def transformation_residuals(surface: SurfaceEvaluator, inv: InversionSpec, x, y,
                             order: int = 3):
    """Closed-form inversion laws vs direct jet differentiation.

    For each first-normal frame direction mu of the base surface the
    shape operator of the inverted surface along the reflected normal is
    computed twice -- once from the inverted jets, once from the
    transformation law -- and likewise the mean curvature vector.
    Returns per-point relative residuals and the comparison data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = SurfaceJets(surface, x, y, order)
    tilted = SurfaceJets(invert_evaluator(surface, inv), x, y, order)
    valid = base.valid & tilted.valid & base.flag(1)[0].valid

    fvals = _nvalue(base.f)
    c = inv.center_array.reshape((-1,) + (1,) * (fvals.ndim - 1))
    d = fvals - c
    rho = np.sum(d * d, axis=0)
    R2 = inv.radius**2

    G, seconds = _coordinate_shape_data(base)
    Gt, seconds_t = _coordinate_shape_data(tilted)

    shape_res = np.zeros(base.batch)
    for fr in base.flag(1)[0].frames:
        mu = _nvalue(fr)
        mu_t = inv.reflect(fvals, mu)
        A = _shape_endomorphism(G, seconds, mu)
        At = _shape_endomorphism(Gt, seconds_t, mu_t)
        eye = np.eye(2).reshape((1,) * (A.ndim - 2) + (2, 2))
        law = (rho[..., None, None] * A + 2 * np.sum(d * mu, 0)[..., None, None] * eye) / R2
        scale = np.maximum(np.abs(At).max(axis=(-2, -1)), np.abs(law).max(axis=(-2, -1)))
        res = np.abs(At - law).max(axis=(-2, -1)) / np.maximum(scale, 1e-300)
        shape_res = np.maximum(shape_res, res)

    H_direct = _nvalue(tilted.mean_curvature())
    Hb = _nvalue(base.mean_curvature())
    e1 = _nvalue(base.e1)
    e2 = _nvalue(base.e2)
    d_normal = d - np.sum(d * e1, 0) * e1 - np.sum(d * e2, 0) * e2
    H_law = (rho * inv.reflect(fvals, Hb) + 2 * inv.reflect(fvals, d_normal)) / R2
    hscale = np.maximum(
        np.linalg.norm(H_direct, axis=0), np.linalg.norm(H_law, axis=0)
    )
    mean_res = np.linalg.norm(H_direct - H_law, axis=0) / np.maximum(hscale, 1e-300)

    return {
        "shape_residual": shape_res,
        "mean_residual": mean_res,
        "H_direct": H_direct,
        "H_law": H_law,
        "valid": valid,
    }


def mean_curvature_norm(surface: SurfaceEvaluator, x, y, order: int = 2):
    """||H|| over a batch, with the validity mask (convenience)."""
    bundle = SurfaceJets(surface, x, y, order)
    H = _nvalue(bundle.mean_curvature())
    return np.linalg.norm(H, axis=0), bundle.valid


def normal_isometry(at_point, mu, inv: InversionSpec):
    """Transport a normal vector through the inversion (a reflection).

    `at_point` is the ambient base point q of the normal mu; the result
    is normal to the inverted surface at I(q), with the same length.
    Raises PoleProximity at the sphere center.
    """
    q = np.asarray(at_point, dtype=float)
    d = q - inv.center_array
    dsq = float(d @ d)
    if dsq <= (POLE_RTOL * inv.radius) ** 2:
        raise PoleProximity("normal transport undefined at the inversion center")
    mu = np.asarray(mu, dtype=float)
    return mu - 2.0 * float(mu @ d) / dsq * d


def inverted_shape_and_mean(surface: SurfaceEvaluator, p, inv: InversionSpec,
                            order: int = 3):
    """Both routes to the inverted surface's shape data at one point.

    Returns a dict holding, for each first-normal direction of the base
    surface, the shape endomorphism of the inverted surface along the
    transported normal computed (a) directly from inverted jets and
    (b) from the closed-form inversion law, plus the mean curvature
    vector both ways.  Raises PoleProximity / NotImmersion.
    """
    from .errors import NotImmersion

    x = np.asarray([p[0]], dtype=float)
    y = np.asarray([p[1]], dtype=float)
    fv = surface.jets(x, y, 2).value().real[:, 0]
    dist = np.linalg.norm(fv - inv.center_array)
    if dist <= POLE_RTOL * inv.radius:
        raise PoleProximity(f"point {tuple(p)} maps into the inversion center")
    res = transformation_residuals(surface, inv, x, y, order)
    if not res["valid"][0]:
        raise NotImmersion(f"surface or its inversion degenerates at {tuple(p)}")
    return {
        "shape_residual": float(res["shape_residual"][0]),
        "mean_residual": float(res["mean_residual"][0]),
        "H_direct": res["H_direct"][:, 0],
        "H_law": res["H_law"][:, 0],
    }


def first_normal_rank(surface: SurfaceEvaluator, p, order: int = 2) -> int:
    """Rank of the span of the second-form values at one point."""
    from .errors import NotImmersion
    from .geometry import first_normal_rank as batched_rank

    x = np.asarray([p[0]], dtype=float)
    y = np.asarray([p[1]], dtype=float)
    bundle = SurfaceJets(surface, x, y, order)
    if not bundle.immersed[0]:
        raise NotImmersion(f"differential rank < 2 at {tuple(p)}")
    rank, _ = batched_rank(bundle)
    return int(rank[0])


def _minimality_points(pb):
    """Per-point arrays of the residual system, flattened to (n, points)
    or (points,); they depend on the pedal bundle only, so each bundle
    computes them once for all its blocks of centers."""
    if "minimality" not in pb._cache:
        n = len(pb.foot)
        lev1 = pb.base.flag(1)[0]
        fields = (pb.foot, pb.tangent_part, pb.first_normal_part, pb.higher_normal_part,
                  pb.base.e1, pb.base.e2, lev1.frames[0], lev1.frames[1])
        g, Z, delta, eta, *frames = (_nvalue(v).reshape(n, -1) for v in fields)
        pb._cache["minimality"] = (
            g, np.sum(g * g, axis=0), Z - delta, np.sum(delta * delta, axis=0),
            pb.rotation_section().reshape(n, -1), eta, np.sum(eta * eta, axis=0),
            frames, pb.osc_norm_sq.value().real.reshape(-1),
        )
    return pb._cache["minimality"]


def minimality_residuals(pedal_bundle, centers, radius: float, valid=None):
    """Residual system for "some inversion makes the pedal minimal".

    The inverted pedal is minimal at a point only if three residuals
    vanish there simultaneously (one scalar pairing against the pedal
    point's rotation combination, one affine scalar, one higher-normal
    vector norm); minimality of the whole patch needs them to vanish at
    every grid point for a single center.  This evaluates the system in
    closed form for a batch of candidate centers against cached pedal
    data, plus the resulting ||H|| of the inverted pedal.

    Returns dict with arrays over (centers, points): r1, r2, r3,
    mean_norm, pos_sq = ||g - p0||^2 (floored at 1e-300), and the
    per-center infeasibility margin max-over-points of the combined
    normalized residual, taken over the flat point mask `valid`
    (default: the pedal bundle's flag mask).  Every array is at most
    (centers, points), so a caller with a large lattice passes it in
    blocks of centers to bound memory; each center's row does not
    depend on the other centers.
    """
    g, g_sq, z_minus_delta, delta_sq, rot, eta, eta_sq, frames, theta = (
        _minimality_points(pedal_bundle))
    n = g.shape[0]
    if valid is None:
        valid = pedal_bundle.valid.reshape(-1)

    C = np.asarray(centers, dtype=float)
    if C.ndim == 1:
        C = C[None, :]
    if C.shape[1] != n:
        raise ConfigError(f"centers have dimension {C.shape[1]}, surface {n}")

    c_sq = np.sum(C * C, axis=1)[:, None]
    # r1 = ||g - p0||^2 - ||delta||^2 - <p0, Z - delta>
    r1 = g_sq + c_sq - 2.0 * C @ g - delta_sq - C @ z_minus_delta
    r2 = C @ rot
    # r3 = || eta - (component of p0 orthogonal to tangent + first normal) ||
    proj_sq = sum((C @ fr) ** 2 for fr in frames)
    r3_sq = eta_sq - 2.0 * (C @ eta) + c_sq - proj_sq
    r3 = np.sqrt(np.maximum(r3_sq, 0.0))

    mean_norm = (2.0 / radius**2) * np.sqrt(
        np.maximum((r1**2 + r2**2) / np.maximum(theta, 1e-300) + r3**2, 0.0)
    )
    # normalize each residual by a natural scale of the same homogeneity:
    # ||g - p0||^2 over (centers, points), summed axis by axis in the order
    # of an axis-0 sum but without an (n, centers, points) temporary
    pos_sq = (g[0] - C[:, :1]) ** 2
    for k in range(1, n):
        pos_sq += (g[k] - C[:, k:k + 1]) ** 2
    np.maximum(pos_sq, 1e-300, out=pos_sq)
    norm1 = np.abs(r1) / pos_sq
    norm2 = np.abs(r2) / pos_sq
    norm3 = np.abs(r3) / np.sqrt(pos_sq)
    combined = np.maximum(np.maximum(norm1, norm2), norm3)
    combined = np.where(valid[None, :], combined, 0.0)
    margin = combined.max(axis=1)  # minimality needs all points at once
    return {
        "r1": r1,
        "r2": r2,
        "r3": r3,
        "mean_norm": mean_norm,
        "pos_sq": pos_sq,
        "margin_per_center": margin,
        "margin": float(margin.min()) if margin.size else float("nan"),
        "valid": valid,
    }
