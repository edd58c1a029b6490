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
The mean-curvature law underlies the residual system below; verify's
`inversion.crosscheck` compares that system with direct jets of the
inverted pedal, and the tests check both laws against direct jets.

Everything degenerates on the sphere center: points within
POLE_RTOL * R of the center are masked out.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import _nvalue
from .jets import JetVec
from .weierstrass import SurfaceEvaluator

POLE_RTOL = 1e-9


def invert_jets(f: JetVec, valid, centers, radius: float):
    """(jets, valid) of the jets f inverted in the spheres of `radius`
    about `centers`, the pole mask ANDed into `valid`.

    One center, shape (n,), keeps f's batch.  A stack of k centers, shape
    (k, n), gives the k inversions stacked on a leading batch axis, batch
    (k, *f.batch), slice i the inversion about center i, all in the same
    numpy calls.  Points closer than POLE_RTOL * radius to their center
    are masked invalid.
    """
    C = np.asarray(centers, dtype=float)
    if C.ndim == 2:
        f = JetVec._of(np.repeat(f.t[:, :, :, None], len(C), axis=3))
    c = C.T
    d = f.translate(-c)
    dsq = d.norm_sq()
    good = np.abs(dsq.value()) > (POLE_RTOL * radius) ** 2
    scale = dsq.recip(guard=good).scale(radius**2)
    return d.scale(scale).translate(c), valid & good


def invert_evaluator(surface: SurfaceEvaluator, centers, radius: float) -> SurfaceEvaluator:
    """Evaluator of the surface inverted in the spheres of `radius` about
    `centers`, with a pole-proximity mask.

    One center, shape (n,), keeps the surface's batch; a stack of k
    centers, shape (k, n), gives the k inversions stacked on a leading
    batch axis (see `invert_jets`).  Inversion is an analytic ambient
    map, so jets compose without order loss.  Points closer than
    POLE_RTOL * radius to their center are masked invalid, on top of the
    surface's own mask.
    """
    C = np.asarray(centers, dtype=float)
    if C.ndim not in (1, 2) or C.shape[-1] != surface.ambient_dim:
        raise ConfigError(f"inversion centers have shape {C.shape}, "
                          f"surface lives in dimension {surface.ambient_dim}")
    if not np.all(np.isfinite(C)):
        raise ConfigError("inversion center must be finite")
    if not (np.isfinite(radius) and radius > 0):
        raise ConfigError(f"inversion radius must be positive, got {radius}")

    def fn(x, y, order):
        return invert_jets(*surface.evaluate(x, y, order), C, radius)

    return SurfaceEvaluator(
        ambient_dim=surface.ambient_dim,
        provenance=f"invert({surface.provenance}; "
        f"center={np.round(C, 6).tolist()}, radius={radius:g})",
        fn=fn,
    )


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


def minimality_residuals(pedal_bundle, centers, valid=None):
    """Residual system for "some inversion makes the pedal minimal".

    The inverted pedal is minimal at a point only if three residuals
    vanish there simultaneously (one scalar pairing against the pedal
    point's rotation combination, one affine scalar, one higher-normal
    vector norm); minimality of the whole patch needs them to vanish at
    every grid point for a single center.  This evaluates the system in
    closed form for a stack of candidate centers, shape (k, n), against
    cached pedal data, plus the resulting ||H|| of the pedal inverted at
    unit radius (radius R divides it by R^2: a homothety, which leaves
    minimality and every other quantity here unchanged).

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
    c_sq = np.sum(C * C, axis=1)[:, None]
    # r1 = ||g - p0||^2 - ||delta||^2 - <p0, Z - delta>
    r1 = g_sq + c_sq - 2.0 * C @ g - delta_sq - C @ z_minus_delta
    r2 = C @ rot
    # r3 = || eta - (component of p0 orthogonal to tangent + first normal) ||
    proj_sq = sum((C @ fr) ** 2 for fr in frames)
    r3_sq = eta_sq - 2.0 * (C @ eta) + c_sq - proj_sq
    r3 = np.sqrt(np.maximum(r3_sq, 0.0))

    mean_norm = 2.0 * np.sqrt(
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
    return {
        "r1": r1,
        "r2": r2,
        "r3": r3,
        "mean_norm": mean_norm,
        "pos_sq": pos_sq,
        # minimality needs all points at once
        "margin_per_center": combined.max(axis=1),
    }
