"""Independent routes to quantities the library computes, for the tests.

None of this is reached by a command.  Each function recomputes, along a
second route, something the library derives along its own (the Gauss
curvature from the metric alone, the third form by differentiating the
second, the first flag level and the (2,0) form from the coordinate
partials, the second-order data at the bundle's full order, the
inversion laws against direct jets of an inverted surface,
polynomial values by numpy's `polyval`, the number of curvature circles
from float flag levels at a few points, the reciprocal and square root by
the Horner loops `Jet` ran before its binomial kernel), reads a jet (derivative values,
metric jets), or builds test inputs (coordinate jets, random specs,
rotated curves).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval

from isopedal.cpoly import cp_add, cp_scale
from isopedal.geometry import FRAME_EPS, SurfaceJets, _nvalue
from isopedal.jets import Jet, _at, _divided, jet_gram_schmidt
from isopedal.moebius import invert_evaluator, minimality_residuals
from isopedal.pedal import normal_part
from isopedal.verify import _traceless_scale
from isopedal.weierstrass import IsotropicSpec, SurfaceEvaluator

_TINY = 1e-300


# -- polynomials and jets -------------------------------------------------------


def curve_values(u, z):
    """Values of every component of the polynomial vector `u` at `z`, by
    numpy's `polyval` (the zero polynomial, [], is 0)."""
    return np.array([polyval(z, p or [0]) for p in u])


def cv_linear_map(mat, u):
    """Apply a constant matrix (rows x len(u)) to a polynomial vector."""
    mat = np.asarray(mat)
    if mat.shape[1] != len(u):
        raise ValueError(f"matrix columns {mat.shape[1]} != components {len(u)}")
    out = []
    for row in mat:
        acc = []
        for c, p in zip(row, u):
            acc = cp_add(acc, cp_scale(p, c))
        out.append(acc)
    return out


def coordinate(x0, axis, order):
    """The jet of the coordinate function x (axis=0) or y (axis=1) at x0."""
    x0 = np.asarray(x0)
    t = np.zeros(((order + 1) * (order + 2) // 2,) + x0.shape, dtype=np.result_type(x0, float))
    t[0] = x0
    if order >= 1:
        if axis == 0:
            t[_at(order + 1, 1, 0)] = 1.0
        else:
            t[_at(order + 1, 0, 1)] = 1.0
    return Jet._of(t)


def deriv(jet, i, j):
    """Derivative value d^{i+j}/dx^i dy^j (unscaled) of a jet or jet vector."""
    if i + j > jet.order:
        raise ValueError(f"derivative ({i},{j}) beyond jet order {jet.order}")
    return jet.t[_at(jet.order + 1, i, j)] * (math.factorial(i) * math.factorial(j))


def _normalized(a: Jet, bad, guard):
    """u = a/a0 - 1 and the a0 it divides by; with a guard, a0 is 1 where
    the guard fails or `bad` holds."""
    a0 = a.value()
    if guard is not None:
        a0 = np.where(np.asarray(guard, dtype=bool) & ~bad, a0, 1.0)
    u = Jet._of(_divided(a.t, a0))
    u.t[0] = 0.0
    return u, a0


def alternating_recip(a: Jet, guard=None):
    """1/a by the alternating Horner loop acc <- 1 - u * acc, `order`
    times from acc = 1 (the loop `Jet.recip` ran before the binomial
    kernel)."""
    a0 = a.value()
    u, a0 = _normalized(a, ~(np.abs(a0) > 1e-12 * np.max(np.abs(a.t), axis=0)), guard)
    acc = Jet.const(np.ones(u.batch), a.order)
    for _ in range(a.order):
        acc = -(u * acc)
        acc.t[0] += 1.0
    return Jet._of(_divided(acc.t, a0))


def horner_sqrt(a: Jet, guard=None):
    """sqrt(a) by Horner's rule on the binomial(1/2, k) table (the loop
    `Jet.sqrt` ran before the binomial kernel)."""
    a0 = a.value()
    u, a0 = _normalized(
        a, ~((a0.real > 0) & (np.abs(a0.imag) <= 1e-9 * np.abs(a0) + 1e-300)), guard)
    series = [1.0]
    for k in range(a.order):
        series.append(series[-1] * (0.5 - k) / (k + 1))
    acc = Jet.const(np.full(u.batch, series[-1]), a.order)
    for k in range(a.order - 1, -1, -1):
        acc = u * acc
        acc.t[0] += series[k]
    return Jet._of(acc.t * np.sqrt(a0))


def sample_spec(rng: np.random.Generator, max_dim: int = 12, max_degree: int = 3) -> IsotropicSpec:
    """Draw a random admissible spec (for stress tests)."""
    m = int(rng.integers(1, 4))
    lo = 2 * (m + 1)
    n = int(rng.integers(lo, max_dim + 1))
    seed_dim = n - lo

    def rand_poly(min_deg=0):
        deg = int(rng.integers(min_deg, max_degree + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if abs(coeffs[-1]) < 1e-3:
            coeffs[-1] += 1.0
        return list(coeffs)

    alpha0 = [rand_poly() for _ in range(seed_dim)]
    betas = [rand_poly() for _ in range(m + 1)]
    return IsotropicSpec(ambient_dim=n, isotropy_order=m, alpha0=alpha0, betas=betas)


# -- intrinsic and higher-order geometry ----------------------------------------


def first_fundamental(bundle: SurfaceJets):
    """(E, F, G) as jets of order d-1."""
    fx, fy = bundle.partial(1, 0), bundle.partial(0, 1)
    return fx.norm_sq(), fx.dot(fy), fy.norm_sq()


def intrinsic_gauss(bundle: SurfaceJets):
    """Gauss curvature from the metric alone (Brioschi determinants)."""
    E, F, G = first_fundamental(bundle)
    if E.order < 2:
        raise ValueError("intrinsic curvature needs metric jets of order >= 2")

    def d(j, i, jj):
        return deriv(j, i, jj).real

    Ev, Fv, Gv = d(E, 0, 0), d(F, 0, 0), d(G, 0, 0)
    Eu, Ev_ = d(E, 1, 0), d(E, 0, 1)
    Fu, Fv_ = d(F, 1, 0), d(F, 0, 1)
    Gu, Gv_ = d(G, 1, 0), d(G, 0, 1)
    Evv = d(E, 0, 2)
    Fuv = d(F, 1, 1)
    Guu = d(G, 2, 0)

    def det3(rows):
        m = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
        return np.linalg.det(m)

    m1 = det3([
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev_],
        [Fv_ - 0.5 * Gu, Ev, Fv],
        [0.5 * Gv_, Fv, Gv],
    ])
    m2 = det3([
        [np.zeros_like(Ev), 0.5 * Ev_, 0.5 * Gu],
        [0.5 * Ev_, Ev, Fv],
        [0.5 * Gu, Fv, Gv],
    ])
    den = np.maximum((Ev * Gv - Fv * Fv) ** 2, _TINY)
    return (m1 - m2) / den


def isotropy_order(surface: SurfaceEvaluator, x, y, order, tol=1e-6):
    """(r, worst defects): the largest r such that ellipses 1..r are
    circles across the points, from the float flag levels.

    Only rank-2 flag levels can carry circles; the scan stops at the
    first level that fails the tolerance, is rank deficient, or exceeds
    the jet order.
    """
    bundle = SurfaceJets(surface, x, y, order)
    result = 0
    defects = []
    for s in range(1, bundle.flag_capacity() + 1):
        if s >= 2:
            lev = bundle.flag(s)[s - 1]
            if len(lev.frames) < 2:
                break
            mask = lev.valid
        else:
            mask = bundle.valid
        if not np.any(mask):
            break
        defect, _ = bundle.circle_defect(s)
        worst = float(np.max(np.where(mask, defect, 0.0)))
        defects.append(worst)
        if worst <= tol:
            result = s
        else:
            break
    return result, defects


def third_form_recursive_defect(bundle: SurfaceJets):
    """Cross-check of the third fundamental form's two constructions.

    Computes, for each pair of coordinate directions, the derivative of
    the second-form field along the third direction, projects it onto the
    orthogonal complement of tangent + first normal space, and compares
    with the osculating-projection value.  Returns the max relative
    defect per point.
    """
    lev = bundle.flag(2)
    n1_frames = lev[0].frames
    frames_all = [bundle.e1, bundle.e2] + n1_frames
    h = {
        (2, 0): bundle.tangent_project_off(bundle.partial(2, 0)),
        (1, 1): bundle.tangent_project_off(bundle.partial(1, 1)),
        (0, 2): bundle.tangent_project_off(bundle.partial(0, 2)),
    }
    # osculating route: projected third partials
    osc = {
        (3, 0): bundle.partial(3, 0).project_off(frames_all),
        (2, 1): bundle.partial(2, 1).project_off(frames_all),
        (1, 2): bundle.partial(1, 2).project_off(frames_all),
        (0, 3): bundle.partial(0, 3).project_off(frames_all),
    }
    scale = np.maximum.reduce([np.max(np.abs(_nvalue(v)), axis=0) for v in osc.values()])
    scale = np.maximum(scale, _TINY)
    worst = np.zeros(bundle.batch)
    for (i, j), fld in h.items():
        for axis in (0, 1):
            der = fld.dx() if axis == 0 else fld.dy()
            rec = bundle.tangent_project_off(der).project_off(n1_frames)
            tgt = osc[(i + 1, j)] if axis == 0 else osc[(i, j + 1)]
            diff = np.max(np.abs(_nvalue(rec) - _nvalue(tgt)), axis=0)
            worst = np.maximum(worst, diff / scale)
    return worst


# -- second-order quantities along the coordinate partials ------------------------


def ck_first_level_pair(bundle: SurfaceJets):
    """(u, v) of flag level 1 from the second partials d_k f: the sums of
    d_k f weighted by the real and the imaginary parts of the complex
    coefficient jets c_k = C(2, k) cx^(2-k) cy^k, each projected off the
    tangent plane once, u = 2 P(sum d_k f Re c_k), v = -2 P(sum d_k f Im c_k)."""
    cx, cy = bundle.complex_tangent_coeffs()
    coeffs = (cx * cx, (cx * cy).scale(2), cy * cy)
    re = im = None
    for k, c in enumerate(coeffs):
        raw = bundle.partial(2 - k, k)
        re_k, im_k = raw.scale(c.real()), raw.scale(c.imag())
        re = re_k if re is None else re + re_k
        im = im_k if im is None else im + im_k
    return bundle.tangent_project_off(re).scale(2.0), bundle.tangent_project_off(im).scale(-2.0)


def uncapped_second_order(bundle: SurfaceJets):
    """The second form, the pedal's first-normal part delta and theta =
    |Z|^2 + |delta|^2 as jets at the bundle's exact order d - 2, uncapped:
    the full second partials projected off the tangent plane and
    contracted with the frame coefficients at order d - 1, flag level 1's
    frames orthonormalised from the traceless pair at that order, and the
    pedal point and tangential part at order d - 1."""
    a, c = bundle._invs
    b = -(a * bundle.partial(0, 1).dot(bundle.e1)) * c
    h_xx, h_xy, h_yy = (bundle.tangent_project_off(bundle.partial(*key))
                        for key in ((2, 0), (1, 1), (0, 2)))
    a11 = h_xx.scale(a * a)
    a12 = h_xx.scale(a * b) + h_xy.scale(a * c)
    a22 = h_xx.scale(b * b) + h_xy.scale((b * c).scale(2.0)) + h_yy.scale(c * c)
    (e3, e4), _, _ = jet_gram_schmidt([(a11 - a22).scale(0.5), a12],
                                      guard=bundle.flag(1)[0].valid, eps=FRAME_EPS)
    g = normal_part(bundle, bundle.f)
    delta = e3.scale(g.dot(e3)) + e4.scale(g.dot(e4))
    return {"second_fundamental": (a11, a12, a22), "first_normal_part": delta,
            "theta": (bundle.f - g).norm_sq() + delta.norm_sq()}


def unit_delta_wirtinger(bundle: SurfaceJets):
    """<d_z e3, f5>, complex values, with e3 = delta/|delta| rebuilt as a
    jet from the uncapped first-normal part and f5 the first frame of flag
    level 2: the derivative the S-Willmore scalar route takes, by jet
    differentiation of e3 itself.  Junk where delta vanishes."""
    delta = uncapped_second_order(bundle)["first_normal_part"]
    dsq = delta.norm_sq()
    ok = bundle.flag(1)[0].valid & (dsq.value() > 0)
    e3 = delta.scale(dsq.sqrt(guard=ok).recip(guard=ok))
    return e3.wirtinger().dot_value(bundle.flag(2)[1].frames[0])


def projected_fzz(bundle: SurfaceJets):
    """The (2,0) form as a complex jet: the normal part of
    f_zz = (f_xx - f_yy - 2i f_xy)/4."""
    fzz = (bundle.partial(2, 0) - bundle.partial(0, 2) - bundle.partial(1, 1).scale(2j)).scale(0.25)
    return bundle.tangent_project_off(fzz)


def coordinate_alpha_dz(bundle: SurfaceJets, Z):
    """alpha(dz, Z), values, for tangent vectors Z (n, *batch): Z written as
    p f_x + q f_y through the frame coefficients, against the second
    partials' normal parts h_xx, h_xy, h_yy."""
    tangent = [bundle.e1.truncate(0), bundle.e2.truncate(0)]
    hxx, hxy, hyy = (_nvalue(bundle.partial(*key).truncate(0).project_off(tangent))
                     for key in ((2, 0), (1, 1), (0, 2)))
    a, b, c = (j.value().real for j in bundle.tangent_coeff_jets)
    z1 = np.sum(Z * _nvalue(bundle.e1), axis=0)
    z2 = np.sum(Z * _nvalue(bundle.e2), axis=0)
    p = z1 * a + z2 * b
    q = z2 * c
    return 0.5 * ((p * hxx + q * hxy) - 1j * (p * hxy + q * hyy))


# -- sphere inversions on raw points and their closed-form laws ------------------


def _offsets(center, points):
    p = np.asarray(points, dtype=float)
    return np.asarray(center, dtype=float).reshape((-1,) + (1,) * (p.ndim - 1)), p


def invert_points(center, radius, points):
    """Invert raw points, shape (n, ...), in the sphere about `center`; no masking."""
    c, p = _offsets(center, points)
    d = p - c
    dsq = np.sum(d * d, axis=0)
    return c + radius**2 * d / np.maximum(dsq, 1e-300)


def reflect(center, at_points, vectors):
    """Apply the reflection P_d, d = point - center, at each base point to
    ambient vectors: the inversion's differential up to its factor."""
    c, p = _offsets(center, at_points)
    d = p - c
    dsq = np.maximum(np.sum(d * d, axis=0), 1e-300)
    v = np.asarray(vectors, dtype=float)
    return v - 2 * np.sum(v * d, axis=0) * d / dsq


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


def transformation_residuals(surface: SurfaceEvaluator, center, radius: float, x, y,
                             order: int = 3):
    """Closed-form inversion laws vs direct jet differentiation.

    For each first-normal frame direction mu of the base surface the
    shape operator of the inverted surface along the reflected normal is
    computed twice -- once from the inverted jets, once from the
    transformation law

        shape~_{P_d(mu)} = (||d||^2 A_mu + 2 <d, mu> Id) / R^2,

    -- and likewise the mean curvature vector,

        H~ = (||d||^2 P_d(H) + 2 P_d(d_normal)) / R^2.

    Returns per-point relative residuals and the comparison data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = SurfaceJets(surface, x, y, order)
    # the inversion of radius R: the unit one scaled by R^2 about its center
    R2 = radius**2
    c = np.asarray(center, dtype=float)
    inverted = invert_evaluator(surface, c).affine(scale=R2, translation=(1 - R2) * c)
    tilted = SurfaceJets(inverted, x, y, order)
    valid = base.valid & tilted.valid & base.flag(1)[0].valid

    fvals = _nvalue(base.f)
    c, _ = _offsets(center, fvals)
    d = fvals - c
    rho = np.sum(d * d, axis=0)

    G, seconds = _coordinate_shape_data(base)
    Gt, seconds_t = _coordinate_shape_data(tilted)

    shape_res = np.zeros(base.batch)
    for fr in base.flag(1)[0].frames:
        mu = _nvalue(fr)
        mu_t = reflect(center, fvals, mu)
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
    H_law = (rho * reflect(center, fvals, Hb) + 2 * reflect(center, fvals, d_normal)) / R2
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


# -- the inversion lattice --------------------------------------------------------


def dense_inversion_defects(pipe, centers):
    """The exhaustive lattice evaluation: inversion.norm and inversion.system
    defects with every center evaluated at every point, from dense
    (centers, points) arrays over consecutive chunks of at most 729
    centers (a row does not depend on its chunk), rho recomputed here."""
    valid = pipe.split.valid.reshape(-1) & pipe.mask()
    g = pipe.split.foot.value().real.reshape(pipe.evaluator.ambient_dim, -1)
    scale = np.maximum(_traceless_scale(pipe.pedal)[None, :], _TINY)
    norms, systems = [], []
    for part in np.array_split(centers, -(-len(centers) // 729)):
        res = minimality_residuals(pipe.split, part)
        rho = np.maximum(np.sum((g[:, None, :] - part.T[:, :, None]) ** 2, axis=0), _TINY)
        ratio = 2.0 * (res["mean_norm"] / (2.0 * rho)) / scale
        combined = np.maximum(
            np.maximum(np.abs(res["r1"]) / rho, np.abs(res["r2"]) / rho),
            np.abs(res["r3"]) / np.sqrt(rho),
        )
        norms.append(np.where(valid[None, :], ratio, 0.0).max(axis=1))
        systems.append(np.where(valid[None, :], combined, 0.0).max(axis=1))
    return float(np.concatenate(norms).min()), float(np.concatenate(systems).min())
