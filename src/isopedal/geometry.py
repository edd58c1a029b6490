"""Differential geometry of surface patches from exact jets.

Everything here is computed pointwise from the jet of the immersion:
orthonormal tangent/normal frames come from Gram-Schmidt *in jet
arithmetic* (so the frames are differentiable fields, not just values),
fundamental forms of all orders come from projecting pure partial
derivatives onto the orthogonal complement of the lower osculating
spaces, and connection forms come from differentiating the frame fields.

Conventions fixed here and used by the rest of the package:

* (x, y) are the surface parameters; for the generated surfaces they are
  isothermal.  The complexified tangent direction is the Wirtinger
  vector d = (d/dx - i d/dy)/2 and J acts on it as multiplication by i.
* The orthonormal tangent frame is (e1, e2) = Gram-Schmidt(f_x, f_y);
  higher normal frames are oriented by the pair

      u_s = (s+1)-th form (e1, ..., e1),
      v_s = (s+1)-th form (e2, e1, ..., e1),

  i.e. the conjugate semi-diameters of the s-th curvature ellipse.
* The s-th curvature ellipse is traced by the (s+1)-th fundamental form
  on the rotating unit tangent; the top-frequency pair (u_s, v_s) is
  extracted through the complex combination A_s = form(E, ..., E) with
  E = (e1 - i e2)/2, via u_s = 2 Re A_s, v_s = -2 Im A_s.  For minimal
  surfaces the lower frequencies vanish and the pair *is* the ellipse.
* The circle defect of an ellipse with conjugate semi-diameters (u, v)
  is max(|<u,v>|, a * | ||u|| - ||v|| |) / a^2 with a = max(||u||,||v||):
  dimensionless, zero exactly for circles.

Grid pipelines never raise on degenerate points: every batched quantity
carries a validity mask and bad points are excluded from reports.  The
single-point wrappers at the bottom raise instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateEllipse, NotImmersion, NotRegular
from .jets import DEFAULT_ORDER, Jet, JetVec, jet_gram_schmidt
from .weierstrass import SurfaceEvaluator

IMMERSION_RTOL = 1e-12
FRAME_EPS = 1e-9
RANK_SV_RTOL = 1e-7
_TINY = 1e-300


def _nvalue(jv: JetVec):
    """Order-0 values of a real jet vector, shape (n, *batch), as floats."""
    return jv.value().real


@dataclass
class FlagLevel:
    """One step N_s of the normal flag of a minimal surface."""

    index: int                    # s: this is N_s
    expected_rank: int
    rank: np.ndarray              # detected rank per point
    frames: list                  # jet frames spanning N_s (oriented)
    u: JetVec                     # top-frequency conjugate semi-diameters
    v: JetVec
    axes: tuple                   # (a, b) semi-axis arrays, a >= b
    lam: np.ndarray               # axis ratio b/a in [0, 1]
    circle_defect: np.ndarray
    square_defect: np.ndarray     # |bilinear square of A_s| / a^2
    valid: np.ndarray


def _ellipse_from_diameters(u0, v0):
    """Semi-axes, ratio and circle defect from conjugate semi-diameters.

    The ellipse {cos(t) u + sin(t) v} has semi-axes equal to the singular
    values of the matrix [u v]; they come from the 2x2 Gram matrix in
    closed form.
    """
    uu = np.sum(u0 * u0, axis=0)
    vv = np.sum(v0 * v0, axis=0)
    uv = np.sum(u0 * v0, axis=0)
    tr = uu + vv
    disc = np.sqrt(np.maximum((uu - vv) ** 2 + 4 * uv * uv, 0.0))
    a = np.sqrt(np.maximum((tr + disc) / 2, 0.0))
    b = np.sqrt(np.maximum((tr - disc) / 2, 0.0))
    amax_sq = np.maximum(np.maximum(uu, vv), _TINY)
    defect = np.maximum(np.abs(uv), np.sqrt(amax_sq) * np.abs(np.sqrt(uu) - np.sqrt(vv))) / amax_sq
    # bilinear square of A = (u - iv)/2: (uu - vv - 2i uv)/4
    square = 0.25 * np.hypot(uu - vv, 2 * uv) / amax_sq
    lam = b / np.maximum(a, _TINY)
    return a, b, lam, defect, square


class SurfaceJets:
    """All jet-level geometric data of a surface over a batch of points.

    The constructor only lifts the jets and builds the tangent frame;
    second-order and flag data are computed on demand and cached.  The
    running `valid` mask marks points where everything requested so far
    is trustworthy.
    """

    def __init__(self, surface: SurfaceEvaluator, x, y, order: int = DEFAULT_ORDER):
        if order < 2:
            raise ValueError("geometry needs jets of order >= 2")
        self.surface = surface
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.order = order
        self.f, base = surface.evaluate(self.x, self.y, order)
        self.n = len(self.f)
        self.batch = self.f.batch
        self._partials = {(0, 0): self.f}

        base = np.broadcast_to(base, self.batch)
        fx, fy = self.partial(1, 0), self.partial(0, 1)
        E0 = fx.norm_sq().value().real
        F0 = fx.dot(fy).value().real
        G0 = fy.norm_sq().value().real
        det = E0 * G0 - F0 * F0
        scale = np.maximum(E0, G0)
        self.immersed = base & (det > IMMERSION_RTOL * scale * scale) & (scale > 0)
        frames, rows, ok = jet_gram_schmidt(
            [fx, fy], eps=FRAME_EPS, guard=self.immersed, with_coeffs=True
        )
        self.e1, self.e2 = frames
        self._rows = rows
        self.valid = self.immersed & ok
        self._levels = []
        self._levels_valid = self.valid
        self._cache = {}

    # -- derivatives -----------------------------------------------------

    def partial(self, i, j) -> JetVec:
        """Jet of the pure partial d^{i+j} f / dx^i dy^j (order drops)."""
        key = (i, j)
        got = self._partials.get(key)
        if got is None:
            if i > 0:
                got = self.partial(i - 1, j).dx()
            else:
                got = self.partial(0, j - 1).dy()
            self._partials[key] = got
        return got

    # -- first order -------------------------------------------------------

    def first_fundamental(self):
        """(E, F, G) as jets of order d-1."""
        key = "fff"
        if key not in self._cache:
            fx, fy = self.partial(1, 0), self.partial(0, 1)
            self._cache[key] = (fx.norm_sq(), fx.dot(fy), fy.norm_sq())
        return self._cache[key]

    def tangent_coeff_jets(self):
        """(a, b, c) with e1 = a f_x and e2 = b f_x + c f_y."""
        return self._rows[0][0], self._rows[1][0], self._rows[1][1]

    def complex_tangent_coeffs(self):
        """(cx, cy) with (e1 - i e2)/2 = cx f_x + cy f_y (jets)."""
        a, b, c = self.tangent_coeff_jets()
        return (a - b.scale(1j)).scale(0.5), (-c.scale(1j)).scale(0.5)

    def frame_domain_vectors(self):
        """Coordinate components (X1, X2) of e1, e2 as domain fields."""
        a, b, c = self.tangent_coeff_jets()
        zero = Jet.zeros(a.order, self.batch)
        return (a, zero), (b, c)

    def tangent_project_off(self, v: JetVec) -> JetVec:
        return v.project_off([self.e1, self.e2])

    # -- second order --------------------------------------------------------

    def second_fundamental(self):
        """Jets of the second-form values on the orthonormal frame.

        Returns (alpha11, alpha12, alpha22) of order d-2, obtained by
        projecting the coordinate second derivatives off the tangent
        plane and contracting with the frame coefficients (the form is
        tensorial, so pointwise coefficients suffice; keeping them as
        jets makes the result a differentiable field).
        """
        key = "second"
        if key not in self._cache:
            h_xx = self.tangent_project_off(self.partial(2, 0))
            h_xy = self.tangent_project_off(self.partial(1, 1))
            h_yy = self.tangent_project_off(self.partial(0, 2))
            a, b, c = self.tangent_coeff_jets()
            a11 = h_xx.scale(a * a)
            a12 = h_xx.scale(a * b) + h_xy.scale(a * c)
            a22 = h_xx.scale(b * b) + h_xy.scale((b * c).scale(2.0)) + h_yy.scale(c * c)
            self._cache[key] = (a11, a12, a22)
        return self._cache[key]

    def mean_curvature(self) -> JetVec:
        a11, _, a22 = self.second_fundamental()
        return (a11 + a22).scale(0.5)

    def traceless_second(self):
        """(xi1, xi2) = ((a11 - a22)/2, a12): semi-diameters of the first ellipse."""
        a11, a12, a22 = self.second_fundamental()
        return (a11 - a22).scale(0.5), a12

    def alpha_wirtinger(self) -> JetVec:
        """Second form on the coordinate Wirtinger pair: normal part of f_zz."""
        key = "alpha_zz"
        if key not in self._cache:
            fzz = JetVec([
                (self.partial(2, 0)[k] - self.partial(0, 2)[k] - self.partial(1, 1)[k].scale(2j)).scale(0.25)
                for k in range(self.n)
            ])
            self._cache[key] = self.tangent_project_off(fzz)
        return self._cache[key]

    def laplacian(self) -> JetVec:
        return self.partial(2, 0) + self.partial(0, 2)

    # -- curvature scalars ----------------------------------------------------

    def curvature_scalars(self):
        """Dict of K, K_N (unsigned; signed for n=4), ||H||^2, Wintgen defect."""
        key = "scalars"
        if key not in self._cache:
            a11, a12, a22 = self.second_fundamental()
            xi1, xi2 = self.traceless_second()
            x1 = _nvalue(xi1)
            x2 = _nvalue(xi2)
            K = np.sum(_nvalue(a11) * _nvalue(a22), axis=0) - np.sum(_nvalue(a12) ** 2, axis=0)
            p = np.sum(x1 * x1, axis=0)
            q = np.sum(x2 * x2, axis=0)
            r = np.sum(x1 * x2, axis=0)
            KN = 2.0 * np.sqrt(np.maximum(p * q - r * r, 0.0))
            if self.n == 4:
                KN = KN * self._normal_orientation_sign(x1, x2)
            H = self.mean_curvature()
            H2 = np.sum(_nvalue(H) ** 2, axis=0)
            wintgen = H2 - K - np.abs(KN)
            self._cache[key] = {
                "K": K, "K_N": KN, "H_norm_sq": H2, "wintgen_defect": wintgen,
            }
        return self._cache[key]

    def _normal_orientation_sign(self, x1, x2):
        """Orientation sign of (xi1, xi2) against the ambient for n = 4."""
        lev = self.flag(1)[0]
        e3 = _nvalue(lev.frames[0])
        e4 = _nvalue(lev.frames[1]) if len(lev.frames) > 1 else np.zeros_like(e3)
        mats = np.stack([_nvalue(self.e1), _nvalue(self.e2), e3, e4], axis=-1)
        mats = np.moveaxis(mats, 0, -2)  # (*batch, 4, 4)
        return np.sign(np.linalg.det(mats))

    # -- higher order flag ---------------------------------------------------

    def flag_capacity(self):
        """Highest normal-space index constructible: jets and dimension."""
        return min((self.n - 1) // 2, self.order - 1)

    def flag(self, upto: Optional[int] = None):
        """Normal flag levels N_1 .. N_upto (minimal surfaces).

        Levels are built by projecting the pure (s+1)-th partials off the
        accumulated osculating frames; each level is oriented by its
        conjugate semi-diameter pair and orthonormalized in jet
        arithmetic.
        """
        if upto is None:
            upto = self.flag_capacity()
        if upto > self.flag_capacity():
            raise ValueError(
                f"flag level {upto} needs jets of order {upto + 1} "
                f"and ambient dimension {2 * upto + 2}; have order "
                f"{self.order}, dimension {self.n}"
            )
        while len(self._levels) < upto:
            self._build_level()
        return self._levels[:upto]

    def _build_level(self):
        r = len(self._levels) + 1
        s = r + 1  # derivative order feeding N_r
        frames_all = [self.e1, self.e2]
        for lev in self._levels:
            frames_all.extend(lev.frames)
        used = sum(len(lev.frames) for lev in self._levels)
        expected = min(2, self.n - 2 - used)
        raws = [self.partial(s - k, k) for k in range(s + 1)]
        projs = [p.project_off(frames_all) for p in raws]

        # detected rank of the projected span at order 0
        mat = np.stack([_nvalue(p) for p in projs], axis=-1)  # (n, *batch, s+1)
        mat = np.moveaxis(mat, 0, -2)  # (*batch, n, s+1)
        sv = np.linalg.svd(mat, compute_uv=False)
        top = np.maximum(sv[..., 0], _TINY)
        rank = np.sum(sv > RANK_SV_RTOL * top[..., None], axis=-1)

        # top-frequency pair through the complexified tangent
        cx, cy = self.complex_tangent_coeffs()
        cx_pow = [Jet.const(np.ones(self.batch), cx.order)]
        cy_pow = [Jet.const(np.ones(self.batch), cy.order)]
        for _ in range(s):
            cx_pow.append(cx_pow[-1] * cx)
            cy_pow.append(cy_pow[-1] * cy)
        A = None
        for k in range(s + 1):
            coeff = cx_pow[s - k] * cy_pow[k]
            term = projs[k].scale(coeff.scale(math.comb(s, k)))
            A = term if A is None else A + term
        u = A.real().scale(2.0)
        v = A.imag().scale(-2.0)

        a, b, lam, defect, square = _ellipse_from_diameters(_nvalue(u), _nvalue(v))

        prev_valid = self._levels_valid
        ok = prev_valid & (rank == expected)
        if expected >= 1:
            frames, gs_ok = jet_gram_schmidt([u, v][:expected], eps=FRAME_EPS, guard=ok)
            ok = ok & gs_ok
        else:
            frames = []
        level = FlagLevel(
            index=r,
            expected_rank=expected,
            rank=rank,
            frames=frames,
            u=u,
            v=v,
            axes=(a, b),
            lam=lam,
            circle_defect=defect,
            square_defect=square,
            valid=ok,
        )
        self._levels.append(level)
        self._levels_valid = ok

    def circle_defect(self, s: int):
        """Circle defect of the s-th curvature ellipse.

        s = 1 uses the traceless second form (the center is irrelevant);
        s >= 2 uses the flag level pair.
        """
        if s == 1:
            xi1, xi2 = self.traceless_second()
            _, _, lam, defect, square = _ellipse_from_diameters(_nvalue(xi1), _nvalue(xi2))
            return defect, square, lam
        lev = self.flag(s)[s - 1]
        return lev.circle_defect, lev.square_defect, lev.lam

    def normal_frames(self, upto=None):
        levels = self.flag(upto)
        out = []
        for lev in levels:
            out.extend(lev.frames)
        return out

    # -- connection forms ------------------------------------------------------

    def directional(self, w: JetVec, domain_vec) -> JetVec:
        """Derivative of the jet field w along a domain vector (jets)."""
        dx_c, dy_c = domain_vec
        return w.dx().scale(dx_c) + w.dy().scale(dy_c)

    def normal_project(self, v: JetVec) -> JetVec:
        return v.project_off([self.e1, self.e2])

    def connection_forms(self):
        """Connection 1-forms on the frame directions.

        Returns a dict with
          psi:   array (2, *batch), <D_{e_i} e1, e2>
          omega: array (2, nf, nf, *batch), omega[i, a, b] = <D_{e_i} e_{a+3}, e_{b+3}>
          frames: the normal frame jets used
          valid: mask
        Needs jets of order >= 1 + the flag depth.
        """
        key = "connection"
        if key not in self._cache:
            nfr = self.normal_frames()
            X = self.frame_domain_vectors()
            psi = np.stack(
                [self.directional(self.e1, Xi).dot(self.e2).value().real for Xi in X]
            )
            nf = len(nfr)
            omega = np.zeros((2, nf, nf) + self.batch)
            for i, Xi in enumerate(X):
                ders = [self.directional(ea, Xi) for ea in nfr]
                for aa in range(nf):
                    for bb in range(aa + 1, nf):
                        val = ders[aa].dot(nfr[bb]).value().real
                        omega[i, aa, bb] = val
                        omega[i, bb, aa] = -val
            self._cache[key] = {
                "psi": psi,
                "omega": omega,
                "frames": nfr,
                "valid": self._levels_valid,
            }
        return self._cache[key]


def hodge_relation_residuals(bundle: SurfaceJets):
    """Residuals of the adapted-frame connection relations, per Hodge sign.

    The relations couple omega_35, omega_45, omega_36, omega_46 through
    the Hodge star and the axis ratio lam of the second ellipse:

        omega_45 = -*omega_35,  omega_46 = -*omega_36,
        omega_36 = lam * *omega_35,  omega_46 = lam * *omega_45.

    The star on 1-forms is evaluated under both sign conventions
    *w(X) = -w(JX) ("minus") and *w(X) = +w(JX) ("plus"); the caller
    records which one is satisfied.  Needs at least two rank-2 normal
    spaces (ambient dimension >= 6).
    """
    conn = bundle.connection_forms()
    omega = conn["omega"]
    if omega.shape[1] < 4:
        raise NotRegular("connection relations need two rank-2 normal bundles")
    lev2 = bundle.flag(2)[1]
    lam = lev2.lam
    w35 = omega[:, 0, 2]
    w45 = omega[:, 1, 2]
    w36 = omega[:, 0, 3]
    w46 = omega[:, 1, 3]
    scale = np.maximum.reduce([np.abs(w) for w in (w35, w45, w36, w46)])
    scale = np.maximum(np.max(scale, axis=0), _TINY)

    def star(w, sign):
        # (*w)(e1) = sign * -w(e2), (*w)(e2) = sign * w(e1) for the "minus"
        # convention; the "plus" convention flips the sign.
        return np.stack([-sign * w[1], sign * w[0]])

    out = {}
    for name, sign in (("minus", 1.0), ("plus", -1.0)):
        r1 = w45 - (-star(w35, sign))
        r2 = w46 - (-star(w36, sign))
        r3 = w36 - lam * star(w35, sign)
        r4 = w46 - lam * star(w45, sign)
        res = np.maximum.reduce([np.max(np.abs(r), axis=0) for r in (r1, r2, r3, r4)])
        out[name] = res / scale
    out["lam"] = lam
    out["valid"] = conn["valid"]
    return out


def intrinsic_gauss(bundle: SurfaceJets):
    """Gauss curvature from the metric alone (Brioschi determinants)."""
    E, F, G = bundle.first_fundamental()
    if E.order < 2:
        raise ValueError("intrinsic curvature needs metric jets of order >= 2")

    def d(j, i, jj):
        return j.deriv(i, jj).real

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
            rec = bundle.normal_project(der).project_off(n1_frames)
            tgt = osc[(i + 1, j)] if axis == 0 else osc[(i, j + 1)]
            diff = np.max(np.abs(_nvalue(rec) - _nvalue(tgt)), axis=0)
            worst = np.maximum(worst, diff / scale)
    return worst


def first_normal_rank(bundle: SurfaceJets):
    """Rank of the span of the second-form values (works for any surface).

    Unlike the flag machinery this makes no minimality assumption: the
    span of {alpha(e_i, e_j)} can have rank up to 3.  Returns (rank,
    singular values).
    """
    a11, a12, a22 = bundle.second_fundamental()
    mat = np.stack([_nvalue(a11), _nvalue(a12), _nvalue(a22)], axis=-1)
    mat = np.moveaxis(mat, 0, -2)  # (*batch, n, 3)
    sv = np.linalg.svd(mat, compute_uv=False)
    top = np.maximum(sv[..., 0], _TINY)
    rank = np.sum(sv > RANK_SV_RTOL * top[..., None], axis=-1)
    return rank, sv


def isotropy_order(surface: SurfaceEvaluator, x, y, order=DEFAULT_ORDER, tol=1e-6):
    """Largest r such that ellipses 1..r are circles across the points.

    Only rank-2 flag levels can carry circles; the scan stops at the
    first level that fails the tolerance, is rank deficient, or exceeds
    the jet order.
    """
    bundle = SurfaceJets(surface, x, y, order)
    depth = bundle.flag_capacity()
    result = 0
    defects = []
    for s in range(1, depth + 1):
        if s >= 2:
            lev = bundle.flag(s)[s - 1]
            if lev.expected_rank < 2:
                break
            mask = lev.valid
        else:
            mask = bundle.valid
        if not np.any(mask):
            break
        defect, _, _ = bundle.circle_defect(s)
        worst = float(np.max(np.where(mask, defect, 0.0)))
        defects.append(worst)
        if worst <= tol:
            result = s
        else:
            break
    return result, defects


# -- per-point sample API -----------------------------------------------------


@dataclass
class GeometrySample:
    """Invariants of the surface at one parameter point."""

    x: float
    y: float
    E: float
    F: float
    G: float
    K: float
    K_N: float
    H_norm_sq: float
    wintgen_defect: float
    circle_defect_1: float
    circle_defect_2: Optional[float]
    lambda_2: Optional[float]
    H: np.ndarray
    excluded: bool
    tangent_frame: Optional[tuple] = None          # (e1, e2) ambient values
    alpha11: Optional[np.ndarray] = None
    alpha12: Optional[np.ndarray] = None
    alpha22: Optional[np.ndarray] = None
    xi1: Optional[np.ndarray] = None
    xi2: Optional[np.ndarray] = None
    iso_kappa: Optional[float] = None              # first-ellipse radius when circular


class Curvatures(NamedTuple):
    K: float
    K_N: float
    H_norm_sq: float
    wintgen_defect: float


def _single(surface, p, order):
    bundle = SurfaceJets(surface, np.asarray([p[0]]), np.asarray([p[1]]), order)
    if not bundle.immersed[0]:
        raise NotImmersion(f"differential rank < 2 at {tuple(p)}")
    return bundle


def first_fundamental(surface, p, order=DEFAULT_ORDER):
    """(E, F, G, (e1, e2)) at one point; raises NotImmersion when degenerate.

    The frame entries are jet vectors (batch of one), so callers can
    differentiate them further.
    """
    b = _single(surface, p, order)
    E, F, G = b.first_fundamental()
    return (
        float(E.value().real[0]),
        float(F.value().real[0]),
        float(G.value().real[0]),
        (b.e1, b.e2),
    )


def second_fundamental(surface, p, order=DEFAULT_ORDER):
    """(a11, a12, a22, H, xi1, xi2) on the orthonormal frame, as vectors."""
    b = _single(surface, p, order)
    a11, a12, a22 = b.second_fundamental()
    v11, v12, v22 = _nvalue(a11)[:, 0], _nvalue(a12)[:, 0], _nvalue(a22)[:, 0]
    return v11, v12, v22, (v11 + v22) / 2, (v11 - v22) / 2, v12


def curvatures(surface, p, order=DEFAULT_ORDER) -> Curvatures:
    b = _single(surface, p, order)
    sc = b.curvature_scalars()
    return Curvatures(
        K=float(sc["K"][0]),
        K_N=float(sc["K_N"][0]),
        H_norm_sq=float(sc["H_norm_sq"][0]),
        wintgen_defect=float(sc["wintgen_defect"][0]),
    )


@dataclass
class EllipseSample:
    level: int
    u: np.ndarray
    v: np.ndarray
    semi_axes: tuple
    lam: float
    circle_defect: float
    square_defect: float


def ellipse_test(surface, p, s=1, order=DEFAULT_ORDER) -> EllipseSample:
    """Curvature-ellipse data of level s at one point."""
    b = _single(surface, p, order)
    if s == 1:
        xi1, xi2 = b.traceless_second()
        u0, v0 = _nvalue(xi1)[:, 0], _nvalue(xi2)[:, 0]
    else:
        lev = b.flag(s)[s - 1]
        if not lev.valid[0] and lev.expected_rank >= 2:
            raise NotRegular(f"normal space {s} degenerate at {tuple(p)}")
        u0, v0 = _nvalue(lev.u)[:, 0], _nvalue(lev.v)[:, 0]
    a, bax, lam, defect, square = _ellipse_from_diameters(u0[:, None], v0[:, None])
    if a[0] <= 1e-14:
        raise DegenerateEllipse(f"level-{s} ellipse collapses at {tuple(p)}")
    return EllipseSample(s, u0, v0, (float(a[0]), float(bax[0])), float(lam[0]),
                         float(defect[0]), float(square[0]))


def higher_fundamental(surface, p, s, order=DEFAULT_ORDER):
    """Values of the s-th fundamental form on the orthonormal frame.

    Entry k of the returned list is the form on (e1, ..., e1, e2, ..., e2)
    with k copies of e2 (the tensor is symmetric, so only the count
    matters), computed by projecting the s-th derivative tensor onto the
    orthogonal complement of the (s-2)-nd osculating space and
    contracting with the frame coefficients.
    """
    if s < 2:
        raise ValueError("fundamental forms start at order 2")
    b = _single(surface, p, order)
    if s == 2:
        projs = [b.tangent_project_off(b.partial(2 - k, k)) for k in range(3)]
    else:
        levels = b.flag(s - 2)
        if not levels[-1].valid[0]:
            raise NotRegular(f"osculating rank drops at {tuple(p)} below order {s}")
        frames_all = [b.e1, b.e2] + b.normal_frames(s - 2)
        projs = [b.partial(s - k, k).project_off(frames_all) for k in range(s + 1)]
    pv = [_nvalue(v)[:, 0] for v in projs]  # index = number of y-derivatives
    a, bb, c = (float(j.value().real[0]) for j in b.tangent_coeff_jets())
    out = []
    for k in range(s + 1):  # k = number of e2 arguments
        acc = np.zeros(b.n)
        for j in range(k + 1):  # j = number of f_y factors from the e2's
            acc += math.comb(k, j) * (bb ** (k - j)) * (c ** j) * pv[j]
        out.append((a ** (s - k)) * acc)
    return out


def _plane_rotation(u, v):
    """Matrix rotating span{u, v} by +90 deg (u -> v), zero elsewhere."""
    return np.outer(v, u) - np.outer(u, v)


def normal_flag(surface, p, order=DEFAULT_ORDER):
    """Oriented normal flag at a point, with its rotation operators.

    Returns a dict: `levels` (rank, frames, axis ratio per level),
    `tangent_rotation` (e1 -> e2 on the tangent plane), `level_rotations`
    (+90 deg in each oriented rank-2 normal plane), and
    `normal_rotation_12` (their sum over the first two normal levels,
    the complex structure of N_1 + N_2 where both have rank 2).
    """
    b = _single(surface, p, order)
    levels = b.flag()
    out = []
    rotations = []
    for lev in levels:
        if lev.expected_rank > 0 and not lev.valid[0]:
            raise NotRegular(
                f"normal space {lev.index}: rank {int(lev.rank[0])}, "
                f"expected {lev.expected_rank} at {tuple(p)}"
            )
        frames = [_nvalue(fr)[:, 0] for fr in lev.frames]
        out.append({
            "index": lev.index,
            "rank": int(lev.rank[0]),
            "frames": frames,
            "lam": float(lev.lam[0]),
        })
        rotations.append(_plane_rotation(frames[0], frames[1]) if len(frames) == 2 else None)
    J = _plane_rotation(_nvalue(b.e1)[:, 0], _nvalue(b.e2)[:, 0])
    J12 = None
    if len(rotations) >= 2 and rotations[0] is not None and rotations[1] is not None:
        J12 = rotations[0] + rotations[1]
    return {
        "levels": out,
        "tangent_rotation": J,
        "level_rotations": rotations,
        "normal_rotation_12": J12,
    }


@dataclass
class ConnectionSample:
    """Connection forms at one point, on the orthonormal frame directions."""

    psi: np.ndarray          # <D_{e_i} e1, e2>, shape (2,)
    omega_table: np.ndarray  # omega[i, a, b] = <D_{e_i} e_{a+3}, e_{b+3}>
    omega: np.ndarray        # the distinguished form <D_{e_i} e3, e5>, shape (2,)
    lam: float               # axis ratio of the second curvature ellipse
    valid: bool


def connection_forms(surface, p, order=DEFAULT_ORDER) -> ConnectionSample:
    b = _single(surface, p, order)
    conn = b.connection_forms()
    table = conn["omega"][..., 0]
    lam = float("nan")
    omega_dist = np.full(2, np.nan)
    if b.flag_capacity() >= 2 and b.flag(2)[1].expected_rank >= 1:
        lam = float(b.flag(2)[1].lam[0])
        if table.shape[1] >= 3:
            omega_dist = table[:, 0, 2]
    return ConnectionSample(
        psi=conn["psi"][:, 0],
        omega_table=table,
        omega=omega_dist,
        lam=lam,
        valid=bool(conn["valid"][0]),
    )


def geometry_sample(surface, p, order=DEFAULT_ORDER) -> GeometrySample:
    b = _single(surface, p, order)
    E, F, G = (j.value().real[0] for j in b.first_fundamental())
    sc = b.curvature_scalars()
    d1, _, _ = b.circle_defect(1)
    d2 = lam2 = None
    if b.flag_capacity() >= 2 and b.flag(2)[1].expected_rank == 2:
        dd, _, ll = b.circle_defect(2)
        if b.flag(2)[1].valid[0]:
            d2, lam2 = float(dd[0]), float(ll[0])
    a11, a12, a22 = b.second_fundamental()
    v11, v12, v22 = _nvalue(a11)[:, 0], _nvalue(a12)[:, 0], _nvalue(a22)[:, 0]
    xi1, xi2 = (v11 - v22) / 2, v12
    kappa = None
    if float(d1[0]) <= 1e-6:
        kappa = float(np.linalg.norm(xi1))
    return GeometrySample(
        x=float(p[0]), y=float(p[1]), E=float(E), F=float(F), G=float(G),
        K=float(sc["K"][0]), K_N=float(sc["K_N"][0]),
        H_norm_sq=float(sc["H_norm_sq"][0]),
        wintgen_defect=float(sc["wintgen_defect"][0]),
        circle_defect_1=float(d1[0]), circle_defect_2=d2, lambda_2=lam2,
        H=_nvalue(b.mean_curvature())[:, 0],
        excluded=not bool(b.valid[0]),
        tangent_frame=(_nvalue(b.e1)[:, 0], _nvalue(b.e2)[:, 0]),
        alpha11=v11, alpha12=v12, alpha22=v22, xi1=xi1, xi2=xi2,
        iso_kappa=kappa,
    )
