"""Differential geometry of surface patches from exact jets.

Everything here is computed pointwise from the jet of the immersion:
orthonormal tangent/normal frames come from Gram-Schmidt *in jet
arithmetic* (so the tangent frame and the first normal plane's frames
are differentiable fields, not just values; the normal flag past its
first level is values), fundamental forms of all orders come from
projecting pure partial derivatives onto the orthogonal complement of
the lower osculating spaces, and the connection forms from the first
normal plane toward the second pair the derivatives of the first's
frames with the values of the second's.

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
  E = (e1 - i e2)/2 = cx f_x + cy f_y, via u_s = 2 Re A_s,
  v_s = -2 Im A_s.  At s = 1, A_1 = alpha(E, E) = (xi1 - i xi2)/2, so
  the first level's pair is the traceless second form (xi1, xi2) itself.
  For s >= 2, with P the projection off the lower osculating frames,
  A_s = P(sum_k c_k d_k f) over the pure (s+1)-th partials d_k f and the
  complex scalars c_k = C(s+1, k) cx^(s+1-k) cy^k, value arrays formed
  from the values of the frame coefficients a, b, c (e1 = a f_x,
  e2 = b f_x + c f_y), so cx = (a - i b)/2 and cy = -i c/2.
  P is linear over scalars, so u_s = 2 P(sum_k d_k f Re c_k) and
  v_s = -2 P(sum_k d_k f Im c_k): two real projections per level, and
  no vector table is complex.  The rank of a level is read from order-0
  values: the partials' values projected off the frames' values.  For
  minimal surfaces the lower frequencies vanish and the pair *is* the
  ellipse.
* The circle defect of an ellipse with conjugate semi-diameters (u, v)
  is max(|<u,v>|, a * | ||u|| - ||v|| |) / a^2 with a = max(||u||,||v||):
  dimensionless, zero exactly for circles.

Nothing here raises on degenerate points: every batched quantity
carries a validity mask and bad points are excluded from reports.  A
single point is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import JetVec, dot_values, jet_gram_schmidt, reject_values
from .weierstrass import SurfaceEvaluator

IMMERSION_RTOL = 1e-12
FRAME_EPS = 1e-9
RANK_SV_RTOL = 1e-7
_TINY = 1e-300
# the highest jet order any reader takes of second-order data (the second
# form and the first normal plane's frames): values and the connection
# forms' one derivative
SECOND_ORDER_CAP = 1


def _nvalue(jv: JetVec):
    """Order-0 values of a real jet vector, shape (n, *batch), as floats."""
    return jv.value().real


def _rank(mat):
    """Numerical rank of each matrix of the stack `mat` (rows, cols, *batch),
    by modified Gram-Schmidt with column pivoting and one reorthogonalisation
    pass: each step takes the column of largest residual, which counts when
    its norm exceeds RANK_SV_RTOL times the largest column norm.  A matrix
    with a non-finite entry has rank 0."""
    rows, cols = mat.shape[:2]
    res = np.where(np.all(np.isfinite(mat), axis=(0, 1)), mat, 0.0).reshape(rows, cols, -1)
    each = np.arange(res.shape[2])
    rank = np.zeros(res.shape[2], dtype=int)
    norms = np.sqrt(np.einsum("ijk,ijk->jk", res, res))
    cut = RANK_SV_RTOL * np.max(norms, axis=0)
    for _ in range(cols):
        best = np.argmax(norms, axis=0)
        top = norms[best, each]
        counts = top > cut
        if not np.any(counts):  # no residual left above the cut
            break
        rank += counts
        q = res[:, best, each] / np.where(counts, top, np.inf)
        for _ in range(2):
            res -= q[:, None] * np.einsum("ik,ijk->jk", q, res)
        norms = np.sqrt(np.einsum("ijk,ijk->jk", res, res))
    return rank.reshape(mat.shape[2:])


@dataclass
class FlagLevel:
    """One step N_s of the normal flag of a minimal surface."""

    frames: list                  # jet frames spanning N_s (oriented), one per rank
    lam: np.ndarray               # axis ratio b/a in [0, 1]
    circle_defect: np.ndarray
    valid: np.ndarray


def _ellipse_from_diameters(u0, v0):
    """Circle defect and axis ratio from conjugate semi-diameters.

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
    return defect, b / np.maximum(a, _TINY)


class SurfaceJets:
    """All jet-level geometric data of a surface over a batch of points.

    The constructor only lifts the jets and builds the tangent frame;
    second-order and flag data are computed on demand and cached.  The
    running `valid` mask marks points where everything requested so far
    is trustworthy.
    """

    def __init__(self, surface: SurfaceEvaluator, x, y, order: int):
        if order < 2:
            raise ValueError("geometry needs jets of order >= 2")
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.order = order
        self.second_order = min(order - 2, SECOND_ORDER_CAP)  # the order second-order jets keep
        self.f, base = surface.evaluate(self.x, self.y, order)
        self.n = len(self.f)
        self.batch = self.f.batch
        self._partials = {(0, 0): self.f}

        base = np.broadcast_to(base, self.batch)
        fx, fy = self.partial(1, 0), self.partial(0, 1)
        # order-0 values of the first fundamental form, kept for its readers
        E0 = self.E0 = fx.dot_value(fx).real
        F0 = self.F0 = fx.dot_value(fy).real
        G0 = self.G0 = fy.dot_value(fy).real
        det = E0 * G0 - F0 * F0
        scale = np.maximum(E0, G0)
        self.immersed = base & (det > IMMERSION_RTOL * scale * scale) & (scale > 0)
        (self.e1, self.e2), self._invs, ok = jet_gram_schmidt(
            [fx, fy], eps=FRAME_EPS, guard=self.immersed)
        self.valid = self.immersed & ok
        self._levels = []

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

    @cached_property
    def tangent_coeff_jets(self):
        """(a, b, c) with e1 = a f_x and e2 = b f_x + c f_y, at order
        `second_order`: a and c are the reciprocal norms of f_x and of f_y's
        residual off e1, and b = -a <f_y, e1> c."""
        k = self.second_order
        a, c = (inv.truncate(k) for inv in self._invs)
        return a, -(a * self.partial(0, 1).truncate(k).dot(self.e1)) * c, c

    def tangent_project_off(self, v: JetVec) -> JetVec:
        return v.project_off([self.e1, self.e2])

    # -- second order --------------------------------------------------------

    @cached_property
    def second_fundamental(self):
        """Jets of the second-form values on the orthonormal frame.

        Returns (alpha11, alpha12, alpha22) at order `second_order` =
        min(d - 2, SECOND_ORDER_CAP), obtained by projecting the coordinate
        second derivatives, truncated to it, off the tangent plane and
        contracting with the frame coefficients (the form is tensorial, so
        pointwise coefficients suffice; keeping them as jets makes the
        result a differentiable field).
        """
        k = self.second_order
        h_xx = self.tangent_project_off(self.partial(2, 0).truncate(k))
        h_xy = self.tangent_project_off(self.partial(1, 1).truncate(k))
        h_yy = self.tangent_project_off(self.partial(0, 2).truncate(k))
        a, b, c = self.tangent_coeff_jets
        a11 = h_xx.scale(a * a)
        a12 = h_xx.scale(a * b) + h_xy.scale(a * c)
        a22 = h_xx.scale(b * b) + h_xy.scale((b * c).scale(2.0)) + h_yy.scale(c * c)
        return a11, a12, a22

    def mean_curvature(self) -> JetVec:
        a11, _, a22 = self.second_fundamental
        return (a11 + a22).scale(0.5)

    def traceless_second(self):
        """(xi1, xi2) = ((a11 - a22)/2, a12): semi-diameters of the first ellipse."""
        a11, a12, a22 = self.second_fundamental
        return (a11 - a22).scale(0.5), a12

    @cached_property
    def wirtinger_coords(self):
        """Frame coordinates (<f_z, e1>, <f_z, e2>) of f_z = (f_x - i f_y)/2, values."""
        fz = 0.5 * (_nvalue(self.partial(1, 0)) - 1j * _nvalue(self.partial(0, 1)))
        return tuple(np.sum(fz * _nvalue(e), axis=0) for e in (self.e1, self.e2))

    def second_form_on(self, u, v):
        """alpha(u, v) = sum_ij u_i v_j a_ij, values (n, *batch), for tangent
        vectors given by their frame coordinates u = (u1, u2), v = (v1, v2)."""
        a11, a12, a22 = (_nvalue(a) for a in self.second_fundamental)
        (u1, u2), (v1, v2) = u, v
        return u1 * v1 * a11 + (u1 * v2 + u2 * v1) * a12 + u2 * v2 * a22

    @cached_property
    def alpha_wirtinger(self) -> np.ndarray:
        """alpha(f_z, f_z), complex values (n, *batch): the (2,0) form."""
        return self.second_form_on(self.wirtinger_coords, self.wirtinger_coords)

    def laplacian(self) -> JetVec:
        return self.partial(2, 0) + self.partial(0, 2)

    # -- curvature scalars ----------------------------------------------------

    @cached_property
    def curvature_scalars(self):
        """Dict of K, K_N (unsigned; signed for n=4), ||H||^2, Wintgen defect."""
        a11, a12, a22 = self.second_fundamental
        xi1, xi2 = self.traceless_second()
        x1 = _nvalue(xi1)
        x2 = _nvalue(xi2)
        K = np.sum(_nvalue(a11) * _nvalue(a22), axis=0) - np.sum(_nvalue(a12) ** 2, axis=0)
        p = np.sum(x1 * x1, axis=0)
        q = np.sum(x2 * x2, axis=0)
        r = np.sum(x1 * x2, axis=0)
        KN = 2.0 * np.sqrt(np.maximum(p * q - r * r, 0.0))
        if self.n == 4:
            KN = KN * self._normal_orientation_sign()
        H = self.mean_curvature()
        H2 = np.sum(_nvalue(H) ** 2, axis=0)
        wintgen = H2 - K - np.abs(KN)
        return {"K": K, "K_N": KN, "H_norm_sq": H2, "wintgen_defect": wintgen}

    def _normal_orientation_sign(self):
        """Orientation sign of (xi1, xi2) against the ambient for n = 4."""
        frames = (self.e1, self.e2, *self.flag(1)[0].frames)  # N_1 has rank 2
        mats = np.stack([_nvalue(e) for e in frames], axis=-1)
        mats = np.moveaxis(mats, 0, -2)  # (*batch, 4, 4)
        return np.sign(np.linalg.det(mats))

    # -- higher order flag ---------------------------------------------------

    def flag_capacity(self):
        """Highest normal-space index constructible: jets and dimension."""
        return min((self.n - 1) // 2, self.order - 1)

    def flag(self, upto: int):
        """Normal flag levels N_1 .. N_upto (minimal surfaces).

        Level 1 is spanned by the traceless second form; deeper levels are
        built by projecting real combinations of the pure (s+1)-th
        partials off the accumulated osculating frames (see the module
        docstring).  Each level is oriented by its conjugate semi-diameter
        pair and orthonormalized in jet arithmetic.  Level 1 is carried to
        order `second_order`, which the connection forms differentiate
        once; deeper levels are values (order-0 jets) at every order d.
        """
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
        """Append flag level N_r, r = len(levels) + 1."""
        r = len(self._levels) + 1
        s = r + 1  # derivative order feeding N_r
        frames_all = [self.e1, self.e2, *(e for lev in self._levels for e in lev.frames)]
        expected = min(2, self.n - len(frames_all))
        raws = [self.partial(s - k, k).truncate(0) for k in range(s + 1)]

        # detected rank of the projected span at order 0: the partials' values,
        # stacked on a leading batch axis, projected off the frames' values
        mat = reject_values(np.stack([_nvalue(p) for p in raws], axis=1),
                            [_nvalue(e)[:, None] for e in frames_all])  # (n, s+1, *batch)
        rank = _rank(mat)

        # top-frequency pair (see the module docstring): level 1's is the
        # traceless second form; deeper levels are values, through the
        # complexified tangent (e1 - i e2)/2 = cx f_x + cy f_y, whose c_k
        # weight the unprojected partials by their real and imaginary parts,
        # and each of the two sums is projected once
        if r == 1:
            u, v = self.traceless_second()
        else:
            a, b, c = (_nvalue(t) for t in self.tangent_coeff_jets)
            cx_pow, cy_pow = [(a - b * 1j) * 0.5], [-(c * 1j) * 0.5]
            for p in (cx_pow, cy_pow):  # p[j - 1] = c^j, j = 1..s
                while len(p) < s:
                    p.append(p[-1] * p[0])
            coeffs = [cx_pow[s - 1]]
            coeffs += [cx_pow[s - k - 1] * cy_pow[k - 1] for k in range(1, s)]
            coeffs.append(cy_pow[s - 1])
            re = im = None
            for k, ck in enumerate(coeffs):
                w = ck * math.comb(s, k)
                re_k, im_k = raws[k].scale(w.real), raws[k].scale(w.imag)
                re = re_k if re is None else re + re_k
                im = im_k if im is None else im + im_k
            u = re.project_off(frames_all).scale(2.0)
            v = im.project_off(frames_all).scale(-2.0)

        defect, lam = _ellipse_from_diameters(_nvalue(u), _nvalue(v))

        guard = (self._levels[-1].valid if self._levels else self.valid) & (rank == expected)
        frames, _, ok = jet_gram_schmidt([u, v][:expected], eps=FRAME_EPS, guard=guard)
        self._levels.append(FlagLevel(frames=frames, lam=lam, circle_defect=defect, valid=ok))

    def circle_defect(self, s: int):
        """(circle defect, axis ratio) of the s-th curvature ellipse.

        s = 1 uses the traceless second form (the center is irrelevant);
        s >= 2 uses the flag level pair.
        """
        if s == 1:
            xi1, xi2 = self.traceless_second()
            return _ellipse_from_diameters(_nvalue(xi1), _nvalue(xi2))
        lev = self.flag(s)[s - 1]
        return lev.circle_defect, lev.lam

    # -- connection forms ------------------------------------------------------

    def connection_forms(self):
        """Connection 1-forms from the first normal plane N_1 toward N_2.

        Returns a dict with
          omega: array (2, 2, r, *batch), omega[i, a, b] = <D_{e_i} e_{a+3}, e_{b+5}>
          omega_dz: complex array (2, r, *batch), omega_dz[a, b] = <D_dz e_{a+3}, e_{b+5}>
            on the Wirtinger vector dz = (d/dx - i d/dy)/2
          valid: mask
        with r the rank of N_2.  Only N_1's frames are differentiated, once;
        N_2's frames enter by their values.
        """
        return self._connection

    @cached_property
    def _connection(self):
        n1, n2 = self.flag(2)
        # e1 = a d/dx and e2 = b d/dx + c d/dy; the pairings read values:
        # those of a, b, c, of N_1's frames and their first derivatives, and
        # of N_2's frames
        a, b, c = (_nvalue(t) for t in self.tangent_coeff_jets)
        dx = [_nvalue(e.dx()) for e in n1.frames]
        dy = [_nvalue(e.dy()) for e in n1.frames]
        along = ([d * a for d in dx], [d * b + e * c for d, e in zip(dx, dy)])
        vals = [_nvalue(f) for f in n2.frames]
        omega = np.array([[[dot_values(d, f) for f in vals] for d in ders] for ders in along])
        omega_dz = np.array([[0.5 * (dot_values(x, f) - 1j * dot_values(y, f)) for f in vals]
                             for x, y in zip(dx, dy)])
        return {"omega": omega, "omega_dz": omega_dz, "valid": n2.valid}


def hodge_relation_residuals(bundle: SurfaceJets):
    """Residuals of the adapted-frame connection relations, per Hodge sign.

    The relations couple omega_35, omega_45, omega_36, omega_46 through
    the Hodge star and the axis ratio lam of the second ellipse:

        omega_45 = -*omega_35,  omega_46 = -*omega_36,
        omega_36 = lam * *omega_35,  omega_46 = lam * *omega_45.

    The star on 1-forms is evaluated under both sign conventions
    *w(X) = -w(JX) ("minus") and *w(X) = +w(JX) ("plus"); the caller
    records which one is satisfied.  Needs two rank-2 normal planes
    (ambient dimension >= 6), at any jet order >= 3.
    """
    conn = bundle.connection_forms()
    omega = conn["omega"]
    if omega.shape[2] < 2:
        raise ValueError("connection relations need two rank-2 normal bundles")
    lam = bundle.flag(2)[1].lam
    w35, w36 = omega[:, 0, 0], omega[:, 0, 1]
    w45, w46 = omega[:, 1, 0], omega[:, 1, 1]
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
    out["valid"] = conn["valid"]
    return out


def first_normal_rank(bundle: SurfaceJets):
    """Rank of the span of the second-form values (works for any surface).

    Unlike the flag machinery this makes no minimality assumption: the
    span of {alpha(e_i, e_j)} can have rank up to 3.  Returns the rank
    at each point.
    """
    return _rank(np.stack([_nvalue(a) for a in bundle.second_fundamental], axis=1))

