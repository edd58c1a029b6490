"""Recursive construction of isotropy-graded minimal surfaces.

Starting from a holomorphic polynomial seed alpha_0 with values in
C^{N-2(m+1)} (possibly empty) and nonzero polynomial weights beta_1 ...
beta_{m+1}, each step maps a curve alpha to

    beta * (1 - phi^2,  i (1 + phi^2),  2 phi),    phi = int alpha dz,

where phi^2 is the bilinear sum of squares of the components (no
conjugation).  Every step adds two complex dimensions and outputs a curve
whose bilinear square vanishes identically:

    (1 - phi^2)^2 - (1 + phi^2)^2 + 4 phi^2 = 0,

so after m+1 steps and one more integration the component-wise real part
of the final curve is a minimal surface in R^N whose first m curvature
ellipses are circles.  The empty seed reproduces doubled holomorphic
curves (w_1, i w_1, w_2, i w_2, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cpoly import (
    cp_add,
    cp_degree,
    cp_mul,
    cp_scale,
    cp_sub,
    cp_trim,
    cv_degree,
    cv_dot,
    cv_int,
    cv_diff,
    cv_max_abs,
    cp_max_abs,
    cv_trim,
)
from .errors import ConfigError
from .jets import JetVec, jet_lift

ISOTROPY_RTOL = 1e-10


@dataclass
class SurfaceEvaluator:
    """A surface patch as a jet source.

    `fn(x, y, order)` makes one evaluation and returns `(jets, valid)`:
    the jets of the map at the points, and a boolean mask of the points
    where they are trustworthy (True when every point is).  `fn` must
    be deterministic and consistent across orders (lower-order requests
    are truncations of higher ones).  Callers AND `valid` into their own
    regularity masks; `evaluate` is the one call, and `jets` / `mask`
    read one half of it.  `provenance` records how the surface was built
    (generated curve, doubled holomorphic curve, pedal, inversion, ...).
    """

    ambient_dim: int
    provenance: str
    fn: Callable

    def evaluate(self, x, y, order):
        """(jets, valid) at the points, valid broadcast to the jets' batch
        (the points' shape, after a leading axis for stacked samples)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        jets, valid = self.fn(x, y, order)
        return jets, np.broadcast_to(valid, jets.batch)

    def jets(self, x, y, order) -> JetVec:
        return self.evaluate(x, y, order)[0]

    def mask(self, x, y):
        return self.evaluate(x, y, 2)[1]

    def evaluated(self, x, y, order) -> "SurfaceEvaluator":
        """This surface evaluated once at the points (x, y) up to `order`."""
        return SurfaceEvaluator.of_jets(self.provenance, x, y, *self.evaluate(x, y, order))

    @staticmethod
    def of_jets(provenance, x, y, jets: JetVec, valid) -> "SurfaceEvaluator":
        """An evaluator serving jets already computed at (x, y): at those
        points only, and at any order up to theirs, by truncation."""

        def fn(xq, yq, order):  # truncate raises ValueError above jets.order
            if not (np.array_equal(xq, x) and np.array_equal(yq, y)):
                raise ValueError("jets were evaluated at other points")
            return jets.truncate(order), valid

        return SurfaceEvaluator(len(jets), provenance, fn)

    def affine(self, scale=1.0, translation=None) -> "SurfaceEvaluator":
        """The surface c*f + v (ambient scaling and translation).

        A (k,) array of scales with (n, k) translations gives the k
        members c_i*f + v_i stacked on a leading batch axis, slice i
        member i.
        """
        c = np.asarray(scale, dtype=float)
        shape = (self.ambient_dim,) + c.shape
        v = np.zeros(shape) if translation is None else np.asarray(translation, dtype=float)
        if v.shape != shape:
            raise ConfigError(f"translation needs {self.ambient_dim} components")
        inner = self.fn

        def fn(x, y, order):
            jets, valid = inner(x, y, order)
            return jets.scale(c.reshape(c.shape + (1,) * len(jets.batch))).translate(v), valid

        return SurfaceEvaluator(self.ambient_dim, "composite", fn)


@dataclass(frozen=True)
class IsotropicSpec:
    """Input data of the recursion.

    ambient_dim: target real/complex dimension N >= 4.
    isotropy_order: number m >= 1 of curvature circles to enforce.
    alpha0: seed curve, exactly N - 2(m+1) polynomial components (may be
        an empty list when N = 2(m+1)).
    betas: m+1 nonzero polynomial weights, one per recursion step.
    """

    ambient_dim: int
    isotropy_order: int
    alpha0: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    def __post_init__(self):
        n, m = self.ambient_dim, self.isotropy_order
        # each message names the field of the config document's `spec`;
        # `config.FIELDS` has already checked each field alone (n >= 4, m >= 1)
        if n - 2 * (m + 1) < 0:
            raise ConfigError(
                f"spec.isotropy_order {m} needs spec.ambient_dim >= {2 * (m + 1)}, got {n}"
            )
        object.__setattr__(self, "alpha0", cv_trim(self.alpha0))
        object.__setattr__(self, "betas", [cp_trim(b) for b in self.betas])
        if len(self.alpha0) != n - 2 * (m + 1):
            raise ConfigError(
                f"spec.alpha0 needs exactly N - 2(m+1) = {n - 2*(m+1)} seed components, "
                f"got {len(self.alpha0)}"
            )
        if len(self.betas) != m + 1:
            raise ConfigError(f"spec.betas needs m + 1 = {m + 1} weight polynomials, "
                              f"got {len(self.betas)}")
        for k, b in enumerate(self.betas):
            if cp_degree(b) < 0:
                raise ConfigError(f"spec.betas[{k}] is identically zero")


@dataclass
class IsotropicCurve:
    """A holomorphic curve whose real part is the surface.

    phi: the integrated curve (N complex polynomial components).
    alpha: its derivative; `cv_dot(alpha, alpha)` is the zero polynomial
        up to roundoff (checked at construction).
    """

    phi: list
    alpha: list
    provenance: str = "weierstrass"
    spec: Optional[IsotropicSpec] = None

    @property
    def ambient_dim(self):
        return len(self.phi)

    @property
    def degree(self):
        return cv_degree(self.phi)

    def isotropy_residual(self):
        """Max |coefficient| of the bilinear square of alpha, relative."""
        return _square_residual(self.alpha)

    def isotropy_order(self):
        """The number m of leading curvature ellipses that are circles,
        exactly from the coefficients: the j-th ellipse is a circle when
        alpha^(j) is not zero and its bilinear square vanishes (to
        ISOTROPY_RTOL), given that the lower ones do.  Only the
        floor((N - 2)/2) rank-2 normal planes carry circles."""
        m, a = 0, self.alpha
        while m < (self.ambient_dim - 2) // 2:
            a = cv_diff(a)
            if cv_degree(a) < 0 or not (_square_residual(a) <= ISOTROPY_RTOL):
                break
            m += 1
        return m


def _square_residual(u):
    """Max |coefficient| of the bilinear square of u, relative to the
    largest coefficient of u squared."""
    scale = cv_max_abs(u)
    # the coefficients times 2^-e, with 2^-e scale in [1/2, 1), square without
    # overflow; the scaling is exact, and dividing twice keeps the unscaled bits
    e = math.frexp(scale)[1]
    v = [[complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c in p] for p in u]
    unit = math.ldexp(scale, -e)
    return cp_max_abs(cv_dot(v, v)) / unit / unit if unit > 0 else 0.0


def _check_isotropy(curve: IsotropicCurve, source: str):
    """The curve, if its derivative is nonzero and isotropic; `source`
    names the config document's curve field in the error."""
    if cv_degree(curve.alpha) < 0:
        raise ConfigError(f"{source} needs at least one nonconstant component")
    r = curve.isotropy_residual()
    if not (r <= ISOTROPY_RTOL):
        raise ConfigError(
            f"{source} is not isotropic: bilinear square of the derivative curve has "
            f"relative coefficient norm {r:.3e} > {ISOTROPY_RTOL:.0e}"
        )
    return curve


def w_step(alpha, beta):
    """One recursion step: alpha -> beta * (1 - phi^2, i(1 + phi^2), 2 phi)."""
    phi = cv_int(alpha)
    sq = cv_dot(phi, phi)
    one = [complex(1)]
    comps = [cp_sub(one, sq), cp_scale(cp_add(one, sq), 1j)]
    comps += [cp_scale(p, 2) for p in phi]
    return [cp_mul(beta, p) for p in comps]


def w_generate(spec: IsotropicSpec) -> IsotropicCurve:
    """Run the recursion m+1 times and integrate to the final curve."""
    alpha = spec.alpha0
    for beta in spec.betas:
        alpha = w_step(alpha, beta)
    phi = cv_int(alpha)
    assert len(phi) == spec.ambient_dim
    curve = IsotropicCurve(phi=phi, alpha=alpha, provenance="weierstrass", spec=spec)
    return _check_isotropy(curve, "spec")


def holomorphic_curve(components) -> IsotropicCurve:
    """Double a holomorphic curve w to (w_1, i w_1, w_2, i w_2, ...).

    The bilinear square of the doubled derivative vanishes exactly
    (w'^2 + (i w')^2 = 0 coefficient-wise), so the real part is a minimal
    surface in R^{2k}: the holomorphic curve itself, up to the ambient
    reflection flipping the even coordinates.
    """
    phi = []
    for p in cv_trim(components):
        phi.append(p)
        phi.append(cp_scale(p, 1j))
    curve = IsotropicCurve(phi=phi, alpha=cv_diff(phi), provenance="holomorphic")
    return _check_isotropy(curve, "curve")


def ambient_curve(components) -> IsotropicCurve:
    """Take the N integrated complex components verbatim (no doubling).

    This is the re-ingestion path for generated curves: the coefficients
    are used exactly as given (no trimming), so writing a curve to disk
    and reading it back is a bitwise identity on the coefficient lists.
    """
    comps = [[complex(c) for c in p] for p in components]
    curve = IsotropicCurve(phi=comps, alpha=cv_diff(comps), provenance="ambient")
    return _check_isotropy(curve, "ambient_curve")


def surface_evaluator(curve: IsotropicCurve) -> SurfaceEvaluator:
    """The real surface map p -> Re phi(x + iy) as a jet source (exact)."""
    phi = curve.phi

    def fn(x, y, order):
        return jet_lift(phi, x, y, order).real(), True

    return SurfaceEvaluator(len(phi), curve.provenance, fn)


# -- shipped seeds ------------------------------------------------------------

_Z = [0, 1]  # the identity polynomial z


def preset_curve(name: str) -> IsotropicCurve:
    """Built-in seed curves.

    holo3:  empty seed, N=6, m=2, unit weights; the doubled degree-(1,2,3)
            curve whose first two curvature ellipses are circles.
    holo4:  doubled holomorphic curve (z, z^2, z^3, z^4) in R^8; three
            curvature circles.
    noniso: seed (1, z) in R^6 with m=1: first ellipse a circle, second
            ellipse genuinely not (negative control).
    """
    if name == "holo3":
        spec = IsotropicSpec(ambient_dim=6, isotropy_order=2, alpha0=[], betas=[[1], [1], [1]])
        return w_generate(spec)
    if name == "holo4":
        return holomorphic_curve([[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]])
    if name == "noniso":
        spec = IsotropicSpec(ambient_dim=6, isotropy_order=1, alpha0=[[1], _Z], betas=[[1], [1]])
        return w_generate(spec)
    raise ConfigError(f"seed_preset must be holo3, holo4 or noniso, got {name!r}")
