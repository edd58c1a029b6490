"""Truncated two-variable jets (Taylor tables) with exact arithmetic.

A jet of order d at a base point stores the scaled Taylor coefficients

    c[i, j] = (d^{i+j} u / dx^i dy^j) / (i! j!),   i + j <= d,

so that multiplication of jets is truncated coefficient convolution and
polynomial lifts are exact in floating point up to rounding.  Entries of
the square table with i + j > d are kept at zero.

Jets are batched and every operation is vectorized over the batch axes.
This is how grid evaluation is parallelized - one jet pipeline runs for
all grid points at once.  The table is stored coefficient-leading, with
shape (d+1, d+1, *batch), so that each coefficient c[i, j] is one
contiguous plane over the batch and a product works on whole rows of
such planes.  The public layout is batch-leading: `Jet(c)` takes, and
`Jet.c` returns as a view, an array of shape (*batch, d+1, d+1).  Values
are stored complex; real-valued pipelines simply carry a zero imaginary
part, and holomorphic lifts keep their complex structure for Wirtinger
work (d = (d/dx - i d/dy)/2).

Division and square root are power series in the normalized remainder
u = a/a0 - 1, which is nilpotent at order d+1, so `order` Horner steps
give the exact truncation.  Degenerate denominators either raise
`DegenerateJet` (point APIs) or are masked out by a `guard` array (grid
pipelines), in which case the affected batch entries hold junk and the
caller keeps the mask.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateJet, RankDeficient

DEFAULT_ORDER = 4

_TRI = {}
_MUL_PLAN = {}


def _tri(D):
    m = _TRI.get(D)
    if m is None:
        k = np.arange(D)
        m = (k[:, None] + k[None, :]) <= (D - 1)
        _TRI[D] = m
    return m


def _mul_plan(D):
    """Schedule of the truncated product of two order-(D-1) tables.

    Returns (left rows, output rows, steps).  The steps follow the right
    factor's coefficients (i, j) in the order i, then j; each lists the
    row segments it touches as index pairs into the two row lists: row p
    of the left factor, columns 0..n-1, adds onto output row p + i,
    columns j..j+n-1, with n = D - i - j - p so that only the triangle is
    written.  Every segment is listed once, so a product slices each once.
    """
    plan = _MUL_PLAN.get(D)
    if plan is None:
        left, out, steps = {}, {}, []
        for i in range(D):
            for j in range(D - i):
                pairs = []
                for p in range(D - i - j):
                    n = D - i - j - p
                    pairs.append((left.setdefault((p, n), len(left)),
                                  out.setdefault((p + i, j, n), len(out))))
                steps.append(((i, slice(j, j + 1)), pairs))
        plan = ([(p, slice(0, n)) for p, n in left],
                [(row, slice(col, col + n)) for row, col, n in out], steps)
        _MUL_PLAN[D] = plan
    return plan


def _sqrt_series(order):
    # binomial(1/2, k) for k = 0..order
    out = [1.0]
    for k in range(order):
        out.append(out[-1] * (0.5 - k) / (k + 1))
    return out


def _with_rank(t, rank):
    """Table `t` with 1-axes inserted before its batch axes up to `rank`."""
    lead = rank - (t.ndim - 2)
    return t if lead <= 0 else t.reshape(t.shape[:2] + (1,) * lead + t.shape[2:])


class Jet:
    """One truncated Taylor table, batched over trailing axes.

    `t` stores the table as (d+1, d+1, *batch), each coefficient a
    contiguous plane over the batch; `Jet(c)` and `.c` use the
    batch-leading (*batch, d+1, d+1) layout.
    """

    __slots__ = ("t",)

    def __init__(self, c):
        self.t = np.ascontiguousarray(np.moveaxis(np.asarray(c), (-2, -1), (0, 1)))

    @staticmethod
    def _of(t):
        """The jet whose stored (d+1, d+1, *batch) table is `t` (no copy)."""
        jet = Jet.__new__(Jet)
        jet.t = t
        return jet

    @property
    def c(self):
        """The table as a (*batch, d+1, d+1) view.

        It is the view `np.moveaxis(t, (0, 1), (-2, -1))` gives, built
        with one `transpose` call, which costs far less per access.
        """
        t = self.t
        return t.transpose(tuple(range(2, t.ndim)) + (0, 1))

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(value, order, batch=()):
        value = np.asarray(value, dtype=complex)
        shape = np.broadcast_shapes(value.shape, tuple(batch))
        t = np.zeros((order + 1, order + 1) + shape, dtype=complex)
        t[0, 0] = value
        return Jet._of(t)

    @staticmethod
    def zeros(order, batch=()):
        return Jet._of(np.zeros((order + 1, order + 1) + tuple(batch), dtype=complex))

    @staticmethod
    def coordinate(x0, axis, order, batch=None):
        """The jet of the coordinate function x (axis=0) or y (axis=1)."""
        x0 = np.asarray(x0, dtype=complex)
        shape = x0.shape if batch is None else tuple(batch)
        t = np.zeros((order + 1, order + 1) + shape, dtype=complex)
        t[0, 0] = x0
        if order >= 1:
            if axis == 0:
                t[1, 0] = 1.0
            else:
                t[0, 1] = 1.0
        return Jet._of(t)

    # -- basic queries ---------------------------------------------------

    @property
    def order(self):
        return self.t.shape[0] - 1

    @property
    def batch(self):
        return self.t.shape[2:]

    def value(self):
        return self.t[0, 0, ...]

    def deriv(self, i, j):
        """Derivative value d^{i+j}/dx^i dy^j (unscaled)."""
        if i + j > self.order:
            raise ValueError(f"derivative ({i},{j}) beyond jet order {self.order}")
        return self.t[i, j, ...] * (math.factorial(i) * math.factorial(j))

    def copy(self):
        return Jet._of(self.t.copy())

    def truncate(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        D = order + 1
        return Jet._of(self.t[:D, :D] * _with_rank(_tri(D), self.t.ndim - 2))

    # -- ring operations -------------------------------------------------

    def _pair(self, other):
        """Both jets at the lower order, with batch axes of equal rank."""
        a, b = self.t, other.t
        if a.shape == b.shape:
            return a, b
        k = min(self.order, other.order)
        a, b = self.truncate(k).t, other.truncate(k).t
        rank = max(a.ndim, b.ndim) - 2
        return _with_rank(a, rank), _with_rank(b, rank)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return Jet._of(a + b)
        return self.add_const(other)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return Jet._of(a - b)
        return self.add_const(-np.asarray(other, dtype=complex))

    def __neg__(self):
        return Jet._of(-self.t)

    def add_const(self, value):
        t = self.t.copy()
        t[0, 0] += np.asarray(value, dtype=complex)
        return Jet._of(t)

    def __mul__(self, other):
        """Truncated Cauchy product, written only on the triangle p + q <= d.

        Each output coefficient receives its terms a[p, q] * b[i, j] in
        the order of (i, j), starting from zero, one row segment of `a`
        per numpy call.  The right factor's coefficient keeps a length-1
        axis so that both operands of every call have equal rank.
        """
        if not isinstance(other, Jet):
            return self.scale(other)
        a, b = self._pair(other)
        D = a.shape[0]
        batch = a.shape[2:] if a.shape == b.shape else np.broadcast_shapes(a.shape[2:], b.shape[2:])
        out = np.zeros((D, D) + batch, dtype=complex)
        left_index, row_index, steps = _mul_plan(D)
        left = [a[k] for k in left_index]
        rows = [out[k] for k in row_index]
        add, mul = np.add, np.multiply
        for ij, pairs in steps:
            bij = b[ij]
            for k, r in pairs:
                o = rows[r]
                add(o, mul(left[k], bij), out=o)
        return Jet._of(out)

    def scale(self, s):
        s = np.asarray(s, dtype=complex)
        return Jet._of(_with_rank(self.t, s.ndim) * s)

    def _guard_value(self, guard, bad, what):
        v = self.value()
        if guard is None:
            if np.any(bad):
                raise DegenerateJet(f"{what} (order-0 coefficient {v.flat[:1]})")
            return v
        ok = np.asarray(guard, dtype=bool) & ~bad
        return np.where(ok, v, 1.0)

    def recip(self, guard=None):
        """Multiplicative inverse as a jet.

        With `guard=None`, raises DegenerateJet when the order-0
        coefficient vanishes (relative magnitude below 1e-12); with a
        boolean `guard`, degenerate batch entries are replaced by junk
        and left for the caller's mask.
        """
        v = self.value()
        scale = np.max(np.abs(self.t), axis=(0, 1))
        bad = ~(np.abs(v) > 1e-12 * scale)
        safe = self._guard_value(guard, bad, "division by a vanishing jet")
        u = Jet._of(_with_rank(self.t, safe.ndim) / safe)
        u.t[0, 0] = 0.0
        acc = Jet.const(np.ones(u.batch), self.order)
        for _ in range(self.order):
            acc = -(u * acc)
            acc.t[0, 0] += 1.0
        return Jet._of(acc.t / safe)

    def sqrt(self, guard=None):
        """Principal square root; order-0 coefficient must be a positive real."""
        v = self.value()
        bad = ~((v.real > 0) & (np.abs(v.imag) <= 1e-9 * np.abs(v) + 1e-300))
        safe = self._guard_value(guard, bad, "square root needs a positive real value")
        u = Jet._of(_with_rank(self.t, safe.ndim) / safe)
        u.t[0, 0] = 0.0
        series = _sqrt_series(self.order)
        acc = Jet.const(np.full(u.batch, series[-1]), self.order)
        for k in range(self.order - 1, -1, -1):
            acc = u * acc
            acc.t[0, 0] += series[k]
        return Jet._of(acc.t * np.sqrt(safe))

    # -- calculus ----------------------------------------------------------

    def dx(self):
        D = self.order + 1
        if D < 2:
            raise ValueError("cannot differentiate an order-0 jet")
        w = np.arange(1, D, dtype=float)[:, None]
        return Jet._of(self.t[1:, :-1] * _with_rank(w, self.t.ndim - 2))

    def dy(self):
        D = self.order + 1
        if D < 2:
            raise ValueError("cannot differentiate an order-0 jet")
        w = np.arange(1, D, dtype=float)[None, :]
        return Jet._of(self.t[:-1, 1:] * _with_rank(w, self.t.ndim - 2))

    def wirtinger(self):
        """The Wirtinger derivative (d/dx - i d/dy)/2 as a jet of order-1."""
        return Jet._of(0.5 * (self.dx().t - 1j * self.dy().t))

    def real(self):
        return Jet._of(self.t.real.astype(complex))

    def imag(self):
        return Jet._of(self.t.imag.astype(complex))

    def conj(self):
        return Jet._of(np.conj(self.t))


class JetVec:
    """A tuple of jets sharing order and batch: a jet of a vector map."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = list(comps)

    @staticmethod
    def const(vec, order, batch=()):
        return JetVec([Jet.const(v, order, batch) for v in vec])

    def __len__(self):
        return len(self.comps)

    def __iter__(self):
        return iter(self.comps)

    def __getitem__(self, k):
        return self.comps[k]

    @property
    def order(self):
        return self.comps[0].order

    @property
    def batch(self):
        return self.comps[0].batch

    def __add__(self, other):
        return JetVec([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return JetVec([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return JetVec([-a for a in self.comps])

    def scale(self, s):
        if isinstance(s, Jet):
            return JetVec([a * s for a in self.comps])
        return JetVec([a.scale(s) for a in self.comps])

    def dot(self, other):
        """Bilinear pairing sum_k u_k v_k (no conjugation)."""
        if len(self) != len(other):
            raise ValueError(f"component mismatch: {len(self)} vs {len(other)}")
        acc = self.comps[0] * other.comps[0]
        for a, b in zip(self.comps[1:], other.comps[1:]):
            acc = acc + a * b
        return acc

    def norm_sq(self):
        return self.dot(self)

    def dx(self):
        return JetVec([a.dx() for a in self.comps])

    def dy(self):
        return JetVec([a.dy() for a in self.comps])

    def wirtinger(self):
        return JetVec([a.wirtinger() for a in self.comps])

    def truncate(self, order):
        return JetVec([a.truncate(order) for a in self.comps])

    def real(self):
        return JetVec([a.real() for a in self.comps])

    def imag(self):
        return JetVec([a.imag() for a in self.comps])

    def conj(self):
        return JetVec([a.conj() for a in self.comps])

    def translate(self, vec):
        """Add a constant ambient vector (one entry per component)."""
        if len(vec) != len(self.comps):
            raise ValueError("translation dimension mismatch")
        return JetVec([a.add_const(v) for a, v in zip(self.comps, vec)])

    def value(self):
        """Order-0 values stacked to shape (n, *batch)."""
        return np.stack([a.value() for a in self.comps])

    def deriv(self, i, j):
        return np.stack([a.deriv(i, j) for a in self.comps])

    def project_off(self, frames):
        """Subtract components along jet-orthonormal `frames`."""
        v = self
        for e in frames:
            v = v - e.scale(v.dot(e))
        return v


# -- public operations -------------------------------------------------------


def jet_lift(curve, x, y, order=DEFAULT_ORDER):
    """Lift a holomorphic polynomial curve to complex jets at z = x + iy.

    Returns one complex jet per curve component: the full Taylor table of
    w_k(x + iy) in the real variables, exact for polynomials.  The real
    surface jet (component-wise real part) is `jet_lift(...).real()`.
    """
    if order < 2:
        raise ValueError("surface work needs jets of order >= 2")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    batch = np.broadcast_shapes(x.shape, y.shape)
    D = order + 1
    zt = np.zeros((D, D) + batch, dtype=complex)
    zt[0, 0] = x + 1j * y
    zt[1, 0] = 1.0
    zt[0, 1] = 1j
    Z = Jet._of(zt)
    comps = []
    for p in curve:
        if not p:
            comps.append(Jet.zeros(order, batch))
            continue
        acc = Jet.const(np.full(batch, p[-1], dtype=complex), order)
        for c in reversed(p[:-1]):
            acc = acc * Z
            acc.t[0, 0] += c
        comps.append(acc)
    return JetVec(comps)


def jet_gram_schmidt(vectors, eps=1e-9, guard=None, with_coeffs=False):
    """Classical Gram-Schmidt on jet vectors, in jet arithmetic.

    Returns orthonormal jet frames spanning the same flag of subspaces;
    orthonormality holds as a jet identity through the input order.  A
    residual whose pointwise norm falls below `eps` times the input scale
    raises RankDeficient (or is masked under `guard`: the second return
    value is the per-point validity mask).

    With `with_coeffs=True` also returns the lower-triangular jet
    coefficients L with frames[i] = sum_j L[i][j] * vectors[j].
    """
    if not vectors:
        raise ValueError("need at least one vector")
    order = vectors[0].order
    batch = np.broadcast_shapes(*[v.batch for v in vectors])
    scale_sq = np.zeros(batch)
    for v in vectors:
        scale_sq = np.maximum(scale_sq, v.norm_sq().value().real)
    ok = np.ones(batch, dtype=bool) if guard is None else np.broadcast_to(np.asarray(guard, bool), batch).copy()

    frames = []
    rows = []
    nvec = len(vectors)
    for i, v in enumerate(vectors):
        w = v
        row = [Jet.zeros(order, batch) for _ in range(nvec)]
        row[i] = Jet.const(np.ones(batch), order)
        for j, e in enumerate(frames):
            d = w.dot(e)
            w = w - e.scale(d)
            if with_coeffs:
                row = [rc - rj * d for rc, rj in zip(row, rows[j])]
        nsq = w.norm_sq()
        good = nsq.value().real > (eps ** 2) * scale_sq
        if guard is None:
            if not np.all(good):
                raise RankDeficient(f"vector {i} is dependent at the point (eps={eps})")
        ok &= good
        inv = nsq.sqrt(guard=ok).recip(guard=ok)
        frames.append(w.scale(inv))
        if with_coeffs:
            rows.append([rc * inv for rc in row])
    if with_coeffs:
        return (frames, rows, ok) if guard is not None else (frames, rows)
    return (frames, ok) if guard is not None else frames

