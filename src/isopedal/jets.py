"""Truncated two-variable jets (Taylor tables) with exact arithmetic.

A jet of order d at a base point stores the scaled Taylor coefficients

    c[i, j] = (d^{i+j} u / dx^i dy^j) / (i! j!),   i + j <= d,

so that multiplication of jets is truncated coefficient convolution and
polynomial lifts are exact in floating point up to rounding.  Entries of
the square table with i + j > d are kept at zero.

Jets are batched and every operation is vectorized over the batch axes.
This is how grid evaluation is parallelized - one jet pipeline runs for
all grid points at once.  Tables are stored coefficient-leading, so that
each coefficient c[i, j] is one contiguous block and a product works on
whole rows of such blocks:

* a `Jet` holds `t` of shape (d+1, d+1, *batch);
* a `JetVec` (the jet of a map into R^n) holds one `t` of shape
  (d+1, d+1, n, *batch), coefficients first, then components, so that a
  vector operation (`dot`, `scale`, `project_off`, ...) is one pass of
  numpy calls over all n components.

The public scalar layout is batch-leading: `Jet(c)` takes, and `Jet.c`
returns as a view, an array of shape (*batch, d+1, d+1).

The table dtype follows the inputs.  Real pipelines (surface jets,
frames, pedals, inversions) carry float64 tables; complex tables occur
only where the mathematics is complex: the holomorphic lift
(`jet_lift`), Wirtinger derivatives (d = (d/dx - i d/dy)/2) and what is
built from them.  `.real()` returns float64 tables.  A real table gives
the same bits as the real part of the same computation on complex tables
with zero imaginary parts, with one care: numpy divides complex numbers
as a * (1/b), so real division by a jet's value is written t * (1/b).

Division and square root are one binomial series, (1 + u)^alpha at
alpha = -1 and 1/2, in the normalized remainder u = a/a0 - 1, which is
nilpotent at order d+1, so `order` Horner steps give the exact
truncation.  A degenerate a0 raises `DegenerateJet` unless a `guard`
array is given; with one, which every grid pipeline passes, the affected
batch entries hold junk and the caller keeps the mask.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateJet

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


def _fit(t, D, ndim, lead):
    """Table `t` truncated to D coefficients per axis, with 1-axes
    inserted after its `lead` leading axes until it has `ndim` axes."""
    if t.shape[0] != D:
        if t.shape[0] < D:
            raise ValueError("cannot raise jet order by truncation")
        t = t[:D, :D] * _tri(D).reshape((D, D) + (1,) * (t.ndim - 2))
    if t.ndim < ndim:
        t = t.reshape(t.shape[:lead] + (1,) * (ndim - t.ndim) + t.shape[lead:])
    return t


def _align(a, b, lead):
    """Tables `a` and `b` at the lower order of the two, with equal rank."""
    if a.shape == b.shape:
        return a, b
    D, ndim = min(a.shape[0], b.shape[0]), max(a.ndim, b.ndim)
    return _fit(a, D, ndim, lead), _fit(b, D, ndim, lead)


def _product(a, b, lead):
    """Truncated Cauchy product of two tables, written only on the
    triangle p + q <= d and broadcast over the axes after the first two.

    Each output coefficient receives its terms a[p, q] * b[i, j] in the
    order of (i, j), starting from zero, one row segment of `a` per numpy
    call.  The right factor's coefficient keeps a length-1 axis so that
    both operands of every call have equal rank.
    """
    # the steps read only the triangle, so a higher-order operand is
    # sliced to the lower order, not copied with its new triangle masked
    D = min(a.shape[0], b.shape[0])
    a, b = _align(a[:D, :D], b[:D, :D], lead)
    shape = a.shape[2:] if a.shape == b.shape else np.broadcast_shapes(a.shape[2:], b.shape[2:])
    out = np.zeros((D, D) + shape, dtype=np.result_type(a, b))
    left_index, row_index, steps = _mul_plan(D)
    left = [a[k] for k in left_index]
    rows = [out[k] for k in row_index]
    add, mul = np.add, np.multiply
    for ij, pairs in steps:
        bij = b[ij]
        for k, r in pairs:
            o = rows[r]
            add(o, mul(left[k], bij), out=o)
    return out


def _divided(t, s):
    """Table `t` divided by the batch array `s`, rounded as numpy's
    complex division rounds the same values with zero imaginary parts."""
    return t / s if np.iscomplexobj(t) else t * (1.0 / s)


class _Table:
    """Operations shared by `Jet` and `JetVec`: one table `t` with `_LEAD`
    axes (coefficients, then components) before the batch axes."""

    __slots__ = ("t",)
    _LEAD = 2

    @classmethod
    def _of(cls, t):
        """The object whose stored table is `t` (no copy)."""
        obj = cls.__new__(cls)
        obj.t = t
        return obj

    @property
    def order(self):
        return self.t.shape[0] - 1

    @property
    def batch(self):
        return self.t.shape[self._LEAD:]

    def value(self):
        """Order-0 values, shape (*batch) or (n, *batch); a view into the table."""
        return self.t[0, 0]

    def truncate(self, order):
        if order == self.order:
            return self
        return self._of(_fit(self.t, order + 1, 0, 0))

    def scale(self, s):
        """Each coefficient times the number or batch array `s`."""
        s = np.asarray(s)
        return self._of(_fit(self.t, self.t.shape[0], s.ndim + self._LEAD, self._LEAD) * s)

    def __add__(self, other):
        if isinstance(other, type(self)):
            a, b = _align(self.t, other.t, self._LEAD)
            return self._of(a + b)
        return self.add_const(other)

    def __sub__(self, other):
        if isinstance(other, type(self)):
            a, b = _align(self.t, other.t, self._LEAD)
            return self._of(a - b)
        return self.add_const(-np.asarray(other))

    def __neg__(self):
        return self._of(-self.t)

    # -- calculus ----------------------------------------------------------

    def _weights(self, w):
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return w.reshape(w.shape + (1,) * (self.t.ndim - 2))

    def dx(self):
        w = np.arange(1, self.order + 1, dtype=float)[:, None]
        return self._of(self.t[1:, :-1] * self._weights(w))

    def dy(self):
        w = np.arange(1, self.order + 1, dtype=float)[None, :]
        return self._of(self.t[:-1, 1:] * self._weights(w))

    def wirtinger(self):
        """The Wirtinger derivative (d/dx - i d/dy)/2, one order lower."""
        return self._of(0.5 * (self.dx().t - 1j * self.dy().t))

    def real(self):
        return self._of(np.ascontiguousarray(self.t.real))

    def imag(self):
        return self._of(np.ascontiguousarray(self.t.imag))


class Jet(_Table):
    """One truncated Taylor table, batched over trailing axes.

    `t` stores the table as (d+1, d+1, *batch), each coefficient a
    contiguous plane over the batch; `Jet(c)` and `.c` use the
    batch-leading (*batch, d+1, d+1) layout.
    """

    __slots__ = ()

    def __init__(self, c):
        self.t = np.ascontiguousarray(np.moveaxis(np.asarray(c), (-2, -1), (0, 1)))

    @property
    def c(self):
        """The table as a (*batch, d+1, d+1) view.

        It is the view `np.moveaxis(t, (0, 1), (-2, -1))` gives, built
        with one `transpose` call, which costs far less per access.
        """
        t = self.t
        return t.transpose(tuple(range(2, t.ndim)) + (0, 1))

    # -- constructors (float64 tables unless given complex values) ----------

    @staticmethod
    def const(value, order, batch=()):
        value = np.asarray(value)
        shape = np.broadcast_shapes(value.shape, tuple(batch))
        t = np.zeros((order + 1, order + 1) + shape, dtype=np.result_type(value, float))
        t[0, 0] = value
        return Jet._of(t)

    @staticmethod
    def zeros(order, batch=()):
        return Jet._of(np.zeros((order + 1, order + 1) + tuple(batch)))

    # -- ring operations -------------------------------------------------

    def add_const(self, value):
        value = np.asarray(value)
        t = self.t.astype(np.result_type(self.t, value))
        t[0, 0] += value
        return Jet._of(t)

    def __mul__(self, other):
        """Truncated Cauchy product (see `_product`), or `scale`."""
        if not isinstance(other, Jet):
            return self.scale(other)
        return Jet._of(_product(self.t, other.t, 2))

    def _binomial(self, alpha, bad, guard, what):
        """The table of (1 + u)^alpha, u = self/a0 - 1, by Horner's rule on
        the binomial coefficients, and the order-0 values a0 it divided by.

        Entries where `bad` holds raise DegenerateJet (`what`) without a
        `guard`; with one, they and the entries it drops divide by 1 and
        hold junk."""
        a0 = self.value()
        if guard is None:
            if np.any(bad):
                raise DegenerateJet(f"{what} (order-0 coefficient {a0.flat[:1]})")
        else:
            a0 = np.where(np.asarray(guard, dtype=bool) & ~bad, a0, 1.0)
        u = Jet._of(_divided(self.t, a0))
        u.t[0, 0] = 0.0
        coeffs = [1.0]  # binomial(alpha, k) for k = 0..order
        for k in range(self.order):
            coeffs.append(coeffs[-1] * (alpha - k) / (k + 1))
        acc = Jet.const(np.full(u.batch, coeffs[-1]), self.order)
        for c in reversed(coeffs[:-1]):
            acc = u * acc
            acc.t[0, 0] += c
        return acc.t, a0

    def recip(self, guard=None):
        """Multiplicative inverse as a jet: the series at alpha = -1.

        With `guard=None`, raises DegenerateJet when the order-0
        coefficient vanishes (relative magnitude below 1e-12); with a
        boolean `guard`, degenerate batch entries are replaced by junk
        and left for the caller's mask.
        """
        v = self.value()
        bad = ~(np.abs(v) > 1e-12 * np.max(np.abs(self.t), axis=(0, 1)))
        t, a0 = self._binomial(-1.0, bad, guard, "division by a vanishing jet")
        return Jet._of(_divided(t, a0))

    def sqrt(self, guard=None):
        """Principal square root, the series at alpha = 1/2; the order-0
        coefficient must be a positive real (`guard` as for `recip`)."""
        v = self.value()
        bad = ~((v.real > 0) & (np.abs(v.imag) <= 1e-9 * np.abs(v) + 1e-300))
        t, a0 = self._binomial(0.5, bad, guard, "square root needs a positive real value")
        return Jet._of(t * np.sqrt(a0))


class JetVec(_Table):
    """The jet of a vector map: n jets sharing order and batch, stored as
    one table `t` of shape (d+1, d+1, n, *batch)."""

    __slots__ = ()
    _LEAD = 3

    def __init__(self, comps):
        """Stack jets of one order and batch shape."""
        self.t = np.stack([c.t for c in comps], axis=2)

    @staticmethod
    def const(vec, order, batch=()):
        """The constant map with value `vec` (n entries) over the batch."""
        vec = np.asarray(vec)
        t = np.zeros((order + 1, order + 1) + vec.shape + tuple(batch),
                     dtype=np.result_type(vec, float))
        t[0, 0] = vec.reshape(vec.shape + (1,) * len(batch))
        return JetVec._of(t)

    def __len__(self):
        return self.t.shape[2]

    def __getitem__(self, k):
        return Jet._of(self.t[:, :, k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def scale(self, s):
        """Each component times the jet `s` (a truncated product with
        the component on the left), or times a number or batch array."""
        if isinstance(s, Jet):
            return JetVec._of(_product(self.t, s.t[:, :, None], 3))
        return super().scale(s)

    def dot(self, other):
        """Bilinear pairing sum_k u_k v_k (no conjugation).

        The component products are summed in component order, one slice
        at a time (a reduction along the component axis may pair the
        terms differently).
        """
        if len(self) != len(other):
            raise ValueError(f"component mismatch: {len(self)} vs {len(other)}")
        p = _product(self.t, other.t, 3)
        acc = p[:, :, 0]
        for k in range(1, len(self)):
            acc = acc + p[:, :, k]
        return Jet._of(acc)

    def norm_sq(self):
        return self.dot(self)

    def dot_value(self, other):
        """Order-0 values of `dot(other)`, shape (*batch): the pairing of
        the order-0 coefficients alone, bitwise the value of the full
        pairing (a product writes its order-0 entry from the operands'
        order-0 entries only)."""
        return self.truncate(0).dot(other.truncate(0)).value()

    def translate(self, vec):
        """Add a constant ambient vector (one entry per component).

        On a stack of maps, whose leading batch axis of length k holds k
        samples, vectors of shape (n, k) translate sample i by column i.
        """
        vec = np.asarray(vec)
        if vec.shape[:1] != (len(self),) or vec.shape[1:] != self.batch[:vec.ndim - 1]:
            raise ValueError("translation dimension mismatch")
        t = self.t.astype(np.result_type(self.t, vec))
        t[0, 0] += vec.reshape(vec.shape + (1,) * (len(self.batch) + 1 - vec.ndim))
        return JetVec._of(t)

    def project_off(self, frames):
        """Subtract components along jet-orthonormal `frames`."""
        v = self
        for e in frames:
            v = v - e.scale(v.dot(e))
        return v


# -- public operations -------------------------------------------------------


def jet_lift(curve, x, y, order):
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
    z0 = x + 1j * y
    outside = ~_tri(D)
    comps = []
    for p in curve:
        if not p:
            comps.append(Jet.zeros(order, batch))
            continue
        acc = np.zeros((D, D) + batch, dtype=complex)
        acc[0, 0] = p[-1]
        for c in reversed(p[:-1]):
            # acc * (z0 + dx + i dy): the terms a product with the jet of z
            # adds, in its order (the value, then the y step, then the x
            # step), with the spill past the triangle cleared; adding 0.0
            # first turns negative zeros positive, as a product's zeroed
            # accumulator does
            nxt = acc * z0
            nxt += 0.0
            nxt[:, 1:] += acc[:, :-1] * 1j
            nxt[1:] += acc[:-1]
            nxt[outside] = 0.0
            nxt[0, 0] += c
            acc = nxt
        comps.append(Jet._of(acc))
    return JetVec(comps)


def jet_gram_schmidt(vectors, guard, eps=1e-9):
    """Classical Gram-Schmidt on jet vectors, in jet arithmetic.

    Returns `(frames, invs, ok)`: orthonormal jet frames spanning the same
    flag of subspaces (orthonormality holds as a jet identity through the
    input order), the reciprocal norms of the residuals they normalise
    (frames[i] = invs[i] * residual i), and the per-point mask `ok`, which
    is `guard` without the points where a residual's norm falls below
    `eps` times the input scale; frames hold junk outside it.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    batch = np.broadcast_shapes(*[v.batch for v in vectors])
    scale_sq = np.zeros(batch)
    for v in vectors:
        scale_sq = np.maximum(scale_sq, v.dot_value(v).real)
    ok = np.broadcast_to(np.asarray(guard, bool), batch).copy()

    frames = []
    invs = []
    for v in vectors:
        w = v
        for e in frames:
            w = w - e.scale(w.dot(e))
        nsq = w.norm_sq()
        ok &= nsq.value().real > (eps ** 2) * scale_sq
        inv = nsq.sqrt(guard=ok).recip(guard=ok)
        frames.append(w.scale(inv))
        invs.append(inv)
    return frames, invs, ok
