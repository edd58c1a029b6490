"""Holomorphic polynomials in one complex variable, and vectors of them.

A polynomial is a plain list of complex coefficients, lowest degree first,
with trailing (exact) zeros stripped.  The zero polynomial is the empty
list and has degree -1.  A curve is a list of such polynomials, one per
complex ambient component.

The bilinear pairing `cv_dot` is the sum of products of components with
no conjugation: the isotropy condition used throughout the package is
`cv_dot(u, u) == 0` as a polynomial, not a Hermitian norm.
"""

from __future__ import annotations

CPoly = list  # list[complex], coefficients low -> high
CVecPoly = list  # list[CPoly]


def cp_trim(p) -> CPoly:
    """Strip trailing zero coefficients (canonical form)."""
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return [complex(c) for c in p[:n]]


def cp_degree(p) -> int:
    """Degree of a canonical polynomial; the zero polynomial has degree -1."""
    return len(cp_trim(p)) - 1


def cp_add(p, q) -> CPoly:
    n = max(len(p), len(q))
    out = [complex(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return cp_trim(out)


def cp_sub(p, q) -> CPoly:
    return cp_add(p, [-complex(c) for c in q])


def cp_scale(p, c) -> CPoly:
    c = complex(c)
    return cp_trim([c * complex(a) for a in p])


def cp_mul(p, q) -> CPoly:
    p = cp_trim(p)
    q = cp_trim(q)
    if not p or not q:
        return []
    out = [complex(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return cp_trim(out)


def cp_diff(p) -> CPoly:
    """d/dz, degree drops by one."""
    return cp_trim([k * complex(c) for k, c in enumerate(p)][1:])


def cp_int(p) -> CPoly:
    """Antiderivative with integration constant fixed to zero."""
    return cp_trim([complex(0)] + [complex(c) / (k + 1) for k, c in enumerate(p)])


def cp_max_abs(p) -> float:
    return max((abs(c) for c in p), default=0.0)


# -- vectors of polynomials -------------------------------------------------

def cv_trim(u) -> CVecPoly:
    return [cp_trim(p) for p in u]


def cv_dot(u, v) -> CPoly:
    """Bilinear pairing sum_i u_i * v_i (no conjugation)."""
    if len(u) != len(v):
        raise ValueError(f"component mismatch: {len(u)} vs {len(v)}")
    acc: CPoly = []
    for p, q in zip(u, v):
        acc = cp_add(acc, cp_mul(p, q))
    return acc


def cv_diff(u) -> CVecPoly:
    return [cp_diff(p) for p in u]


def cv_int(u) -> CVecPoly:
    return [cp_int(p) for p in u]


def cv_max_abs(u) -> float:
    return max((cp_max_abs(p) for p in u), default=0.0)


def cv_degree(u) -> int:
    return max((cp_degree(p) for p in u), default=-1)
