"""Deterministic file exports: OBJ meshes and CSV sample tables.

Ambient dimensions above three are projected for OBJ output — by default
onto the first three coordinates, optionally through a user-supplied
3 x n matrix.  The projection used is recorded in the OBJ header, so a
mesh is always self-describing.  Vertices follow the grid's row-major
point order (x varies fastest); each grid quad is split into two
triangles, and faces touching an excluded grid point are dropped.  The
geometry table and the rank note read one `SurfaceJets` bundle of the
exported surface over the grid's points.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import ConfigError
from .geometry import SurfaceJets, first_normal_rank
from .grid import Grid
from .pedal import PedalBundle
from .weierstrass import SurfaceEvaluator

PROJECTION_ORTHO_TOL = 1e-9


def default_projection(ambient_dim: int) -> np.ndarray:
    """Projection onto the first three coordinates."""
    if ambient_dim < 3:
        raise ConfigError(f"OBJ export needs ambient dimension >= 3, got {ambient_dim}")
    proj = np.zeros((3, ambient_dim))
    proj[0, 0] = proj[1, 1] = proj[2, 2] = 1.0
    return proj


def check_projection(proj, ambient_dim: int) -> np.ndarray:
    proj = np.asarray(proj, dtype=float)
    if proj.shape != (3, ambient_dim):
        raise ConfigError(
            f"projection must be 3 x {ambient_dim}, got {proj.shape}"
        )
    gram = proj @ proj.T
    if np.max(np.abs(gram - np.eye(3))) > PROJECTION_ORTHO_TOL:
        warnings.warn(
            "projection rows are not orthonormal; the mesh will be "
            "anisotropically distorted",
            stacklevel=2,
        )
    return proj


def grid_faces(grid: Grid, keep=None):
    """Triangle index triples (0-based, row-major vertices).

    Each quad of the lattice splits into two triangles; faces with any
    corner excluded by `keep` are dropped.
    """
    nx, ny = grid.nx, grid.ny
    faces = []
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            v00 = iy * nx + ix
            v10 = v00 + 1
            v01 = v00 + nx
            v11 = v01 + 1
            for tri in ((v00, v10, v11), (v00, v11, v01)):
                if keep is None or all(keep[v] for v in tri):
                    faces.append(tri)
    return faces


def write_obj(path, vertices, faces, header_lines=()):
    """Write a triangle mesh; vertices is an (P, 3) array."""
    vertices = np.asarray(vertices, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for v in vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for a, b, c in faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def export_obj(surface: SurfaceEvaluator, grid: Grid, path, projection=None,
               label="surface", keep=None):
    """Sample the surface over the grid and write a projected OBJ mesh.

    Returns the number of excluded grid points.  The mesh always contains
    every grid vertex (excluded ones carry their computed coordinates,
    which may be meaningless); faces touching an excluded point are
    dropped so the visible mesh is trustworthy.  `keep` marks the points
    to keep (default: the grid's premask and the evaluation's valid).
    """
    x, y = grid.points()
    jets, valid = surface.evaluate(x, y, 2)
    values = jets.value().real  # (n, P)
    if keep is None:
        keep = grid.premask() & valid
    if projection is None:
        proj = default_projection(surface.ambient_dim)
        proj_note = "projection: first 3 of %d coordinates" % surface.ambient_dim
    else:
        proj = check_projection(projection, surface.ambient_dim)
        rows = ["[" + " ".join(f"{v:.17g}" for v in row) + "]" for row in proj]
        proj_note = "projection: custom 3x%d matrix %s" % (
            surface.ambient_dim, " ".join(rows))
    pts = (proj @ values).T
    header = [
        f"{label}: {surface.provenance}",
        f"grid: {grid.nx} x {grid.ny} on [{grid.x0}, {grid.x1}] x [{grid.y0}, {grid.y1}]",
        proj_note,
        f"excluded points: {int(np.sum(~keep))}",
    ]
    write_obj(path, pts, grid_faces(grid, keep), header)
    return int(np.sum(~keep))


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

GEOMETRY_COLUMNS = [
    "x", "y", "K", "K_N", "Hnorm2", "wintgen_defect",
    "circle_defect_1", "circle_defect_2", "lambda_2", "excluded_flag",
]


def _fmt(v):
    if v is None:
        return "nan"
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def geometry_table(bundle: SurfaceJets, grid: Grid):
    """Rows of curvature invariants over the grid (row-major point
    order), from the surface's bundle on the grid's points."""
    x, y = bundle.x, bundle.y
    keep = grid.premask() & bundle.valid
    sc = bundle.curvature_scalars()
    d1, _ = bundle.circle_defect(1)
    if bundle.flag_capacity() >= 2:
        d2, lam2 = bundle.circle_defect(2)
        lev_ok = bundle.flag(2)[1].valid
    else:
        d2 = lam2 = np.full(x.shape, np.nan)
        lev_ok = np.zeros(x.shape, dtype=bool)
    rows = []
    for k in range(x.size):
        rows.append([
            x[k], y[k], sc["K"][k], sc["K_N"][k], sc["H_norm_sq"][k],
            sc["wintgen_defect"][k], d1[k],
            d2[k] if lev_ok[k] else None,
            lam2[k] if lev_ok[k] else None,
            0 if keep[k] else 1,
        ])
    return rows


def write_geometry_csv(bundle: SurfaceJets, grid: Grid, path):
    """Curvature invariants of the bundle's surface over the grid as CSV;
    returns (rows, excluded)."""
    rows = geometry_table(bundle, grid)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GEOMETRY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return len(rows), sum(row[-1] for row in rows)


def pedal_columns(ambient_dim: int):
    cols = ["x", "y"]
    cols += [f"Z_{k}" for k in range(ambient_dim)]
    cols += [f"g_{k}" for k in range(ambient_dim)]
    cols += ["delta_norm", "eta_norm", "theta",
             "z_nonzero", "delta_nonzero", "immersed"]
    return cols


def write_pedal_csv(pb: PedalBundle, grid: Grid, path, reg):
    """Pedal decomposition samples over the grid (the points of the
    bundle), one CSV row per point; returns (rows, excluded points), a
    point being excluded where `reg`, the bundle's `pedal_regularity`, or
    the grid excludes it."""
    x, y = grid.points()
    pre = grid.premask()
    Z = pb.tangent_part.value().real
    g = pb.foot.value().real
    dn = np.sqrt(np.maximum(pb.first_normal_part.norm_sq().value().real, 0.0))
    en = np.sqrt(np.maximum(pb.higher_normal_part.norm_sq().value().real, 0.0))
    theta = pb.osc_norm_sq.value().real
    znz, dnz = reg["tangent_nonzero"], reg["first_normal_nonzero"]
    imm = pb.base.immersed & pre
    n = len(pb.foot)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(pedal_columns(n))
        for k in range(x.size):
            row = [x[k], y[k]]
            row += [Z[j, k] for j in range(n)]
            row += [g[j, k] for j in range(n)]
            row += [dn[k], en[k], theta[k], znz[k], dnz[k], imm[k]]
            writer.writerow([_fmt(v) for v in row])
    return x.size, int(np.sum(~pre | reg["excluded"]))


def rank_note(bundle: SurfaceJets, grid: Grid):
    """Distinct first-normal ranks of the bundle's surface over the grid
    (diagnostic)."""
    keep = grid.premask() & bundle.valid
    rank, _ = first_normal_rank(bundle)
    vals = sorted(set(int(r) for r in rank[keep])) if np.any(keep) else []
    return vals
