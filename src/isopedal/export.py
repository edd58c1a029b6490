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

import warnings

import numpy as np

from .errors import ConfigError
from .geometry import SurfaceJets, first_normal_rank
from .grid import Grid
from .jets import dot_values
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
    """`proj` as a float array; a ConfigError unless it is a 3 x n matrix
    of finite numbers, a warning if its rows are not orthonormal."""
    try:
        arr = np.asarray(proj)
    except ValueError:  # rows of unequal lengths
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ConfigError("projection must be a matrix of numbers")
    if arr.shape != (3, ambient_dim):
        raise ConfigError(f"projection must be 3 x {ambient_dim}, got shape {arr.shape}")
    proj = arr.astype(float)
    if not np.all(np.isfinite(proj)):
        raise ConfigError("projection entries must be finite")
    gram = proj @ proj.T
    if np.max(np.abs(gram - np.eye(3))) > PROJECTION_ORTHO_TOL:
        warnings.warn(
            "projection rows are not orthonormal; the mesh will be "
            "anisotropically distorted",
            stacklevel=2,
        )
    return proj


def grid_faces(grid: Grid, keep=None):
    """Triangle index triples (0-based, row-major vertices), shape (F, 3).

    Each quad of the lattice splits into two triangles, listed quad by
    quad in row-major order; faces with any corner excluded by `keep`
    are dropped.
    """
    nx, ny = grid.nx, grid.ny
    v00 = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)[None, :]).ravel()
    v10, v01 = v00 + 1, v00 + nx
    v11 = v01 + 1
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    if keep is not None:
        faces = faces[np.all(np.asarray(keep)[faces], axis=1)]
    return faces


def write_obj(path, vertices, faces, header_lines=()):
    """Write a triangle mesh; vertices is an (P, 3) array, faces (F, 3)
    0-based indices."""
    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=int).reshape(-1, 3) + 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.writelines(f"v {a:.17g} {b:.17g} {c:.17g}\n" for a, b, c in vertices.tolist())
        fh.writelines(f"f {a} {b} {c}\n" for a, b, c in faces.tolist())


def export_obj(surface: SurfaceEvaluator, grid: Grid, path, keep, projection=None,
               label="surface"):
    """Sample the surface over the grid and write a projected OBJ mesh.

    Returns the number of excluded grid points.  The mesh always contains
    every grid vertex (excluded ones carry their computed coordinates,
    which may be meaningless); faces touching an excluded point are
    dropped so the visible mesh is trustworthy.  `keep` marks the points
    to keep.
    """
    x, y = grid.points()
    values = surface.evaluate(x, y, 2)[0].value().real  # (n, P)
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


def _floats(a):
    """CSV cells of a float column, lazily: `repr` of each value ('nan'
    for NaN)."""
    return map(repr, np.asarray(a, dtype=float).tolist())


def _flags(a):
    """CSV cells of a boolean column, lazily: '1' or '0'."""
    return ("1" if v else "0" for v in np.asarray(a, dtype=bool).tolist())


def _write_csv(path, header, columns):
    """Write the header and one row per cell of the `columns` iterators,
    each line ending in CRLF as `csv.writer` ends it (no cell needs
    quoting); the cells are formatted as the rows are written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def write_geometry_csv(bundle: SurfaceJets, grid: Grid, path):
    """Curvature invariants of the bundle's surface over the grid as CSV,
    one row per grid point in row-major order; returns (rows, excluded)."""
    x, y = bundle.x, bundle.y
    keep = grid.premask() & bundle.valid
    sc = bundle.curvature_scalars
    d1, _ = bundle.circle_defect(1)
    if bundle.flag_capacity() >= 2:
        d2, lam2 = bundle.circle_defect(2)
        lev_ok = bundle.flag(2)[1].valid
        d2, lam2 = np.where(lev_ok, d2, np.nan), np.where(lev_ok, lam2, np.nan)
    else:
        d2 = lam2 = np.full(x.shape, np.nan)
    columns = [_floats(v) for v in (x, y, sc["K"], sc["K_N"], sc["H_norm_sq"],
                                    sc["wintgen_defect"], d1, d2, lam2)]
    _write_csv(path, GEOMETRY_COLUMNS, columns + [_flags(~keep)])
    return x.size, int(np.sum(~keep))


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
    g = pb.foot.value().real
    dn, en = (np.sqrt(np.maximum(dot_values(v, v), 0.0))
              for v in (pb.first_normal_part, pb.higher_normal_part))
    columns = [_floats(v) for v in (x, y, *pb.tangent_part, *g, dn, en, pb.theta)]
    columns += [_flags(v) for v in (reg["tangent_nonzero"], reg["first_normal_nonzero"],
                                    reg["immersed"] & pre)]
    _write_csv(path, pedal_columns(len(pb.foot)), columns)
    return x.size, int(np.sum(~pre | reg["excluded"]))


def rank_note(bundle: SurfaceJets, grid: Grid):
    """Distinct first-normal ranks of the bundle's surface over the grid
    (diagnostic)."""
    keep = grid.premask() & bundle.valid
    return sorted(set(int(r) for r in first_normal_rank(bundle)[keep]))
