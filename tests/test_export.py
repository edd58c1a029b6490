"""Mesh and table writers: counts, ordering, projections, determinism."""

import numpy as np
import pytest

from isopedal.errors import ConfigError
from isopedal.export import (
    GEOMETRY_COLUMNS,
    check_projection,
    default_projection,
    export_obj,
    grid_faces,
    pedal_columns,
    write_geometry_csv,
    write_pedal_csv,
)
from isopedal.geometry import SurfaceJets
from isopedal.grid import Grid
from isopedal.pedal import pedal_regularity, pedal_split
from isopedal.weierstrass import preset_curve, surface_evaluator
from oracles import pedal_surface


def holo3():
    return surface_evaluator(preset_curve("holo3"))


def holo3_bundle(grid, order=4):
    """The bundle of holo3 over the grid's points."""
    return SurfaceJets(holo3(), *grid.points(), order)


def holo3_split(grid):
    """The pedal decomposition of holo3 over the grid, from order-3 jets."""
    return pedal_split(SurfaceJets(holo3(), *grid.points(), 3))


def read_obj(path):
    verts, faces, header = [], [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                header.append(line[2:].strip())
            elif line.startswith("v "):
                verts.append([float(t) for t in line.split()[1:]])
            elif line.startswith("f "):
                faces.append([int(t) for t in line.split()[1:]])
    return np.array(verts), faces, header


def test_obj_counts_on_default_grid(tmp_path):
    path = tmp_path / "f.obj"
    excluded = export_obj(holo3(), Grid(), path, keep=Grid().premask())
    assert excluded == 0
    verts, faces, header = read_obj(path)
    assert verts.shape == (441, 3)      # 21 x 21 vertices, all written
    assert len(faces) == 800            # (21-1)(21-1) quads, two triangles each
    assert all(len(f) == 3 for f in faces)
    assert any("projection: first 3 of 6 coordinates" in h for h in header)


def test_vertices_row_major_and_projected(tmp_path):
    grid = Grid(nx=3, ny=2)
    path = tmp_path / "g.obj"
    export_obj(holo3(), grid, path, keep=grid.premask())
    verts, faces, _ = read_obj(path)
    x, y = grid.points()
    jets = holo3().jets(x, y, 2)
    want = jets.value().real[:3].T
    assert np.max(np.abs(verts - want)) < 1e-12
    # x varies fastest: first two vertices differ in x only
    assert x[1] != x[0] and y[1] == y[0]
    assert faces == [[1, 2, 5], [1, 5, 4], [2, 3, 6], [2, 6, 5]]


def test_faces_near_excluded_disk_are_dropped(tmp_path):
    grid = Grid(x0=-0.5, x1=0.5, y0=-0.5, y1=0.5, nx=5, ny=5,
                excluded=((0.0, 0.0, 0.1),))
    path = tmp_path / "f.obj"
    excluded = export_obj(holo3(), grid, path, keep=grid.premask())
    assert excluded == 1  # only the center point sits in the disk
    verts, faces, _ = read_obj(path)
    assert verts.shape[0] == 25  # vertices always all written
    assert len(faces) == 32 - 6  # center vertex touches 6 of the triangles
    center = 2 * 5 + 2 + 1  # row-major index of (0,0), 1-based
    assert all(center not in f for f in faces)


def test_custom_projection_applied(tmp_path):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    proj = q.T
    path = tmp_path / "f.obj"
    export_obj(holo3(), Grid(nx=4, ny=4), path, keep=Grid(nx=4, ny=4).premask(), projection=proj)
    verts, _, header = read_obj(path)
    x, y = Grid(nx=4, ny=4).points()
    want = (proj @ holo3().jets(x, y, 2).value().real).T
    assert np.max(np.abs(verts - want)) < 1e-12
    assert any("custom 3x6 matrix" in h for h in header)


def test_projection_validation():
    with pytest.raises(ConfigError):
        check_projection(np.eye(3), 6)  # wrong width
    with pytest.warns(UserWarning):
        check_projection(np.eye(3, 6) * 2.0, 6)  # rows not orthonormal
    assert default_projection(6).shape == (3, 6)
    with pytest.raises(ConfigError):
        default_projection(2)


def test_grid_faces_count_without_mask():
    assert len(grid_faces(Grid(nx=21, ny=21))) == 800
    assert len(grid_faces(Grid(nx=2, ny=2))) == 2


def test_geometry_csv_columns_and_content(tmp_path):
    path = tmp_path / "geom.csv"
    grid = Grid(nx=4, ny=3)
    rows, excluded = write_geometry_csv(holo3_bundle(grid), grid, path)
    assert rows == 12 and excluded == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(GEOMETRY_COLUMNS)
    assert lines[0] == ("x,y,K,K_N,Hnorm2,wintgen_defect,circle_defect_1,"
                        "circle_defect_2,lambda_2,excluded_flag")
    first = lines[1].split(",")
    x0, y0 = float(first[0]), float(first[1])
    K = float(first[2])
    assert abs(K + 8.0 / (1 + 2 * (x0 * x0 + y0 * y0)) ** 4) < 1e-9
    assert first[-1] == "0"
    # minimal surface: Hnorm2 ~ 0, wintgen ~ 0
    assert abs(float(first[4])) < 1e-12
    assert abs(float(first[5])) < 1e-12


def test_geometry_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    grid = Grid(nx=5, ny=5)
    write_geometry_csv(holo3_bundle(grid), grid, p1)
    write_geometry_csv(holo3_bundle(grid), grid, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pedal_csv_columns_and_flags(tmp_path):
    path = tmp_path / "pedal.csv"
    grid = Grid(nx=5, ny=5)
    pb = holo3_split(grid)
    total, excluded = write_pedal_csv(pb, grid, path, pedal_regularity(pb))
    assert (total, excluded) == (25, 0)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(pedal_columns(6))
    assert lines[0].startswith("x,y,Z_0")
    assert lines[0].endswith("delta_norm,eta_norm,theta,z_nonzero,delta_nonzero,immersed")
    row = lines[1].split(",")
    assert len(row) == len(pedal_columns(6))
    theta = float(row[-4])
    dn, en = float(row[-6]), float(row[-5])
    Z = np.array([float(v) for v in row[2:8]])
    assert abs(theta - (Z @ Z + dn * dn)) < 1e-10
    assert en > 0
    assert row[-3:] == ["1", "1", "1"]


def test_pedal_csv_flags_degenerate_origin(tmp_path):
    grid = Grid(x0=-0.5, x1=0.5, y0=-0.5, y1=0.5, nx=3, ny=3)
    path = tmp_path / "pedal.csv"
    pb = holo3_split(grid)
    total, excluded = write_pedal_csv(pb, grid, path, pedal_regularity(pb))
    assert total == 9 and excluded >= 1
    lines = path.read_text().strip().split("\n")
    center = lines[1 + 4].split(",")  # (0, 0) row
    assert float(center[0]) == 0.0 and float(center[1]) == 0.0
    assert center[-3] == "0"  # no tangential part at the origin


def test_pedal_csv_immersed_is_the_pedal_rank(tmp_path):
    # at the branch-window origin f is immersed but its pedal is not: the
    # column reads the pedal's own rank-2 flag
    grid = Grid(x0=-0.5, x1=0.5, y0=-0.5, y1=0.5, nx=11, ny=11)
    path = tmp_path / "pedal.csv"
    pb = holo3_split(grid)
    reg = pedal_regularity(pb)
    write_pedal_csv(pb, grid, path, reg)
    immersed = [row.split(",")[-1] for row in path.read_text().strip().split("\n")[1:]]
    assert immersed == ["1" if v else "0" for v in reg["immersed"] & grid.premask()]
    origin = 5 * 11 + 5
    assert pb.base.immersed[origin] and immersed[origin] == "0"


def test_pedal_mesh_counts(tmp_path):
    path = tmp_path / "g.obj"
    excluded = export_obj(pedal_surface(holo3()), Grid(), path, keep=Grid().premask(),
                          label="pedal")
    assert excluded == 0
    verts, faces, _ = read_obj(path)
    assert verts.shape[0] == 441 and len(faces) == 800
