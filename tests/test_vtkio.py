"""Legacy ASCII VTK export: structure, cell data, and determinism."""

import math

import numpy as np
import pytest

from tdg.basis import frame_from_direction
from tdg.mesh import DomainSpec, build_initial_mesh, refine_elements
from tdg.vtkio import write_vtk


def _constant_k(k):
    """Map from points (m, d) to the wavenumber k at each, (m,)."""
    return lambda points: np.full(len(points), float(k))


def _mesh2d(n=2, q0=3):
    return build_initial_mesh(
        DomainSpec(kind="unit_square"), n, _constant_k(20.0), q0
    )


def _mesh3d(n=2, q0=2):
    return build_initial_mesh(
        DomainSpec(kind="unit_cube"), n, _constant_k(10.0), q0
    )


def _parse(path):
    text = path.read_text()
    lines = text.splitlines()
    sections = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        head = line.split()
        if head and head[0] in ("POINTS", "CELLS", "CELL_TYPES", "CELL_DATA",
                                "SCALARS", "VECTORS"):
            sections.setdefault(head[0], []).append((i, line))
        i += 1
    return text, lines, sections


def test_vtk_2d_structure(tmp_path):
    mesh = _mesh2d(n=2)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh)
    text, lines, sections = _parse(path)
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    # A 2x2 grid shares corners: 9 unique points, 4 quads.
    points_at, points_line = sections["POINTS"][0]
    assert points_line == "POINTS 9 double"
    cells_at, cells_line = sections["CELLS"][0]
    assert cells_line == "CELLS 4 20"
    for row in lines[cells_at + 1:cells_at + 5]:
        parts = row.split()
        assert parts[0] == "4"
        assert len(parts) == 5
    types_at, types_line = sections["CELL_TYPES"][0]
    assert types_line == "CELL_TYPES 4"
    assert lines[types_at + 1:types_at + 5] == ["9"] * 4
    assert sections["CELL_DATA"][0][1] == "CELL_DATA 4"


def test_vtk_2d_points_are_padded_to_3d(tmp_path):
    mesh = _mesh2d(n=2)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh)
    _, lines, sections = _parse(path)
    points_at, _ = sections["POINTS"][0]
    coords = [list(map(float, lines[points_at + 1 + j].split())) for j in range(9)]
    for coord in coords:
        assert len(coord) == 3
        assert coord[2] == 0.0
    xs = sorted({c[0] for c in coords})
    assert xs == [0.0, 0.5, 1.0]


def test_vtk_3d_structure(tmp_path):
    mesh = _mesh3d(n=2)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh)
    _, lines, sections = _parse(path)
    assert sections["POINTS"][0][1] == "POINTS 27 double"
    assert sections["CELLS"][0][1] == "CELLS 8 72"
    types_at, types_line = sections["CELL_TYPES"][0]
    assert types_line == "CELL_TYPES 8"
    assert lines[types_at + 1:types_at + 9] == ["12"] * 8


def test_vtk_cell_data_arrays(tmp_path):
    mesh = _mesh2d(n=2)
    ids = sorted(mesh.elements)
    mesh.elements[ids[1]].degree = 5
    eta = {ids[0]: 0.25, ids[2]: 1.5}
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, eta_by_element=eta)
    _, lines, sections = _parse(path)
    scalars = {line.split()[1]: at for at, line in sections["SCALARS"]}
    assert set(scalars) == {"q_K", "eta_K", "level"}
    q_at = scalars["q_K"]
    assert lines[q_at] == "SCALARS q_K int 1"
    assert lines[q_at + 1] == "LOOKUP_TABLE default"
    assert lines[q_at + 2:q_at + 6] == ["3", "5", "3", "3"]
    eta_at = scalars["eta_K"]
    assert lines[eta_at] == "SCALARS eta_K double 1"
    values = [float(lines[eta_at + 2 + j]) for j in range(4)]
    assert values == [0.25, 0.0, 1.5, 0.0]
    level_at = scalars["level"]
    assert lines[level_at + 2:level_at + 6] == ["0"] * 4


def test_vtk_direction_vectors_follow_frames(tmp_path):
    mesh = _mesh2d(n=2)
    ids = sorted(mesh.elements)
    theta = 1.1
    mesh.elements[ids[3]].frame = frame_from_direction(
        np.array([math.cos(theta), math.sin(theta)])
    )
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh)
    _, lines, sections = _parse(path)
    vec_at, vec_line = sections["VECTORS"][0]
    assert vec_line == "VECTORS direction_0 double"
    rows = [list(map(float, lines[vec_at + 1 + j].split())) for j in range(4)]
    for row in rows[:3]:
        assert row == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert rows[3] == pytest.approx([math.cos(theta), math.sin(theta), 0.0],
                                    abs=1e-15)


def test_vtk_refined_mesh_counts(tmp_path):
    mesh = refine_elements(_mesh2d(n=2), [0])
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh)
    _, lines, sections = _parse(path)
    n_cells = int(sections["CELLS"][0][1].split()[1])
    assert n_cells == 7
    types_at, _ = sections["CELL_TYPES"][0]
    assert lines[types_at + 1:types_at + 1 + n_cells] == ["9"] * n_cells


def test_vtk_output_is_deterministic(tmp_path):
    mesh_a = _mesh3d(n=2)
    mesh_b = _mesh3d(n=2)
    path_a = tmp_path / "a.vtk"
    path_b = tmp_path / "b.vtk"
    write_vtk(path_a, mesh_a, eta_by_element={0: 1e-3})
    write_vtk(path_b, mesh_b, eta_by_element={0: 1e-3})
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.read_bytes().endswith(b"\n")
