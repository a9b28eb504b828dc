import numpy as np

from recirc.mesh import build_rect_mesh
from recirc.space import MixedSpace
from recirc.vtk import vtk_geometry, write_vtk


def test_vtk_file_structure(tmp_path):
    m = build_rect_mesh(1, 1, 2, 2)
    space = MixedSpace(m)
    v = space.interpolate(lambda x, y: np.column_stack([x, -y]))
    path = tmp_path / "field.vtk"
    write_vtk(
        path, m,
        point_vectors={"velocity": space.vertex_velocity(v)},
        point_scalars={"speed": np.hypot(*space.vertex_velocity(v).T)},
    )
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines
    assert "DATASET UNSTRUCTURED_GRID" in lines

    ip = lines.index(f"POINTS {m.num_vertices} double")
    pts = np.array([list(map(float, lines[ip + 1 + k].split()))
                    for k in range(m.num_vertices)])
    assert np.allclose(pts[:, :2], m.vertices)
    assert np.all(pts[:, 2] == 0)

    ic = next(i for i, line in enumerate(lines) if line.startswith("CELLS"))
    count = int(lines[ic].split()[1])
    assert count == m.num_cells
    first = list(map(int, lines[ic + 1].split()))
    assert first[0] == 3 and first[1:] == list(m.cells[0])

    it = lines.index(f"CELL_TYPES {m.num_cells}")
    assert all(lines[it + 1 + k] == "5" for k in range(m.num_cells))

    iv = lines.index("VECTORS velocity double")
    row = list(map(float, lines[iv + 1].split()))
    assert row == [m.vertices[0][0], -m.vertices[0][1], 0.0]
    assert "SCALARS speed double 1" in lines


def test_vtk_geometry_formatted_once_gives_the_same_file(tmp_path):
    # a caller writing many files of one mesh formats its geometry once
    m = build_rect_mesh(1, 1, 3, 2)
    space = MixedSpace(m)
    v = space.vertex_velocity(space.interpolate(lambda x, y: np.column_stack([y, x * x])))
    geometry = vtk_geometry(m)
    for name, kw in (("fresh.vtk", {}), ("kept.vtk", {"geometry": geometry})):
        write_vtk(tmp_path / name, m, point_vectors={"velocity": v}, title="t", **kw)
    assert (tmp_path / "fresh.vtk").read_bytes() == (tmp_path / "kept.vtk").read_bytes()
