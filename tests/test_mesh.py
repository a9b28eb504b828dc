import numpy as np
import pytest

from recirc.errors import ConflictError
from recirc.mesh import build_rect_mesh, tag_boundary


def test_single_cell_counts():
    m = build_rect_mesh(1, 1, 1, 1)
    assert m.num_cells == 2
    assert m.num_vertices == 4


def test_two_by_two_counts_and_area():
    m = build_rect_mesh(1, 1, 2, 2)
    assert m.num_cells == 8
    assert abs(m.cell_areas().sum() - 1.0) <= 1e-12


def test_rectangle_area_and_perimeter():
    m = build_rect_mesh(2, 1, 8, 4)
    assert abs(m.cell_areas().sum() - 2.0) <= 1e-12 * 2.0
    # independent perimeter oracle: sum vertex distances of boundary edges
    total = 0.0
    for b in m.boundary:
        p0, p1 = m.vertices[b.vertices[0]], m.vertices[b.vertices[1]]
        total += np.linalg.norm(p1 - p0)
    assert abs(total - 6.0) <= 1e-12 * 6.0


@pytest.mark.parametrize("bad", [(0, 1, 2, 2), (1, -1, 2, 2), (1, 1, 0, 2), (1, 1, 2.5, 2)])
def test_invalid_arguments(bad):
    with pytest.raises(ValueError):
        build_rect_mesh(*bad)


@pytest.mark.parametrize("nx,ny,Lx,Ly", [(1, 1, 1, 1), (5, 3, 2.5, 0.5), (16, 16, 1, 1)])
def test_area_partition_identity(nx, ny, Lx, Ly):
    m = build_rect_mesh(Lx, Ly, nx, ny)
    assert abs(m.cell_areas().sum() - Lx * Ly) <= 1e-12 * Lx * Ly
    perim = sum(b.length for b in m.boundary)
    assert abs(perim - 2 * (Lx + Ly)) <= 1e-12 * (Lx + Ly)


def test_normals_are_unit_and_outward():
    m = build_rect_mesh(2, 1, 4, 2)
    for b in m.boundary:
        assert abs(np.linalg.norm(b.normal) - 1.0) <= 1e-14
        mid = 0.5 * (m.vertices[b.vertices[0]] + m.vertices[b.vertices[1]])
        outside = mid + 1e-3 * b.normal
        assert not (0 < outside[0] < 2 and 0 < outside[1] < 1)


def kind_measures(m):
    """Total boundary measure of each tag kind ("C", "T", "N")."""
    kinds = {"C": 0.0, "T": 0.0, "N": 0.0}
    for b in m.boundary:
        kinds[m.tag_kinds[b.tag]] += b.length
    return kinds


def test_tag_single_segment_measure():
    m = build_rect_mesh(1, 1, 8, 8)
    tag_boundary(m, [("bottom", 0.25, 0.5, "T1")])
    assert abs(m.measure("T1") - 0.25) <= 1e-12
    assert abs(m.measure("N") - 3.75) <= 1e-12


def test_four_pump_pairs_wall_measure():
    # widths 0.1 on a 20^2 unit square: mu(wall) = 4 - 8 * 0.1
    m = build_rect_mesh(1, 1, 20, 20)
    segs = []
    for k, c in enumerate((0.15, 0.35, 0.55, 0.75), 1):
        segs.append(("bottom", c, c + 0.1, f"T{k}"))
        segs.append(("top", c, c + 0.1, f"C{k}"))
    tag_boundary(m, segs)
    kinds = kind_measures(m)
    assert abs(kinds["N"] - 3.2) <= 1e-12
    assert abs(kinds["T"] - 0.4) <= 1e-12
    assert abs(kinds["C"] - 0.4) <= 1e-12


def test_empty_segment_list():
    m = build_rect_mesh(1, 1, 4, 4)
    tag_boundary(m, [])
    kinds = kind_measures(m)
    assert kinds["C"] == 0.0
    assert kinds["T"] == 0.0
    assert abs(kinds["N"] - 4.0) <= 1e-12


def test_every_boundary_edge_has_one_tag():
    m = build_rect_mesh(1, 1, 8, 8)
    tag_boundary(m, [("bottom", 0.25, 0.5, "T1"), ("top", 0.0, 0.25, "C1")])
    assert abs(sum(kind_measures(m).values()) - 4.0) <= 1e-12


def test_overlapping_segments_conflict():
    m = build_rect_mesh(1, 1, 8, 8)
    with pytest.raises(ConflictError):
        tag_boundary(m, [("bottom", 0.25, 0.5, "T1"), ("bottom", 0.375, 0.625, "C1")])


def test_segment_off_boundary_rejected():
    m = build_rect_mesh(1, 1, 8, 8)
    with pytest.raises(ValueError):
        tag_boundary(m, [("bottom", 0.5, 1.5, "T1")])


def test_misaligned_segment_rejected():
    m = build_rect_mesh(1, 1, 8, 8)
    with pytest.raises(ValueError):
        tag_boundary(m, [("bottom", 0.3, 0.55, "T1")])  # not on the 1/8 grid


def test_snap_tolerance_accepts_near_vertex():
    m = build_rect_mesh(1, 1, 8, 8)
    tag_boundary(m, [("bottom", 0.25 + 1e-10, 0.5 - 1e-10, "T1")])
    assert abs(m.measure("T1") - 0.25) <= 1e-9
