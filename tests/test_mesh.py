import numpy as np
import pytest

from conftest import SETUP_MESHES, edges_oracle
from recirc.errors import ConflictError, MeshError
from recirc.mesh import SIDES, TaggedMesh, build_rect_mesh, segment_vertices, tag_boundary


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
    p = m.vertices[m.edges[m.bnd_edge]]
    total = np.hypot(*(p[:, 1] - p[:, 0]).T).sum()
    assert abs(total - 6.0) <= 1e-12 * 6.0


@pytest.mark.parametrize("dims", SETUP_MESHES)
def test_edges_match_the_row_unique_oracle(dims):
    # the edges are numbered by 1-D keys v0 nv + v1 of the sorted pairs: the
    # same edges, order, cell map and dtypes as np.unique(pairs, axis=0)
    m = build_rect_mesh(*dims)
    edges, cell_edges = edges_oracle(m)
    for got, ref in ((m.edges, edges), (m.cell_edges, cell_edges)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("bad", [(0, 1, 2, 2), (1, -1, 2, 2), (1, 1, 0, 2), (1, 1, 2.5, 2)])
def test_invalid_arguments(bad):
    with pytest.raises(ValueError):
        build_rect_mesh(*bad)


@pytest.mark.parametrize("nx,ny,Lx,Ly", [(1, 1, 1, 1), (5, 3, 2.5, 0.5), (16, 16, 1, 1)])
def test_area_partition_identity(nx, ny, Lx, Ly):
    m = build_rect_mesh(Lx, Ly, nx, ny)
    assert abs(m.cell_areas().sum() - Lx * Ly) <= 1e-12 * Lx * Ly
    perim = m.bnd_length.sum()
    assert abs(perim - 2 * (Lx + Ly)) <= 1e-12 * (Lx + Ly)


def test_normals_are_unit_and_outward():
    m = build_rect_mesh(2, 1, 4, 2)
    assert np.abs(np.linalg.norm(m.bnd_normal, axis=1) - 1.0).max() <= 1e-14
    mid = m.vertices[m.edges[m.bnd_edge]].mean(axis=1)
    x, y = (mid + 1e-3 * m.bnd_normal).T
    assert not ((0 < x) & (x < 2) & (0 < y) & (y < 1)).any()


def test_boundary_table_reads_the_vertices():
    # each row's span is its end vertices' arc coordinate on its side, whose
    # other coordinate is the side's own, and its length is the span's width
    m = build_rect_mesh(2.5, 0.5, 5, 3)
    ends = m.vertices[m.edges[m.bnd_edge]]  # (nb, 2, 2)
    assert sorted(m.bnd_edge) == list(m.bnd_edge)
    for k, side in enumerate(SIDES):
        rows = m.bnd_side == k
        axis = 0 if side in ("bottom", "top") else 1
        fixed = {"bottom": 0.0, "right": 2.5, "top": 0.5, "left": 0.0}[side]
        assert rows.sum() == (5 if axis == 0 else 3)
        assert (ends[rows, :, 1 - axis] == fixed).all()
        assert (m.bnd_span[rows] == np.sort(ends[rows, :, axis], axis=1)).all()
    assert np.allclose(m.bnd_length, m.bnd_span[:, 1] - m.bnd_span[:, 0], rtol=0, atol=1e-15)
    assert (m.bnd_tag == "N").all()


def _nested_loop_cells(nx, ny):
    """build_rect_mesh's cells by the grid loop: cell (i, j) gives triangles
    2 (i ny + j) and the next, its diagonal alternating with i + j."""
    def vid(i, j):
        return i * (ny + 1) + j

    cells = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                cells[k], cells[k + 1] = (a, b, c), (a, c, d)
            else:
                cells[k], cells[k + 1] = (a, b, d), (b, c, d)
            k += 2
    return cells


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (5, 3), (16, 16)])
def test_cells_match_the_nested_loop(nx, ny):
    cells = build_rect_mesh(1.0, 1.0, nx, ny).cells
    assert cells.tobytes() == _nested_loop_cells(nx, ny).tobytes()


# EigenBasis.load refuses a basis.npz whose mesh fingerprint differs, so a
# change of these digests breaks every saved basis
@pytest.mark.parametrize("dims,segments,digest", [
    ((1, 1, 4, 4), [("bottom", 0.25, 0.5, "T1"), ("top", 0.5, 0.75, "C1")],
     "aff561bb9f10b46b8e3ac6bd321fa5c3e3a3a1c4dcc41a2c05f0eea3d8fe744e"),
    ((2, 1, 8, 4), [("left", 0.25, 0.5, "T1"), ("right", 0.5, 0.75, "C1")],
     "caaea1ffa6394884110cc77203729dc54fba28f015d1f2eefd63823032567734"),
])
def test_fingerprint_pinned(dims, segments, digest):
    assert tag_boundary(build_rect_mesh(*dims), segments).fingerprint() == digest


def test_boundary_edge_off_the_rectangle_rejected():
    m = build_rect_mesh(1, 1, 2, 2)
    with pytest.raises(MeshError, match="boundary edge 6-7 not on the rectangle boundary"):
        TaggedMesh(2.0, 1.0, m.vertices, m.cells)


def test_degenerate_boundary_edge_rejected():
    m = build_rect_mesh(1, 1, 2, 2)
    vertices = m.vertices.copy()
    vertices[3] = vertices[0]  # collapse the bottom edge (0, 0)-(0.5, 0)
    with pytest.raises(MeshError, match="degenerate boundary edge 0-3"):
        TaggedMesh(1.0, 1.0, vertices, m.cells)


def kind_measures(m):
    """Total boundary measure of each tag kind ("C", "T", "N"), the kind
    being the tag's first character, as `tag_boundary` reads it."""
    kinds = {"C": 0.0, "T": 0.0, "N": 0.0}
    for tag in np.unique(m.bnd_tag):
        kinds[tag[0].upper()] += m.bnd_length[m.bnd_tag == tag].sum()
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
    with pytest.raises(ConflictError, match="on 'bottom' overlaps tag 'T1'"):
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


def test_segment_vertices_is_the_mesh_rule():
    # the arithmetic rule accepts exactly the segments between two distinct
    # vertices of build_rect_mesh, and tag_boundary then covers their edges
    for n in range(1, 9):
        for L in (0.7, 1.0, 1.3):
            m = build_rect_mesh(L, 1.0, n, 1)
            xs = m.vertices[m.vertices[:, 1] == 0, 0]
            for k0 in range(n):
                for k1 in range(k0 + 1, n + 1):
                    start, end = k0 * L / n, k1 * L / n  # not linspace's bits
                    assert segment_vertices("bottom", start, end, L, n) == (k0, k1)
                    tagged = tag_boundary(build_rect_mesh(L, 1.0, n, 1),
                                          [("bottom", start, end, "T1")])
                    assert tagged.measure("T1") == pytest.approx(xs[k1] - xs[k0], abs=1e-14)
            for start, end in ((0.5 * L / n, L), (L, L + 0.5e-9), (-2e-9, L), (0.0, L + 2e-9),
                               (L, 0.0)):  # off a vertex, one vertex, off the side, reversed
                with pytest.raises(ValueError, match="does not run between two mesh vertices"):
                    segment_vertices("bottom", start, end, L, n)
