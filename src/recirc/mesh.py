"""Tank geometry: structured triangulation of a rectangle with a tagged boundary.

The boundary of the tank splits into three disjoint tagged families:
collector segments (water withdrawn), injector segments (water re-injected)
and the remaining impermeable wall. Tags are free-form strings; each tag
carries a kind in {"C", "T", "N"}.

The boundary is one table of aligned arrays over the boundary edges, in
mesh edge order: edge id, side, arc-coordinate span, length, outward normal
and tag. Every boundary consumer (tagging, boundary DOFs, flux, boundary
norm, pump normalization) reads it by masks.
"""

import hashlib

import numpy as np

from .errors import ConflictError, MeshError

SIDES = ("bottom", "right", "top", "left")

# outward unit normal of each side of an axis-aligned rectangle, in SIDES order
_SIDE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

# the two triangles of grid cell (i, j) as corners (a, b, c, d), counterclockwise
# from (i, j), for even and for odd i + j: the diagonal alternates with parity
_SPLITS = np.array([[0, 1, 2, 0, 2, 3], [0, 1, 3, 1, 2, 3]])

_SNAP = 1e-9

WALL_TAG = "N"


class TaggedMesh:
    """Simplicial mesh of the rectangular tank [0,Lx] x [0,Ly].

    Attributes
    ----------
    vertices : (nv, 2) float array of coordinates [m]
    cells : (nt, 3) int array, CCW vertex triples
    edges : (ne, 2) int array of sorted vertex pairs
    cell_edges : (nt, 3) int array, edge j opposite local vertex j

    The boundary table, one row per boundary edge:
    bnd_edge : (nb,) edge ids
    bnd_side : (nb,) side index into SIDES
    bnd_span : (nb, 2) arc coordinates (lo, hi) along the side
    bnd_length : (nb,) edge lengths
    bnd_normal : (nb, 2) outward unit normals
    bnd_tag : (nb,) object array of tags, WALL_TAG until `tag_boundary`
    """

    def __init__(self, Lx, Ly, vertices, cells):
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.vertices = vertices
        self.cells = cells
        self._build_edges()
        self._build_boundary()

    # -- construction ------------------------------------------------------

    def _build_edges(self):
        c = self.cells
        pairs = np.vstack(
            [c[:, [1, 2]], c[:, [2, 0]], c[:, [0, 1]]]
        )  # local edge j opposite vertex j
        pairs = np.sort(pairs, axis=1)
        # the key v0 nv + v1 of a sorted pair orders the pairs as the rows of
        # np.unique(pairs, axis=0) do, in a tenth of its time
        nv = len(self.vertices)
        keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
        self.edges = np.column_stack(np.divmod(keys, nv))
        nt = len(c)
        self.cell_edges = np.column_stack(
            [inverse[:nt], inverse[nt : 2 * nt], inverse[2 * nt :]]
        )

    def _build_boundary(self):
        counts = np.bincount(self.cell_edges.ravel(), minlength=len(self.edges))
        edge = np.flatnonzero(counts == 1)
        ends = self.vertices[self.edges[edge]]  # (nb, 2 ends, 2 coordinates)
        x, y = 0.5 * (ends[:, 0] + ends[:, 1]).T
        side = np.select([np.abs(y) <= _SNAP, np.abs(y - self.Ly) <= _SNAP,
                          np.abs(x) <= _SNAP, np.abs(x - self.Lx) <= _SNAP], [0, 2, 3, 1], -1)
        length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        bad = (side < 0) | (length < 1e-14)
        if bad.any():
            k = np.argmax(bad)
            v0, v1 = self.edges[edge[k]]
            if side[k] < 0:
                raise MeshError(f"boundary edge {v0}-{v1} not on the rectangle boundary")
            raise MeshError(f"degenerate boundary edge {v0}-{v1}")
        self.bnd_edge = edge
        self.bnd_side = side
        # x along bottom and top (even sides), y along right and left
        self.bnd_span = np.sort(ends[np.arange(len(edge)), :, side % 2], axis=1)
        self.bnd_length = length
        self.bnd_normal = _SIDE_NORMALS[side]
        self.bnd_tag = np.full(len(edge), WALL_TAG, dtype=object)

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def cell_areas(self):
        p = self.vertices[self.cells]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def measure(self, tag):
        """Boundary measure mu(S) of all edges carrying `tag`, summed in
        edge order."""
        return sum(self.bnd_length[self.bnd_tag == tag].tolist())

    def side_length(self, side):
        return self.Lx if side in ("bottom", "top") else self.Ly

    def fingerprint(self):
        """Hash of geometry, connectivity and tags; guards basis reuse."""
        h = hashlib.sha256()
        h.update(self.vertices.tobytes())
        h.update(self.cells.tobytes())
        # each edge as "side:(lo, hi):tag", the span printed as a tuple of Python
        # floats (an np.float64 prints otherwise); saved bases carry this digest
        lo, hi = self.bnd_span.T.tolist()
        h.update(",".join(map("{}:({!r}, {!r}):{}".format, np.array(SIDES)[self.bnd_side],
                              lo, hi, self.bnd_tag)).encode())
        return h.hexdigest()


def build_rect_mesh(Lx, Ly, nx, ny):
    """Structured triangulation of [0,Lx] x [0,Ly], nx x ny cells.

    Each grid cell is split into two triangles along a diagonal whose
    direction alternates with cell parity, so the mesh carries no global
    diagonal bias. Grid cell (i, j) gives cells 2 (i ny + j) and the next.
    All boundary edges start as wall ("N").
    """
    if not (Lx > 0 and Ly > 0):
        raise ValueError(f"tank dimensions must be positive, got Lx={Lx}, Ly={Ly}")
    if not (int(nx) == nx and int(ny) == ny and nx >= 1 and ny >= 1):
        raise ValueError(f"cell counts must be integers >= 1, got nx={nx}, ny={ny}")
    nx, ny = int(nx), int(ny)

    xs = np.linspace(0.0, Lx, nx + 1)
    ys = np.linspace(0.0, Ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.divmod(np.arange(nx * ny, dtype=np.int64), ny)
    a = i * (ny + 1) + j  # vertex (i, j)
    corners = np.column_stack([a, a + ny + 1, a + ny + 2, a + 1])
    cells = np.take_along_axis(corners, _SPLITS[(i + j) % 2], axis=1).reshape(-1, 3)
    return TaggedMesh(Lx, Ly, vertices, cells)


def segment_vertices(side, start, end, length, n):
    """Indices k0 < k1 of the vertices k * (length / n) of a side of n equal
    edges, where `build_rect_mesh` places them, within _SNAP of the ends of
    [start, end]; ValueError if there are none. Arithmetic only, so
    `config.validate` checks a config with it without building its mesh."""
    ks = [round(min(max(s / length, 0.0), 1.0) * n) for s in (start, end)]
    if ks[0] >= ks[1] or any(abs((length if k == n else k * (length / n)) - s) > _SNAP
                             for s, k in zip((start, end), ks)):
        raise ValueError(f"segment [{start}, {end}] on {side!r} does not run between two "
                         f"mesh vertices k*{length}/{n}, k = 0..{n} (snap {_SNAP})")
    return tuple(ks)


def tag_boundary(mesh, segments):
    """Re-tag boundary segments; returns the mesh (mutated in place).

    Parameters
    ----------
    segments : iterable of (side, start, end, tag)
        `side` in {"bottom","right","top","left"}; start/end are arc
        coordinates along that side (x for bottom/top, y for left/right)
        and must pass `segment_vertices` with the side's boundary-edge
        count. `tag` is any non-"N" string; its kind is inferred from the
        leading character ("C..." collector, "T..." injector).

    Raises
    ------
    ValueError : segment off the boundary or its vertices, badly named, or
        reusing a tag already placed
    ConflictError : overlapping segments
    """
    lo, hi = mesh.bnd_span.T
    for side, start, end, tag in segments:
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}, expected one of {SIDES}")
        if tag == WALL_TAG:
            raise ValueError(f"tag {WALL_TAG!r} is reserved for the untouched wall")
        kind = tag[0].upper() if tag else ""
        if kind not in ("C", "T"):
            raise ValueError(
                f"tag {tag!r} must start with 'C' (collector) or 'T' (injector)"
            )
        on_side = mesh.bnd_side == SIDES.index(side)
        segment_vertices(side, start, end, mesh.side_length(side), int(on_side.sum()))
        covered = on_side & (lo >= start - _SNAP) & (hi <= end + _SNAP)
        taken = mesh.bnd_tag[covered & (mesh.bnd_tag != WALL_TAG)]
        if len(taken):
            raise ConflictError(
                f"segment [{start}, {end}] on {side!r} overlaps tag {taken[0]!r}"
            )
        if (mesh.bnd_tag == tag).any():
            raise ValueError(f"tag {tag!r} is already placed on another segment")
        mesh.bnd_tag[covered] = tag
    return mesh
