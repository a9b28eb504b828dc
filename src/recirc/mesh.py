"""Tank geometry: structured triangulation of a rectangle with a tagged boundary.

The boundary of the tank splits into three disjoint tagged families:
collector segments (water withdrawn), injector segments (water re-injected)
and the remaining impermeable wall. Tags are free-form strings; each tag
carries a kind in {"C", "T", "N"}.
"""

import numpy as np

from .errors import ConflictError, MeshError

SIDES = ("bottom", "right", "top", "left")

# outward unit normal of each side of an axis-aligned rectangle
_SIDE_NORMAL = {
    "bottom": np.array([0.0, -1.0]),
    "right": np.array([1.0, 0.0]),
    "top": np.array([0.0, 1.0]),
    "left": np.array([-1.0, 0.0]),
}

_SNAP = 1e-9

WALL_TAG = "N"


class BoundaryEdge:
    """One boundary edge: vertex pair, side, tag, outward normal, length."""

    __slots__ = ("vertices", "side", "tag", "normal", "length", "span")

    def __init__(self, vertices, side, normal, length, span):
        self.vertices = vertices
        self.side = side
        self.tag = WALL_TAG
        self.normal = normal
        self.length = length
        self.span = span  # (lo, hi) arc coordinate along the side


class TaggedMesh:
    """Simplicial mesh of the rectangular tank [0,Lx] x [0,Ly].

    Attributes
    ----------
    vertices : (nv, 2) float array of coordinates [m]
    cells : (nt, 3) int array, CCW vertex triples
    edges : (ne, 2) int array of sorted vertex pairs
    cell_edges : (nt, 3) int array, edge j opposite local vertex j
    boundary : list of BoundaryEdge
    tag_kinds : dict tag -> "C" | "T" | "N"
    """

    def __init__(self, Lx, Ly, vertices, cells):
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.vertices = vertices
        self.cells = cells
        self._build_edges()
        self._build_boundary()
        self.tag_kinds = {WALL_TAG: "N"}

    # -- construction ------------------------------------------------------

    def _build_edges(self):
        c = self.cells
        pairs = np.vstack(
            [c[:, [1, 2]], c[:, [2, 0]], c[:, [0, 1]]]
        )  # local edge j opposite vertex j
        pairs = np.sort(pairs, axis=1)
        self.edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        nt = len(c)
        self.cell_edges = np.column_stack(
            [inverse[:nt], inverse[nt : 2 * nt], inverse[2 * nt :]]
        )

    def _build_boundary(self):
        counts = np.bincount(self.cell_edges.ravel(), minlength=len(self.edges))
        self.boundary = []
        for e in np.flatnonzero(counts == 1):
            v0, v1 = self.edges[e]
            p0, p1 = self.vertices[v0], self.vertices[v1]
            mid = 0.5 * (p0 + p1)
            side = self._side_of(mid)
            if side is None:
                raise MeshError(f"boundary edge {v0}-{v1} not on the rectangle boundary")
            length = float(np.linalg.norm(p1 - p0))
            if length < 1e-14:
                raise MeshError(f"degenerate boundary edge {v0}-{v1}")
            axis = 0 if side in ("bottom", "top") else 1
            lo = float(min(p0[axis], p1[axis]))
            hi = float(max(p0[axis], p1[axis]))
            self.boundary.append(
                BoundaryEdge((v0, v1), side, _SIDE_NORMAL[side].copy(), length, (lo, hi))
            )

    def _side_of(self, point):
        x, y = point
        if abs(y) <= _SNAP:
            return "bottom"
        if abs(y - self.Ly) <= _SNAP:
            return "top"
        if abs(x) <= _SNAP:
            return "left"
        if abs(x - self.Lx) <= _SNAP:
            return "right"
        return None

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
        """Boundary measure mu(S) of all edges carrying `tag`."""
        return sum(b.length for b in self.boundary if b.tag == tag)

    def edges_of_tag(self, tag):
        return [b for b in self.boundary if b.tag == tag]

    def side_length(self, side):
        return self.Lx if side in ("bottom", "top") else self.Ly

    def fingerprint(self):
        """Hash of geometry, connectivity and tags; guards basis reuse."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.vertices.tobytes())
        h.update(self.cells.tobytes())
        h.update(",".join(f"{b.side}:{b.span}:{b.tag}" for b in self.boundary).encode())
        return h.hexdigest()


def build_rect_mesh(Lx, Ly, nx, ny):
    """Structured triangulation of [0,Lx] x [0,Ly], nx x ny cells.

    Each grid cell is split into two triangles along a diagonal whose
    direction alternates with cell parity, so the mesh carries no global
    diagonal bias. All boundary edges start as wall ("N").
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

    def vid(i, j):
        return i * (ny + 1) + j

    cells = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for i in range(nx):
        for j in range(ny):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            if (i + j) % 2 == 0:
                cells[k] = (a, b, c)
                cells[k + 1] = (a, c, d)
            else:
                cells[k] = (a, b, d)
                cells[k + 1] = (b, c, d)
            k += 2
    return TaggedMesh(Lx, Ly, vertices, cells)


def tag_boundary(mesh, segments):
    """Re-tag boundary segments; returns the mesh (mutated in place).

    Parameters
    ----------
    segments : iterable of (side, start, end, tag)
        `side` in {"bottom","right","top","left"}; start/end are arc
        coordinates along that side (x for bottom/top, y for left/right)
        and must coincide with mesh vertices within 1e-9. `tag` is any
        non-"N" string; its kind is inferred from the leading character
        ("C..." collector, "T..." injector).

    Raises
    ------
    ValueError : segment off the boundary, misaligned, or badly named
    ConflictError : overlapping segments
    """
    by_side = {}
    for b in mesh.boundary:
        by_side.setdefault(b.side, []).append(b)

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
        L = mesh.side_length(side)
        if not (-_SNAP <= start < end <= L + _SNAP):
            raise ValueError(
                f"segment [{start}, {end}] lies outside side {side!r} of length {L}"
            )
        covered = [
            b
            for b in by_side.get(side, [])
            if b.span[0] >= start - _SNAP and b.span[1] <= end + _SNAP
        ]
        if not covered:
            raise ValueError(f"segment [{start}, {end}] on {side!r} matches no mesh edge")
        lo = min(b.span[0] for b in covered)
        hi = max(b.span[1] for b in covered)
        if abs(lo - start) > _SNAP or abs(hi - end) > _SNAP:
            raise ValueError(
                f"segment [{start}, {end}] on {side!r} does not align with mesh "
                f"edges (closest covering span [{lo}, {hi}])"
            )
        total = sum(b.length for b in covered)
        if abs(total - (end - start)) > _SNAP * max(1.0, L):
            raise ValueError(
                f"segment [{start}, {end}] on {side!r} is not contiguous in the mesh"
            )
        for b in covered:
            if b.tag != WALL_TAG:
                raise ConflictError(
                    f"segment [{start}, {end}] on {side!r} overlaps tag {b.tag!r}"
                )
            b.tag = tag
        mesh.tag_kinds[tag] = kind
    return mesh
