"""Mixed P2/P1 finite-element space on a tagged triangle mesh.

Velocity is continuous piecewise-quadratic (vector), pressure continuous
piecewise-linear; the pair is inf-sup stable. Velocity coefficient vectors
are component-blocked: u = [u_x over scalar DOFs, u_y over scalar DOFs],
scalar DOFs being vertices followed by edge midpoints. Pressure lives on
vertices, defined up to a constant (fixed by the zero-mean gauge).

Assembled operators:
    M      velocity mass                 (u, v)
    K_eps  strain stiffness              2 (eps(u), eps(v))
    K_grad gradient stiffness            (grad u, grad v)
    B      divergence                    (q, div u), pressure rows

Each cell's 12 velocity DOFs are `cell_vdofs` = [cell_dofs, n_scalar +
cell_dofs]: the six x components, then the six y components. The cell
kernel `_strain_cells(w)` gives the (nt, 12, 12) cell matrices of
int 2 w eps(phi_i):eps(phi_j) over them; K_eps is its assembly at w = 1.
`convection_tensor(W)` reduces the trilinear convection form to the columns
of W cell by cell.

Per-cell strain coefficients: the gradient of a P2 field is P1 on an affine
cell, so its strain is exactly sum_j lambda_j e_j, lambda_j the barycentric
coordinates (the values `P1` at the quadrature points) and e_j the strain
at vertex j. `strain_coefficients(W)` tabulates the planes (e00, e01, e11)
at the three vertices of every cell for each column of W, a (9 nt, m)
table (9 nt m doubles: 0.9 MB at 16x16 cells and m = 24, 6.5 MB at 32x32
and m = 44). A combination s of its columns gives the strain planes at the
quadrature points in one GEMM with `P1` (`strain_planes(s)`), and a stress
given by its planes goes back to the table's rows in one GEMM with `P1`
(`strain_load(S)`), so a reduced closure reads no velocity vector of the
mesh. `weighted_strain_stiffness(w, coef, rank_one)` is the closure's
tangent on such a table: its pointwise form in (e00, e01, e11), one GEMM
with the products lambda_j lambda_k into (nt, 9, 9) cell matrices, and
coef^T (A coef).

Quadrature-point fields and loads read the physical gradient table `grad`
as rows [c, (q, b), l] = d phi_l/d x_b. A field's gradient is one batched
product of those rows with the cell coefficients u[cell_vdofs_la], in
[cell, shape function, component] order: [c, q, b, a] = d u_a/d x_b.
`strain_samples(u)` symmetrizes it in place, and `eval_grads(u)` is its
transposed view, [c, q, a, b]. `weighted_load(S, f)` contracts a stress
table in [c, q, b, a] layout, derivative index first, and a body-force
table, both carrying the quadrature weight already: one batched product of
the same rows, read transposed, with S, plus N^T f, summed and scattered
over `cell_vdofs_la` in one bincount. `stress_load_vector(S)` is its
contraction of qweights * S. Nothing copies `grad`: a full-space Picard
iterate's nonlinear load is one value product, one gradient product, two
weighted tables and one contraction. `strain_samples` is also the
quadrature path the strain table is checked against.

Pinned saddle systems: `pinned_saddle(A)` couples the interior block of a
velocity operator A with B, pressure DOF 0 pinned; `saddle_matrix(A)`
orders its unknowns by `nested_dissection` of their coordinates, computed
once per space, for `splu(S, **SADDLE_LU)`, which keeps the order and
pivots on the diagonal; `saddle_solve` undoes the order, the pin and the
gauge. Callers never see the interior DOFs, the pin or the order.

Norm conventions (kind argument of `norm`):
    L2, L3, L4  : Lebesgue norms of |u|
    H1semi      : (int |grad u|^2)^(1/2)
    W13semi     : (int |eps(u)|^3)^(1/3), the strain-based convention
    L2boundary  : (int_bnd |u|^2)^(1/2)

The boundary reads the mesh's boundary table (`TaggedMesh.bnd_*`) row by
row: `bnd_edge_dofs` (nb, 3) holds each edge's scalar DOFs (v0, v1,
midpoint); `boundary_sdofs` and `tagged_scalar_dofs(tag)` are their sorted
unique values, all or under a tag mask; `flux_vector` is one bincount of
length * EDGE_SHAPE_INTEGRALS * normal over them, so flux_vector @ u is the
exact int_bnd u . n; `L2boundary` is one gather and one product with the
edge Gauss rule.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import MeshError
from .quadrature import edge_rule, triangle_rule
from .turbulence import sym_grad

NORM_KINDS = ("L2", "L3", "L4", "H1semi", "W13semi", "L2boundary")

# splu keywords for a `saddle_matrix`: its own order (NATURAL column order,
# the same row order), and the diagonal pivot unless it is below
# diag_pivot_thresh of its column's largest entry. Measured on the ordered
# lift, step and mass saddle matrices: the fill is the same at thresholds 0,
# 1e-4 and 1e-3 on every mesh from 2x2 to 64x64 cells and on a 1x2 domain,
# and at 3e-3 on the 64x64 mass matrix. Larger thresholds swap diagonal
# pivots of the mass matrix for off-diagonal ones: 1e-1 multiplies its fill
# by 2.1 at 8x8, 3.3 at 16x16 and 4.8 at 32x32 cells, and at 64x64 1e-2 ran
# past a minute and 1.7 GB against 0.35 s at 1e-3. 1e-3, the largest value
# that kept the fill everywhere, still refuses the tiny diagonal pivots that
# 0 would accept.
SADDLE_LU = {"permc_spec": "NATURAL", "diag_pivot_thresh": 1e-3,
             "options": {"SymmetricMode": True}}
# nested dissection stops splitting a group of at most this many unknowns
DISSECTION_LEAF = 16
QUAD_DEGREE = 6  # the cell quadrature rule's degree of exactness
_MAX_LEVELS = 32  # 3^33 < 2^63 bounds the order keys
# exact integrals over [0, 1] of the edge trace shape functions (v0, v1, midpoint)
EDGE_SHAPE_INTEGRALS = np.array([1 / 6, 1 / 6, 2 / 3])
# the reference vertices, in the order of the barycentric coordinates `P1`
_P1_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# e:f = sum_a PAIRING[a] e_a f_a for symmetric tensors given by their planes
# (e00, e01, e11)
_PLANE_PAIRING = np.array([1.0, 2.0, 1.0])


def nested_dissection(xy, pressure):
    """Geometric nested-dissection order of unknowns at points xy (n, 2), of
    which the flagged `pressure` ones sit on mesh vertices.

    A group of unknowns is split across its longer coordinate axis, at the
    vertex line (a coordinate some pressure unknown of the group has) nearest
    the median: no P2 or P1 cell of an axis-aligned structured mesh crosses a
    line of vertices, so the unknowns on the line separate the two sides.
    Both sides are split again, down to groups of at most `DISSECTION_LEAF`
    unknowns or groups whose line leaves a side empty. The order is left, right, then
    separator, and inside every leaf and separator velocities come before
    pressures, so each pressure pivot meets the Schur complement of the
    velocities before it, not the zero block. Any order gives a correct LU; a
    line that does not separate only costs fill.

    All groups of one tree level are split at once: the active unknowns are
    kept contiguous by group and sorted along each group's axis, so a split
    is three ranges. Returns `order`, order[k] = the unknown placed k-th.
    """
    n = len(xy)
    coord = np.ascontiguousarray(xy.T).ravel()  # x of every unknown, then y
    rank = np.empty(2 * n, dtype=np.int64)      # rank along x, then along y
    for k in range(2):
        rank[k * n + np.argsort(xy[:, k], kind="stable")] = np.arange(n)
    key = np.zeros(n, dtype=np.int64)  # base-3 path: 0 left, 1 right, 2 stopped
    p = np.arange(n)                   # active unknowns, contiguous by group
    start, count = np.array([0]), np.array([n])
    for _ in range(_MAX_LEVELS):
        if not len(p):
            break
        grp = np.repeat(np.arange(len(start)), count)
        ext = [np.maximum.reduceat(c, start) - np.minimum.reduceat(c, start)
               for c in (coord[p], coord[n + p])]
        q = p + n * (ext[1] > ext[0])[grp]  # index of the split coordinate
        o = np.argsort(grp * n + rank[q])
        p, a = p[o], coord[q[o]]
        med = a[start + count // 2]
        dist = np.where(pressure[p], np.abs(a - med[grp]), np.inf)
        dmin = np.minimum.reduceat(dist, start)
        line = np.maximum.reduceat(np.where(dist == dmin[grp], a, -np.inf), start)
        line = np.where(np.isfinite(dmin), line, med)[grp]
        nl = np.add.reduceat(a < line, start)
        nr = np.add.reduceat(a > line, start)
        split = (count > DISSECTION_LEAF) & (nl > 0) & (nr > 0)
        digit = np.where(split[grp], (a > line) + 2 * (a == line), 2)
        key = 3 * key + 2
        key[p] += digit - 2
        p = p[digit != 2]
        count = np.column_stack([nl, nr])[split].ravel()
        start = np.concatenate([[0], np.cumsum(count)[:-1]])
    return np.lexsort((pressure, key))


def _p2_values(pts):
    """P2 shape functions at reference points pts (nq, 2) -> (nq, 6)."""
    x, y = pts[:, 0], pts[:, 1]
    l0 = 1.0 - x - y
    l1, l2 = x, y
    return np.column_stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l1 * l2,
            4 * l2 * l0,
            4 * l0 * l1,
        ]
    )


def _p2_grads(pts):
    """Reference gradients of P2 shape functions -> (nq, 6, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    l0 = 1.0 - x - y
    l1, l2 = x, y
    g0 = np.array([-1.0, -1.0])
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 1.0])
    nq = len(pts)
    out = np.empty((nq, 6, 2))
    out[:, 0] = np.outer(4 * l0 - 1, g0)
    out[:, 1] = np.outer(4 * l1 - 1, g1)
    out[:, 2] = np.outer(4 * l2 - 1, g2)
    out[:, 3] = 4 * (np.outer(l2, g1) + np.outer(l1, g2))
    out[:, 4] = 4 * (np.outer(l0, g2) + np.outer(l2, g0))
    out[:, 5] = 4 * (np.outer(l1, g0) + np.outer(l0, g1))
    return out


def _p1_values(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([1.0 - x - y, x, y])


def _edge_trace(s):
    """1D quadratic trace shape functions (v0, v1, mid) at s in [0,1]."""
    s = np.asarray(s, dtype=float)
    return np.column_stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)])


class MixedSpace:
    """Taylor-Hood P2/P1 space with assembled operators and norm evaluators."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.rule = triangle_rule(QUAD_DEGREE)
        self.edge_quad = edge_rule(7)

        areas = mesh.cell_areas()
        if np.any(areas < 1e-14):
            raise MeshError(f"degenerate cell, min area {areas.min():.3e}")
        self.areas = areas

        nv = mesh.num_vertices
        ne = len(mesh.edges)
        self.n_scalar = nv + ne
        self.n_velocity = 2 * self.n_scalar
        self.n_pressure = nv

        # cell -> scalar P2 DOFs (3 vertices, 3 opposite-edge midpoints)
        self.cell_dofs = np.hstack([mesh.cells, nv + mesh.cell_edges])
        # cell -> velocity DOFs: the x components, then the y components
        self.cell_vdofs = np.hstack([self.cell_dofs, self.n_scalar + self.cell_dofs])
        # the same DOFs in [cell, shape function, component] order, (nt, 6, 2)
        self.cell_vdofs_la = np.stack([self.cell_dofs, self.n_scalar + self.cell_dofs], axis=-1)

        # coordinates of scalar DOFs (vertices then edge midpoints)
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        self.dof_coords = np.vstack([mesh.vertices, mids])

        self._tabulate()
        self._geometry()
        self._boundary()
        self._assemble()

    # -- tabulation and geometry -------------------------------------------

    def _tabulate(self):
        pts = self.rule.points
        self.N = _p2_values(pts)          # (nq, 6)
        # vector shape functions over cell_vdofs: [a*6 + l, q*2 + b] = delta_ab N_l(q)
        self.N_vec = np.einsum("ab,ql->alqb", np.eye(2), self.N).reshape(12, -1)
        self.Nhat_grad = _p2_grads(pts)   # (nq, 6, 2)
        self.P1 = _p1_values(pts)         # (nq, 3)
        # [q, 3 j + k] = lambda_j lambda_k, the products of the P1 values
        self.P1_pairs = (self.P1[:, :, None] * self.P1[:, None, :]).reshape(len(pts), 9)

    def _jacobians(self):
        """Cell Jacobians J (nt, 2, 2), [c, a, b] = d x_a / d xhat_b, and their
        inverse transposes."""
        p = self.mesh.vertices[self.mesh.cells]
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJT = np.empty_like(J)
        invJT[:, 0, 0] = J[:, 1, 1]
        invJT[:, 0, 1] = -J[:, 1, 0]
        invJT[:, 1, 0] = -J[:, 0, 1]
        invJT[:, 1, 1] = J[:, 0, 0]
        invJT /= det[:, None, None]
        return J, invJT

    def _geometry(self):
        p = self.mesh.vertices[self.mesh.cells]
        J, invJT = self._jacobians()
        # physical P2 gradients per cell and quadrature point, (nt, nq, 2, 6):
        # [c, q, b, l] = d phi_l / d x_b, so that (nt, 2 nq, 6) is a free reshape
        G = np.einsum("cab,qlb->cqla", invJT, self.Nhat_grad)
        self.grad = np.ascontiguousarray(G.transpose(0, 1, 3, 2))
        # physical quadrature points (nt, nq, 2) and weights (nt, nq)
        self.qpoints = p[:, None, 0, :] + np.einsum(
            "cab,qb->cqa", J, self.rule.points
        )
        self.qweights = self.areas[:, None] * self.rule.weights[None, :]

    def _boundary(self):
        """Boundary DOFs and the flux vector, from the mesh's boundary table."""
        mesh = self.mesh
        # per boundary edge, the scalar DOFs (v0, v1, midpoint)
        self.bnd_edge_dofs = np.column_stack(
            [mesh.edges[mesh.bnd_edge], mesh.num_vertices + mesh.bnd_edge]
        )
        self.boundary_sdofs = np.unique(self.bnd_edge_dofs)
        mask = np.zeros(self.n_scalar, dtype=bool)
        mask[self.boundary_sdofs] = True
        self.interior_sdofs = np.flatnonzero(~mask)
        self.boundary_vdofs = np.concatenate(
            [self.boundary_sdofs, self.n_scalar + self.boundary_sdofs]
        )
        self.interior_vdofs = np.concatenate(
            [self.interior_sdofs, self.n_scalar + self.interior_sdofs]
        )
        # flux_vector @ u = int_bnd u . n: each edge's length * shape integrals
        # * normal, accumulated over the edges in order
        w = (mesh.bnd_length[:, None] * EDGE_SHAPE_INTEGRALS)[:, :, None] * mesh.bnd_normal[:, None]
        self.flux_vector = np.bincount(
            (self.bnd_edge_dofs[:, :, None] + [0, self.n_scalar]).ravel(),
            weights=w.ravel(), minlength=self.n_velocity)

    # -- assembly ------------------------------------------------------------

    def _coo(self, rows_l, cols_m, data, shape):
        return sp.coo_matrix(
            (data.ravel(), (rows_l.ravel(), cols_m.ravel())), shape=shape
        ).tocsr()

    def _assemble(self):
        w = self.rule.weights
        a = self.areas
        N, P1 = self.N, self.P1
        # a copy in the (nt, nq, 6, 2) order keeps K_grad's einsum bit for bit:
        # the Stokes eigenvalues form degenerate clusters, and a roundoff change
        # of K_grad rotates the eigenvectors inside them
        G = np.ascontiguousarray(self.grad.transpose(0, 1, 3, 2))
        dofs = self.cell_dofs
        ns, nu, npr = self.n_scalar, self.n_velocity, self.n_pressure

        rows = np.repeat(dofs, 6, axis=1)           # (nt, 36): l index slow
        cols = np.tile(dofs, (1, 6))                 # (nt, 36): m index fast

        # scalar mass: same reference matrix scaled by area
        Mref = np.einsum("q,ql,qm->lm", w, N, N)
        Ms_data = a[:, None, None] * Mref[None, :, :]
        Ms = self._coo(rows, cols, Ms_data, (ns, ns))

        # scalar stiffness (grad . grad)
        Ks_data = np.einsum("q,c,cqlb,cqmb->clm", w, a, G, G)
        Ks = self._coo(rows, cols, Ks_data, (ns, ns))

        self.M = sp.block_diag([Ms, Ms]).tocsr()
        self.K_grad = sp.block_diag([Ks, Ks]).tocsr()

        # strain stiffness 2 (eps(u), eps(v)): the cell kernel at w = 1
        vdofs = self.cell_vdofs
        self.K_eps = self._coo(np.repeat(vdofs, 12, axis=1), np.tile(vdofs, (1, 12)),
                               self._strain_cells(1.0), (nu, nu))

        # divergence (q, div u): pressure rows, velocity columns
        pdofs = self.mesh.cells
        prow = np.repeat(pdofs, 6, axis=1)           # (nt, 18)
        vcol = np.tile(dofs, (1, 3))                 # (nt, 18)
        Bx = np.einsum("q,c,qi,cqj->cij", w, a, P1, G[..., 0])
        By = np.einsum("q,c,qi,cqj->cij", w, a, P1, G[..., 1])
        B = self._coo(prow, vcol, Bx, (npr, nu)) + self._coo(
            prow, vcol + ns, By, (npr, nu)
        )
        self.B = B.tocsr()

        # the zero-mean gauge vector: each vertex carries a third of its cells' area
        mvec = np.zeros(npr)
        np.add.at(mvec, pdofs.ravel(), np.repeat(a / 3.0, 3))
        self.pressure_integral = mvec

    def _strain_cells(self, weight):
        """Cell matrices (nt, 12, 12) of int 2 w(x) eps(phi_i):eps(phi_j) over
        `cell_vdofs`, for quadrature-point weights w (nt, nq) or a scalar."""
        wq = (self.qweights * weight)[:, :, None]
        gx, gy = self.grad[:, :, 0], self.grad[:, :, 1]  # (nt, nq, 6)
        xx = (wq * gx).transpose(0, 2, 1) @ gx
        yy = (wq * gy).transpose(0, 2, 1) @ gy
        xy = (wq * gy).transpose(0, 2, 1) @ gx
        cells = np.empty((len(xx), 12, 12))
        cells[:, :6, :6] = 2 * xx + yy
        cells[:, :6, 6:] = xy
        cells[:, 6:, :6] = xy.transpose(0, 2, 1)
        cells[:, 6:, 6:] = 2 * yy + xx
        return cells

    # -- per-cell strain coefficients ------------------------------------------

    def strain_coefficients(self, W):
        """The strain table (9 nt, m) of the columns of W (n_velocity, m): row
        9 c + 3 a + j holds plane a of (e00, e01, e11) of eps(u) at vertex j
        of cell c.

        A P2 field's gradient is P1 on an affine cell, so its strain there is
        exactly sum_j lambda_j e_j, with lambda_j the barycentric coordinates
        (the values `P1`) and e_j the vertex strains: nine numbers describe
        eps(u) on a cell completely. The table is one sparse product of W
        with the map from cell coefficients to vertex strains, 12 entries per
        row (the P2 shape gradients at the vertex).
        """
        nt = self.mesh.num_cells
        # [c, j, b, l] = d phi_l / d x_b at vertex j
        G = np.einsum("cbd,jld->cjbl", self._jacobians()[1], _p2_grads(_P1_NODES))
        rows = np.zeros((nt, 3, 3, 12))  # [c, a, j, (x DOFs, y DOFs)]
        rows[:, 0, :, :6] = G[:, :, 0]
        rows[:, 1, :, :6] = 0.5 * G[:, :, 1]
        rows[:, 1, :, 6:] = 0.5 * G[:, :, 0]
        rows[:, 2, :, 6:] = G[:, :, 1]
        cols = np.broadcast_to(self.cell_vdofs[:, None, None, :], rows.shape)
        E = sp.csr_matrix((rows.ravel(), cols.ravel(), np.arange(0, rows.size + 1, 12)),
                          shape=(9 * nt, self.n_velocity))
        return E @ W

    def strain_planes(self, s):
        """Strain planes (3, nt, nq), [a, c, q] = plane a of (e00, e01, e11)
        at point q of cell c, of strain coefficients s (9 nt,) (a combination
        of the columns of a `strain_coefficients` table): one GEMM of the
        vertex strains, reordered plane by plane (9 nt numbers), with the
        values `P1`. Each plane is contiguous."""
        nt = self.mesh.num_cells
        return (s.reshape(nt, 3, 3).transpose(1, 0, 2).reshape(-1, 3) @ self.P1.T).reshape(3, nt, -1)

    def strain_load(self, S):
        """The pairings L (9 nt,) of stress planes S (3, nt, nq), (s00, s01,
        s11) with the quadrature weight folded in, such that table^T L =
        sum_(c,q) S:eps(u) over the columns u of a `strain_coefficients`
        table: one GEMM with the values `P1`, the off-diagonal plane paired
        twice (s01 e01 + s10 e10), and the (3, nt, 3) result put back in the
        table's row order (9 nt numbers)."""
        L = (S.reshape(-1, S.shape[-1]) @ self.P1).reshape(3, -1, 3)
        L *= _PLANE_PAIRING[:, None, None]
        return L.transpose(1, 0, 2).ravel()

    def weighted_strain_stiffness(self, weight, coef, rank_one=None):
        """sum_(c,q) 2 w_q w eps(u):eps(v) over the columns of a strain table
        coef (9 nt, m) (`strain_coefficients`), for quadrature-point weights w
        (nt, nq): U^T K_w U for K_w = int 2 w eps(u):eps(v) and coef the
        table of U. rank_one = (a, e), weights a (nt, nq) and strain planes e
        (3, nt, nq) (`strain_planes`), adds int 2 a (e:eps(u)) (e:eps(v));
        with the weights of `turbulence.closure_tangent` the sum is the
        tangent of the closure stress at e.

        The Newton matrix of the strain-dependent closure: the implicit step
        passes the modes' table. In the coordinates (e00, e01, e11) the
        pointwise form is D = 2 w_q (w diag(1, 2, 1) + a h h^T), h = (e00,
        2 e01, e11). One GEMM of D with the barycentric products
        lambda_j lambda_k (`P1_pairs`) gives the (nt, 9, 9) cell matrices A,
        and the result is coef^T (A coef), summed over the cells in one GEMM;
        no mesh-sized matrix and no gather of velocity coefficients is formed.
        """
        nt, nq = self.qweights.shape
        m = coef.shape[1]
        wq = 2.0 * self.qweights
        if rank_one is None:
            D = np.zeros((3, 3, nt, nq))
        else:
            a, e = rank_one
            h = e * _PLANE_PAIRING[:, None, None]
            D = ((wq * a) * h)[:, None] * h  # (3, 3, nt, nq): plane, plane, cell, point
        ww = wq * weight
        for i in range(3):
            D[i, i] += _PLANE_PAIRING[i] * ww
        A = (D.reshape(-1, nq) @ self.P1_pairs).reshape(3, 3, nt, 3, 3)
        A = A.transpose(2, 0, 3, 1, 4).reshape(nt, 9, 9)  # [c, (a, j), (b, k)]
        return coef.T @ (A @ coef.reshape(nt, 9, m)).reshape(-1, m)

    def convection_tensor(self, W):
        """T[a, y, z] = int ((u_a . grad) u_y) . u_z for the columns u of W
        (n_velocity, m); shape (m, m, m).

        Cells are affine, so on cell c the physical derivative is
        d/dx_j = sum_b invJT[c, j, b] d/dxhat_b and the quadrature of the
        degree-5 integrand is |c| times one reference table,
        tau[s, b, m, n] = sum_q what_q N_s dN_m/dxhat_b N_n. With the cell
        coefficients U = W[cell_vdofs], rows (component, shape function),

            F_c[(s, b), a]    = |c| sum_j invJT[c, j, b] U[(j, s), a]
            H_c[(s, b), y, z] = sum_(i, m, n) U[(i, m), y] tau[s, b, m, n] U[(i, n), z]
            T                 = sum_c F_c^T H_c.

        The last sum is one GEMM per chunk of cells, with inner dimension
        12 x (cells in the chunk): 12 m^3 multiply-adds per cell, 2.1e9 on
        the 2048 cells of a 32x32 mesh at m = 44. H_c costs 144 m^2 per cell in (m, 12) x
        (12, m) products, and F_c and the tau product O(m). Every
        intermediate is formed for 16 cells at a time; the largest, H, holds
        192 m^2 doubles (3 MB at m = 44), so the build leaves the peak memory
        of a run alone. Nothing is stored on the space.
        """
        m = W.shape[1]
        nt = self.mesh.num_cells
        coef = self.areas[:, None, None] * self._jacobians()[1].transpose(0, 2, 1)  # [c, b, j]
        tau = np.einsum("q,qs,qmb,qn->sbmn", self.rule.weights, self.N,
                        self.Nhat_grad, self.N).reshape(72, 6)
        # cell DOFs with rows (shape function, component), so that the tau
        # product leaves (s, b) and (m, i) on separate axes without a copy
        dofs = self.cell_vdofs.reshape(nt, 2, 6).transpose(0, 2, 1).reshape(nt, 12)
        T = np.zeros((m, m * m))
        chunk = 16
        for c0 in range(0, nt, chunk):
            cells = slice(c0, min(c0 + chunk, nt))
            U = W[dofs[cells]]                                  # (nc, 12, m): [c, (n, i), .]
            nc = len(U)
            F = coef[cells, None] @ U.reshape(nc, 6, 2, m)      # [c, s, b, a]
            P = (tau @ U.reshape(nc, 6, 2 * m)).reshape(nc, 12, 12, m)  # [c, (s, b), (m, i), z]
            H = U.transpose(0, 2, 1)[:, None] @ P               # [c, (s, b), y, z]
            T += F.reshape(-1, m).T @ H.reshape(-1, m * m)
        return T.reshape(m, m, m)

    # -- pinned-pressure saddle systems -----------------------------------------

    @cached_property
    def saddle_order(self):
        """`nested_dissection` order of the pinned saddle unknowns: interior
        velocities at their scalar DOF points, pressures 1.. at their vertices."""
        I = self.interior_vdofs
        xy = np.vstack([self.dof_coords[I % self.n_scalar], self.mesh.vertices[1:]])
        return nested_dissection(xy, np.arange(len(xy)) >= len(I))

    def pinned_saddle(self, A):
        """Saddle matrix [[A_II, B_I^T], [B_I, 0]] of the velocity operator A:
        its block on the interior velocity DOFs, coupled with B with pressure
        DOF 0 pinned (its row dropped), in the natural order (velocities, then
        pressures 1..), csc format.

        Constants span the kernel of B_I^T (the hydrostatic pressure null
        space): the rows of B_I sum to zero, so for divergence data of zero
        net flux the dropped row is implied by the others, and the pinned
        matrix is nonsingular. Unlike a border with the dense pressure-mean
        row and column, the pin keeps the matrix sparse and the LU fill low.
        """
        I = self.interior_vdofs
        B_I = self.B[1:, I]
        return sp.bmat([[A.tocsr()[I][:, I], B_I.T], [B_I, None]], format="csc")

    def saddle_matrix(self, A):
        """`pinned_saddle(A)` with its unknowns in `saddle_order`; factor it
        with `splu(S, **SADDLE_LU)` and solve with `saddle_solve`.

        In the nested-dissection order, velocities before pressures, SuperLU
        takes every pivot on the diagonal (its row permutation is the
        identity from 2x2 to 32x32 cells) and so keeps the order, and the
        L+U fill is less than COLAMD's on the unordered matrix (lift
        nu K_eps, step M/dt + c K_eps, mass M): at 32x32 cells 2.3-3.3 M ->
        1.1-1.2 M entries, at 64x64 15-22 M -> 5.8-6.3 M. The pivot
        threshold of `SADDLE_LU`, 1e-3, is the largest measured one that
        keeps the order; its comment gives the measurements.
        """
        return self.pinned_saddle(A)[:, self.saddle_order][self.saddle_order]

    def saddle_solve(self, lu, f, g=None):
        """(u, p) from the factor `lu` of a `saddle_matrix`, for momentum rows f
        (n_velocity,), whose boundary rows are not read, and divergence rows g
        over all pressure DOFs (zero when None). u is zero on the boundary and
        p has zero mean."""
        I = self.interior_vdofs
        g = np.zeros(self.n_pressure) if g is None else g
        x = np.empty(len(self.saddle_order))
        x[self.saddle_order] = lu.solve(np.concatenate([f[I], g[1:]])[self.saddle_order])
        u = np.zeros(self.n_velocity)
        u[I] = x[: len(I)]
        p = np.insert(x[len(I):], 0, 0.0)
        m = self.pressure_integral
        return u, p - (m @ p) / m.sum()

    # -- field evaluation ------------------------------------------------------

    def eval_values(self, u):
        """Velocity field values at all cell quadrature points -> (nt, nq, 2)."""
        return (u[self.cell_vdofs] @ self.N_vec).reshape(-1, len(self.rule), 2)

    def eval_grads(self, u):
        """Velocity gradients at quadrature points -> (nt, nq, 2, 2), [a, b] =
        d u_a/d x_b: the transposed view of `_grad_product(u)`."""
        return self._grad_product(u).swapaxes(-1, -2)

    def _grad_product(self, u):
        """The gradient (nt, nq, 2, 2) in [c, q, b, a] order, d u_a/d x_b: one
        batched product of `grad`'s rows [c, (q, b), l] with the cell
        coefficients u[cell_vdofs_la]."""
        nt, nq = self.mesh.num_cells, len(self.rule)
        return (self.grad.reshape(nt, nq * 2, 6) @ u[self.cell_vdofs_la]).reshape(nt, nq, 2, 2)

    def sample(self, f, *args):
        """A callable f(x, y, *args) -> (n, ...) at all quadrature points
        -> (nt, nq, ...), e.g. f(x, y, t) -> (n, 2) gives (nt, nq, 2)."""
        xy = self.qpoints
        vals = np.asarray(f(xy[..., 0].ravel(), xy[..., 1].ravel(), *args))
        return vals.reshape(xy.shape[:-1] + vals.shape[1:])

    def _scatter(self, dofs, contrib):
        """Accumulate per-cell contributions to the velocity DOFs `dofs` (a
        table of the same shape) into a velocity vector."""
        return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=self.n_velocity)

    def load_vector(self, fvals):
        """Assemble L_i = int f . phi_i from values fvals (nt, nq, 2)."""
        wf = self.qweights[:, :, None] * fvals
        return self._scatter(self.cell_vdofs, wf.transpose(0, 2, 1) @ self.N)

    def stress_load_vector(self, Svals):
        """Assemble L_(a,l) = int sum_b S[b, a] d phi_l/d x_b from tensor values
        Svals (nt, nq, 2, 2) in [c, q, b, a] layout, derivative index first:
        the int S^T : grad phi of the usual [a, b] layout. A symmetric S reads
        the same in both, and then L_i = int S : eps(phi_i). It is
        `weighted_load` of qweights * S.
        """
        return self.weighted_load(self.qweights[:, :, None, None] * Svals)

    def weighted_load(self, S, f=None):
        """Assemble L_(a,l) = sum_(c,q) [sum_b S[b, a] d phi_l/d x_b + f_a phi_l]
        from tables that carry the quadrature weight already: a stress S
        (nt, nq, 2, 2) in the [c, q, b, a] layout of `stress_load_vector` and
        an optional body force f (nt, nq, 2).

        One batched product of `grad`'s rows [c, (q, b), l], read transposed,
        with S as (nt, 2 nq, 2) gives the cell loads in [c, l, a] order, and
        N^T f adds the body force's in the same order; the sum is scattered
        with `cell_vdofs_la` in one bincount. Neither `grad` nor S is copied.
        """
        nt, nq = self.mesh.num_cells, len(self.rule)
        cells = self.grad.reshape(nt, nq * 2, 6).transpose(0, 2, 1) @ S.reshape(nt, nq * 2, 2)
        if f is not None:
            cells += self.N.T @ f
        return self._scatter(self.cell_vdofs_la, cells)

    def integrate(self, gvals):
        """Integrate scalar quadrature-point values (nt, nq) over the domain."""
        return float(np.einsum("cq,cq->", self.qweights, gvals))

    # -- norms ------------------------------------------------------------------

    def norm(self, u, kind):
        """Norm of a velocity field; see module docstring for conventions."""
        if kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_velocity,):
            raise ValueError(
                f"field length {u.shape} does not match velocity space ({self.n_velocity},)"
            )
        if kind == "L2boundary":
            return self._boundary_l2(u)
        if kind in ("L2", "L3", "L4"):
            p = {"L2": 2, "L3": 3, "L4": 4}[kind]
            vals = self.eval_values(u)
            mag2 = np.einsum("cqa,cqa->cq", vals, vals)
            return self.integrate(mag2 ** (p / 2.0)) ** (1.0 / p)
        if kind == "H1semi":
            G = self.eval_grads(u)
            return np.sqrt(self.integrate(np.einsum("cqab,cqab->cq", G, G)))
        # W13semi
        E = self.strain_samples(u)
        mag2 = np.einsum("cqab,cqab->cq", E, E)
        return self.integrate(mag2 ** 1.5) ** (1.0 / 3.0)

    def _boundary_l2(self, u):
        # per edge and component, the trace at the Gauss points and its weighted
        # square: a batched matrix-vector product and np.vecdot take the kernels
        # of one edge's T @ u_e and w @ t^2, and the sum runs in edge order
        U = u[self.bnd_edge_dofs[:, None, :] + [[0], [self.n_scalar]]]  # (nb, 2, 3)
        vals = (_edge_trace(self.edge_quad.points) @ U[..., None])[..., 0]
        sq = np.vecdot(vals**2, self.edge_quad.weights)
        return np.sqrt(sum((self.mesh.bnd_length[:, None] * sq).ravel().tolist()))

    def strain_samples(self, u):
        """Strain tensors eps(u) at all quadrature points -> (nt, nq, 2, 2):
        the fresh `_grad_product(u)` symmetrized in place, so
        sym_grad(eval_grads(u)) bit for bit. A strain is symmetric, so its
        [b, a] and [a, b] layouts are one table."""
        return sym_grad(self._grad_product(u), inplace=True)

    # -- interpolation -------------------------------------------------------------

    def interpolate(self, f):
        """Nodal interpolant of a callable f(x, y) -> (2,) or vectorized (n,2)."""
        xy = self.dof_coords
        vals = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float)
        if vals.shape == (2, len(xy)):
            vals = vals.T
        if vals.shape != (len(xy), 2):
            raise ValueError("interpoland must return one 2-vector per point")
        return np.concatenate([vals[:, 0], vals[:, 1]])

    # -- misc ----------------------------------------------------------------------

    def korn_constant(self):
        """Mesh-level constant c_K with (grad v, grad v) <= c_K 2(eps v, eps v)
        for all boundary-zero fields: the largest generalized eigenvalue of
        (K_grad, K_eps) on the interior DOFs. Cached after the first call.
        """
        if not hasattr(self, "_korn"):
            from scipy.sparse.linalg import eigsh

            I = self.interior_vdofs
            Kg = self.K_grad.tocsr()[I][:, I]
            Ke = self.K_eps.tocsr()[I][:, I].tocsc()
            # the top of the pencil clusters at 1, so give Lanczos a generic
            # deterministic start and a roomy subspace
            start = np.random.default_rng(12345).standard_normal(len(I))
            val = eigsh(Kg, k=1, M=Ke, which="LA", return_eigenvectors=False,
                        v0=start, ncv=min(len(I), 60), maxiter=10000, tol=1e-10)
            self._korn = float(val[0])
        return self._korn

    def vertex_velocity(self, u):
        """Velocity at mesh vertices -> (nv, 2), for VTK output."""
        nv = self.mesh.num_vertices
        ns = self.n_scalar
        return np.column_stack([u[:nv], u[ns : ns + nv]])

    def tagged_scalar_dofs(self, tag):
        """Sorted scalar DOFs of the boundary edges carrying `tag`."""
        return np.unique(self.bnd_edge_dofs[self.mesh.bnd_tag == tag])
