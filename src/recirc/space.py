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
cell_dofs]: the six x components, then the six y components. One cell
kernel, `_strain_cells(w)`, gives the (nt, 12, 12) cell matrices of
int 2 w eps(phi_i):eps(phi_j) over them, plus an optional rank-one term
int 2 a (e:eps(phi_i)) (e:eps(phi_j)) that makes it the Smagorinsky
tangent. K_eps is its assembly at w = 1; `weighted_strain_stiffness(w, U)`
reduces it to U^T K_w U cell by cell, without forming the global matrix.
`convection_tensor(W)` likewise reduces the trilinear convection form to
the columns of W cell by cell.

Norm conventions (kind argument of `norm`):
    L2, L3, L4  : Lebesgue norms of |u|
    H1semi      : (int |grad u|^2)^(1/2)
    W13semi     : (int |eps(u)|^3)^(1/3), the strain-based convention
    L2boundary  : (int_bnd |u|^2)^(1/2)
"""

import numpy as np
import scipy.sparse as sp

from .errors import MeshError
from .quadrature import edge_rule, triangle_rule
from .turbulence import sym_grad

NORM_KINDS = ("L2", "L3", "L4", "H1semi", "W13semi", "L2boundary")


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

    def __init__(self, mesh, quad_degree=6):
        self.mesh = mesh
        self.rule = triangle_rule(quad_degree)
        self.quad_degree = self.rule.degree
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

        # coordinates of scalar DOFs (vertices then edge midpoints)
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        self.dof_coords = np.vstack([mesh.vertices, mids])

        self._tabulate()
        self._geometry()
        self._boundary_dofs()
        self._assemble()
        self._assemble_boundary()

    # -- tabulation and geometry -------------------------------------------

    def _tabulate(self):
        pts = self.rule.points
        self.N = _p2_values(pts)          # (nq, 6)
        # vector shape functions over cell_vdofs: [a*6 + l, q*2 + b] = delta_ab N_l(q)
        self.N_vec = np.einsum("ab,ql->alqb", np.eye(2), self.N).reshape(12, -1)
        self.Nhat_grad = _p2_grads(pts)   # (nq, 6, 2)
        self.P1 = _p1_values(pts)         # (nq, 3)

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

    def _boundary_dofs(self):
        nv = self.mesh.num_vertices
        edge_lookup = {tuple(e): i for i, e in enumerate(self.mesh.edges)}
        self.bnd_edge_dofs = []  # per boundary edge: (v0, v1, mid) scalar dofs
        bset = set()
        self.tag_sdofs = {}
        for b in self.mesh.boundary:
            v0, v1 = b.vertices
            eid = edge_lookup[(v0, v1)]
            dofs = (v0, v1, nv + eid)
            self.bnd_edge_dofs.append(dofs)
            bset.update(dofs)
            self.tag_sdofs.setdefault(b.tag, set()).update(dofs)
        self.boundary_sdofs = np.array(sorted(bset), dtype=np.int64)
        mask = np.zeros(self.n_scalar, dtype=bool)
        mask[self.boundary_sdofs] = True
        self.interior_sdofs = np.flatnonzero(~mask)
        self.boundary_vdofs = np.concatenate(
            [self.boundary_sdofs, self.n_scalar + self.boundary_sdofs]
        )
        self.interior_vdofs = np.concatenate(
            [self.interior_sdofs, self.n_scalar + self.interior_sdofs]
        )

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

    def _strain_cells(self, weight, rank_one=None):
        """Cell matrices (nt, 12, 12) of int 2 w(x) eps(phi_i):eps(phi_j) over
        `cell_vdofs`, for quadrature-point weights w (nt, nq) or a scalar.

        rank_one = (a, e), quadrature-point weights a (nt, nq) and symmetric
        tensors e (nt, nq, 2, 2), adds int 2 a (e:eps(phi_i)) (e:eps(phi_j)).
        With w = nu_tur |e| and a = nu_tur / |e| the sum is the tangent of
        the closure stress 2 nu_tur |e| e at e.
        """
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
        if rank_one is not None:
            a, e = rank_one
            r = (e @ self.grad).reshape(gx.shape[:2] + (12,))  # [c, q, i] = e : grad phi_i
            cells += ((2 * self.qweights * a)[:, :, None] * r).transpose(0, 2, 1) @ r
        return cells

    def weighted_strain_stiffness(self, weight, U, rank_one=None):
        """U^T K_w U for K_w = int 2 w(x) eps(u):eps(v), with quadrature-point
        weights w (nt, nq) and columns U (n_velocity, m); `rank_one` adds
        its term of `_strain_cells`.

        The Newton matrix of the strain-dependent closure: the implicit
        step passes U = V, the modes, with the closure tangent's weights,
        and gets the modal tangent V^T K_T V. The `_strain_cells` matrices
        are reduced cell by cell and summed over the cells in one GEMM; the
        global K_w is never formed. (A batched (nt, m, m) product summed
        afterwards would hold nt m^2 doubles, 26 MB at 32x32 cells and
        m = 40.)
        """
        m = U.shape[1]
        Uc = U[self.cell_vdofs]  # (nt, 12, m)
        return Uc.reshape(-1, m).T @ (self._strain_cells(weight, rank_one) @ Uc).reshape(-1, m)

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

    def _assemble_boundary(self):
        qs = self.edge_quad.points
        qw = self.edge_quad.weights
        T = _edge_trace(qs)  # (nq1, 3)
        ns = self.n_scalar

        flux = np.zeros(self.n_velocity)
        shape_int = qw @ T  # (3,) integrals of trace shape functions on [0,1]
        for b, dofs in zip(self.mesh.boundary, self.bnd_edge_dofs):
            d = np.array(dofs)
            for comp in range(2):
                flux[comp * ns + d] += b.length * shape_int * b.normal[comp]
        self.flux_vector = flux

    # -- pinned-pressure saddle systems -----------------------------------------

    def saddle_matrix(self, A_II):
        """Saddle matrix [[A_II, B_I^T], [B_I, 0]] on the interior velocity DOFs
        with pressure DOF 0 pinned (its row of B dropped), in csc format.

        Constants span the kernel of B_I^T (the hydrostatic pressure null
        space): the rows of B_I sum to zero, so for divergence data of zero
        net flux the dropped row is implied by the others, and the pinned
        matrix is nonsingular. Unlike a border with the dense pressure-mean
        row and column, the pin keeps the matrix sparse and the LU fill low.
        `saddle_split` restores the zero-mean gauge.
        """
        B_I = self.B[1:, self.interior_vdofs]
        return sp.bmat([[A_II, B_I.T], [B_I, None]], format="csc")

    def saddle_rhs(self, f_I, g):
        """Right-hand side of a `saddle_matrix` system: momentum rows f_I on the
        interior velocity DOFs, divergence rows g over all pressure DOFs."""
        return np.concatenate([f_I, g[1:]])

    def saddle_split(self, sol):
        """(interior velocity, zero-mean pressure) of a `saddle_matrix` solution;
        column-wise for a 2-D block of solutions."""
        nI = len(self.interior_vdofs)
        p = np.insert(sol[nI:], 0, 0.0, axis=0)
        m = self.pressure_integral
        return sol[:nI], p - (m @ p) / m.sum()

    # -- field evaluation ------------------------------------------------------

    def eval_values(self, u):
        """Velocity field values at all cell quadrature points -> (nt, nq, 2)."""
        return (u[self.cell_vdofs] @ self.N_vec).reshape(-1, len(self.rule), 2)

    def eval_grads(self, u):
        """Velocity gradients at quadrature points -> (nt, nq, 2, 2), [a,b]=d u_a/d x_b."""
        ns = self.n_scalar
        nt, nq = self.mesh.num_cells, len(self.rule)
        G = self.grad.reshape(nt, nq * 2, 6)
        out = np.empty((nt, nq, 2, 2))
        for comp in range(2):
            Uc = u[comp * ns + self.cell_dofs]
            out[:, :, comp, :] = (G @ Uc[..., None]).reshape(nt, nq, 2)
        return out

    def sample(self, f, t):
        """A callable f(x, y, t) -> (n, 2) at all quadrature points -> (nt, nq, 2)."""
        xy = self.qpoints
        return np.asarray(f(xy[..., 0].ravel(), xy[..., 1].ravel(), t)).reshape(xy.shape)

    def _scatter(self, contrib):
        """Accumulate per-cell DOF contributions (nt, 2, 6) into a velocity vector."""
        return np.bincount(self.cell_vdofs.ravel(), weights=contrib.ravel(),
                           minlength=self.n_velocity)

    def load_vector(self, fvals):
        """Assemble L_i = int f . phi_i from values fvals (nt, nq, 2)."""
        wf = self.qweights[:, :, None] * fvals
        return self._scatter(wf.transpose(0, 2, 1) @ self.N)

    def stress_load_vector(self, Svals):
        """Assemble L_i = int S : grad phi_i from tensor values (nt, nq, 2, 2).

        For symmetric S this equals int S : eps(phi_i).
        """
        nt, nq = self.mesh.num_cells, len(self.rule)
        WS = self.qweights[:, :, None, None] * Svals
        A = WS.transpose(0, 2, 1, 3).reshape(nt, 2, nq * 2)
        return self._scatter(A @ self.grad.reshape(nt, nq * 2, 6))

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
        G = self.eval_grads(u)
        if kind == "H1semi":
            return np.sqrt(self.integrate(np.einsum("cqab,cqab->cq", G, G)))
        # W13semi
        E = sym_grad(G)
        mag2 = np.einsum("cqab,cqab->cq", E, E)
        return self.integrate(mag2 ** 1.5) ** (1.0 / 3.0)

    def _boundary_l2(self, u):
        ns = self.n_scalar
        qs = self.edge_quad.points
        qw = self.edge_quad.weights
        T = _edge_trace(qs)
        total = 0.0
        for b, dofs in zip(self.mesh.boundary, self.bnd_edge_dofs):
            d = np.array(dofs)
            for comp in range(2):
                vals = T @ u[comp * ns + d]
                total += b.length * float(qw @ vals**2)
        return np.sqrt(total)

    def strain_samples(self, u):
        """Strain tensors eps(u) at all quadrature points -> (nt, nq, 2, 2)."""
        return sym_grad(self.eval_grads(u))

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
        return np.array(sorted(self.tag_sdofs.get(tag, ())), dtype=np.int64)
