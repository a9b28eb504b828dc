"""Legacy ASCII VTK output of the mesh and nodal fields, for inspection."""

import numpy as np


def vtk_geometry(mesh):
    """The POINTS, CELLS and CELL_TYPES sections of a mesh as one string,
    which `write_vtk` writes into every file of that mesh."""
    nv = mesh.num_vertices
    nt = mesh.num_cells
    lines = [f"POINTS {nv} double"]
    lines.extend(f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices.tolist())
    lines.append(f"CELLS {nt} {4 * nt}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.cells.tolist())
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)  # VTK_TRIANGLE
    return "\n".join(lines)


def write_vtk(path, mesh, point_vectors=None, point_scalars=None, title="recirc",
              geometry=None):
    """Write an unstructured-grid VTK file. Every number is formatted from
    the plain Python floats and ints of `tolist()`, which print as numpy's
    scalars do, but faster.

    Parameters
    ----------
    point_vectors : dict name -> (nv, 2) vertex vectors (z-padded to 3D)
    point_scalars : dict name -> (nv,) vertex scalars
    geometry : `vtk_geometry(mesh)`, formatted once by a caller that writes
        many files of one mesh; formatted here when None
    """
    nv = mesh.num_vertices
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        vtk_geometry(mesh) if geometry is None else geometry,
    ]

    point_vectors = point_vectors or {}
    point_scalars = point_scalars or {}
    if point_vectors or point_scalars:
        lines.append(f"POINT_DATA {nv}")
    for name, vec in point_vectors.items():
        lines.append(f"VECTORS {name} double")
        lines.extend(f"{x:.17g} {y:.17g} 0" for x, y in np.asarray(vec)[:, :2].tolist())
    for name, scal in point_scalars.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{s:.17g}" for s in np.asarray(scal).tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
