"""Desk-scale pump-driven water recirculation simulator and test harness.

Pipeline: tagged tank mesh -> Taylor-Hood mixed space -> pump boundary
profiles and schedules -> Stokes trace lifting -> Stokes eigenbasis ->
reduced Galerkin time integration with the Smagorinsky closure -> energy
and uniqueness monitors. See README.md for the configuration schema and
the CLI.
"""

__version__ = "0.1.0"

from .config import RunConfig, Scenario, build_scenario, preset_path, validate
from .eigenbasis import EigenBasis, solve_stokes_eigen
from .errors import (
    CapacityError,
    CompatibilityError,
    ConfigError,
    ConflictError,
    MeshError,
    RecircError,
    SolverError,
    StepError,
)
from .galerkin import GalerkinState, ReducedSystem, Trajectory, initial_state
from .lifting import LiftingBasis, build_lifting, solve_stokes_lift
from .mesh import TaggedMesh, build_rect_mesh, tag_boundary
from .mms import ManufacturedSolution
from .monitors import ContractionReport, EnergyLedger, contraction, ledger
from .pumps import PumpProfile, PumpSet, Schedule, build_profile, build_psi
from .space import MixedSpace
from .turbulence import ClosureParams
from .vtk import write_vtk

