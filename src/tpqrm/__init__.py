"""Anisotropic two-photon quantum Rabi model: spectra, scaling, quenches, collapse."""

from .model import CriticalGeometry, ModelParams, SectorSpec, critical_params, geometry
from .aa import (
    AALevel,
    GroundStateObservables,
    aa_energy,
    aa_gaps,
    aa_observables,
    aa_qfi_leading,
    second_order_corrections,
)
from .ed import (
    ParityBlock,
    SpectrumResult,
    WignerGrid,
    build_parity_block,
    ed_ground_observables,
    ed_spectrum,
    full_spectrum,
    qfi_fidelity_oracle,
    qfi_spectral,
    squeezed_frame_spectrum,
    wigner_grid,
)
from .quench import KZPrediction, QuenchProtocol, QuenchResult, kz_predict, kz_sweep, propagate
from .collapse1d import (
    BoundStateLadder,
    Collapse1DProblem,
    bound_states,
    collapse_hamiltonian_check,
    effective_potential,
)
from .analysis import FitResult, SampleGrid, fit_powerlaw, fit_quadratic_gap, make_grid
from .errors import CollapseMappingError, ConvergenceError

__version__ = "0.1.0"
