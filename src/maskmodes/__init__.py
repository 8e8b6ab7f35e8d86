"""maskmodes: diffractive screens as unitary mode-coupling networks,
with exact Fock-state propagation, entanglement measures and the exact
split-mode no-entanglement rule for separable inputs."""

__version__ = "0.1.0"

from .diffraction import (
    CircularAperture,
    CosineGrating,
    CouplingMatrix,
    CustomSampled,
    ImpulseResponse,
    UnitaryMatrix,
    apply_impulse_response,
    grating_block,
    inverse_design_response,
    mask_spectrum,
    overlap_unitary,
    plane_wave_coupling,
    unitarize,
)
from .entanglement import (
    Bipartition,
    EntanglementReport,
    entanglement_report,
    full_separability_scan,
)
from .fock import (
    Coherent,
    Fock,
    InputStateSpec,
    MultimodeFockState,
    SqueezedVacuum,
    Vacuum,
    apply_unitary,
    build_input_state,
    state_fidelity,
)
from .modes import (
    Grid2D,
    ModeBasis,
    PlaneWaveGrid,
    SampledField,
    apply_mask_to_field,
    field_overlap,
    hermite_gaussian_basis,
    laguerre_gaussian_basis,
    sample_field,
)
from .protocols import AtomPair, ScanResult, hom_coincidence, ifm_project, noon_scan
from .separability import (
    SeparabilityVerdict,
    check_no_entanglement,
    covariance_separable,
    gaussian_covariance_propagate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
