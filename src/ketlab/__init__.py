"""ketlab: a desk-scale quantum measurement laboratory.

Simulations probing what a quantum state is to a single system: protective
measurements that read expectation values off one protected qubit, weak
values and the direct wavefunction scan they enable, the four-state
antidistinguishability experiment, EPR steering on the singlet, unitarity
as an obstruction to overlap-changing measurements, and a certified search
over finite shared-reality models quantifying how badly any such model
must violate quantum predictions.

Everything is seeded and reproducible; the `ketlab` command runs each
experiment end to end and writes schema-validated artifacts.
"""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    ConfigError,
    DegenerateInputError,
    InternalError,
    LabError,
    NotPureError,
    PostselectionError,
    PreconditionError,
    ScanUndefinedError,
    UndefinedWeakValueError,
    WraparoundError,
)
from .hilbert import (
    EigenDecomposition,
    HermitianOperator,
    StateVector,
    basis_state,
    eigendecompose,
    equal_up_to_phase,
    expectation,
    haar_random_unitary,
    inner_product,
    ket_minus,
    ket_one,
    ket_plus,
    ket_zero,
    qubit_state,
    sigma_x,
    sigma_y,
    sigma_z,
    tensor,
)
from .measurement import (
    GridWavefunction,
    JointSystemPointerState,
    OutcomeSample,
    PointerGrid,
    Scenario,
    born_probabilities,
    couple_pointer,
    default_grid,
    make_pointer,
    strong_measure,
)
from .ontology import (
    LambdaSpace,
    MonteCarloReport,
    OntologicalModel,
    OverlapReport,
    ViolationBound,
    born_consistency_gap,
    build_shared_reality_model,
    monte_carlo_onto,
    orthodox_model,
    overlap,
    paired_shared_reality_model,
    pbr_min_violation,
    predict,
    qubit_scenario,
)
from .pbr import (
    PREPARATION_IDS,
    PbrCounts,
    SteeringSample,
    SteeringTable,
    epr_steering,
    overlap_preservation_check,
    pbr_experiment,
    pbr_scenario,
    preparation_states,
    steering_table,
)
from .protective import (
    LeakResult,
    ProtectiveRunResult,
    TomographySet,
    protection_leak,
    protective_measure,
    protective_tomography,
    reconstruct_state,
)
from .rngs import SubstreamSampler, as_generator, substream
from .weak import direct_wavefunction_scan, momentum_zero_amplitude, weak_pointer_shift
