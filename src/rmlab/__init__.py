"""Randomized-measurement laboratory for an interacting Rydberg chain.

Conventions used everywhere: site 1 is the most significant bit of a basis
index, bit 1 means spin up, rotation labels are ordered
1: exp(-i pi/4 X), 2: exp(-i pi/4 Y), 3: identity, and all Hamiltonian
rates are angular (rad/us) with times in us.
"""

from .pauli import (
    LABELS,
    ROTATION_ORDER,
    PAULI_MATRICES,
    ROTATION_MATRICES,
    TWO_PI,
    PauliStringSum,
    square_observable,
    build_ssh,
)
from .statevector import (
    StateVector,
    NumericalContractError,
    ConvergenceError,
    DegenerateGroundStateError,
    product_state,
    all_down,
    expectation,
    apply_local_unitaries,
    evolve_blend,
    evolve_static,
    ground_state,
    sample_basis_indices,
    exact_purity,
)
from .pulses import (
    AMP_CAP,
    SLEW_CAP,
    TARGET_AXES,
    ConstraintError,
    CalibrationError,
    Waveform,
    PulseSchedule,
    FluctuationModel,
    RealisticParams,
    realistic_schedule,
    perturb,
    single_qubit_propagator,
    propagator_batch,
    axis_fidelity,
    mc_rotation_stats,
    calibrate,
    schedule_to_json,
    schedule_from_json,
    golden_schedule,
)
from .protocol import (
    EXACT_SHOTS,
    BIT_CONVENTION,
    ReadoutErrorModel,
    MeasurementRecord,
    sample_unitaries,
    apply_readout_errors,
    apply_readout_to_probs,
    run_ideal,
    run_pulsed,
    save_record,
    load_record,
)
from .estimators import (
    EstimatorResult,
    NormalizationError,
    purity_estimate,
    observable_expectation,
    hamiltonian_variance,
    RESULT_COLUMNS,
    results_to_csv,
)

__version__ = "0.1.0"
