"""Energy bookkeeping for indefinite-order application of two unitaries.

A coherently controlled channel applies two unitaries in a superposition
of both orders; conditioning on the control changes the energy balance of
the system.  This package provides the generic matrix machinery for that
channel, closed forms for four concrete unitary families (qubit rotations,
generic qubit pairs, bosonic displacement pairs, displacement+squeeze),
passivity/ergotropy diagnostics, a brute-force truncated-Fock oracle that
validates every closed form, and a CLI for deterministic sweep/figure CSV
datasets.
"""
from .config import (
    ConfigError,
    ScenarioConfig,
    SweepAxis,
    grid_points,
    load_config,
    parse_config,
    serialize_config,
)
from .cvcase import (
    DisplacementParams,
    FockOracleReport,
    NoSolutionError,
    SqueezeParams,
    TruncationInadequacyWarning,
    alpha_min,
    calibrated_cutoff,
    chi_disp_squeeze,
    chi_displacements,
    cv_truncation_rule,
    delta_f_disp_squeeze,
    delta_qs_disp_squeeze,
    delta_qs_displacements,
    delta_qs_displacements_symmetric,
    delta_sm_disp_squeeze,
    delta_sm_displacements,
    delta_sm_xi0,
    delta_sm_xipi,
    disp_squeeze_scenario,
    displacement_op,
    displacement_scenario,
    e12_disp_squeeze,
    e21_disp_squeeze,
    f_s_disp_squeeze,
    fock_oracle_report,
    gamma_braiding,
    ladder,
    squeeze_faithful_block,
    squeeze_op,
)
from .figures import (
    DEFAULT_FIGURE_SEED,
    FIGURE_IDS,
    emit_figure,
    figure_dataset,
)
from .qmat import (
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
)
from .qubitcase import (
    RotationParams,
    U2MinimizeResult,
    U2Params,
    activation_conditions_rotations,
    delta_qs_rotations,
    delta_sm_rotations_beta0,
    implied_epsilon,
    implied_f,
    minimize_delta_qs_u2,
    minimize_delta_sm_u2,
    qubit_scenario,
    rotation_unitary,
    u2_unitary,
)
from .states import (
    BlochState,
    ControlHamiltonianParams,
    QubitSystemParams,
    ThermalParams,
    ergotropy,
    ergotropy_gibbs_bound,
    fock_truncation_rule,
    gibbs_fock,
    gibbs_qubit,
    hamiltonian_control,
    hamiltonian_fock,
    hamiltonian_qubit_system,
    is_passive,
    passive_state_from_spectrum,
    von_neumann_entropy,
)
from .switchcore import (
    ActivationReport,
    DeltaCMinResult,
    MeasurementReport,
    NearZeroPostSelectionError,
    SwitchScenario,
    activation_report,
    build_switch_unitary,
    chi,
    delta_c_min,
    measure_control,
    post_switch_state,
)
from .verifysuite import VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
