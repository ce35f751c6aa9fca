"""Federated learning over a leader/follower UAV swarm.

Wireless link simulation with directional antennas and Rician fading,
per-round participation gating, closed-form convergence-round prediction,
UAV energy and flight-power models, and a sample-average-approximation
optimizer for the joint power/scheduling/speed design.
"""

from .channel import (
    AntennaPattern,
    ChannelDraw,
    Interferer,
    InterferenceField,
    RadioParams,
    antenna_gain_exact,
    antenna_gain_sectionalized,
    draw_channel,
    estimate_success_probs,
    link_delays,
    participation_masks,
    rician_power_fading,
    sinr_coefficients,
    success_mask,
)
from .convergence import ConvergenceInputs, convergence_round, convergence_speed
from .design import DesignVector
from .energy import (
    ComputeParams,
    ControlRequirements,
    EnergyBudget,
    FlightParams,
    flight_power,
    induced_velocity,
    round_energies,
    training_energy_follower,
    training_energy_leader,
)
from .experiments import (
    ExperimentResult,
    emit_csv,
    experiment_compare_designs,
    experiment_optimize,
    experiment_simulate,
    experiment_sweep_sigma,
    experiment_validate_theorem,
)
from .fl import (
    Dataset,
    FlState,
    QuadraticLossModel,
    aggregate_ideal,
    aggregate_with_losses,
    aggregation_error,
    local_update,
    make_regression_problem,
    run_fl,
    train_round,
)
from .saa import (
    DualState,
    NoFeasibleDesignError,
    ProblemConstants,
    ScenarioSamples,
    SmoothingConfig,
    SolveReport,
    baseline_design,
    dual_subgradient,
    gamma_sigmoid,
    inner_maximize,
    lagrangian,
    sample_delays,
    smoothed_constraints,
    smoothed_objective,
    smoothed_success_probs,
    solve,
    unsmoothed_feasibility,
)
from .scenario import (
    ConfigError,
    DatasetSpec,
    SaaConfig,
    SwarmScenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
    with_overrides,
)
from .seeds import derive_rng, derive_seed

__version__ = "0.1.0"
