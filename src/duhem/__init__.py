"""Duhem hysteresis operators: simulation, clockwise storage construction
and dissipativity verification.

The package simulates rate-independent Duhem models (Dahl, Bouc-Wen and an
exponential example ship built in), constructs the clockwise storage
function from traversing curves and their anhysteresis intersections, and
certifies dissipation inequalities, loop orientation and the stability of a
mechanical system with Dahl friction.
"""

from .core import (
    Domain,
    DomainExitError,
    DuhemModel,
    Trajectory,
    WHOLE_PLANE,
    check_existence_conditions,
    simulate,
)
from .curves import (
    CrossingSearchError,
    PhasePoint,
    TraversingCurve,
    anhysteresis,
    anhysteresis_values,
    check_lemma1,
    intersect_lambda,
    ride_to_crossing,
    traversing_curve,
)
from .dissipativity import (
    LoopClassification,
    check_assumption_A,
    cycle_stabilization,
    loop_areas,
    loop_orientation,
    loop_orientation_report,
    verify_dissipation_battery,
    verify_dissipation_pair,
    verify_model,
)
from .integrate import BracketError, QuadratureError
from .mechsim import (
    MechParams,
    MechSeries,
    MechState,
    lyapunov_check,
    passivity_port_check,
    simulate_mech,
)
from .models import BUILTIN_MODELS, boucwen, dahl, exp_example, model_from_config
from .report import VerificationReport
from .signals import (
    InputSignal,
    ramp,
    random_piecewise_linear,
    rate_reparameterize,
    sine_sampled,
    triangle,
)
from .storage import (
    AvailableStorageResult,
    SignalFamily,
    StorageBatch,
    StorageEvaluation,
    available_storage_bruteforce,
    available_storage_bruteforce_batch,
    storage_cw,
    storage_cw_batch,
    storage_output_only,
)

__version__ = "0.1.0"

__all__ = [
    "AvailableStorageResult",
    "BracketError",
    "BUILTIN_MODELS",
    "CrossingSearchError",
    "Domain",
    "DomainExitError",
    "DuhemModel",
    "InputSignal",
    "LoopClassification",
    "MechParams",
    "MechSeries",
    "MechState",
    "PhasePoint",
    "QuadratureError",
    "SignalFamily",
    "StorageBatch",
    "StorageEvaluation",
    "Trajectory",
    "TraversingCurve",
    "VerificationReport",
    "WHOLE_PLANE",
    "anhysteresis",
    "anhysteresis_values",
    "available_storage_bruteforce",
    "available_storage_bruteforce_batch",
    "boucwen",
    "check_assumption_A",
    "check_existence_conditions",
    "check_lemma1",
    "cycle_stabilization",
    "dahl",
    "exp_example",
    "intersect_lambda",
    "loop_areas",
    "loop_orientation",
    "loop_orientation_report",
    "lyapunov_check",
    "model_from_config",
    "passivity_port_check",
    "ramp",
    "random_piecewise_linear",
    "rate_reparameterize",
    "ride_to_crossing",
    "simulate",
    "simulate_mech",
    "sine_sampled",
    "storage_cw",
    "storage_cw_batch",
    "storage_output_only",
    "traversing_curve",
    "triangle",
    "verify_dissipation_battery",
    "verify_dissipation_pair",
    "verify_model",
]
