"""Nerve-line tactile sensing: circuit simulation, estimation, task control.

The package models a resistive two-rail touch sensor embedded along a
robot finger, the signal chain that turns its ADC readings into a
contact-point ratio, and the grasp/regrasp controller that acts on it.
"""

from .controller import (
    Command,
    ContactRule,
    ControllerConfig,
    ControllerState,
    Scenario,
    ScenarioResult,
    StepContext,
    TaskPhase,
    run_scenario,
    step,
)
from .config import RunConfig, default_sensors, load_config, load_scenario
from .errors import CalibrationError, ConfigError, ScenarioError
from .estimation import (
    CalibrationData,
    ContactEstimate,
    FilterState,
    Regime,
    auto_calibration,
    calibrate,
    detect_touch,
    estimate_p,
    filter_step,
    position_reached,
    read_calibration,
    smoothing_coefficient,
    write_calibration,
)
from .hand import (
    ActuatorSpec,
    FingerSpec,
    Hand,
    JointState,
    default_hand,
    posture_command,
    wire_displacement,
    wire_to_angle,
)
from .line import (
    OPEN,
    AdcReading,
    ContactPoint,
    ContactSet,
    NerveLineSpec,
    adc_quantize,
    bridge_quality,
    divider_voltage,
    resolve_contacts,
    sense,
    simulate_sweep,
    snap_to_spike,
    solve_line_resistance,
)

__version__ = "0.1.0"
