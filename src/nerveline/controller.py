"""Grasp and regrasp task controller for the scissors-handling demo.

The controller is a deterministic state machine clocked at the sensor rate.
It approaches and grasps a tool, verifies the grasp through the nerve
lines, retries a limited number of times if nothing is felt, and for
operation goals walks the tool toward the finger base in fixed regrasp
steps until the base-grip check passes.  Scenarios script where and when
the tool actually touches each line, standing in for the physical world.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .bounds import bounded, check_fields
from .errors import ScenarioError
from .estimation import (
    CalibrationData,
    ContactEstimate,
    FilterState,
    auto_calibration,
    detect_touch,
    estimate_p,
    filter_step,
    smoothing_coefficient,
    position_reached,
)
from .hand import Hand, JointState, default_hand, posture_command
from .line import ContactPoint, ContactSet, NerveLineSpec, sense

GOALS = ("lift", "operate")
OUTCOMES = ("lifted", "retried_then_lifted", "operated", "failed")

GRASP_FLEXION_RAD = math.pi / 3


class TaskPhase(enum.Enum):
    """Phases of the bend-after-insertion task."""

    APPROACH = "Approach"
    LOWER = "Lower"
    CLOSE_FINGERS = "CloseFingers"
    VERIFY_GRASP = "VerifyGrasp"
    RETRY_RESET = "RetryReset"
    LIFT = "Lift"
    HANDOVER = "Handover"
    ROTATE_WRIST = "RotateWrist"
    REGRASP_STEP = "RegraspStep"
    VERIFY_BASE = "VerifyBase"
    FINAL_GRASP = "FinalGrasp"
    OPERATE = "Operate"
    DONE = "Done"
    FAILED = "Failed"


TERMINAL_PHASES = frozenset({TaskPhase.DONE, TaskPhase.FAILED})


@dataclass(frozen=True)
class ControllerConfig:
    """Thresholds and budgets for the task state machine.

    ``dwell_ticks`` is how many sensor ticks the controller sits in each
    phase before deciding; it must cover the base-check window so the
    windowed average never mixes samples from an earlier phase.
    """

    touch_threshold_p: float = bounded(90.0, gt=0, lt=100)
    base_threshold_p: float = bounded(50.0, gt=0, lt=100)
    step_mm: float = bounded(5.0, gt=0)
    wrist_rotation_deg: float = bounded(20.0)
    max_retries: int = bounded(2, ge=0)
    max_regrasp_steps: int = bounded(16, ge=1)
    window_n: int = bounded(10, ge=1)
    dwell_ticks: int = bounded(10, ge=1)
    dt_ms: int = bounded(10, gt=0)
    watched_sensor_grasp: int = bounded(0, ge=0)
    watched_sensor_regrasp: int = bounded(1, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.dwell_ticks < self.window_n:
            raise ValueError(
                f"dwell_ticks ({self.dwell_ticks}) must cover window_n ({self.window_n})"
            )


@dataclass(frozen=True)
class Command:
    """One actuation command emitted on phase entry."""

    name: str
    args: tuple[float, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({','.join(repr(a) for a in self.args)})"


@dataclass(frozen=True)
class ContactRule:
    """Scripted world response: when and where the tool touches one line.

    The rule is active while the controller is in one of ``phases`` (and,
    if ``attempt`` is set, only during that grasp attempt).  Each regrasp
    step slides the contact by ``slide_mm_per_step``.
    """

    sensor: int = bounded()
    position_mm: float = bounded(ge=0)
    phases: frozenset[TaskPhase]
    bridge_ohm: float = bounded(0.0, ge=0)
    slide_mm_per_step: float = bounded(0.0)
    attempt: int | None = bounded(None, ge=1)

    def __post_init__(self) -> None:
        check_fields(self, ScenarioError)
        if not self.phases:
            raise ScenarioError("phases must not be empty")
        if self.phases & TERMINAL_PHASES:
            raise ScenarioError("rules cannot apply to terminal phases")


def rule_problem(rule: ContactRule, specs: Mapping[int, NerveLineSpec]) -> str | None:
    """Why ``rule`` cannot press the configured lines, as ``field: problem``, or None."""
    if rule.sensor not in specs:
        return f"sensor: sensor {rule.sensor} is not configured"
    length = specs[rule.sensor].effective_length_mm
    if rule.position_mm > length:
        return f"position_mm: {rule.position_mm} beyond line length {length}"
    return None


@dataclass(frozen=True)
class Scenario:
    """A named world script plus the outcome the run is expected to produce."""

    name: str
    goal: str
    expected_outcome: str
    object_pose_mm: tuple[float, float] = (0.0, 0.0)
    rules: tuple[ContactRule, ...] = ()
    noise_sd_counts: float | None = bounded(None, ge=0)

    def __post_init__(self) -> None:
        check_fields(self, ScenarioError)
        if self.goal not in GOALS:
            raise ScenarioError(f"goal must be one of {GOALS}, got {self.goal!r}")
        if self.expected_outcome not in OUTCOMES:
            raise ScenarioError(
                f"expected_outcome must be one of {OUTCOMES}, got {self.expected_outcome!r}"
            )


@dataclass(frozen=True)
class ControllerState:
    """Progress of one run through the state machine."""

    phase: TaskPhase = TaskPhase.APPROACH
    retries_used: int = 0
    regrasp_steps: int = 0
    failure_reason: str | None = None

    @property
    def grasp_attempt(self) -> int:
        return self.retries_used + 1


@dataclass(frozen=True)
class StepContext:
    """Run-constant inputs to step(): the goal and precomputed commands."""

    goal: str
    object_pose_mm: tuple[float, float]
    grasp_command: Command
    open_command: Command


@dataclass(frozen=True)
class SensorSample:
    """One sensor's values for one tick."""

    raw: int
    filtered: float
    estimate: ContactEstimate


@dataclass(frozen=True)
class TraceRecord:
    """One controller tick: timestamp, phase, all sensor samples, commands issued."""

    t_ms: int
    phase: TaskPhase
    samples: Mapping[int, SensorSample]
    commands: tuple[Command, ...] = ()


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of a scenario run plus its full trace."""

    outcome: str
    final_phase: TaskPhase
    ticks: int
    retries: int
    regrasp_steps: int
    failure_reason: str | None
    trace: tuple[TraceRecord, ...]


def _entry_commands(phase: TaskPhase, config: ControllerConfig, context: StepContext) -> tuple[Command, ...]:
    if phase is TaskPhase.APPROACH:
        return (Command("move_above", context.object_pose_mm),)
    if phase is TaskPhase.LOWER:
        return (Command("lower_to_grasp_height"),)
    if phase is TaskPhase.CLOSE_FINGERS:
        return (context.grasp_command,)
    if phase is TaskPhase.RETRY_RESET:
        return (context.open_command, Command("raise_to_pregrasp"))
    if phase is TaskPhase.LIFT:
        return (Command("lift"),)
    if phase is TaskPhase.HANDOVER:
        return (Command("handover_to_gripper"),)
    if phase is TaskPhase.ROTATE_WRIST:
        return (Command("rotate_wrist_deg", (config.wrist_rotation_deg,)),)
    if phase is TaskPhase.REGRASP_STEP:
        return (Command("advance_tool_mm", (config.step_mm,)),)
    if phase is TaskPhase.FINAL_GRASP:
        return (context.grasp_command,)
    if phase is TaskPhase.OPERATE:
        return (Command("drive_thumb"),)
    return ()


def step(
    state: ControllerState,
    histories: Mapping[int, Sequence[ContactEstimate]],
    config: ControllerConfig,
    context: StepContext,
) -> tuple[ControllerState, tuple[Command, ...]]:
    """Advance the state machine by one decision.

    Called after the phase dwell has produced fresh estimates.  Pure: the
    next state and the commands to issue on entering it are returned, the
    inputs are untouched.

    Raises:
        ValueError: called in a terminal phase.
    """
    if state.phase in TERMINAL_PHASES:
        raise ValueError(f"step() called in terminal phase {state.phase.value}")
    retries = state.retries_used
    regrasps = state.regrasp_steps
    reason = state.failure_reason
    phase = state.phase
    if phase is TaskPhase.APPROACH:
        nxt = TaskPhase.LOWER
    elif phase is TaskPhase.LOWER:
        nxt = TaskPhase.CLOSE_FINGERS
    elif phase is TaskPhase.CLOSE_FINGERS:
        nxt = TaskPhase.VERIFY_GRASP
    elif phase is TaskPhase.VERIFY_GRASP:
        history = histories.get(config.watched_sensor_grasp, ())
        touched = bool(history) and detect_touch(history[-1], config.touch_threshold_p)
        if touched:
            nxt = TaskPhase.LIFT
        elif retries < config.max_retries:
            nxt = TaskPhase.RETRY_RESET
            retries += 1
        else:
            nxt = TaskPhase.FAILED
            reason = "grasp retries exhausted"
    elif phase is TaskPhase.RETRY_RESET:
        nxt = TaskPhase.APPROACH
    elif phase is TaskPhase.LIFT:
        nxt = TaskPhase.DONE if context.goal == "lift" else TaskPhase.HANDOVER
    elif phase is TaskPhase.HANDOVER:
        nxt = TaskPhase.ROTATE_WRIST
    elif phase is TaskPhase.ROTATE_WRIST:
        nxt = TaskPhase.REGRASP_STEP
        regrasps += 1
    elif phase is TaskPhase.REGRASP_STEP:
        nxt = TaskPhase.VERIFY_BASE
    elif phase is TaskPhase.VERIFY_BASE:
        history = histories.get(config.watched_sensor_regrasp, ())
        if position_reached(history, config.base_threshold_p, config.window_n):
            nxt = TaskPhase.FINAL_GRASP
        elif regrasps < config.max_regrasp_steps:
            nxt = TaskPhase.REGRASP_STEP
            regrasps += 1
        else:
            nxt = TaskPhase.FAILED
            reason = "regrasp budget exhausted"
    elif phase is TaskPhase.FINAL_GRASP:
        nxt = TaskPhase.OPERATE
    else:  # OPERATE
        nxt = TaskPhase.DONE
    new_state = replace(
        state, phase=nxt, retries_used=retries, regrasp_steps=regrasps, failure_reason=reason
    )
    return new_state, _entry_commands(nxt, config, context)


def _active_contacts(
    scenario: Scenario,
    sensor: int,
    state: ControllerState,
    spec: NerveLineSpec,
) -> tuple[ContactPoint, ...]:
    points: list[ContactPoint] = []
    for rule in scenario.rules:
        if rule.sensor != sensor or state.phase not in rule.phases:
            continue
        if rule.attempt is not None and rule.attempt != state.grasp_attempt:
            continue
        position = rule.position_mm + rule.slide_mm_per_step * state.regrasp_steps
        position = min(max(position, 0.0), spec.effective_length_mm)
        points.append(ContactPoint(position, rule.bridge_ohm))
    return tuple(points)


def _outcome(state: ControllerState, goal: str) -> str:
    if state.phase is TaskPhase.FAILED:
        return "failed"
    if goal == "operate":
        return "operated"
    return "retried_then_lifted" if state.retries_used > 0 else "lifted"


def run_scenario(
    scenario: Scenario,
    specs: Mapping[int, NerveLineSpec],
    config: ControllerConfig = ControllerConfig(),
    seed: int = 0,
    filter_coefficient_a: float | None = None,
    noise_sd_counts: float = 0.0,
    calibration: Mapping[int, CalibrationData] | None = None,
    quantize_to_spikes: bool = True,
    hand: Hand | None = None,
) -> ScenarioResult:
    """Run one scripted scenario to a terminal phase.

    Every tick senses all lines (in sensor order), filters, estimates, and
    appends to per-sensor histories; after each phase dwell the state
    machine decides.  All randomness comes from one generator seeded with
    ``seed``, so a run is a pure function of its arguments.

    Args:
        scenario: world script and expected outcome.
        specs: line model per sensor index.
        config: controller thresholds and budgets.
        seed: seed for spike ties and ADC noise.
        filter_coefficient_a: smoothing coefficient; default derives the
            5 Hz cutoff at the controller tick.
        noise_sd_counts: ADC noise unless the scenario overrides it.
        calibration: reference triplets; default derives noise-free ones
            from the line models.
        quantize_to_spikes: model the spiked skin (True) or a smooth one.
        hand: wire actuators to drive; default is the prototype hand.

    Returns:
        The run result with outcome, counters and full trace.

    Raises:
        ScenarioError: a rule references an unknown sensor or a position
            beyond its line.
    """
    if not specs:
        raise ScenarioError("specs must contain at least one sensor")
    for i, rule in enumerate(scenario.rules):
        problem = rule_problem(rule, specs)
        if problem is not None:
            raise ScenarioError(f"rules[{i}].{problem}")
    effective_noise = (
        scenario.noise_sd_counts if scenario.noise_sd_counts is not None else noise_sd_counts
    )
    if filter_coefficient_a is None:
        filter_coefficient_a = smoothing_coefficient(5.0, config.dt_ms)
    if calibration is None:
        calibration = {i: auto_calibration(spec) for i, spec in specs.items()}

    if hand is None:
        hand = default_hand()
    finger_names = tuple(f.name for f in hand.fingers)
    grasp_state = JointState(flexion_rad={name: GRASP_FLEXION_RAD for name in finger_names})
    open_state = JointState(flexion_rad={name: 0.0 for name in finger_names})
    grasp_map = posture_command("grasp", hand.actuators, grasp_state)
    open_map = posture_command("open", hand.actuators, open_state)
    context = StepContext(
        goal=scenario.goal,
        object_pose_mm=scenario.object_pose_mm,
        grasp_command=Command("close_fingers", tuple(grasp_map[k] for k in sorted(grasp_map))),
        open_command=Command("open_fingers", tuple(open_map[k] for k in sorted(open_map))),
    )

    rng = random.Random(seed)
    sensor_ids = sorted(specs)
    filters = {i: FilterState(coefficient_a=filter_coefficient_a) for i in sensor_ids}
    histories: dict[int, list[ContactEstimate]] = {i: [] for i in sensor_ids}
    state = ControllerState()
    commands = _entry_commands(state.phase, config, context)
    trace: list[TraceRecord] = []
    t_ms = 0
    while state.phase not in TERMINAL_PHASES:
        for tick in range(config.dwell_ticks):
            samples: dict[int, SensorSample] = {}
            for i in sensor_ids:
                contact_set = ContactSet(
                    contacts=_active_contacts(scenario, i, state, specs[i]),
                    quantize_to_spikes=quantize_to_spikes,
                )
                reading = sense(
                    specs[i],
                    contact_set,
                    noise_sd_counts=effective_noise,
                    rng=rng,
                    t_ms=t_ms,
                )
                filters[i], filtered = filter_step(filters[i], reading.counts)
                estimate = estimate_p(filtered, calibration[i], t_ms=t_ms)
                histories[i].append(estimate)
                samples[i] = SensorSample(reading.counts, filtered, estimate)
            trace.append(
                TraceRecord(
                    t_ms=t_ms,
                    phase=state.phase,
                    samples=samples,
                    commands=commands if tick == 0 else (),
                )
            )
            t_ms += config.dt_ms
        state, commands = step(state, histories, config, context)
    return ScenarioResult(
        outcome=_outcome(state, scenario.goal),
        final_phase=state.phase,
        ticks=len(trace),
        retries=state.retries_used,
        regrasp_steps=state.regrasp_steps,
        failure_reason=state.failure_reason,
        trace=tuple(trace),
    )
