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
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Sequence

from .bounds import bounded, number_problem, record
from .errors import ConfigError, ScenarioError
from .estimation import (
    CalibrationData,
    FilterState,
    Regime,
    _channel,
    detect_touch,
    position_reached,
)
from .hand import Hand, JointState, posture_command
from .line import (
    ContactPoint,
    ContactSet,
    NerveLineSpec,
    _add_noise,
    _count,
    _spike,
    resolve_contacts,
    sense,
)

GOALS = ("lift", "operate")
OUTCOMES = ("lifted", "retried_then_lifted", "operated", "failed")
SENSOR_COUNT = 4

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

# The phase after each live one.  step() decides the rest: a failed touch
# check in VerifyGrasp or base check in VerifyBase goes to RetryReset or
# RegraspStep while their budgets last, then to Failed; Lift ends the lift
# goal in Done.  Entering RetryReset spends a retry, RegraspStep a step.
_NEXT_PHASE = {
    TaskPhase.APPROACH: TaskPhase.LOWER,
    TaskPhase.LOWER: TaskPhase.CLOSE_FINGERS,
    TaskPhase.CLOSE_FINGERS: TaskPhase.VERIFY_GRASP,
    TaskPhase.VERIFY_GRASP: TaskPhase.LIFT,
    TaskPhase.RETRY_RESET: TaskPhase.APPROACH,
    TaskPhase.LIFT: TaskPhase.HANDOVER,
    TaskPhase.HANDOVER: TaskPhase.ROTATE_WRIST,
    TaskPhase.ROTATE_WRIST: TaskPhase.REGRASP_STEP,
    TaskPhase.REGRASP_STEP: TaskPhase.VERIFY_BASE,
    TaskPhase.VERIFY_BASE: TaskPhase.FINAL_GRASP,
    TaskPhase.FINAL_GRASP: TaskPhase.OPERATE,
    TaskPhase.OPERATE: TaskPhase.DONE,
}


@record()
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

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        dwell, window = values.get("dwell_ticks"), values.get("window_n")
        if dwell is not None and window is not None and dwell < window:
            return [f"dwell_ticks: must cover window_n ({window}), got {dwell}"]
        return []


class Command(NamedTuple):
    """One actuation command emitted on phase entry."""

    name: str
    args: tuple[float, ...] = ()


@record(ScenarioError)
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

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        phases = values.get("phases")
        if phases is None:
            return []
        if not phases:
            return ["phases: must not be empty"]
        terminal = sorted(phase.value for phase in phases & TERMINAL_PHASES)
        return [f"phases: terminal phase {name!r} not allowed" for name in terminal]


def rule_problem(rule: ContactRule, specs: Mapping[int, NerveLineSpec]) -> str | None:
    """Why ``rule`` cannot press the configured lines, as ``field: problem``, or None."""
    if rule.sensor not in specs:
        return f"sensor: sensor {rule.sensor} is not configured"
    length = specs[rule.sensor].effective_length_mm
    if rule.position_mm > length:
        return f"position_mm: {rule.position_mm} beyond line length {length}"
    return None


@record(ScenarioError)
class Scenario:
    """A named world script plus the outcome the run is expected to produce."""

    name: str
    goal: str
    expected_outcome: str
    object_pose_mm: tuple[Any, Any] = (0.0, 0.0)  # x and y, which cross_problems checks by name
    rules: tuple[ContactRule, ...] = ()

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        problems = []
        if values.get("name") == "":
            problems.append("name: must be a non-empty string, got ''")
        for key, allowed in (("goal", GOALS), ("expected_outcome", OUTCOMES)):
            if key in values and values[key] not in allowed:
                problems.append(f"{key}: must be one of {', '.join(allowed)}, got {values[key]!r}")
        for axis, value in zip("xy", values.get("object_pose_mm", ())):
            problem = number_problem(value)
            if problem is not None:  # in the terms of a file, which gives the pose as {x: …, y: …}
                problems.append(f"object_pose_mm.{axis}: {problem}")
        return problems


@record(ConfigError)
class RunConfig:
    """Everything a reproducible run needs besides the scenario itself.

    ``load_config`` builds one from a file, deriving the filter coefficient
    from the cutoff at the controller tick; one built in code gets the same
    checks: typed and bounded fields, at least one sensor, each keyed by
    its index in 0..3, a coefficient in [0, 1), and both watched sensors
    configured.
    """

    seed: int = bounded()
    sensors: Mapping[Any, NerveLineSpec]  # keyed by sensor index, which cross_problems checks
    controller: ControllerConfig
    filter_coefficient_a: float
    noise_sd_counts: float = bounded(0.0, ge=0)
    quantize_to_spikes: bool = True
    calibration_file: str | None = None
    hand: Hand = Hand()

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        sensors = values.get("sensors")
        problems = ["sensors: must not be empty"] if sensors == {} else []
        for index in sensors or ():
            problem = sensor_index_problem(index)
            if problem is not None:  # the index a file gives each sensor is its key here
                problems.append(f"sensors[{index!r}].index: {problem}")
        controller = values.get("controller")
        if sensors and controller is not None and not problems:
            for key in ("watched_sensor_grasp", "watched_sensor_regrasp"):
                watched = getattr(controller, key)
                if watched not in sensors:
                    problems.append(f"controller.{key}: sensor {watched} is not configured")
        try:
            FilterState(coefficient_a=values.get("filter_coefficient_a", 0.0))
        except ValueError as exc:
            problems.append(f"filter_{exc}")
        return problems


def sensor_index_problem(index: Any) -> str | None:
    """Why ``index`` cannot key a line in ``RunConfig.sensors``, or None when it can."""
    if type(index) is not int or not 0 <= index < SENSOR_COUNT:
        return f"must be an integer in 0..{SENSOR_COUNT - 1}, got {index!r}"
    return None


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


# One sensor at one tick, as `run` writes it: t_ms, phase, sensor, raw, filtered, p, regime.
TraceRow = tuple[int, TaskPhase, int, int, float, float, Regime]


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of a scenario run: counters, ``rows`` and ``commands``.

    ``rows`` holds one row per sensor per tick; ``commands`` maps the
    ``t_ms`` of each phase entry to what it issued, ``()`` when nothing.
    """

    outcome: str
    final_phase: TaskPhase
    ticks: int
    retries: int
    regrasp_steps: int
    failure_reason: str | None
    rows: tuple[TraceRow, ...] = field(repr=False)
    commands: Mapping[int, tuple[Command, ...]] = field(repr=False)


def _entry_commands(phase: TaskPhase, config: ControllerConfig, context: StepContext) -> tuple[Command, ...]:
    if phase is TaskPhase.APPROACH:
        return (Command("move_above", context.object_pose_mm),)
    if phase is TaskPhase.LOWER:
        return (Command("lower_to_grasp_height"),)
    if phase is TaskPhase.CLOSE_FINGERS or phase is TaskPhase.FINAL_GRASP:
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
    if phase is TaskPhase.OPERATE:
        return (Command("drive_thumb"),)
    return ()


def step(
    state: ControllerState,
    histories: Mapping[int, Sequence[tuple[float, Regime]]],
    config: ControllerConfig,
    context: StepContext,
) -> tuple[ControllerState, tuple[Command, ...]]:
    """Advance the state machine by one decision.

    Called after the phase dwell with that dwell's ``(p, regime)`` pairs per
    watched sensor, such as `ContactEstimate`s, oldest first.  Pure: the
    next state and the commands to issue on entering it are returned, the
    inputs are untouched.

    Raises:
        ValueError: called in a terminal phase.
    """
    if state.phase in TERMINAL_PHASES:
        raise ValueError(f"step() called in terminal phase {state.phase.value}")
    phase = state.phase
    nxt = _NEXT_PHASE[phase]
    reason = state.failure_reason
    if phase is TaskPhase.VERIFY_GRASP:
        history = histories.get(config.watched_sensor_grasp, ())
        if not (history and detect_touch(history[-1], config.touch_threshold_p)):
            nxt = TaskPhase.RETRY_RESET
            if state.retries_used >= config.max_retries:
                nxt, reason = TaskPhase.FAILED, "grasp retries exhausted"
    elif phase is TaskPhase.VERIFY_BASE:
        history = histories.get(config.watched_sensor_regrasp, ())
        if not position_reached(history, config.base_threshold_p, config.window_n):
            nxt = TaskPhase.REGRASP_STEP
            if state.regrasp_steps >= config.max_regrasp_steps:
                nxt, reason = TaskPhase.FAILED, "regrasp budget exhausted"
    elif phase is TaskPhase.LIFT and context.goal == "lift":
        nxt = TaskPhase.DONE
    steps = state.regrasp_steps + (nxt is TaskPhase.REGRASP_STEP)
    new_state = ControllerState(nxt, state.retries_used + (nxt is TaskPhase.RETRY_RESET), steps, reason)
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


def _phase_count(spec: NerveLineSpec, contact_set: ContactSet) -> int | None:
    """Noise-free ADC count of ``contact_set`` for a whole phase, or None when it varies per tick.

    It varies when a contact sits exactly on a spike midpoint of the spiked
    skin: every tick then senses the set anew, flipping that contact's coin.
    """
    if contact_set.quantize_to_spikes and any(_spike(spec, c.position_mm)[1] for c in contact_set.contacts):
        return None
    return _count(spec, resolve_contacts(spec, contact_set))


def _outcome(state: ControllerState, goal: str) -> str:
    if state.phase is TaskPhase.FAILED:
        return "failed"
    if goal == "operate":
        return "operated"
    return "retried_then_lifted" if state.retries_used > 0 else "lifted"


def run_scenario(
    scenario: Scenario,
    run: RunConfig,
    calibration: Mapping[int, CalibrationData],
) -> ScenarioResult:
    """Run one scripted scenario to a terminal phase.

    A phase entry resolves each line's contacts to a noise-free ADC count
    whenever a line's contacts change.  Every tick then samples all lines
    (in sensor order), adding the ADC noise to that count, or through
    `sense` when a contact on a spike midpoint flips its tie coin, then
    filters and estimates it through its line's `_channel`, exactly as
    `filter_step` and `estimate_p` would, and records a row.  The state
    machine decides after each phase dwell, reading the ``(p, regime)``
    pairs of that dwell's ticks for the two watched sensors.  All
    randomness comes from one generator seeded with ``run.seed``, so a run
    is a pure function of its arguments.

    Args:
        scenario: world script and expected outcome.
        run: the lines, controller, seed, filter coefficient, ADC noise,
            skin and hand of the run, as ``load_config`` gives them.
        calibration: reference triplet per configured sensor.

    Returns:
        The run result with outcome, counters, rows and commands.

    Raises:
        ScenarioError: a rule references an unknown sensor or a position
            beyond its line.
        ConfigError: ``calibration`` lacks a configured sensor.
    """
    specs = run.sensors
    config = run.controller
    for i, rule in enumerate(scenario.rules):
        problem = rule_problem(rule, specs)
        if problem is not None:
            raise ScenarioError(f"rules[{i}].{problem}")
    missing = sorted(set(specs) - set(calibration))
    if missing:
        raise ConfigError(f"calibration: no calibration for sensors {missing}")

    finger_names = tuple(f.name for f in run.hand.fingers)
    grasp_state = JointState(flexion_rad={name: GRASP_FLEXION_RAD for name in finger_names})
    open_state = JointState(flexion_rad={name: 0.0 for name in finger_names})
    grasp_map = posture_command("grasp", run.hand.actuators, grasp_state)
    open_map = posture_command("open", run.hand.actuators, open_state)
    context = StepContext(
        goal=scenario.goal,
        object_pose_mm=scenario.object_pose_mm,
        grasp_command=Command("close_fingers", tuple(grasp_map[k] for k in sorted(grasp_map))),
        open_command=Command("open_fingers", tuple(open_map[k] for k in sorted(open_map))),
    )

    rng = random.Random(run.seed)
    sensor_ids = sorted(specs)
    noise_sd_counts = run.noise_sd_counts
    noisy = noise_sd_counts > 0
    channels = {i: _channel(run.filter_coefficient_a, calibration[i]) for i in sensor_ids}
    # per sensor: its last active contacts and the (ContactSet, count) they give
    counted: dict[int, tuple[tuple[ContactPoint, ...], ContactSet, int | None]] = {}
    state = ControllerState()
    commands = _entry_commands(state.phase, config, context)
    rows: list[TraceRow] = []
    entered: dict[int, tuple[Command, ...]] = {}
    t_ms = 0
    while state.phase not in TERMINAL_PHASES:
        phase = state.phase
        entered[t_ms] = commands
        histories: dict[int, list] = {config.watched_sensor_grasp: [], config.watched_sensor_regrasp: []}
        lines = []
        for i in sensor_ids:
            contacts = _active_contacts(scenario, i, state, specs[i])
            last = counted.get(i)
            if last is None or last[0] != contacts:
                contact_set = ContactSet(contacts, run.quantize_to_spikes)
                last = counted[i] = (contacts, contact_set, _phase_count(specs[i], contact_set))
            _, contact_set, count = last
            lines.append((i, specs[i], contact_set, count, channels[i], histories.get(i)))
        for _ in range(config.dwell_ticks):
            for i, spec, contact_set, count, channel, history in lines:
                if count is None:
                    raw = sense(spec, contact_set, noise_sd_counts=noise_sd_counts, rng=rng).counts
                elif noisy:
                    raw = _add_noise(count, noise_sd_counts, spec.adc_full_scale, rng)
                else:
                    raw = count
                sample = channel(raw)
                if history is not None:
                    history.append(sample[1:])
                rows.append((t_ms, phase, i, raw) + sample)
            t_ms += config.dt_ms
        state, commands = step(state, histories, config, context)
    return ScenarioResult(
        outcome=_outcome(state, scenario.goal),
        final_phase=state.phase,
        ticks=len(rows) // len(sensor_ids),
        retries=state.retries_used,
        regrasp_steps=state.regrasp_steps,
        failure_reason=state.failure_reason,
        rows=tuple(rows),
        commands=entered,
    )
