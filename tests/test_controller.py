"""State machine and scenario runner tests."""

import itertools
import random
import statistics
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nerveline.controller
from nerveline import (
    ActuatorSpec,
    Command,
    ConfigError,
    ContactEstimate,
    ContactPoint,
    ContactRule,
    ContactSet,
    ControllerConfig,
    ControllerState,
    FilterState,
    Hand,
    NerveLineSpec,
    Regime,
    RunConfig,
    Scenario,
    ScenarioError,
    ScenarioResult,
    StepContext,
    TaskPhase,
    auto_calibration,
    default_sensors,
    detect_touch,
    estimate_p,
    filter_step,
    load_config,
    load_scenario,
    position_reached,
    posture_command,
    run_scenario,
    sense,
    smoothing_coefficient,
    step,
)
from nerveline.controller import GRASP_FLEXION_RAD
from nerveline.estimation import DEFAULT_CUTOFF_HZ

REPO = Path(__file__).resolve().parent.parent

CONFIG = ControllerConfig()
CONTEXT = StepContext(
    goal="lift",
    object_pose_mm=(120.0, 40.0),
    grasp_command=Command("close_fingers", (1.0,) * 7),
    open_command=Command("open_fingers", (0.0,) * 7),
)
OPERATE_CONTEXT = StepContext(
    goal="operate",
    object_pose_mm=(120.0, 40.0),
    grasp_command=CONTEXT.grasp_command,
    open_command=CONTEXT.open_command,
)
# what load_config gives a file holding only ``seed: 0``
BASE_RUN = RunConfig(
    seed=0,
    sensors=default_sensors(),
    filter_coefficient_a=smoothing_coefficient(DEFAULT_CUTOFF_HZ, RunConfig.dt_ms),
)


def simulate(scenario, **fields):
    """run_scenario on BASE_RUN with ``fields`` replaced, calibrated noise-free per line."""
    run = replace(BASE_RUN, **fields)
    return run_scenario(scenario, run, {i: auto_calibration(spec) for i, spec in run.sensors.items()})


def estimates(p, n=10):
    return [ContactEstimate(p=p, regime=Regime.BODY)] * n


def advance(state, histories, context):
    return step(state, histories, CONFIG, context)


class TestRecords:
    """`Command` and `ContactEstimate` are tuples that behave as the frozen records they replaced."""

    @pytest.mark.parametrize(
        "cls,values,text",
        [
            (Command, {"name": "lift", "args": ()}, "Command(name='lift', args=())"),
            (Command, {"name": "advance_tool_mm", "args": (5.0,)}, "Command(name='advance_tool_mm', args=(5.0,))"),
            (ContactEstimate, {"p": 42.5, "regime": Regime.BODY}, "ContactEstimate(p=42.5, regime=<Regime.BODY: 'body'>)"),
        ],
    )
    def test_record_behaviour(self, cls, values, text):
        record = cls(**values)
        assert cls._fields == tuple(values)
        assert tuple(getattr(record, name) for name in cls._fields) == tuple(values.values())
        assert repr(record) == text
        assert record == cls(*values.values()) and hash(record) == hash(cls(*values.values()))
        first, second = record  # a tuple: it unpacks, and equals a plain tuple of its values
        assert (first, second) == tuple(values.values()) == record
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], "other")

    def test_command_args_default_to_empty(self):
        assert Command("lift") == Command(name="lift", args=()) == ("lift", ())
        with pytest.raises(TypeError):
            ContactEstimate(p=1.0)  # no default


class TestStep:
    def test_happy_path_to_lift(self):
        state = ControllerState()
        histories = {0: estimates(100.0), 1: estimates(100.0)}
        walked = [state.phase]
        for _ in range(3):
            state, _ = advance(state, histories, CONTEXT)
            walked.append(state.phase)
        histories = {0: estimates(70.0), 1: estimates(100.0)}
        state, commands = advance(state, histories, CONTEXT)
        walked.append(state.phase)
        assert commands == (Command("lift"),)
        state, _ = advance(state, histories, CONTEXT)
        walked.append(state.phase)
        assert walked == [
            TaskPhase.APPROACH,
            TaskPhase.LOWER,
            TaskPhase.CLOSE_FINGERS,
            TaskPhase.VERIFY_GRASP,
            TaskPhase.LIFT,
            TaskPhase.DONE,
        ]

    def test_no_touch_retries_then_fails(self):
        state = ControllerState()
        histories = {0: estimates(100.0), 1: estimates(100.0)}
        visits = []
        while state.phase not in (TaskPhase.DONE, TaskPhase.FAILED):
            visits.append(state.phase)
            state, _ = advance(state, histories, CONTEXT)
        assert state.phase is TaskPhase.FAILED
        assert state.failure_reason == "grasp retries exhausted"
        assert state.retries_used == 2
        assert visits.count(TaskPhase.VERIFY_GRASP) == 3  # initial try + two retries
        assert visits.count(TaskPhase.RETRY_RESET) == 2

    def test_retry_reset_emits_open_and_raise(self):
        state = ControllerState(phase=TaskPhase.VERIFY_GRASP)
        histories = {0: estimates(100.0), 1: estimates(100.0)}
        state, commands = advance(state, histories, CONTEXT)
        assert state.phase is TaskPhase.RETRY_RESET
        assert commands == (CONTEXT.open_command, Command("raise_to_pregrasp"))

    def test_operate_goal_continues_past_lift(self):
        state = ControllerState(phase=TaskPhase.LIFT)
        histories = {0: estimates(70.0), 1: estimates(100.0)}
        state, commands = advance(state, histories, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.HANDOVER
        assert commands == (Command("handover_to_gripper"),)

    def test_regrasp_loop_until_reached(self):
        state = ControllerState(phase=TaskPhase.ROTATE_WRIST)
        far = {0: estimates(70.0), 1: estimates(70.0)}
        near = {0: estimates(70.0), 1: estimates(45.0)}
        state, commands = advance(state, far, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.REGRASP_STEP
        assert state.regrasp_steps == 1
        assert commands == (Command("advance_tool_mm", (5.0,)),)
        state, _ = advance(state, far, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.VERIFY_BASE
        state, _ = advance(state, far, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.REGRASP_STEP
        assert state.regrasp_steps == 2
        state, _ = advance(state, far, OPERATE_CONTEXT)
        state, _ = advance(state, near, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.FINAL_GRASP
        state, _ = advance(state, near, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.OPERATE
        state, _ = advance(state, near, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.DONE

    def test_regrasp_budget_exhaustion_fails(self):
        state = ControllerState(phase=TaskPhase.VERIFY_BASE, regrasp_steps=16)
        histories = {0: estimates(70.0), 1: estimates(70.0)}
        state, _ = advance(state, histories, OPERATE_CONTEXT)
        assert state.phase is TaskPhase.FAILED
        assert state.failure_reason == "regrasp budget exhausted"

    def test_step_in_terminal_phase_rejected(self):
        with pytest.raises(ValueError, match="terminal"):
            advance(ControllerState(phase=TaskPhase.DONE), {}, CONTEXT)

    def test_approach_command_carries_object_pose(self):
        state = ControllerState(phase=TaskPhase.RETRY_RESET)
        state, commands = advance(state, {}, CONTEXT)
        assert state.phase is TaskPhase.APPROACH
        assert commands == (Command("move_above", (120.0, 40.0)),)


def reference_entry_commands(phase, config, context):
    """The entry commands as the per-phase chain gave them before the transition table."""
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


def reference_step(state, histories, config, context):
    """``step`` as a per-phase if/elif chain, the way it was written before the transition table."""
    if state.phase in (TaskPhase.DONE, TaskPhase.FAILED):
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
    return new_state, reference_entry_commands(nxt, config, context)


# What a watched sensor's history can say: absent, empty, a touch at the
# base (passes both checks), a touch short of it (touch passes, base fails),
# a base touch too short to fill the window, and an open line (both fail).
STEP_HISTORIES = [
    None,
    [],
    estimates(45.0),
    estimates(70.0),
    estimates(45.0, n=3),
    [ContactEstimate(p=100.0, regime=Regime.NONE)] * 10,
]


class TestStepMatchesPhaseChain:
    @pytest.mark.parametrize("phase", list(TaskPhase), ids=[phase.value for phase in TaskPhase])
    @pytest.mark.parametrize(
        "config", [CONFIG, ControllerConfig(max_retries=0, max_regrasp_steps=1)], ids=["default", "tight"]
    )
    def test_same_transition_for_every_state(self, config, phase):
        for context, grasp, base, retries, regrasps, reason in itertools.product(
            (CONTEXT, OPERATE_CONTEXT),
            STEP_HISTORIES,
            STEP_HISTORIES,
            range(config.max_retries + 3),
            range(config.max_regrasp_steps + 3),
            (None, "earlier failure"),
        ):
            histories = {
                sensor: history
                for sensor, history in ((config.watched_sensor_grasp, grasp), (config.watched_sensor_regrasp, base))
                if history is not None
            }
            state = ControllerState(phase, retries, regrasps, reason)
            try:
                expected = reference_step(state, histories, config, context)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    step(state, histories, config, context)
                assert str(raised.value) == str(exc)
            else:
                assert step(state, histories, config, context) == expected


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("touch_threshold_p", 100.0),
            ("base_threshold_p", 0.0),
            ("step_mm", 0.0),
            ("max_retries", -1),
            ("max_regrasp_steps", 0),
            ("window_n", 0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControllerConfig(**{field: value})

    @pytest.mark.parametrize(
        "value,problem", [(0, "must be > 0, got 0"), (2.5, "must be an integer, got 2.5")]
    )
    def test_run_tick_bound(self, value, problem):
        with pytest.raises(ConfigError) as excinfo:
            replace(BASE_RUN, dt_ms=value)
        assert str(excinfo.value) == f"dt_ms: {problem}"

    def test_dwell_must_cover_window(self):
        with pytest.raises(ValueError, match="dwell_ticks"):
            ControllerConfig(dwell_ticks=5, window_n=10)


class TestScenarioValidation:
    def test_rule_rejects_terminal_phase(self):
        with pytest.raises(ScenarioError, match="terminal"):
            ContactRule(sensor=0, position_mm=10.0, phases=frozenset({TaskPhase.DONE}))

    def test_rule_rejects_empty_phases(self):
        with pytest.raises(ScenarioError, match="phases"):
            ContactRule(sensor=0, position_mm=10.0, phases=frozenset())

    @pytest.mark.parametrize("phases", [["Lift"], frozenset({"Lift"})], ids=["list", "names"])
    def test_rule_phases_must_be_task_phases(self, phases):
        with pytest.raises(ScenarioError) as raised:
            ContactRule(sensor=0, position_mm=10.0, phases=phases)
        assert str(raised.value) == f"phases: must be a frozenset of TaskPhase, got {phases!r}"

    def test_scenario_rejects_unknown_goal(self):
        with pytest.raises(ScenarioError, match="goal"):
            Scenario(name="x", goal="juggle", expected_outcome="lifted")

    def test_run_rejects_unknown_sensor(self):
        rule = ContactRule(sensor=9, position_mm=10.0, phases=frozenset({TaskPhase.LIFT}))
        scenario = Scenario(name="x", goal="lift", expected_outcome="lifted", rules=(rule,))
        with pytest.raises(ScenarioError, match=r"rules\[0\].sensor"):
            simulate(scenario)

    def test_run_rejects_position_beyond_line(self):
        rule = ContactRule(sensor=0, position_mm=90.0, phases=frozenset({TaskPhase.LIFT}))
        scenario = Scenario(name="x", goal="lift", expected_outcome="lifted", rules=(rule,))
        with pytest.raises(ScenarioError, match=r"rules\[0\].position_mm"):
            simulate(scenario)


def touch_rule(sensor, position, phases, **kwargs):
    return ContactRule(
        sensor=sensor,
        position_mm=position,
        phases=frozenset(phases),
        **kwargs,
    )


SCISSORS_PRESENT = Scenario(
    name="scissors_present",
    goal="lift",
    expected_outcome="lifted",
    object_pose_mm=(120.0, 40.0),
    rules=(touch_rule(0, 70.0, (TaskPhase.VERIFY_GRASP, TaskPhase.LIFT)),),
)

NO_SCISSORS = Scenario(
    name="no_scissors", goal="lift", expected_outcome="failed", object_pose_mm=(120.0, 40.0)
)

REGRASP = Scenario(
    name="scissors_regrasp",
    goal="operate",
    expected_outcome="operated",
    object_pose_mm=(120.0, 40.0),
    rules=(
        touch_rule(
            0,
            70.0,
            (
                TaskPhase.VERIFY_GRASP,
                TaskPhase.LIFT,
                TaskPhase.HANDOVER,
                TaskPhase.ROTATE_WRIST,
                TaskPhase.REGRASP_STEP,
                TaskPhase.VERIFY_BASE,
                TaskPhase.FINAL_GRASP,
                TaskPhase.OPERATE,
            ),
        ),
        touch_rule(
            1,
            70.0,
            (TaskPhase.REGRASP_STEP, TaskPhase.VERIFY_BASE, TaskPhase.FINAL_GRASP, TaskPhase.OPERATE),
            slide_mm_per_step=-5.0,
        ),
    ),
)


class TestRunScenario:
    def test_scissors_present_lifted(self):
        result = simulate(SCISSORS_PRESENT, seed=12345)
        assert result.outcome == "lifted"
        assert result.final_phase is TaskPhase.DONE
        assert result.ticks == 50
        assert result.retries == 0
        phases = [phase for _, phase, sensor, *_ in result.rows if sensor == 0]
        assert phases == (
            [TaskPhase.APPROACH] * 10
            + [TaskPhase.LOWER] * 10
            + [TaskPhase.CLOSE_FINGERS] * 10
            + [TaskPhase.VERIFY_GRASP] * 10
            + [TaskPhase.LIFT] * 10
        )

    def test_verify_grasp_filter_decay_frozen(self):
        result = simulate(SCISSORS_PRESENT, seed=12345)
        verify = [row for row in result.rows if row[1] is TaskPhase.VERIFY_GRASP and row[2] == 0]
        assert all(raw == 220 for _, _, _, raw, *_ in verify)
        # smoothing from the saturated open value crosses the touch
        # threshold on the third tick of the verification dwell
        p_values = [p for *_, p, _ in verify]
        assert p_values[0] > 90.0 > p_values[2]
        assert p_values[2] == pytest.approx(88.5848, abs=1e-4)
        assert p_values[-1] == pytest.approx(80.9217, abs=1e-4)

    def test_no_scissors_fails_after_retries(self):
        result = simulate(NO_SCISSORS, seed=12345)
        assert result.outcome == "failed"
        assert result.final_phase is TaskPhase.FAILED
        assert result.ticks == 140
        assert result.retries == 2
        assert result.failure_reason == "grasp retries exhausted"
        assert all(p >= 90.0 for *_, p, _ in result.rows)

    def test_moved_back_lifts_on_second_attempt(self):
        rule = touch_rule(0, 70.0, (TaskPhase.VERIFY_GRASP, TaskPhase.LIFT), attempt=2)
        scenario = Scenario(
            name="scissors_moved_back",
            goal="lift",
            expected_outcome="retried_then_lifted",
            rules=(rule,),
        )
        result = simulate(scenario, seed=12345)
        assert result.outcome == "retried_then_lifted"
        assert result.ticks == 100
        assert result.retries == 1

    def test_regrasp_walks_five_steps(self):
        result = simulate(REGRASP, seed=12345)
        assert result.outcome == "operated"
        assert result.ticks == 190
        assert result.regrasp_steps == 5

    def test_regrasp_window_means_frozen(self):
        result = simulate(REGRASP, seed=12345)
        means = []
        block: list[float] = []
        for _, phase, sensor, _, _, p, _ in result.rows:
            if phase is TaskPhase.VERIFY_BASE and sensor == 1:
                block.append(p)
                if len(block) == 10:
                    means.append(statistics.fmean(block))
                    block = []
        expected = [74.1478, 62.2218, 57.7096, 52.6853, 48.1990]
        assert means == pytest.approx(expected, abs=1e-3)
        assert all(m >= 50.0 for m in means[:-1])
        assert means[-1] < 50.0

    def test_trace_is_deterministic(self):
        noisy = Scenario(
            name="noisy",
            goal="lift",
            expected_outcome="lifted",
            rules=SCISSORS_PRESENT.rules,
        )
        first = simulate(noisy, seed=7, noise_sd_counts=4.0)
        second = simulate(noisy, seed=7, noise_sd_counts=4.0)
        assert first == second
        third = simulate(noisy, seed=8, noise_sd_counts=4.0)
        assert third.rows != first.rows

    def test_timestamps_step_by_dt(self):
        result = simulate(NO_SCISSORS, seed=1)
        stamps = [t_ms for t_ms, _, sensor, *_ in result.rows if sensor == 0]
        assert stamps == list(range(0, 1400, 10))
        result = simulate(NO_SCISSORS, seed=1, dt_ms=40)
        assert [t_ms for t_ms, _, sensor, *_ in result.rows if sensor == 0] == list(range(0, 5600, 40))

    def test_commands_only_on_phase_entry(self):
        result = simulate(SCISSORS_PRESENT, seed=12345)
        assert result.commands[0] == (Command("move_above", (120.0, 40.0)),)
        assert 10 not in result.commands
        assert next(row[0] for row in result.rows if row[1] is TaskPhase.LIFT) == 400
        assert result.commands[400] == (Command("lift"),)

    def test_default_hand_command_args(self):
        # scissors_moved_back retries once, so the default hand both closes and opens
        scenario = load_scenario(REPO / "scenarios" / "scissors_moved_back.yaml", BASE_RUN)
        result = simulate(scenario, seed=12345)
        issued = {command for entered in result.commands.values() for command in entered}
        assert {command for command in issued if command.name.endswith("_fingers")} == {
            Command("close_fingers", (5.235987755982988,) * 6 + (0.0,)),
            Command("open_fingers", (0.0,) * 7),
        }

    def test_custom_hand_tables_drive_grasp_command(self):
        hand = Hand(
            actuators=(
                ActuatorSpec(id=0, displacement_table={"grasp": 6.5, "open": 0.0}),
                ActuatorSpec(id=1, displacement_table={"grasp": 3.0, "open": 0.0}),
            ),
        )
        result = simulate(SCISSORS_PRESENT, seed=12345, hand=hand)
        close_t_ms = next(row[0] for row in result.rows if row[1] is TaskPhase.CLOSE_FINGERS)
        assert result.commands[close_t_ms] == (Command("close_fingers", (6.5, 3.0)),)
        assert result.outcome == "lifted"

    @pytest.mark.parametrize("coefficient_a", [1.0, -0.1])
    def test_rejects_coefficient_outside_unit_interval(self, coefficient_a):
        with pytest.raises(ValueError, match="coefficient_a"):
            RunConfig(
                seed=1, sensors=default_sensors(), controller=CONFIG, filter_coefficient_a=coefficient_a
            )

    def test_rejects_empty_sensor_map(self):
        with pytest.raises(ConfigError, match="sensors: must not be empty"):
            RunConfig(seed=1, sensors={}, controller=CONFIG, filter_coefficient_a=0.5)

    @pytest.mark.parametrize(
        "sensors,message",
        [
            ([1], "sensors: must be a mapping of values to NerveLineSpec, got [1]"),
            ({True: NerveLineSpec()}, "sensors[True].index: must be an integer in 0..3, got True"),
            ({"0": NerveLineSpec()}, "sensors['0'].index: must be an integer in 0..3, got '0'"),
            ({0: 3}, "sensors: must be a mapping of values to NerveLineSpec, got {0: 3}"),
        ],
        ids=["not_mapping", "bool_key", "str_key", "not_spec"],
    )
    def test_sensor_map_messages(self, sensors, message):
        with pytest.raises(ConfigError) as info:
            replace(BASE_RUN, sensors=sensors)
        assert str(info.value) == message

    def test_rejects_unconfigured_watched_sensor(self):
        with pytest.raises(ConfigError, match="watched_sensor_grasp: sensor 0 is not configured"):
            RunConfig(seed=1, sensors={1: NerveLineSpec()}, controller=CONFIG, filter_coefficient_a=0.5)

    @pytest.mark.parametrize(
        "present,missing", [((), "[0, 1, 2, 3]"), ((2, 0), "[1, 3]")], ids=["empty", "partial"]
    )
    def test_rejects_missing_calibration(self, present, missing):
        calibration = {i: auto_calibration(BASE_RUN.sensors[i]) for i in present}
        with pytest.raises(ConfigError) as info:
            run_scenario(SCISSORS_PRESENT, BASE_RUN, calibration)
        assert str(info.value) == f"calibration: no calibration for sensors {missing}"


def reference_run(scenario, specs, seed, noise_sd_counts, quantize_to_spikes, config):
    """run_scenario with default arguments and controller ``config``, sensed, filtered and estimated tick by tick."""
    dt_ms = RunConfig.dt_ms
    coefficient_a = smoothing_coefficient(DEFAULT_CUTOFF_HZ, dt_ms)
    calibration = {i: auto_calibration(spec) for i, spec in specs.items()}
    hand = Hand()
    grasp = posture_command("grasp", hand.actuators, GRASP_FLEXION_RAD)
    release = posture_command("open", hand.actuators, 0.0)
    context = StepContext(
        goal=scenario.goal,
        object_pose_mm=scenario.object_pose_mm,
        grasp_command=Command("close_fingers", tuple(grasp[k] for k in sorted(grasp))),
        open_command=Command("open_fingers", tuple(release[k] for k in sorted(release))),
    )
    rng = random.Random(seed)
    filters = {i: FilterState(coefficient_a) for i in specs}
    histories = {i: [] for i in specs}
    state = ControllerState()
    commands = (Command("move_above", scenario.object_pose_mm),)
    rows = []
    entered = {}
    t_ms = 0
    while state.phase not in (TaskPhase.DONE, TaskPhase.FAILED):
        entered[t_ms] = commands
        for _ in range(config.dwell_ticks):
            for i in sorted(specs):
                length = specs[i].effective_length_mm
                contacts = tuple(
                    ContactPoint(
                        min(max(r.position_mm + r.slide_mm_per_step * state.regrasp_steps, 0.0), length),
                        r.bridge_ohm,
                    )
                    for r in scenario.rules
                    if r.sensor == i
                    and state.phase in r.phases
                    and r.attempt in (None, state.grasp_attempt)
                )
                reading = sense(
                    specs[i],
                    ContactSet(contacts, quantize_to_spikes),
                    noise_sd_counts=noise_sd_counts,
                    rng=rng,
                    t_ms=t_ms,
                )
                filters[i], filtered = filter_step(filters[i], reading.counts)
                estimate = estimate_p(filtered, calibration[i])
                histories[i].append(estimate)
                rows.append((t_ms, state.phase, i, reading.counts, filtered, estimate.p, estimate.regime))
            t_ms += dt_ms
        state, commands = step(state, histories, config, context)
    if state.phase is TaskPhase.FAILED:
        outcome = "failed"
    elif scenario.goal == "operate":
        outcome = "operated"
    else:
        outcome = "retried_then_lifted" if state.retries_used else "lifted"
    return ScenarioResult(
        outcome=outcome,
        final_phase=state.phase,
        ticks=t_ms // dt_ms,
        retries=state.retries_used,
        regrasp_steps=state.regrasp_steps,
        failure_reason=state.failure_reason,
        rows=tuple(rows),
        commands=entered,
    )


LIVE_PHASES = [phase for phase in TaskPhase if phase not in (TaskPhase.DONE, TaskPhase.FAILED)]


@st.composite
def rules_on(draw, sensors, spec):
    """One contact rule; half-pitch multiples land on spike midpoints, where every tick flips a coin."""
    half = spec.spike_pitch_mm / 2
    length = spec.effective_length_mm
    on_grid = st.integers(0, int(length / half)).map(lambda k: k * half)
    return ContactRule(
        sensor=draw(st.sampled_from(sensors)),
        position_mm=draw(st.one_of(on_grid, st.floats(0.0, length))),
        phases=frozenset(draw(st.lists(st.sampled_from(LIVE_PHASES), min_size=1, max_size=6))),
        # firm presses go through the ladder; light ones beyond body_limit_mm are tip touches
        bridge_ohm=draw(st.one_of(st.just(0.0), st.floats(1.0, 1e6))),
        slide_mm_per_step=draw(
            st.one_of(st.just(0.0), st.integers(-4, 4).map(lambda k: k * half), st.floats(-10.0, 10.0))
        ),
        attempt=draw(st.one_of(st.none(), st.integers(1, 3))),
    )


@st.composite
def drawn_runs(draw):
    """Arguments of one run: scenario, specs, seed, noise_sd_counts, quantize_to_spikes, controller.

    The controller watches two of the drawn sensors, as a run must.
    """
    spec = NerveLineSpec(spike_pitch_mm=draw(st.sampled_from([2.5, 5.0, 7.0])))
    sensors = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    controller = ControllerConfig(
        watched_sensor_grasp=draw(st.sampled_from(sensors)),
        watched_sensor_regrasp=draw(st.sampled_from(sensors)),
    )
    scenario = Scenario(
        name="drawn",
        goal=draw(st.sampled_from(["lift", "operate"])),
        expected_outcome="failed",
        rules=tuple(draw(st.lists(rules_on(sorted(sensors), spec), min_size=1, max_size=3))),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    noise = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    return scenario, {i: spec for i in sensors}, seed, noise, draw(st.booleans()), controller


def pinned_run(sensors, noise, *rules, watched=(0, 1)):
    """A drawn_runs value: an operate goal, default lines, seed 3, the spiked skin."""
    scenario = Scenario("pinned", "operate", "failed", rules=rules)
    controller = ControllerConfig(watched_sensor_grasp=watched[0], watched_sensor_regrasp=watched[1])
    return scenario, dict.fromkeys(sensors, NerveLineSpec()), 3, noise, True, controller


def held_run(position, noise):
    """A drawn_runs value: an operate run on sensors 0 and 1 that fails its grasp checks, 60 ticks a phase.

    Sensor 0 rests through Approach, is pressed at ``position`` through every
    other live phase of the first attempt, 180 ticks, and is released for
    the two retries; the grasp check watches sensor 1, which nothing touches.
    Noise-free, the filter reaches a fixed point about 130 ticks after each
    change of count, so it stands still under the press and after it.
    """
    phases = [phase for phase in LIVE_PHASES if phase is not TaskPhase.APPROACH]
    scenario = Scenario("held", "operate", "failed", rules=(touch_rule(0, position, phases, attempt=1),))
    controller = ControllerConfig(dwell_ticks=60, watched_sensor_grasp=1, watched_sensor_regrasp=1)
    return scenario, dict.fromkeys([0, 1], NerveLineSpec()), 3, noise, True, controller


class TestRunScenarioMatchesTickLoop:
    @given(drawn_runs())
    # a firm press held past the filter's fixed point, then released; then with ADC noise
    @example(held_run(70.0, 0.0))
    @example(held_run(70.0, 0.5))
    # a press on a spike midpoint: its count flips every tick, so the filter never stands still under it
    @example(held_run(72.5, 0.0))
    # ADC noise on top of a spike-midpoint coin, sensed anew every tick
    @example(pinned_run([0, 1], 3.0, touch_rule(0, 72.5, LIVE_PHASES), touch_rule(1, 40.0, LIVE_PHASES)))
    # both watched sensors are configured, but no rule touches either
    @example(pinned_run([2, 3], 0.0, touch_rule(2, 70.0, LIVE_PHASES), watched=(3, 3)))
    # the watched regrasp sensor is configured but no rule touches it
    @example(pinned_run([0, 1, 2], 0.0, touch_rule(0, 70.0, LIVE_PHASES)))
    # sensor 0's contacts go 40 mm, 60 mm, 40 mm: a set seen before is counted again
    @example(
        pinned_run(
            [0, 1],
            0.0,
            touch_rule(0, 40.0, {TaskPhase.CLOSE_FINGERS, TaskPhase.HANDOVER}),
            touch_rule(0, 60.0, {TaskPhase.VERIFY_GRASP, TaskPhase.LIFT}),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_tick_sense_loop(self, run):
        scenario, specs, seed, noise, quantize, controller = run
        result = simulate(
            scenario, sensors=specs, seed=seed, noise_sd_counts=noise, quantize_to_spikes=quantize, controller=controller
        )
        assert result == reference_run(scenario, specs, seed, noise, quantize, controller)


# bench/generate.py's multi_contact scenario: two presses and a light fingertip touch on sensor 0
MULTI_CONTACT = Scenario(
    name="multi_contact",
    goal="lift",
    expected_outcome="lifted",
    object_pose_mm=(120.0, 40.0),
    rules=(
        touch_rule(0, 31.0, (TaskPhase.VERIFY_GRASP, TaskPhase.LIFT), bridge_ohm=5000.0),
        touch_rule(0, 50.0, (TaskPhase.CLOSE_FINGERS, TaskPhase.VERIFY_GRASP, TaskPhase.LIFT)),
        touch_rule(
            0,
            72.0,
            (TaskPhase.LOWER, TaskPhase.CLOSE_FINGERS, TaskPhase.VERIFY_GRASP, TaskPhase.LIFT),
            bridge_ohm=40000.0,
        ),
    ),
)


class TestEstimatorCalls:
    """run_scenario estimates a sample once: a sample that leaves its sensor's filter where it was repeats its row.

    A channel builds a new tuple exactly when it estimates, and hands back the tuple before it otherwise, so the
    fresh tuples it returns count its estimates.
    """

    @pytest.mark.parametrize("name,calls,rows", [("no_scissors", 4, 560), ("scissors_regrasp", 257, 760)])
    def test_shipped_config_estimator_calls(self, monkeypatch, name, calls, rows):
        config = load_config(REPO / "configs" / "default.yaml")
        scenario = load_scenario(REPO / "scenarios" / f"{name}.yaml", config)
        estimated = []
        original = nerveline.controller._channel

        def counting(a, calibration):
            channel = original(a, calibration)
            last = None

            def counted(raw):
                nonlocal last
                sample = channel(raw)
                if sample is not last:
                    estimated.append(sample)
                    last = sample
                return sample

            return counted

        monkeypatch.setattr(nerveline.controller, "_channel", counting)
        result = run_scenario(scenario, config, {i: auto_calibration(spec) for i, spec in config.sensors.items()})
        assert result.outcome == scenario.expected_outcome
        assert (len(estimated), len(result.rows)) == (calls, rows)


class TestStepHistories:
    """run_scenario hands step the (p, regime) pairs of the dwell just ended, one per tick, per watched sensor."""

    @pytest.mark.parametrize("name,dwell_ticks", [("scissors_regrasp", 10), ("scissors_regrasp", 13), ("no_scissors", 10)])
    def test_one_dwell_of_pairs(self, monkeypatch, name, dwell_ticks):
        config = load_config(REPO / "configs" / "default.yaml")
        config = replace(config, controller=replace(config.controller, dwell_ticks=dwell_ticks))
        scenario = load_scenario(REPO / "scenarios" / f"{name}.yaml", config)
        handed = []
        original = nerveline.controller.step

        def recording(state, histories, controller, context):
            handed.append({i: list(history) for i, history in histories.items()})
            return original(state, histories, controller, context)

        monkeypatch.setattr(nerveline.controller, "step", recording)
        result = run_scenario(scenario, config, {i: auto_calibration(spec) for i, spec in config.sensors.items()})
        watched = {config.controller.watched_sensor_grasp, config.controller.watched_sensor_regrasp}
        assert len(handed) * dwell_ticks == result.ticks
        for decision, histories in enumerate(handed):
            assert set(histories) == watched
            for i, pairs in histories.items():
                dwell = [row for row in result.rows if row[2] == i][decision * dwell_ticks : (decision + 1) * dwell_ticks]
                assert pairs == [(p, regime) for *_, p, regime in dwell]


class TestPhaseCountCalls:
    """run_scenario counts a line on the first phase and then only when its contacts change."""

    @pytest.mark.parametrize(
        "name,calls",
        [
            ("no_scissors", 4),
            ("scissors_moved_back", 5),
            ("scissors_present", 5),
            ("scissors_regrasp", 10),
            ("multi_contact", 7),
        ],
    )
    def test_shipped_config_call_counts(self, monkeypatch, name, calls):
        config = load_config(REPO / "configs" / "default.yaml")
        if name == "multi_contact":
            scenario = MULTI_CONTACT
        else:
            scenario = load_scenario(REPO / "scenarios" / f"{name}.yaml", config)
        counted = []
        original = nerveline.controller._phase_count

        def counting(spec, contact_set):
            counted.append(contact_set)
            return original(spec, contact_set)

        monkeypatch.setattr(nerveline.controller, "_phase_count", counting)
        result = run_scenario(scenario, config, {i: auto_calibration(spec) for i, spec in config.sensors.items()})
        assert result.outcome == scenario.expected_outcome
        assert len(counted) == calls
