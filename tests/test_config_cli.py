"""Configuration loading and command line harness tests."""

import textwrap
from pathlib import Path

import pytest

from nerveline import ConfigError, ScenarioError, TaskPhase, load_config, load_scenario
from nerveline.cli import main

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default.yaml"
SCENARIOS = REPO / "scenarios"

COEFFICIENT_A = 0.7609427763893117


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_shipped_default(self):
        config = load_config(DEFAULT_CONFIG)
        assert config.seed == 12345
        assert sorted(config.sensors) == [0, 1, 2, 3]
        assert config.filter_coefficient_a == COEFFICIENT_A
        assert config.controller.dwell_ticks == 10
        assert config.quantize_to_spikes is True
        assert config.calibration_file is None

    def test_minimal_config_uses_defaults(self, tmp_path):
        config = load_config(write(tmp_path, "c.yaml", "seed: 1\n"))
        assert sorted(config.sensors) == [0, 1, 2, 3]
        assert config.sensors[0].pullup_ohm == 100_000.0
        assert config.dt_ms == 10
        assert config.controller.max_retries == 2

    def test_missing_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed: required"):
            load_config(write(tmp_path, "c.yaml", "dt_ms: 10\n"))

    def test_field_paths_in_errors(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            sensors:
              - index: 0
                pullup_ohm: 0
            """,
        )
        with pytest.raises(ConfigError, match=r"sensors\[0\].pullup_ohm: must be > 0"):
            load_config(path)

    def test_all_violations_collected(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            noise_sd_counts: -1
            sensors:
              - index: 0
                supply_volts: 0
            """,
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        message = str(excinfo.value)
        assert "seed: required" in message
        assert "noise_sd_counts" in message
        assert r"sensors[0].supply_volts" in message

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sede: unknown key"):
            load_config(write(tmp_path, "c.yaml", "seed: 1\nsede: 2\n"))

    def test_filter_coefficient_direct(self, tmp_path):
        path = write(tmp_path, "c.yaml", "seed: 1\nfilter:\n  coefficient_a: 0.5\n")
        assert load_config(path).filter_coefficient_a == 0.5

    def test_filter_both_keys_rejected(self, tmp_path):
        path = write(
            tmp_path, "c.yaml", "seed: 1\nfilter:\n  coefficient_a: 0.5\n  cutoff_hz: 5\n"
        )
        with pytest.raises(ConfigError, match="not both"):
            load_config(path)

    def test_top_level_dt_flows_into_controller(self, tmp_path):
        config = load_config(write(tmp_path, "c.yaml", "seed: 1\ndt_ms: 20\n"))
        assert config.controller.dt_ms == 20
        explicit = write(
            tmp_path, "c2.yaml", "seed: 1\ndt_ms: 20\ncontroller:\n  dt_ms: 5\n"
        )
        assert load_config(explicit).controller.dt_ms == 5

    def test_hand_block_parsed(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            hand:
              actuators:
                - id: 0
                  role: bend
                  pulley_radius_mm: 10.0
                  displacement_table: {grasp: 6.5, open: 0.0}
            """,
        )
        config = load_config(path)
        assert len(config.hand.actuators) == 1
        actuator = config.hand.actuators[0]
        assert actuator.pulley_radius_mm == 10.0
        assert actuator.displacement_table == {"grasp": 6.5, "open": 0.0}
        # omitted finger list keeps the stock five fingers
        assert [f.name for f in config.hand.fingers] == [
            "thumb", "index", "middle", "ring", "little",
        ]

    def test_hand_defaults_when_absent(self, tmp_path):
        config = load_config(write(tmp_path, "c.yaml", "seed: 1\n"))
        assert len(config.hand.actuators) == 7
        assert config.hand.fingers[1].sensor_length_mm == 80.0

    def test_hand_field_paths_in_errors(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            hand:
              fingers:
                - name: pinky
              actuators:
                - id: 0
                  role: twist
            """,
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        message = str(excinfo.value)
        assert "hand.fingers[0]: unknown finger name 'pinky'" in message
        assert "hand.actuators[0]: actuator 0: unknown role 'twist'" in message

    def test_hand_duplicate_actuator_ids_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            hand:
              actuators:
                - {id: 3, role: bend}
                - {id: 3, role: extend}
            """,
        )
        with pytest.raises(ConfigError, match="hand.actuators: actuator ids must be unique"):
            load_config(path)

    def test_watched_sensor_must_exist(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            sensors:
              - index: 0
            controller:
              watched_sensor_regrasp: 1
            """,
        )
        with pytest.raises(ConfigError, match="watched_sensor_regrasp: sensor 1"):
            load_config(path)

    def test_duplicate_sensor_index_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            sensors:
              - index: 0
              - index: 0
            """,
        )
        with pytest.raises(ConfigError, match=r"sensors\[1\].index: duplicate"):
            load_config(path)

    def test_not_yaml_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(write(tmp_path, "c.yaml", "seed: [unclosed\n"))

    def test_non_mapping_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="top level"):
            load_config(write(tmp_path, "c.yaml", "- a\n- b\n"))


class TestLoadScenario:
    def test_shipped_scenarios_parse(self):
        config = load_config(DEFAULT_CONFIG)
        for name in ("no_scissors", "scissors_present", "scissors_moved_back", "scissors_regrasp"):
            scenario = load_scenario(SCENARIOS / f"{name}.yaml", config)
            assert scenario.name == name

    def test_regrasp_scenario_contents(self):
        config = load_config(DEFAULT_CONFIG)
        scenario = load_scenario(SCENARIOS / "scissors_regrasp.yaml", config)
        assert scenario.goal == "operate"
        slide_rule = next(r for r in scenario.rules if r.sensor == 1)
        assert slide_rule.slide_mm_per_step == -5.0
        assert TaskPhase.VERIFY_BASE in slide_rule.phases

    def test_unknown_phase_named_with_path(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            name: x
            goal: lift
            expected_outcome: lifted
            rules:
              - sensor: 0
                position_mm: 10.0
                phases: [VerifyGrasp, Liftt]
            """,
        )
        with pytest.raises(ScenarioError, match=r"rules\[0\].phases\[1\]: unknown phase 'Liftt'"):
            load_scenario(path, config)

    def test_rule_sensor_cross_checked(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            name: x
            goal: lift
            expected_outcome: lifted
            rules:
              - sensor: 7
                position_mm: 10.0
                phases: [Lift]
            """,
        )
        with pytest.raises(ScenarioError, match=r"rules\[0\].sensor: sensor 7"):
            load_scenario(path, config)

    def test_rule_position_cross_checked(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            name: x
            goal: lift
            expected_outcome: lifted
            rules:
              - sensor: 0
                position_mm: 90.0
                phases: [Lift]
            """,
        )
        with pytest.raises(ScenarioError, match=r"rules\[0\].position_mm: 90.0 beyond"):
            load_scenario(path, config)

    def test_bad_goal_and_outcome(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(tmp_path, "s.yaml", "name: x\ngoal: juggle\nexpected_outcome: maybe\n")
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path, config)
        assert "goal:" in str(excinfo.value)
        assert "expected_outcome:" in str(excinfo.value)

    def test_object_pose_shape(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            "name: x\ngoal: lift\nexpected_outcome: lifted\nobject_pose_mm: {x: 1.0}\n",
        )
        with pytest.raises(ScenarioError, match="object_pose_mm"):
            load_scenario(path, config)


class TestCliRun:
    @pytest.mark.parametrize(
        "scenario,outcome,steps",
        [
            ("scissors_present", "lifted", 50),
            ("no_scissors", "failed", 140),
            ("scissors_moved_back", "retried_then_lifted", 100),
            ("scissors_regrasp", "operated", 190),
        ],
    )
    def test_shipped_scenarios(self, tmp_path, capsys, scenario, outcome, steps):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(SCENARIOS / f"{scenario}.yaml"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == f"outcome={outcome} steps={steps}\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "t_ms,phase,sensor,raw,filtered,p,regime"
        assert len(lines) == 1 + steps * 4

    def test_outcome_mismatch_exits_one(self, tmp_path, capsys):
        scenario = write(
            tmp_path,
            "s.yaml",
            """\
            name: wrong_expectation
            goal: lift
            expected_outcome: failed
            rules:
              - sensor: 0
                position_mm: 70.0
                phases: [VerifyGrasp, Lift]
            """,
        )
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(scenario),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "outcome=lifted" in captured.out
        assert "expected failed, got lifted" in captured.err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = write(tmp_path, "c.yaml", "dt_ms: 10\n")
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(SCENARIOS / "no_scissors.yaml"),
            ]
        )
        assert code == 2
        assert "seed: required" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(tmp_path / "nope.yaml"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_text,scenario_text,path",
        [
            ("noise_sd_counts: .inf\n", None, "noise_sd_counts"),
            (
                "sensors:\n  - index: 0\n    effective_length_mm: .inf\n",
                None,
                "sensors[0].effective_length_mm",
            ),
            ("controller:\n  wrist_rotation_deg: .nan\n", None, "controller.wrist_rotation_deg"),
            (
                None,
                "rules:\n  - {sensor: 0, position_mm: 10.0, phases: [Lift], bridge_ohm: .inf}\n",
                "rules[0].bridge_ohm",
            ),
        ],
        ids=["noise_sd_counts", "effective_length_mm", "wrist_rotation_deg", "bridge_ohm"],
    )
    def test_non_finite_number_exits_two(self, tmp_path, capsys, config_text, scenario_text, path):
        config = DEFAULT_CONFIG
        if config_text is not None:
            config = write(tmp_path, "c.yaml", "seed: 1\n" + config_text)
        scenario = SCENARIOS / "scissors_present.yaml"
        if scenario_text is not None:
            header = "name: x\ngoal: lift\nexpected_outcome: lifted\n"
            scenario = write(tmp_path, "s.yaml", header + scenario_text)
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(scenario),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: must be a finite number" in err
        assert "Traceback" not in err

    def test_no_spikes_flag(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(SCENARIOS / "scissors_present.yaml"),
                "--out", str(tmp_path / "trace.csv"),
                "--no-spikes",
            ]
        )
        assert code == 0
        assert "outcome=lifted" in capsys.readouterr().out


class TestCliSweep:
    def test_writes_seventeen_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(DEFAULT_CONFIG), "--out", str(out)])
        assert code == 0
        assert "rows=17" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "position_mm,mean_p_spiked,var_p_spiked,mean_p_smooth,var_p_smooth"
        assert len(lines) == 18

    def test_no_jitter_no_variance(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--config", str(DEFAULT_CONFIG),
                "--out", str(out),
                "--jitter-mm", "0",
                "--repeats", "5",
            ]
        )
        for line in out.read_text().splitlines()[1:]:
            _, _, var_spiked, _, var_smooth = line.split(",")
            assert float(var_spiked) == 0.0
            assert float(var_smooth) == 0.0

    def test_unknown_sensor_exits_two(self, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(DEFAULT_CONFIG), "--sensor", "9", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "sensor 9" in capsys.readouterr().err


class TestCliReplay:
    def test_round_trip_matches_run_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(SCENARIOS / "scissors_regrasp.yaml"),
                "--out", str(trace),
            ]
        )
        frames = tmp_path / "frames.csv"
        trace_rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        frames.write_text(
            "t_ms,sensor,counts\n"
            + "".join(f"{row[0]},{row[2]},{row[3]}\n" for row in trace_rows)
        )
        replayed = tmp_path / "replay.csv"
        code = main(
            ["replay", "--config", str(DEFAULT_CONFIG), "--log", str(frames), "--out", str(replayed)]
        )
        assert code == 0
        replay_rows = [line.split(",") for line in replayed.read_text().splitlines()[1:]]
        assert len(replay_rows) == len(trace_rows)
        for trace_row, replay_row in zip(trace_rows, replay_rows):
            assert replay_row[3] == trace_row[4]  # filtered, exact text
            assert replay_row[4] == trace_row[5]  # p, exact text

    @pytest.mark.parametrize(
        "frame_lines,message",
        [
            ("bad,header,now\n0,0,1\n", "line 1: expected header"),
            ("t_ms,sensor,counts\n0,0\n", "line 2: expected 3 fields"),
            ("t_ms,sensor,counts\n0,0,abc\n", "line 2: fields must be integers"),
            ("t_ms,sensor,counts\n0,9,100\n", "line 2: sensor 9"),
            ("t_ms,sensor,counts\n0,0,2000\n", "line 2: counts 2000 outside"),
        ],
    )
    def test_malformed_log_exits_two(self, tmp_path, capsys, frame_lines, message):
        log = tmp_path / "frames.csv"
        log.write_text(frame_lines)
        code = main(
            ["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestCliCalibrate:
    def test_noise_free_output_exact(self, tmp_path):
        out = tmp_path / "calibration.txt"
        code = main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", str(out)])
        assert code == 0
        group = "v_max=1023\nv_mid=236\nv_min=93\n"
        expected = "".join(f"sensor={i}\n{group}" for i in range(4))
        assert out.read_text() == expected

    def test_calibration_file_feeds_run(self, tmp_path, capsys):
        calibration = tmp_path / "calibration.txt"
        main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", str(calibration)])
        config = write(
            tmp_path,
            "c.yaml",
            f"""\
            seed: 12345
            calibration_file: {calibration}
            """,
        )
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(SCENARIOS / "scissors_present.yaml"),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        assert code == 0
        assert "outcome=lifted steps=50" in capsys.readouterr().out

    def test_missing_sensor_in_calibration_file(self, tmp_path, capsys):
        calibration = tmp_path / "calibration.txt"
        calibration.write_text("sensor=0\nv_max=1023\nv_mid=236\nv_min=93\n")
        config = write(
            tmp_path,
            "c.yaml",
            f"""\
            seed: 12345
            calibration_file: {calibration}
            """,
        )
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(SCENARIOS / "no_scissors.yaml"),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        assert code == 2
        assert "no calibration for sensors [1, 2, 3]" in capsys.readouterr().err
