"""Wire-pulley kinematics and hand model tests."""

import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nerveline import (
    ActuatorSpec,
    ConfigError,
    Hand,
    posture_command,
    wire_displacement,
    wire_to_angle,
)

angles = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
radii = st.floats(min_value=1.0, max_value=20.0, allow_nan=False)


class TestWirePulley:
    def test_displacement_is_radius_times_angle(self):
        assert wire_displacement(math.pi / 2, 5.0) == 5.0 * math.pi / 2
        assert wire_displacement(0.0, 5.0) == 0.0

    @given(angles, radii)
    @example(theta=math.pi / 2, radius=5.875)
    def test_round_trip_within_limits(self, theta, radius):
        theta_back, clamped = wire_to_angle(wire_displacement(theta, radius), radius)
        assert not clamped
        assert theta_back == pytest.approx(theta, abs=1e-12)

    def test_clamps_beyond_limits(self):
        theta, clamped = wire_to_angle(100.0, 5.0)
        assert clamped
        assert theta == math.pi / 2
        theta, clamped = wire_to_angle(-1.0, 5.0)
        assert clamped
        assert theta == 0.0

    def test_custom_limits(self):
        theta, clamped = wire_to_angle(5.0, 5.0, limits=(0.0, 0.5))
        assert (theta, clamped) == (0.5, True)

    def test_validation(self):
        with pytest.raises(ConfigError, match="pulley_radius_mm"):
            wire_displacement(1.0, 0.0)
        with pytest.raises(ConfigError, match="pulley_radius_mm"):
            wire_to_angle(1.0, -5.0)
        with pytest.raises(ConfigError, match="limits"):
            wire_to_angle(1.0, 5.0, limits=(1.0, 1.0))


class TestHandModel:
    def test_default_hand_layout(self):
        hand = Hand()
        assert len(hand.actuators) == 7
        joints = [a.joint_ref for a in hand.actuators]  # three bend wires, their extend wires, the rotation
        assert joints == ["thumb_flexion", "index_flexion", "middle_flexion"] * 2 + ["thumb_internal_rotation"]

    def test_duplicate_actuator_ids_rejected(self):
        actuator = ActuatorSpec(id=0, joint_ref="index_flexion")
        with pytest.raises(ConfigError, match="unique"):
            Hand(actuators=(actuator, actuator))

    def test_actuator_validation(self):
        with pytest.raises(ConfigError, match="pulley_radius_mm"):
            ActuatorSpec(id=0, joint_ref="index_flexion", pulley_radius_mm=0.0)
        with pytest.raises(ConfigError, match="^id: must be >= 0, got -1$"):
            ActuatorSpec(id=-1, joint_ref="index_flexion")

    def test_finger_validation(self):
        # a joint is one of the five fingers' flexion joints or the thumb's internal rotation
        with pytest.raises(ConfigError, match="^joint_ref: unknown joint 'pinky_flexion'$"):
            ActuatorSpec(id=0, joint_ref="pinky_flexion")
        with pytest.raises(ConfigError, match="^joint_ref: unknown joint 'index_flexon'$"):
            ActuatorSpec(id=0, joint_ref="index_flexon")
        ActuatorSpec(id=0, joint_ref="little_flexion")

    @pytest.mark.parametrize("table", [None, {}, {"grasp": 6.5}, {"open": 0.0, "wave": 1.0}])
    def test_table_without_joint_covers_both_postures(self, table):
        message = f"^displacement_table: must cover grasp and open without a joint_ref, got {re.escape(repr(table))}$"
        with pytest.raises(ConfigError, match=message):
            ActuatorSpec(id=0, displacement_table=table)
        ActuatorSpec(id=0, joint_ref="index_flexion", displacement_table=table)


class TestPostureCommand:
    def test_derives_from_flexion_angle(self):
        command = posture_command("grasp", Hand().actuators, 0.5)
        assert set(command) == {0, 1, 2, 3, 4, 5, 6}
        assert command[1] == 2.5  # 5 mm pulley, 0.5 rad
        assert command[6] == 0.0  # the thumb's internal rotation stays at 0

    def test_table_wins_over_derivation(self):
        actuator = ActuatorSpec(
            id=0, joint_ref="index_flexion", displacement_table={"grasp": 9.0}
        )
        assert posture_command("grasp", (actuator,), 0.5) == {0: 9.0}

    def test_unknown_posture_names_actuator(self):
        actuator = ActuatorSpec(id=3, displacement_table={"grasp": 6.5, "open": 0.0})
        with pytest.raises(ConfigError, match="actuator 3.*'wave'"):
            posture_command("wave", (actuator,))

    def test_no_state_and_no_table_rejected(self):
        actuator = ActuatorSpec(id=2, joint_ref="index_flexion")
        with pytest.raises(ConfigError, match="actuator 2"):
            posture_command("grasp", (actuator,))

