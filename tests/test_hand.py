"""Wire-pulley kinematics and hand model tests."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nerveline import (
    ActuatorSpec,
    ConfigError,
    FingerSpec,
    Hand,
    JointState,
    default_hand,
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
        hand = default_hand()
        assert len(hand.fingers) == 5
        assert len(hand.actuators) == 7
        roles = sorted(a.role for a in hand.actuators)
        assert roles == ["bend"] * 3 + ["extend"] * 3 + ["internal_rotation"]

    def test_sensors_on_index_and_middle_only(self):
        hand = default_hand()
        with_sensor = {f.name for f in hand.fingers if f.sensor_length_mm is not None}
        assert with_sensor == {"index", "middle"}
        lengths = {f.sensor_length_mm for f in hand.fingers if f.sensor_length_mm}
        assert lengths == {80.0}

    def test_joint_width_range(self):
        assert default_hand().fingers[0].joint_width_range_mm == (9.0, 14.0)

    def test_duplicate_actuator_ids_rejected(self):
        actuator = ActuatorSpec(id=0, role="bend")
        with pytest.raises(ConfigError, match="unique"):
            Hand(fingers=(), actuators=(actuator, actuator))

    def test_actuator_validation(self):
        with pytest.raises(ConfigError, match="role"):
            ActuatorSpec(id=0, role="twist")
        with pytest.raises(ConfigError, match="pulley_radius_mm"):
            ActuatorSpec(id=0, role="bend", pulley_radius_mm=0.0)

    def test_finger_validation(self):
        with pytest.raises(ConfigError, match="finger name"):
            FingerSpec(name="pinky")
        with pytest.raises(ConfigError, match="sensor_length_mm"):
            FingerSpec(name="index", sensor_length_mm=-1.0)


class TestPostureCommand:
    def test_derives_from_joint_state(self):
        hand = default_hand()
        state = JointState(flexion_rad={"thumb": 0.5, "index": 0.5, "middle": 0.5})
        command = posture_command("grasp", hand.actuators, state)
        assert set(command) == {0, 1, 2, 3, 4, 5, 6}
        assert command[1] == 2.5  # 5 mm pulley, 0.5 rad
        assert command[6] == 0.0  # internal rotation not set, defaults to 0

    def test_table_wins_over_derivation(self):
        actuator = ActuatorSpec(
            id=0, role="bend", joint_ref="index_flexion", displacement_table={"grasp": 9.0}
        )
        state = JointState(flexion_rad={"index": 0.5})
        assert posture_command("grasp", (actuator,), state) == {0: 9.0}

    def test_unknown_posture_names_actuator(self):
        actuator = ActuatorSpec(id=3, role="bend", joint_ref="index_flexion")
        with pytest.raises(ConfigError, match="actuator 3.*'open'"):
            posture_command("open", (actuator,), JointState(flexion_rad={"thumb": 0.1}))

    def test_no_state_and_no_table_rejected(self):
        actuator = ActuatorSpec(id=2, role="bend", joint_ref="index_flexion")
        with pytest.raises(ConfigError, match="actuator 2"):
            posture_command("grasp", (actuator,))

