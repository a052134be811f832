"""Wire-driven hand model: pulley kinematics and postures.

Joints are driven by wires wound on motor pulleys, so wire displacement and
joint angle are related by x = r * theta.  The hand has five fingers; the
nerve lines on the index and middle fingers are configured as sensors, not
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .bounds import bounded, check_fields
from .errors import ConfigError

FINGER_NAMES = ("thumb", "index", "middle", "ring", "little")
ACTUATOR_ROLES = ("bend", "extend", "internal_rotation")

DEFAULT_JOINT_LIMITS = (0.0, math.pi / 2)


@dataclass(frozen=True)
class FingerSpec:
    """One finger of the hand, by name; actuators drive it as ``<name>_flexion``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in FINGER_NAMES:
            raise ConfigError(f"unknown finger name {self.name!r}")


@dataclass(frozen=True)
class ActuatorSpec:
    """One wire actuator: pulley radius, role, and the joint it drives."""

    id: int = bounded(ge=0)
    role: str
    pulley_radius_mm: float = bounded(5.0, gt=0)
    joint_ref: str | None = None
    displacement_table: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        if self.role not in ACTUATOR_ROLES:
            raise ConfigError(f"actuator {self.id}: unknown role {self.role!r}")


@dataclass
class JointState:
    """Target joint angles in radians, keyed by finger for flexion."""

    flexion_rad: dict[str, float] = field(default_factory=dict)
    thumb_internal_rotation_rad: float = 0.0


@dataclass(frozen=True)
class Hand:
    """A finger set plus its wire actuators."""

    fingers: tuple[FingerSpec, ...]
    actuators: tuple[ActuatorSpec, ...]

    def __post_init__(self) -> None:
        ids = [a.id for a in self.actuators]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"actuator ids must be unique, got {ids}")


def wire_displacement(theta_rad: float, pulley_radius_mm: float) -> float:
    """Wire travel for a joint angle: x = r * theta."""
    if pulley_radius_mm <= 0:
        raise ConfigError(f"pulley_radius_mm must be positive, got {pulley_radius_mm}")
    return pulley_radius_mm * theta_rad


def wire_to_angle(
    displacement_mm: float,
    pulley_radius_mm: float,
    limits: tuple[float, float] = DEFAULT_JOINT_LIMITS,
) -> tuple[float, bool]:
    """Joint angle for a wire travel, clamped to the joint limits.

    Returns the clamped angle and a flag saying whether clamping happened.
    """
    if pulley_radius_mm <= 0:
        raise ConfigError(f"pulley_radius_mm must be positive, got {pulley_radius_mm}")
    low, high = limits
    if not low < high:
        raise ConfigError(f"joint limits must satisfy low < high, got {limits}")
    # Decide in displacement space: r * theta for theta within the limits can
    # divide back to an angle one rounding step outside them.
    clamped = not low * pulley_radius_mm <= displacement_mm <= high * pulley_radius_mm
    return min(max(displacement_mm / pulley_radius_mm, low), high), clamped


def _joint_angle(state: JointState, joint_ref: str) -> float:
    if joint_ref == "thumb_internal_rotation":
        return state.thumb_internal_rotation_rad
    finger, sep, kind = joint_ref.rpartition("_")
    if sep and kind == "flexion" and finger in state.flexion_rad:
        return state.flexion_rad[finger]
    raise KeyError(joint_ref)


def posture_command(
    posture: str,
    actuators: tuple[ActuatorSpec, ...],
    joint_state: JointState | None = None,
) -> dict[int, float]:
    """Wire displacements that realize a named posture.

    Each actuator contributes its table entry for the posture if it has
    one; otherwise the displacement is derived from ``joint_state`` through
    the actuator's joint reference and pulley radius.

    Raises:
        ConfigError: an actuator has neither a table entry nor a derivable
            joint angle for this posture.
    """
    command: dict[int, float] = {}
    for actuator in actuators:
        table = actuator.displacement_table
        if table is not None and posture in table:
            command[actuator.id] = table[posture]
            continue
        if joint_state is not None and actuator.joint_ref is not None:
            try:
                theta = _joint_angle(joint_state, actuator.joint_ref)
            except KeyError:
                raise ConfigError(
                    f"actuator {actuator.id}: no displacement for posture {posture!r} "
                    f"and joint {actuator.joint_ref!r} is not in the target state"
                ) from None
            command[actuator.id] = wire_displacement(theta, actuator.pulley_radius_mm)
            continue
        raise ConfigError(f"actuator {actuator.id}: no displacement for posture {posture!r}")
    return command


# Frozen, so one instance serves every config without a hand block.
_DEFAULT_HAND = Hand(
    fingers=tuple(FingerSpec(name=name) for name in FINGER_NAMES),
    actuators=(
        ActuatorSpec(id=0, role="bend", joint_ref="thumb_flexion"),
        ActuatorSpec(id=1, role="bend", joint_ref="index_flexion"),
        ActuatorSpec(id=2, role="bend", joint_ref="middle_flexion"),
        ActuatorSpec(id=3, role="extend", joint_ref="thumb_flexion"),
        ActuatorSpec(id=4, role="extend", joint_ref="index_flexion"),
        ActuatorSpec(id=5, role="extend", joint_ref="middle_flexion"),
        ActuatorSpec(id=6, role="internal_rotation", joint_ref="thumb_internal_rotation"),
    ),
)


def default_hand() -> Hand:
    """The prototype hand: five fingers and seven wires."""
    return _DEFAULT_HAND
