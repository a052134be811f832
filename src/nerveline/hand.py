"""Wire-driven hand model: pulley kinematics and postures.

Joints are driven by wires wound on motor pulleys, so wire displacement and
joint angle are related by x = r * theta.  The hand has five fingers; the
nerve lines on the index and middle fingers are configured as sensors, not
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .bounds import bounded, record
from .errors import ConfigError

FINGER_NAMES = ("thumb", "index", "middle", "ring", "little")
ACTUATOR_ROLES = ("bend", "extend", "internal_rotation")

DEFAULT_JOINT_LIMITS = (0.0, math.pi / 2)


@record(ConfigError)
class FingerSpec:
    """One finger of the hand, by name; actuators drive it as ``<name>_flexion``."""

    name: str

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        name = values.get("name", FINGER_NAMES[0])
        return [] if name in FINGER_NAMES else [f"name: unknown finger name {name!r}"]


@record(ConfigError)
class ActuatorSpec:
    """One wire actuator: pulley radius, role, and the joint it drives."""

    id: int = bounded(ge=0)
    role: str
    pulley_radius_mm: float = bounded(5.0, gt=0)
    joint_ref: str | None = None
    displacement_table: Mapping[str, float] | None = None

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        role = values.get("role", ACTUATOR_ROLES[0])
        return [] if role in ACTUATOR_ROLES else [f"role: unknown role {role!r}"]


@dataclass
class JointState:
    """Target joint angles in radians, keyed by finger for flexion."""

    flexion_rad: dict[str, float] = field(default_factory=dict)
    thumb_internal_rotation_rad: float = 0.0


@record(ConfigError)
class Hand:
    """A finger set plus its wire actuators; each defaults to the prototype's five fingers and seven wires."""

    fingers: tuple[FingerSpec, ...] = tuple(FingerSpec(name=name) for name in FINGER_NAMES)
    actuators: tuple[ActuatorSpec, ...] = (
        ActuatorSpec(id=0, role="bend", joint_ref="thumb_flexion"),
        ActuatorSpec(id=1, role="bend", joint_ref="index_flexion"),
        ActuatorSpec(id=2, role="bend", joint_ref="middle_flexion"),
        ActuatorSpec(id=3, role="extend", joint_ref="thumb_flexion"),
        ActuatorSpec(id=4, role="extend", joint_ref="index_flexion"),
        ActuatorSpec(id=5, role="extend", joint_ref="middle_flexion"),
        ActuatorSpec(id=6, role="internal_rotation", joint_ref="thumb_internal_rotation"),
    )

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        problems = [f"{name}: must not be empty" for name in ("fingers", "actuators") if values.get(name) == ()]
        ids = [a.id for a in values.get("actuators", ())]
        if len(set(ids)) != len(ids):
            problems.append(f"actuators: actuator ids must be unique, got {ids}")
        return problems


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
