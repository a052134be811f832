"""Wire-driven hand model: pulley kinematics and postures.

Joints are driven by wires wound on motor pulleys, so wire displacement and
joint angle are related by x = r * theta.  The hand has seven wires: a bend
and an extend wire on each of the thumb, index and middle fingers, and one
for the thumb's internal rotation; a joint's bend and extend wires are
commanded alike.  An actuator names the joint it drives, one of the five
fingers' ``<finger>_flexion`` joints or ``thumb_internal_rotation``, or
gives its displacement per posture in a table.  The nerve lines on the
index and middle fingers are configured as sensors, not here.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from .bounds import bounded, record
from .errors import ConfigError

FINGER_NAMES = ("thumb", "index", "middle", "ring", "little")
JOINTS = (*(f"{finger}_flexion" for finger in FINGER_NAMES), "thumb_internal_rotation")
POSTURES = ("grasp", "open")  # the postures run_scenario commands, in that order

DEFAULT_JOINT_LIMITS = (0.0, math.pi / 2)


@record(ConfigError)
class ActuatorSpec:
    """One wire actuator: pulley radius, and the joint it drives or its displacement per posture."""

    id: int = bounded(ge=0)
    pulley_radius_mm: float = bounded(5.0, gt=0)
    joint_ref: str | None = None
    displacement_table: Mapping[str, float] | None = None

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        problems, joint = [], values.get("joint_ref")
        if joint is not None and joint not in JOINTS:
            problems.append(f"joint_ref: unknown joint {joint!r}")
        elif joint is None and "joint_ref" in values and "displacement_table" in values:
            table, needed = values["displacement_table"], " and ".join(POSTURES)
            if not set(POSTURES) <= set(table or ()):
                problems.append(f"displacement_table: must cover {needed} without a joint_ref, got {table!r}")
        return problems


@record(ConfigError)
class Hand:
    """The hand's wire actuators; the default is the prototype's seven wires."""

    actuators: tuple[ActuatorSpec, ...] = (  # bend wires 0-2, extend wires 3-5
        ActuatorSpec(id=0, joint_ref="thumb_flexion"),
        ActuatorSpec(id=1, joint_ref="index_flexion"),
        ActuatorSpec(id=2, joint_ref="middle_flexion"),
        ActuatorSpec(id=3, joint_ref="thumb_flexion"),
        ActuatorSpec(id=4, joint_ref="index_flexion"),
        ActuatorSpec(id=5, joint_ref="middle_flexion"),
        ActuatorSpec(id=6, joint_ref="thumb_internal_rotation"),
    )

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        problems = ["actuators: must not be empty"] if values.get("actuators") == () else []
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


def posture_command(
    posture: str,
    actuators: tuple[ActuatorSpec, ...],
    flexion_rad: float | None = None,
) -> dict[int, float]:
    """Wire displacements that realize a named posture.

    Each actuator contributes its table entry for the posture if it has
    one; otherwise the displacement of its joint through its pulley radius,
    the joint at ``flexion_rad`` for a ``<finger>_flexion`` joint and at 0.0
    for ``thumb_internal_rotation``.

    Raises:
        ConfigError: an actuator has no table entry for this posture, and
            no joint reference or no ``flexion_rad`` to derive one from.
    """
    command: dict[int, float] = {}
    for actuator in actuators:
        table, joint = actuator.displacement_table, actuator.joint_ref
        if table is not None and posture in table:
            command[actuator.id] = table[posture]
        elif joint is not None and flexion_rad is not None:
            theta = flexion_rad if joint.endswith("_flexion") else 0.0
            command[actuator.id] = wire_displacement(theta, actuator.pulley_radius_mm)
        else:
            raise ConfigError(f"actuator {actuator.id}: no displacement for posture {posture!r}")
    return command
