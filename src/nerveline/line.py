"""Electrical model of one resistive nerve line.

A nerve line is a pair of insulated conductive rails running the length of
a finger: a flat strip against the skeleton and a raised string woven along
the outside of the skin.  Both rails terminate at the finger base.  Pressing
the skin bridges the rails at the press position, so the resistance seen
from the base encodes how far from the base the press happened.  The line
is read through a pull-up divider and a microcontroller ADC.

Raised spikes sit on the string rail at a fixed pitch, so a physical press
lands on the nearest spike rather than at an arbitrary point.  Contact sets
model simultaneous presses; the bridged ladder network is folded exactly
from the most distal contact back to the base.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bounds import bounded, check_fields

OPEN = math.inf  # line resistance when nothing touches the line


@dataclass(frozen=True)
class NerveLineSpec:
    """Geometry and electrical constants of one sensor line.

    The default values describe the prototype line: 80 mm effective length,
    spikes every 5 mm, 250 ohm/mm combined rail resistance (50 flat + 200
    string), a 10 kohm lead offset between the connector and the start of
    the sensitive region, a 100 kohm pull-up, 5 V supply and a 10-bit ADC.
    """

    effective_length_mm: float = bounded(80.0, gt=0)
    spike_pitch_mm: float = bounded(5.0, gt=0)
    flat_rail_ohm_per_mm: float = bounded(50.0, gt=0)
    string_rail_ohm_per_mm: float = bounded(200.0, gt=0)
    lead_offset_ohm: float = bounded(10_000.0, ge=0)
    pullup_ohm: float = bounded(100_000.0, gt=0)
    supply_volts: float = bounded(5.0, gt=0)
    adc_full_scale: int = bounded(1023, gt=0)
    body_fraction: float = bounded(0.8, gt=0, le=1)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def rail_ohm_per_mm(self) -> float:
        """Combined per-mm resistance of the press loop (flat + string)."""
        return self.flat_rail_ohm_per_mm + self.string_rail_ohm_per_mm

    @property
    def total_line_ohm(self) -> float:
        """Loop resistance of the full sensitive region, lead excluded."""
        return self.rail_ohm_per_mm * self.effective_length_mm

    @property
    def body_limit_mm(self) -> float:
        """Distance from the base where the finger body ends and the tip begins."""
        return self.body_fraction * self.effective_length_mm


@dataclass(frozen=True)
class ContactPoint:
    """One press on the line.

    ``position_mm`` is measured from the finger base along the line.  A firm
    press shorts the rails (``bridge_ohm == 0``); a light touch leaves a
    residual bridge resistance.
    """

    position_mm: float
    bridge_ohm: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.position_mm) or self.position_mm < 0:
            raise ValueError(f"position_mm must be finite and non-negative, got {self.position_mm}")
        if not self.bridge_ohm >= 0:
            raise ValueError(f"bridge_ohm must be non-negative, got {self.bridge_ohm}")


@dataclass(frozen=True)
class ContactSet:
    """Simultaneous presses on one line.

    With ``quantize_to_spikes`` set, each press is snapped to the nearest
    spike before the network is solved, which is what the physical skin
    does.  Disabling it models a hypothetical smooth skin.
    """

    contacts: tuple[ContactPoint, ...] = ()
    quantize_to_spikes: bool = True


@dataclass(frozen=True)
class AdcReading:
    """One ADC sample: integer counts plus the sample timestamp."""

    t_ms: int
    counts: int


@dataclass(frozen=True)
class SweepSample:
    """One reading of a position sweep: commanded press, actual press, ADC value."""

    commanded_mm: float
    touched_mm: float
    reading: AdcReading


def snap_to_spike(spec: NerveLineSpec, position_mm: float, rng: random.Random | None = None) -> float:
    """Snap a press position to the nearest spike on the string rail.

    An exact midpoint between two spikes is resolved by a fair coin flip
    from ``rng``; this is the dominant source of reading variance near
    spike boundaries.  The result is clamped to the sensitive region.

    Args:
        spec: line geometry.
        position_mm: press position, must lie in [0, effective_length_mm].
        rng: seeded generator, required only when a midpoint tie occurs.

    Returns:
        The snapped position in mm, always a spike position within range.
    """
    if not 0.0 <= position_mm <= spec.effective_length_mm:
        raise ValueError(
            f"position_mm {position_mm} outside [0, {spec.effective_length_mm}]"
        )
    pitch = spec.spike_pitch_mm
    lower = math.floor(position_mm / pitch) * pitch
    upper = lower + pitch
    d_lower = position_mm - lower
    d_upper = upper - position_mm
    if d_lower < d_upper:
        snapped = lower
    elif d_upper < d_lower:
        snapped = upper
    else:
        if rng is None:
            raise ValueError("midpoint tie requires an rng to break it")
        snapped = lower if rng.random() < 0.5 else upper
    return min(max(snapped, 0.0), spec.effective_length_mm)


def resolve_contacts(
    spec: NerveLineSpec,
    contact_set: ContactSet,
    rng: random.Random | None = None,
) -> tuple[ContactPoint, ...]:
    """Snap, merge and sort a contact set into solver-ready points.

    Contacts that land on the same position are merged keeping the smallest
    bridge resistance.  The result is sorted base to tip.
    """
    points: dict[float, float] = {}
    for contact in contact_set.contacts:
        pos = contact.position_mm
        if contact_set.quantize_to_spikes:
            pos = snap_to_spike(spec, pos, rng)
        elif not 0.0 <= pos <= spec.effective_length_mm:
            raise ValueError(f"position_mm {pos} outside [0, {spec.effective_length_mm}]")
        if pos in points:
            points[pos] = min(points[pos], contact.bridge_ohm)
        else:
            points[pos] = contact.bridge_ohm
    return tuple(
        ContactPoint(pos, bridge) for pos, bridge in sorted(points.items())
    )


def _parallel(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b / (a + b)


def solve_line_resistance(
    spec: NerveLineSpec,
    contacts: ContactSet | tuple[ContactPoint, ...] | list[ContactPoint],
) -> float:
    """Resistance of the bridged ladder network seen from the base connector.

    The two rails plus the bridges form a ladder, which folds exactly by
    series-parallel reduction from the most distal contact back to the
    base.  Between adjacent contacts both rail segments are in series with
    everything beyond them, so each fold step adds the combined per-mm
    resistance times the span.

    Args:
        contacts: solver-ready points; a ContactSet is resolved first
            (without an rng, so midpoint ties are rejected).

    Returns:
        Resistance in ohms, or OPEN (infinity) for an empty contact set.
    """
    if isinstance(contacts, ContactSet):
        points = resolve_contacts(spec, contacts)
    else:
        merged: dict[float, float] = {}
        for contact in contacts:
            if not 0.0 <= contact.position_mm <= spec.effective_length_mm:
                raise ValueError(
                    f"position_mm {contact.position_mm} outside [0, {spec.effective_length_mm}]"
                )
            if contact.position_mm in merged:
                merged[contact.position_mm] = min(merged[contact.position_mm], contact.bridge_ohm)
            else:
                merged[contact.position_mm] = contact.bridge_ohm
        points = tuple(ContactPoint(p, b) for p, b in sorted(merged.items()))
    if not points:
        return OPEN
    beyond = points[-1].bridge_ohm
    for i in range(len(points) - 2, -1, -1):
        span = points[i + 1].position_mm - points[i].position_mm
        beyond = _parallel(points[i].bridge_ohm, beyond + spec.rail_ohm_per_mm * span)
    return spec.lead_offset_ohm + spec.rail_ohm_per_mm * points[0].position_mm + beyond


def divider_voltage(spec: NerveLineSpec, line_ohm: float) -> float:
    """Voltage at the ADC pin for a given line resistance.

    The line sits below a pull-up to the supply, so an open line reads the
    full supply and a short would read zero.
    """
    if not line_ohm >= 0:
        raise ValueError(f"line_ohm must be non-negative, got {line_ohm}")
    if math.isinf(line_ohm):
        return spec.supply_volts
    return spec.supply_volts * line_ohm / (line_ohm + spec.pullup_ohm)


def adc_quantize(
    spec: NerveLineSpec,
    volts: float,
    noise_sd_counts: float = 0.0,
    rng: random.Random | None = None,
    t_ms: int = 0,
) -> AdcReading:
    """Quantize a pin voltage to ADC counts, optionally with Gaussian noise.

    Counts are floor(volts / supply * full_scale); noise is added in count
    units, rounded, and clamped to the converter range.
    """
    if not 0.0 <= volts <= spec.supply_volts:
        raise ValueError(f"volts {volts} outside [0, {spec.supply_volts}]")
    if noise_sd_counts < 0:
        raise ValueError(f"noise_sd_counts must be non-negative, got {noise_sd_counts}")
    counts = math.floor(volts / spec.supply_volts * spec.adc_full_scale)
    if noise_sd_counts > 0:
        if rng is None:
            raise ValueError("noise_sd_counts > 0 requires an rng")
        counts = int(round(counts + rng.gauss(0.0, noise_sd_counts)))
        counts = min(max(counts, 0), spec.adc_full_scale)
    return AdcReading(t_ms=t_ms, counts=counts)


def bridge_quality(spec: NerveLineSpec, bridge_ohm: float) -> float:
    """Contact quality in (0, 1] implied by a bridge resistance; 1 is firm."""
    if not bridge_ohm >= 0:
        raise ValueError(f"bridge_ohm must be non-negative, got {bridge_ohm}")
    return spec.pullup_ohm / (spec.pullup_ohm + bridge_ohm)


def sense(
    spec: NerveLineSpec,
    contact_set: ContactSet,
    fingertip_quality: float | None = None,
    noise_sd_counts: float = 0.0,
    rng: random.Random | None = None,
    t_ms: int = 0,
) -> AdcReading:
    """Produce one ADC reading for a set of presses.

    Firm presses resolve through the exact ladder network at any position.
    Light touches on the fingertip region (beyond ``body_limit_mm``), where
    the string rail folds away from the flat rail and contact becomes
    unreliable, use a quality-scaled model instead: the pin voltage moves
    from the open-line value toward the full-length value in proportion to
    contact quality.  Quality comes from ``fingertip_quality`` when given,
    otherwise from the touch's own bridge resistance.  When both network
    and fingertip contributions exist, the lower voltage (the contact
    closer to the base) dominates, which is exactly what the single ADC
    pin reports.

    Args:
        spec: line geometry and electrical constants.
        contact_set: presses for this sample.
        fingertip_quality: optional override in (0, 1] for tip touches.
        noise_sd_counts: ADC noise standard deviation in counts.
        rng: seeded generator for snapping ties and noise.
        t_ms: timestamp recorded on the reading.

    Returns:
        The quantized reading.
    """
    if fingertip_quality is not None and not 0.0 < fingertip_quality <= 1.0:
        raise ValueError(f"fingertip_quality must be in (0, 1], got {fingertip_quality}")
    points = resolve_contacts(spec, contact_set, rng)
    network: list[ContactPoint] = []
    tip_touches: list[ContactPoint] = []
    for point in points:
        if point.position_mm > spec.body_limit_mm and not (
            fingertip_quality is None and point.bridge_ohm == 0.0
        ):
            tip_touches.append(point)
        else:
            network.append(point)
    candidates: list[float] = []
    if network:
        candidates.append(divider_voltage(spec, solve_line_resistance(spec, network)))
    if tip_touches:
        if fingertip_quality is not None:
            quality = fingertip_quality
        else:
            quality = max(bridge_quality(spec, p.bridge_ohm) for p in tip_touches)
        v_open = spec.supply_volts
        v_full = divider_voltage(spec, spec.lead_offset_ohm + spec.total_line_ohm)
        candidates.append(v_open - quality * (v_open - v_full))
    volts = min(candidates) if candidates else spec.supply_volts
    return adc_quantize(spec, volts, noise_sd_counts, rng, t_ms)


def simulate_sweep(
    spec: NerveLineSpec,
    positions: list[float] | tuple[float, ...],
    jitter_mm: float = 0.0,
    repeats: int = 1,
    rng: random.Random | None = None,
    noise_sd_counts: float = 0.0,
    quantize_to_spikes: bool = True,
) -> list[SweepSample]:
    """Press the line repeatedly along a position grid and record readings.

    Each repeat perturbs the commanded position by plus or minus
    ``jitter_mm`` (a fair coin per press), clamped to the line, modelling a
    probe that never lands exactly where commanded.  Presses are firm.

    Args:
        positions: commanded press positions, each within the line.
        jitter_mm: magnitude of the per-press placement error.
        repeats: presses per position, at least 1.
        rng: seeded generator; required when jitter, spike midpoint ties or
            noise need randomness.
        noise_sd_counts: ADC noise standard deviation in counts.
        quantize_to_spikes: press the spiked skin (True) or a smooth one.

    Returns:
        Samples in press order with consecutive timestamps.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if jitter_mm < 0:
        raise ValueError(f"jitter_mm must be non-negative, got {jitter_mm}")
    if jitter_mm > 0 and rng is None:
        raise ValueError("jitter_mm > 0 requires an rng")
    samples: list[SweepSample] = []
    t_ms = 0
    for position in positions:
        if not 0.0 <= position <= spec.effective_length_mm:
            raise ValueError(
                f"position {position} outside [0, {spec.effective_length_mm}]"
            )
        for _ in range(repeats):
            touched = position
            if jitter_mm > 0:
                offset = -jitter_mm if rng.random() < 0.5 else jitter_mm
                touched = min(max(position + offset, 0.0), spec.effective_length_mm)
            contact_set = ContactSet(
                contacts=(ContactPoint(touched),),
                quantize_to_spikes=quantize_to_spikes,
            )
            reading = sense(
                spec,
                contact_set,
                noise_sd_counts=noise_sd_counts,
                rng=rng,
                t_ms=t_ms,
            )
            samples.append(SweepSample(position, touched, reading))
            t_ms += 1
    return samples
