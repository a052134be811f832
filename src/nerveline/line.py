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
from the most distal contact back to the base.  The spike, the fold and
the noise-free count are each decided once, here, from the floats' exact
values: `_spike`, `_fold` and `_count`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from .bounds import bounded, record

OPEN = math.inf  # line resistance when nothing touches the line


@record()
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
        if not 0 <= self.bridge_ohm < math.inf:
            raise ValueError(f"bridge_ohm must be finite and non-negative, got {self.bridge_ohm}")


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
        raise ValueError(f"position_mm {position_mm} outside [0, {spec.effective_length_mm}]")
    k, tie = _spike(spec, position_mm)
    if tie:
        if rng is None:
            raise ValueError("midpoint tie requires an rng to break it")
        k += rng.random() >= 0.5
    return min(k * spec.spike_pitch_mm, spec.effective_length_mm)


def _spike(spec: NerveLineSpec, position_mm: float) -> tuple[int, bool]:
    """The spike nearest ``position_mm`` as its index k, at ``k * spike_pitch_mm``, and whether two tie.

    On a tie, an exact midpoint between two spikes, k is the lower one.  The
    floats' exact ratios decide both, so this holds for any pitch.
    """
    x_num, x_den = position_mm.as_integer_ratio()
    pitch_num, pitch_den = spec.spike_pitch_mm.as_integer_ratio()
    den = x_den * pitch_num
    k, rest = divmod(x_num * pitch_den, den)  # position / pitch is k + rest / den
    return k + (2 * rest > den), 2 * rest == den


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
        points[pos] = min(points.get(pos, math.inf), contact.bridge_ohm)  # bridges are finite
    return tuple(ContactPoint(pos, bridge) for pos, bridge in sorted(points.items()))


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
        contacts: presses; a ContactSet is resolved without an rng (so
            midpoint ties are rejected), a plain sequence without snapping.

    Returns:
        The exact resistance in ohms, correctly rounded, or OPEN (infinity)
        for an empty contact set or one beyond the float range.
    """
    if not isinstance(contacts, ContactSet):
        contacts = ContactSet(tuple(contacts), quantize_to_spikes=False)
    num, den = _fold(spec, resolve_contacts(spec, contacts))
    try:
        return num / den  # int / int is correctly rounded
    except (ZeroDivisionError, OverflowError):  # open, or beyond the float range
        return OPEN


def _fold(spec: NerveLineSpec, points: tuple[ContactPoint, ...] | list[ContactPoint]) -> tuple[int, int]:
    """Exact resistance of resolved points (merged, sorted base to tip) as ``(numerator, denominator)``.

    Every float is a binary fraction, so the ladder folds in integers from
    the most distal contact back to the base connector and rounds nowhere.
    The pair is not reduced, and an open line has denominator 0.
    """
    flat_num, flat_den = spec.flat_rail_ohm_per_mm.as_integer_ratio()
    string_num, string_den = spec.string_rail_ohm_per_mm.as_integer_ratio()
    rho_num, rho_den = flat_num * string_den + string_num * flat_den, flat_den * string_den
    num, den = 1, 0  # open beyond the most distal contact
    for k in reversed(range(len(points))):
        bridge_num, bridge_den = points[k].bridge_ohm.as_integer_ratio()
        num, den = bridge_num * num, bridge_num * den + num * bridge_den  # in parallel with this bridge
        x_num, x_den = points[k].position_mm.as_integer_ratio()
        near_num, near_den = points[k - 1].position_mm.as_integer_ratio() if k else (0, 1)
        span_num, span_den = x_num * near_den - near_num * x_den, x_den * near_den
        # in series with both rails back to the next contact nearer the base, or to the base
        num, den = num * rho_den * span_den + rho_num * span_num * den, den * rho_den * span_den
    lead_num, lead_den = spec.lead_offset_ohm.as_integer_ratio()
    return lead_num * den + num * lead_den, lead_den * den


def divider_voltage(spec: NerveLineSpec, line_ohm: float) -> float:
    """Voltage at the ADC pin for a given line resistance.

    The line sits below a pull-up to the supply, so an open line reads the
    full supply and a short would read zero.
    """
    if not line_ohm >= 0:
        raise ValueError(f"line_ohm must be non-negative, got {line_ohm}")
    if math.isinf(line_ohm):
        return spec.supply_volts
    numerator = spec.supply_volts * line_ohm
    if numerator == math.inf:  # line_ohm near the float maximum
        return spec.supply_volts / (1.0 + spec.pullup_ohm / line_ohm)
    return numerator / (line_ohm + spec.pullup_ohm)


def adc_quantize(
    spec: NerveLineSpec,
    volts: float,
    noise_sd_counts: float = 0.0,
    rng: random.Random | None = None,
) -> int:
    """Quantize a pin voltage to ADC counts, optionally with Gaussian noise.

    Counts are floor(volts / supply * full_scale); noise is added in count
    units, clamped to the converter range and rounded.  Returns the counts
    as an int; `sense` is what timestamps them in an `AdcReading`.
    """
    if not 0.0 <= volts <= spec.supply_volts:
        raise ValueError(f"volts {volts} outside [0, {spec.supply_volts}]")
    return _with_noise(spec, math.floor(volts / spec.supply_volts * spec.adc_full_scale), noise_sd_counts, rng)


def _with_noise(spec: NerveLineSpec, counts: int, noise_sd_counts: float, rng: random.Random | None) -> int:
    """``counts`` with the ADC noise of `adc_quantize`, its arguments checked first."""
    if noise_sd_counts < 0:
        raise ValueError(f"noise_sd_counts must be non-negative, got {noise_sd_counts}")
    if noise_sd_counts > 0:
        if rng is None:
            raise ValueError("noise_sd_counts > 0 requires an rng")
        counts = _add_noise(counts, noise_sd_counts, spec.adc_full_scale, rng)
    return counts


def _add_noise(counts: int, noise_sd_counts: float, full_scale: int, rng: random.Random) -> int:
    """``counts`` plus one Gaussian draw, clamped to the converter range and rounded."""
    return round(min(max(counts + rng.gauss(0.0, noise_sd_counts), 0), full_scale))


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

    Firm presses resolve through the exact ladder network at any position,
    and the network reads the floor of its exact divider ratio,
    ``floor(full_scale * R / (R + pullup))``.  Light touches on the
    fingertip region (beyond ``body_limit_mm``), where the string rail
    folds away from the flat rail and contact becomes unreliable, use a
    quality-scaled float model instead: the pin voltage moves from the
    open-line value toward the full-length value in proportion to contact
    quality, and reads ``floor(volts / supply * full_scale)``.  Quality
    comes from ``fingertip_quality`` when given, otherwise from the touch's
    own bridge resistance.  When both network and fingertip contributions
    exist, the lower count (the contact closer to the base) dominates,
    which is exactly what the single ADC pin reports.

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
    return AdcReading(t_ms, _with_noise(spec, _count(spec, points, fingertip_quality), noise_sd_counts, rng))


def _count(
    spec: NerveLineSpec,
    points: tuple[ContactPoint, ...],
    fingertip_quality: float | None = None,
) -> int:
    """Noise-free ADC count for resolved points, as `sense` describes it."""
    network: list[ContactPoint] = []
    tip_touches: list[ContactPoint] = []
    for point in points:  # a firm touch on the tip bridges the rails, unless a quality overrides it
        light = fingertip_quality is not None or point.bridge_ohm > 0
        (tip_touches if light and point.position_mm > spec.body_limit_mm else network).append(point)
    num, den = _fold(spec, network)
    pullup_num, pullup_den = spec.pullup_ohm.as_integer_ratio()
    count = spec.adc_full_scale * num * pullup_den // (num * pullup_den + pullup_num * den)
    if tip_touches:
        if fingertip_quality is None:
            fingertip_quality = max(bridge_quality(spec, p.bridge_ohm) for p in tip_touches)
        v_full = divider_voltage(spec, spec.lead_offset_ohm + spec.total_line_ohm)
        volts = spec.supply_volts - fingertip_quality * (spec.supply_volts - v_full)
        count = min(count, math.floor(volts / spec.supply_volts * spec.adc_full_scale))
    return count


# a byte's top bit, as the byte 0 or 1
_TOP_BIT = bytes(byte >> 7 for byte in range(256))


def _coins(rng: random.Random, n: int) -> bytes:
    """``n`` coins as bytes of 0 or 1, drawn as ``n`` calls of ``rng.random() >= 0.5`` would be.

    Only for an exact ``random.Random``, whose methods are CPython's own.
    There ``random()`` takes two 32-bit words and is ``>= 0.5`` exactly
    when the first word's top bit is set, and ``getrandbits`` fills its
    result from the least significant word up.  So coin i is the top bit
    of byte ``8i + 3`` of ``64n`` bits, and the generator ends where ``n``
    calls of ``random()`` would leave it.
    """
    return rng.getrandbits(64 * n).to_bytes(8 * n, "little")[3::8].translate(_TOP_BIT)


def _sweep_presses(
    spec: NerveLineSpec,
    positions: list[float] | tuple[float, ...],
    jitter_mm: float,
    repeats: int,
    rng: random.Random | None,
    noise_sd_counts: float,
    quantize_to_spikes: bool,
) -> list[tuple[list[tuple[float, int]], bytes | None]]:
    """The presses of `simulate_sweep`, per position, as ``(samples, codes)``.

    Noise-free, press i reads ``samples[codes[i]]``: a table of at most
    four samples indexed by ``2 * jitter coin + tie coin``.  With noise,
    ``codes`` is None and press i reads ``samples[i]``.  A position whose
    presses all draw the same number of coins from an exact
    ``random.Random`` draws them at once with `_coins`; any other position
    draws press by press.  Either way the generator ends in the same state.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not 0.0 <= jitter_mm < math.inf:
        raise ValueError(f"jitter_mm must be finite and non-negative, got {jitter_mm}")
    if jitter_mm > 0 and rng is None:
        raise ValueError("jitter_mm > 0 requires an rng")
    length, pitch, full_scale = spec.effective_length_mm, spec.spike_pitch_mm, spec.adc_full_scale
    jittered, noisy = jitter_mm > 0, noise_sd_counts > 0
    bulk = not noisy and type(rng) is random.Random  # a subclass may override random()

    @functools.cache  # once per pressed position
    def counts(pressed: float) -> int:
        return _count(spec, (ContactPoint(pressed),))

    presses: list[tuple[list[tuple[float, int]], bytes | None]] = []
    for position in positions:
        if not 0.0 <= position <= length:
            raise ValueError(f"position {position} outside [0, {length}]")
        offsets = (-jitter_mm, jitter_mm) if jittered else ()
        touched_at = [min(max(position + offset, 0.0), length) for offset in offsets] or [position]
        table = []  # per jitter coin, the samples at the lower and at the upper spike
        ties = []  # per jitter coin, whether a tie coin follows it
        for touched in touched_at:
            if quantize_to_spikes:
                k, tie = _spike(spec, touched)
                if tie and rng is None:
                    raise ValueError("midpoint tie requires an rng to break it")
                lower, upper = min(k * pitch, length), min((k + tie) * pitch, length)
            else:
                tie, lower, upper = False, touched, touched
            table += (touched, counts(lower)), (touched, counts(upper))
            ties.append(tie)
        if noise_sd_counts < 0 or (noisy and rng is None):
            _with_noise(spec, 0, noise_sd_counts, rng)  # raises its own error, as at a press
        if bulk and ties[0] == ties[-1]:  # every press draws the same number of coins
            draws = jittered + ties[0]
            coins = _coins(rng, draws * repeats)
            jitter_coins, tie_coins = (
                (coins[::2], coins[1::2]) if draws == 2 else (coins, b"") if jittered else (b"", coins)
            )
            code_bits = int.from_bytes(jitter_coins, "little") << 1 | int.from_bytes(tie_coins, "little")
            presses.append((table, code_bits.to_bytes(repeats, "little")))
            continue
        codes = bytearray()
        samples = []
        for _ in range(repeats):
            jitter = jittered and rng.random() >= 0.5
            code = 2 * jitter + (ties[jitter] and rng.random() >= 0.5)
            if noisy:
                touched, clean = table[code]
                samples.append((touched, _add_noise(clean, noise_sd_counts, full_scale, rng)))
            else:
                codes.append(code)
        presses.append((samples, None) if noisy else (table, bytes(codes)))
    return presses


def _in_press_order(
    presses: list[tuple[list[tuple[float, int]], bytes | None]],
) -> Iterator[tuple[float, int]]:
    """Every sample of `_sweep_presses`' result, in press order."""
    return itertools.chain.from_iterable(
        samples if codes is None else map(samples.__getitem__, codes) for samples, codes in presses
    )


def simulate_sweep(
    spec: NerveLineSpec,
    positions: list[float] | tuple[float, ...],
    jitter_mm: float = 0.0,
    repeats: int = 1,
    rng: random.Random | None = None,
    noise_sd_counts: float = 0.0,
    quantize_to_spikes: bool = True,
) -> list[tuple[float, int]]:
    """Press the line repeatedly along a position grid and record readings.

    Each repeat perturbs the commanded position by plus or minus
    ``jitter_mm`` (a fair coin per press), clamped to the line, modelling a
    probe that never lands exactly where commanded.  Presses are firm, so
    each reading is what `sense` gives for that one press.  Each position
    tables its jitter outcomes: the touched position, whether it is a spike
    midpoint, and the noise-free counts of the spikes it can snap to.  A
    press then draws jitter coin, tie coin (midpoints only) and noise in
    that order, as `sense` would, and reads the tabled sample.  A
    noise-free position whose presses all draw the same number of coins
    draws them all at once, leaving ``rng`` as press-by-press draws would.

    Args:
        positions: commanded press positions, each within the line.
        jitter_mm: magnitude of the per-press placement error.
        repeats: presses per position, at least 1.
        rng: seeded generator; required when jitter, spike midpoint ties or
            noise need randomness.
        noise_sd_counts: ADC noise standard deviation in counts.
        quantize_to_spikes: press the spiked skin (True) or a smooth one.

    Returns:
        ``(touched_mm, counts)`` per press, in press order: where the probe
        actually pressed, and the ADC value.  The index is the sample time.
    """
    presses = _sweep_presses(spec, positions, jitter_mm, repeats, rng, noise_sd_counts, quantize_to_spikes)
    return list(_in_press_order(presses))
