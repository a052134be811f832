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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .bounds import bounded, record

OPEN = math.inf  # line resistance when nothing touches the line


@record()
class NerveLineSpec:
    """Geometry and electrical constants of one sensor line.

    The default values describe the prototype line: 80 mm effective length,
    spikes every 5 mm, 250 ohm/mm combined rail resistance (50 flat + 200
    string), a 10 kohm lead offset between the connector and the start of
    the sensitive region, a 100 kohm pull-up and a 10-bit ratiometric ADC,
    whose count is the pin's fraction of the supply whatever the supply is.
    """

    effective_length_mm: float = bounded(80.0, gt=0)
    spike_pitch_mm: float = bounded(5.0, gt=0)
    flat_rail_ohm_per_mm: float = bounded(50.0, gt=0)
    string_rail_ohm_per_mm: float = bounded(200.0, gt=0)
    lead_offset_ohm: float = bounded(10_000.0, ge=0)
    pullup_ohm: float = bounded(100_000.0, gt=0)
    adc_full_scale: int = bounded(1023, gt=0)
    body_fraction: float = bounded(0.8, gt=0, le=1)

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
    num, den = _fold(_ratios(spec), resolve_contacts(spec, contacts))
    try:
        return num / den  # int / int is correctly rounded
    except (ZeroDivisionError, OverflowError):  # open, or beyond the float range
        return OPEN


def _ratios(spec: NerveLineSpec) -> tuple[int, int, int, int, int, int, int]:
    """The constants a count is folded from, as exact integer ratios.

    ``(rho_num, rho_den, lead_num, lead_den, pullup_num, pullup_den,
    full_scale)``: both rails' ohms per mm, the lead offset and the pull-up.
    """
    flat_num, flat_den = spec.flat_rail_ohm_per_mm.as_integer_ratio()
    string_num, string_den = spec.string_rail_ohm_per_mm.as_integer_ratio()
    lead_num, lead_den = spec.lead_offset_ohm.as_integer_ratio()
    pullup_num, pullup_den = spec.pullup_ohm.as_integer_ratio()
    rho_num, rho_den = flat_num * string_den + string_num * flat_den, flat_den * string_den
    return rho_num, rho_den, lead_num, lead_den, pullup_num, pullup_den, spec.adc_full_scale


def _fold(ratios: tuple[int, ...], points: tuple[ContactPoint, ...] | list[ContactPoint]) -> tuple[int, int]:
    """Exact resistance of resolved points (merged, sorted base to tip) as ``(numerator, denominator)``.

    Every float is a binary fraction, so the ladder folds in integers from
    the most distal contact back to the base connector and rounds nowhere.
    ``ratios`` are the line's, from `_ratios`.  The pair is not reduced, and
    an open line has denominator 0.
    """
    rho_num, rho_den = ratios[0], ratios[1]
    num, den = 1, 0  # open beyond the most distal contact
    for k in reversed(range(len(points))):
        bridge_num, bridge_den = points[k].bridge_ohm.as_integer_ratio()
        num, den = bridge_num * num, bridge_num * den + num * bridge_den  # in parallel with this bridge
        if k:  # in series with both rails back to the next contact nearer the base
            x_num, x_den = points[k].position_mm.as_integer_ratio()
            near_num, near_den = points[k - 1].position_mm.as_integer_ratio()
            span_num, span_den = x_num * near_den - near_num * x_den, x_den * near_den
            num, den = num * rho_den * span_den + rho_num * span_num * den, den * rho_den * span_den
    return _from_base(ratios, points[0].position_mm if points else 0.0, num, den)


def _from_base(ratios: tuple[int, ...], position_mm: float, num: int, den: int) -> tuple[int, int]:
    """A network of ``num / den`` ohms at ``position_mm`` as seen from the base connector, unreduced.

    It is in series with both rails back to the base and with the lead, so
    R = lead + rho * x + num / den; a single firm press is ``num, den = 0, 1``.
    """
    rho_num, rho_den, lead_num, lead_den, _, _, _ = ratios
    x_num, x_den = position_mm.as_integer_ratio()
    near_den = lead_den * rho_den * x_den
    near_num = lead_num * rho_den * x_den + rho_num * x_num * lead_den  # lead + rho * x
    return near_num * den + num * near_den, near_den * den


def _divided(ratios: tuple[int, ...], num: int, den: int) -> int:
    """The noise-free count of a line of ``num / den`` ohms: ``floor(full_scale * R / (R + pullup))``."""
    _, _, _, _, pullup_num, pullup_den, full_scale = ratios
    return full_scale * num * pullup_den // (num * pullup_den + pullup_num * den)


def adc_quantize(
    spec: NerveLineSpec,
    ratio: float,
    noise_sd_counts: float = 0.0,
    rng: random.Random | None = None,
) -> int:
    """Quantize a pin voltage, as a fraction of the supply, to ADC counts, optionally with Gaussian noise.

    Counts are floor(ratio * full_scale); noise is added in count units,
    clamped to the converter range and rounded.  Returns the counts as an
    int; `sense` is what timestamps them in an `AdcReading`.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio {ratio} outside [0, 1]")
    return _with_noise(spec, math.floor(ratio * spec.adc_full_scale), noise_sd_counts, rng)


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
    v = counts + rng.gauss(0.0, noise_sd_counts)
    return 0 if v < 0 else full_scale if v > full_scale else round(v)  # NaN reaches round, which raises


def sense(
    spec: NerveLineSpec,
    contact_set: ContactSet,
    fingertip_quality: float | None = None,
    noise_sd_counts: float = 0.0,
    rng: random.Random | None = None,
    t_ms: int = 0,
) -> AdcReading:
    """Produce one ADC reading for a set of presses.

    Every noise-free count is the floor of one exact ratio.  Firm presses
    resolve through the exact ladder network at any position, and read
    ``floor(full_scale * R / (R + pullup))``.  Light touches on the
    fingertip region (beyond ``body_limit_mm``), where the string rail
    folds away from the flat rail and contact becomes unreliable, scale
    with contact quality q instead, from the open line toward a press at
    full length R_full: ``floor(full_scale * (1 - q * pullup / (R_full +
    pullup)))``.  q is ``fingertip_quality`` when given, otherwise
    ``pullup / (pullup + bridge)`` of the smallest tip bridge.  When both
    network and fingertip contributions exist, the lower count (the
    contact closer to the base) dominates, which is exactly what the
    single ADC pin reports.

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
    """Noise-free ADC count for resolved points, as `sense` describes it, from integers only."""
    network: list[ContactPoint] = []
    tip_touches: list[ContactPoint] = []
    for point in points:  # a firm touch on the tip bridges the rails, unless a quality overrides it
        light = fingertip_quality is not None or point.bridge_ohm > 0
        (tip_touches if light and point.position_mm > spec.body_limit_mm else network).append(point)
    ratios = _ratios(spec)
    count = _divided(ratios, *_fold(ratios, network))
    if tip_touches:
        _, _, _, _, pullup_num, pullup_den, full_scale = ratios
        if fingertip_quality is None:  # the smallest bridge's quality, P / (P + bridge)
            bridge_num, bridge_den = min(p.bridge_ohm for p in tip_touches).as_integer_ratio()
            q_num, q_den = pullup_num * bridge_den, pullup_num * bridge_den + bridge_num * pullup_den
        else:
            q_num, q_den = fingertip_quality.as_integer_ratio()
        full_num, full_den = _from_base(ratios, spec.effective_length_mm, 0, 1)  # R_full
        pullup = pullup_num * full_den  # P and R_full over one denominator, full_den * pullup_den
        loop = (full_num * pullup_den + pullup) * q_den  # (R_full + P) * q_den
        count = min(count, full_scale * (loop - q_num * pullup) // loop)
    return count


_Sample = tuple[float, int]  # a press as (touched_mm, counts)

# presses per getrandbits call and per tally update, so a sweep's memory does not grow with its repeats
_CHUNK = 1 << 14

# bit 7 of each byte of a chunk's coins, as `_coins` picks them
_TOP_BITS = int.from_bytes(b"\x80" * _CHUNK, "little")


def _coins(raw: bytes, first: int, every: int) -> int:
    """Coins ``first``, ``first + every``, ... of ``raw``, the little-endian bytes of a ``getrandbits`` draw.

    Only for an exact ``random.Random``, whose methods are CPython's own.
    There ``random()`` takes two 32-bit words and is ``>= 0.5`` exactly
    when the first word's top bit is set, and ``getrandbits`` fills its
    result from the least significant word up.  So coin i, what the i-th
    call of ``rng.random() >= 0.5`` would give, is bit ``64i + 31`` of
    ``rng.getrandbits(64 * n)``: the top bit of byte ``8i + 3``.  The
    generator ends where the ``n`` calls would leave it, and consecutive
    draws concatenate, so coins may be drawn in chunks.  The j-th coin
    picked is bit ``8j + 7`` of the result, and there are at most
    `_CHUNK` of them.
    """
    return int.from_bytes(raw[8 * first + 3 :: 8 * every], "little") & _TOP_BITS


def _sweep_presses(
    spec: NerveLineSpec,
    positions: list[float] | tuple[float, ...],
    jitter_mm: float,
    repeats: int,
    rng: random.Random | None,
    noise_sd_counts: float,
    quantize_to_spikes: bool,
    in_order: bool = False,
) -> list[tuple[Iterable[tuple[int, int]], Iterable[_Sample] | None]]:
    """The presses of `simulate_sweep`, per position, as ``(tally, samples)``.

    ``tally`` pairs ADC counts with how many presses read them; a count may
    occur in more than one pair.  ``samples`` are the presses in order when
    ``in_order``, else None.  Noise-free, each press reads one of at most
    four tabled samples, indexed by ``2 * jitter coin + tie coin``.  A
    position whose presses all draw the same number of coins from an exact
    ``random.Random`` draws them in chunks of `_CHUNK` presses with one
    ``getrandbits`` call each, and counts each tabled sample's presses by
    popcount; any other position draws press by press.  Either way the
    generator ends in the same state, and a tally is kept per chunk, so
    without ``in_order`` the memory a position takes does not grow with
    ``repeats``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not 0.0 <= jitter_mm < math.inf:
        raise ValueError(f"jitter_mm must be finite and non-negative, got {jitter_mm}")
    if jitter_mm > 0 and rng is None:
        raise ValueError("jitter_mm > 0 requires an rng")
    length, pitch, full_scale = spec.effective_length_mm, spec.spike_pitch_mm, spec.adc_full_scale
    jittered, noisy = jitter_mm > 0, noise_sd_counts > 0
    exact = type(rng) is random.Random  # a subclass may override random()
    ratios = _ratios(spec)

    @functools.cache  # once per pressed position
    def pressed_counts(pressed: float) -> int:
        return _divided(ratios, *_from_base(ratios, pressed, 0, 1))  # one firm press

    @functools.cache  # once per touched position: neighbouring positions' presses touch the same midpoints
    def outcomes(touched: float) -> tuple[_Sample, _Sample, bool]:
        """A press at ``touched``: its samples on the lower and on the upper spike, and whether a tie coin picks."""
        if not quantize_to_spikes:
            sample = touched, pressed_counts(touched)
            return sample, sample, False
        k, tie = _spike(spec, touched)
        if tie and rng is None:
            raise ValueError("midpoint tie requires an rng to break it")
        lower = touched, pressed_counts(min(k * pitch, length))
        return lower, (touched, pressed_counts(min((k + 1) * pitch, length))) if tie else lower, tie

    presses: list[tuple[Iterable[tuple[int, int]], Iterable[_Sample] | None]] = []
    for position in positions:
        if not 0.0 <= position <= length:
            raise ValueError(f"position {position} outside [0, {length}]")
        touched_at = (max(position - jitter_mm, 0.0), min(position + jitter_mm, length)) if jittered else (position,)
        table: list[_Sample] = []  # per jitter coin, the samples at the lower and at the upper spike
        read: list[int] = []  # their counts
        ties = []  # per jitter coin, whether a tie coin follows it
        for touched in touched_at:
            lower, upper, tie = outcomes(touched)
            table += lower, upper
            read += lower[1], upper[1]
            ties.append(tie)
        if noise_sd_counts < 0 or (noisy and rng is None):
            _with_noise(spec, 0, noise_sd_counts, rng)  # raises its own error, as at a press
        if noisy:  # press by press, tallying each chunk's counts
            tally: Counter[int] = Counter()
            samples: list[_Sample] | None = [] if in_order else None
            for start in range(0, repeats, _CHUNK):
                chunk_codes, chunk_read = bytearray(), []
                for _ in itertools.repeat(None, min(_CHUNK, repeats - start)):  # allocates no int per press
                    jitter = jittered and rng.random() >= 0.5
                    code = 2 * jitter + (ties[jitter] and rng.random() >= 0.5)
                    chunk_codes.append(code)
                    chunk_read.append(_add_noise(read[code], noise_sd_counts, full_scale, rng))
                tally.update(chunk_read)
                if samples is not None:
                    samples += [(table[code][0], counts) for code, counts in zip(chunk_codes, chunk_read)]
            presses.append((tally.items(), samples))
            continue
        # noise-free, press i reads table[code i]: per chunk, count the presses of each code, and keep the
        # codes in order only when asked; when every press draws the same number of coins from an exact
        # random.Random, a chunk's coins are drawn at once and each code is counted by popcount
        at_once = exact and ties[0] == ties[-1]
        draws = jittered + ties[0]
        step = 2 if jittered else 1  # the code a press's first coin adds; a second, its tie coin, adds 1
        times = [repeats, 0, 0, 0]  # presses per code
        codes = []
        for start in range(0, repeats, _CHUNK):
            n = min(_CHUNK, repeats - start)
            if at_once:
                raw = rng.getrandbits(64 * draws * n).to_bytes(8 * draws * n, "little")
                firsts = _coins(raw, 0, draws) if draws else 0
                seconds = _coins(raw, 1, 2) if draws == 2 else 0
                both = (firsts & seconds).bit_count()
                times[step] += firsts.bit_count() - both
                times[1] += seconds.bit_count() - both
                times[3] += both
                if in_order:  # each press's code in its own byte
                    codes.append((firsts >> (8 - step) | seconds >> 7).to_bytes(n, "little"))
                continue
            chunk_codes = bytearray()
            for _ in itertools.repeat(None, n):  # allocates no int per press
                jitter = jittered and rng.random() >= 0.5
                chunk_codes.append(2 * jitter + (ties[jitter] and rng.random() >= 0.5))
            for code in 1, 2, 3:
                times[code] += chunk_codes.count(code)
            if in_order:
                codes.append(chunk_codes)
        times[0] -= sum(times[1:])
        in_turn = map(table.__getitem__, b"".join(codes)) if in_order else None
        presses.append((list(zip(read, times)), in_turn))
    return presses


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
    draws them in chunks, leaving ``rng`` as press-by-press draws would.

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
    presses = _sweep_presses(spec, positions, jitter_mm, repeats, rng, noise_sd_counts, quantize_to_spikes, True)
    return [sample for _, samples in presses for sample in samples]
