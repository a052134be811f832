"""Circuit and sampling model tests for a single nerve line."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerveline import (
    OPEN,
    ContactPoint,
    ContactSet,
    NerveLineSpec,
    adc_quantize,
    resolve_contacts,
    sense,
    simulate_sweep,
    snap_to_spike,
    solve_line_resistance,
)
from nerveline.line import _CHUNK, _add_noise, _coins, _sweep_presses
from oracles import (
    chain_counts,
    clamped_counts,
    count_boundary_mm,
    divider_counts,
    nearest_spike,
    nodal_line_resistance,
    tip_boundary_quality,
    tip_counts,
)

SPEC = NerveLineSpec()

# Noise-free counts for firm presses at 0, 5, ..., 80 mm, frozen from the
# closed-form divider chain before the solver was written.
FIRM_COUNTS = [93, 103, 113, 123, 133, 143, 152, 161, 170, 179, 187, 196, 204, 212, 220, 228, 236]

positions = st.floats(min_value=0.0, max_value=80.0, allow_nan=False, allow_infinity=False)
bridges = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)


GRID_5MM = [5.0 * k for k in range(17)]

# the pitches where floor-and-add snapping went wrong, and pitches where it did not
PITCHES = [0.1, 0.3, 0.7, 1.2, 2.2, 3.3, 7 / 3, 2.5, 3.0, 5.0]


def ulps_from(x, steps):
    """The float ``steps`` representable values above ``x`` (below, when negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def near_count_boundaries(draw):
    """A firm press position on SPEC at, or a few floats either side of, where some count starts."""
    counts = draw(st.integers(FIRM_COUNTS[0] + 1, FIRM_COUNTS[-1]))
    return min(ulps_from(float(count_boundary_mm(SPEC, counts)), draw(st.integers(-2, 2))), 80.0)


PULLUP = Fraction(SPEC.pullup_ohm)


def near_tip_boundaries(to_float):
    """``to_float`` of the quality where some light tip count on SPEC starts, as a float or one either side of it.

    Light tip touches read from ``tip_counts(SPEC, 1)`` at quality 1 up to one below full scale.
    """
    counts = st.integers(tip_counts(SPEC, 1) + 1, SPEC.adc_full_scale - 1)
    boundaries = counts.map(lambda counts: float(to_float(tip_boundary_quality(SPEC, counts))))
    return st.tuples(boundaries, st.integers(-1, 1)).map(lambda probe: ulps_from(*probe))


@st.composite
def spike_cases(draw):
    """(spec, position): a drawn pitch, and a position anywhere or a few floats either side of a midpoint."""
    pitch = draw(st.one_of(st.sampled_from(PITCHES), st.floats(0.05, 20.0)))
    spec = NerveLineSpec(spike_pitch_mm=pitch)
    midpoint = draw(st.integers(0, int(80.0 / pitch))) * pitch + pitch / 2
    near_midpoint = ulps_from(midpoint, draw(st.integers(-3, 3)))
    position = draw(st.one_of(st.just(near_midpoint), positions))
    return spec, min(max(position, 0.0), 80.0)


def per_press_sweep(
    spec, positions, jitter_mm=0.0, repeats=1, rng=None, noise_sd_counts=0.0, quantize_to_spikes=True
):
    """`simulate_sweep` as a plain loop: its argument checks, then `sense` on every press."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not 0.0 <= jitter_mm < math.inf:
        raise ValueError(f"jitter_mm must be finite and non-negative, got {jitter_mm}")
    if jitter_mm > 0 and rng is None:
        raise ValueError("jitter_mm > 0 requires an rng")
    length = spec.effective_length_mm
    samples = []
    for position in positions:
        if not 0.0 <= position <= length:
            raise ValueError(f"position {position} outside [0, {length}]")
        for _ in range(repeats):
            touched = position
            if jitter_mm > 0:
                offset = -jitter_mm if rng.random() < 0.5 else jitter_mm
                touched = min(max(position + offset, 0.0), length)
            contact_set = ContactSet((ContactPoint(touched),), quantize_to_spikes=quantize_to_spikes)
            reading = sense(spec, contact_set, noise_sd_counts=noise_sd_counts, rng=rng)
            samples.append((touched, reading.counts))
    return samples


class CyclingRandom(random.Random):
    """``random()`` cycles through fixed values; ``getrandbits`` is still the Mersenne Twister's."""

    def __init__(self):
        super().__init__(0)
        self._values = itertools.cycle((0.75, 0.25, 0.5, 0.1, 0.9, 0.3, 0.6, 0.4, 0.45))

    def random(self):
        return next(self._values)


@st.composite
def sweep_cases(draw):
    """(spec, grid, seed, simulate_sweep keyword arguments) for the per-press comparison."""
    length = draw(st.one_of(st.just(80.0), st.floats(min_value=5.0, max_value=200.0)))
    pitch = draw(st.one_of(st.sampled_from([1.0, 2.5, 5.0]), st.floats(0.5, 20.0)))
    spec = NerveLineSpec(effective_length_mm=length, spike_pitch_mm=pitch)
    # half-pitch multiples put presses on spike midpoints, where the tie coin is drawn
    half_pitch = st.integers(0, int(2 * length / pitch)).map(lambda k: min(k * pitch / 2, length))
    grid = draw(st.lists(st.one_of(half_pitch, st.floats(0.0, length)), max_size=5))
    jitter_mm = draw(
        st.one_of(
            st.just(0.0),
            st.integers(1, 4).map(lambda k: k * pitch / 2),
            # off the half-pitch lattice: offsets from a half-pitch grid miss every midpoint
            st.tuples(st.integers(0, 4), st.floats(0.01, 0.99)).map(lambda t: (t[0] + t[1]) * pitch / 2),
            st.floats(0.01, 10.0),
            # both offsets clamp, one at each end of the line
            st.floats(length, 2.0 * length),
        )
    )
    kwargs = dict(
        jitter_mm=jitter_mm,
        repeats=draw(st.integers(1, 20)),
        noise_sd_counts=draw(st.one_of(st.just(0.0), st.floats(0.1, 50.0))),
        quantize_to_spikes=draw(st.booleans()),
    )
    return spec, grid, draw(st.integers(0, 2**32 - 1)), kwargs


class PlainSubclass(random.Random):
    """A subclass that changes nothing: the sweep draws its presses one by one, from the same generator."""


@st.composite
def tally_cases(draw):
    """(spec, grid, seed, generator class, `_sweep_presses` keyword arguments) for tallies against press order.

    Most cases are noise-free and spiked, from an exact `random.Random`: the presses drawn in chunks.
    """
    pitch = draw(st.one_of(st.sampled_from([1.0, 2.5, 5.0]), st.floats(0.5, 20.0)))
    spec = NerveLineSpec(spike_pitch_mm=pitch)
    spikes = st.integers(0, int(80.0 / pitch)).map(lambda k: min(k * pitch, 80.0))
    grid = draw(st.lists(st.one_of(spikes, st.sampled_from([0.0, 80.0]), st.floats(0.0, 80.0)), min_size=1, max_size=4))
    # an odd number of half pitches from a spike touches midpoints on both sides, and from 0 mm
    # (or 80 mm, on a pitch that divides the line) on one side only, as the other press clamps onto a spike
    odd_half_pitches = st.integers(0, 3).map(lambda k: (2 * k + 1) * pitch / 2)
    kwargs = dict(
        jitter_mm=draw(st.one_of(st.just(0.0), odd_half_pitches, st.floats(0.01, 10.0))),
        repeats=draw(st.integers(1, 50)),
        noise_sd_counts=draw(st.sampled_from([0.0, 0.0, 0.0, 3.0])),
        quantize_to_spikes=draw(st.sampled_from([True, True, False])),
    )
    generator = draw(st.sampled_from([random.Random, random.Random, PlainSubclass]))
    return spec, grid, draw(st.integers(0, 2**32 - 1)), generator, kwargs


class TestSpec:
    def test_default_constants(self):
        assert SPEC.body_limit_mm == 64.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("effective_length_mm", 0.0),
            ("spike_pitch_mm", -1.0),
            ("pullup_ohm", 0.0),
            ("body_fraction", 1.5),
            ("lead_offset_ohm", -1.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            NerveLineSpec(**{field: value})


class TestContactPoint:
    @pytest.mark.parametrize("bridge_ohm", [-1.0, math.inf, math.nan])
    def test_bridge_must_be_finite_and_non_negative(self, bridge_ohm):
        with pytest.raises(ValueError) as excinfo:
            ContactPoint(30.0, bridge_ohm)
        assert str(excinfo.value) == f"bridge_ohm must be finite and non-negative, got {bridge_ohm}"

    @pytest.mark.parametrize("position_mm", [-1.0, math.inf, math.nan])
    def test_position_must_be_finite_and_non_negative(self, position_mm):
        with pytest.raises(ValueError) as excinfo:
            ContactPoint(position_mm)
        assert str(excinfo.value) == f"position_mm must be finite and non-negative, got {position_mm}"


class TestSnap:
    def test_exact_spike_stays_put(self):
        for k in range(17):
            assert snap_to_spike(SPEC, 5.0 * k) == 5.0 * k

    def test_rounds_to_nearest(self):
        assert snap_to_spike(SPEC, 6.0) == 5.0
        assert snap_to_spike(SPEC, 9.0) == 10.0
        assert snap_to_spike(SPEC, 77.6) == 80.0
        # at a 0.1 mm pitch the float 2.45 lies above 24.5 * 0.1, so spike 25 is nearest
        assert snap_to_spike(NerveLineSpec(spike_pitch_mm=0.1), 2.45) == 2.5

    def test_midpoint_coin_flip(self):
        # Random(0) draws 0.844... -> upper; Random(1) draws 0.134... -> lower
        assert snap_to_spike(SPEC, 2.5, random.Random(0)) == 5.0
        assert snap_to_spike(SPEC, 2.5, random.Random(1)) == 0.0

    def test_midpoint_without_rng_rejected(self):
        with pytest.raises(ValueError, match="tie"):
            snap_to_spike(SPEC, 7.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            snap_to_spike(SPEC, 80.1)
        with pytest.raises(ValueError, match="outside"):
            snap_to_spike(SPEC, -0.1)

    @given(spike_cases())
    # the float 2.45 lies above 24.5 * 0.1, so spike 25 is nearest
    @example((NerveLineSpec(spike_pitch_mm=0.1), 2.45))
    # 0.35000000000000003 lies above 3.5 * 0.1: no tie, spike 4 is nearest
    @example((NerveLineSpec(spike_pitch_mm=0.1), 0.35000000000000003))
    @example((NerveLineSpec(spike_pitch_mm=0.1), 0.25))  # a true tie, spikes 2 and 3
    @settings(max_examples=300)
    def test_matches_fraction_oracle(self, case):
        spec, position = case
        spike, tie = nearest_spike(spec, position)
        spikes_mm = {min(k * spec.spike_pitch_mm, spec.effective_length_mm) for k in (spike, spike + tie)}
        if tie:
            with pytest.raises(ValueError, match="tie"):
                snap_to_spike(spec, position)
            with pytest.raises(ValueError, match="tie"):
                simulate_sweep(spec, [position])
        else:
            assert {snap_to_spike(spec, position)} == spikes_mm
        assert {snap_to_spike(spec, position, random.Random(seed)) for seed in (0, 1)} == spikes_mm

    @given(positions)
    def test_result_is_nearest_spike_in_range(self, position):
        snapped = snap_to_spike(SPEC, position, random.Random(7))
        assert 0.0 <= snapped <= SPEC.effective_length_mm
        assert snapped % SPEC.spike_pitch_mm == 0.0
        assert abs(snapped - position) <= SPEC.spike_pitch_mm / 2


class TestResolve:
    def test_merges_duplicates_keeping_smallest_bridge(self):
        contact_set = ContactSet(
            contacts=(
                ContactPoint(40.0, 500.0),
                ContactPoint(40.0, 100.0),
                ContactPoint(20.0, 0.0),
            ),
            quantize_to_spikes=False,
        )
        resolved = resolve_contacts(SPEC, contact_set)
        assert resolved == (ContactPoint(20.0, 0.0), ContactPoint(40.0, 100.0))

    def test_snapping_can_create_merges(self):
        contact_set = ContactSet(contacts=(ContactPoint(39.0, 300.0), ContactPoint(41.0, 200.0)))
        resolved = resolve_contacts(SPEC, contact_set)
        assert resolved == (ContactPoint(40.0, 200.0),)


class TestSolve:
    def test_empty_set_is_open(self):
        assert solve_line_resistance(SPEC, ContactSet()) == OPEN

    def test_base_press_reads_lead_offset(self):
        assert solve_line_resistance(SPEC, (ContactPoint(0.0),)) == 10_000.0

    def test_full_length_press(self):
        assert solve_line_resistance(SPEC, (ContactPoint(80.0),)) == 30_000.0

    def test_closest_firm_contact_dominates_exactly(self):
        near = solve_line_resistance(SPEC, (ContactPoint(20.0),))
        both = solve_line_resistance(SPEC, (ContactPoint(20.0), ContactPoint(60.0)))
        assert both == near

    def test_light_far_contact_pulls_resistance_down(self):
        alone = solve_line_resistance(SPEC, (ContactPoint(30.0, 5000.0),))
        with_far = solve_line_resistance(
            SPEC, (ContactPoint(30.0, 5000.0), ContactPoint(60.0, 2000.0))
        )
        assert with_far < alone

    def test_matches_nodal_oracle_two_bridged(self):
        contacts = [(20.0, 1000.0), (60.0, 2000.0)]
        folded = solve_line_resistance(SPEC, tuple(ContactPoint(p, b) for p, b in contacts))
        assert folded == float(nodal_line_resistance(SPEC, contacts))

    @given(
        st.lists(st.tuples(positions, st.one_of(st.just(0.0), bridges)), min_size=1, max_size=5)
    )
    @example([(30.0, 1e308), (50.0, 1e308)])  # the product a * b overflows
    @settings(max_examples=200, deadline=None)
    def test_matches_nodal_oracle(self, pairs):
        # the fold is exact, so its float is the oracle's, correctly rounded
        folded = solve_line_resistance(SPEC, tuple(ContactPoint(p, b) for p, b in pairs))
        assert folded == float(nodal_line_resistance(SPEC, pairs))

    def test_beyond_the_float_range_is_open(self):
        spec = NerveLineSpec(flat_rail_ohm_per_mm=1e308, string_rail_ohm_per_mm=1e308)
        assert solve_line_resistance(spec, (ContactPoint(80.0),)) == OPEN
        assert solve_line_resistance(spec, (ContactPoint(0.0),)) == 10_000.0
        # a closed line reads below full scale, however far out its exact resistance lies
        assert sense(spec, ContactSet((ContactPoint(80.0),))).counts == spec.adc_full_scale - 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            solve_line_resistance(SPEC, (ContactPoint(81.0),))


class TestAdc:
    def test_floor_quantization(self):
        # the pin voltage as a fraction of the supply: the ADC is ratiometric
        assert adc_quantize(SPEC, 0.0) == 0
        assert adc_quantize(SPEC, 1.0) == 1023
        assert adc_quantize(SPEC, 0.5) == 511  # 511.5 floors down

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^ratio 1\.02 outside \[0, 1\]$"):
            adc_quantize(SPEC, 1.02)
        with pytest.raises(ValueError, match=r"^ratio -0\.02 outside \[0, 1\]$"):
            adc_quantize(SPEC, -0.02)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            adc_quantize(SPEC, 0.5, noise_sd_counts=4.0)

    def test_noise_is_seeded_and_clamped(self):
        rng = random.Random(42)
        first = adc_quantize(SPEC, 0.5, noise_sd_counts=4.0, rng=rng)
        assert type(first) is int
        assert first == adc_quantize(SPEC, 0.5, noise_sd_counts=4.0, rng=random.Random(42))
        big = random.Random(3)
        for _ in range(200):
            counts = adc_quantize(SPEC, 1.0, noise_sd_counts=500.0, rng=big)
            assert 0 <= counts <= 1023

    def test_huge_noise_clamped_before_rounding(self):
        rng = random.Random(1)
        for _ in range(50):
            counts = adc_quantize(SPEC, 0.5, 1e308, rng)
            assert 0 <= counts <= SPEC.adc_full_scale

    def test_timestamp_carried(self):
        reading = sense(SPEC, ContactSet(), t_ms=70)
        assert (reading.t_ms, reading.counts) == (70, 1023)


@st.composite
def noise_cases(draw):
    """``(counts, full_scale, drawn)``, often at either end of the range and within a count of it."""
    full_scale = draw(st.integers(1, 4095))
    counts = draw(st.sampled_from([0, full_scale]) | st.integers(0, full_scale))
    return counts, full_scale, draw(st.floats(-1.0, 1.0) | st.floats())


class TestAddNoise:
    @given(noise_cases())
    @example((-0.0, 1023, -0.0))  # the one sum that is -0.0; at an int count, -0.0 sums to 0.0
    @example((0, 1023, -0.0))
    @example((0, 1023, 0.49999999999999994))
    @example((0, 1023, -0.49999999999999994))
    @example((0, 1023, 0.5))
    @example((0, 1023, -0.5))
    @example((1, 1023, -0.5))
    @example((1023, 1023, 0.49999999999999994))
    @example((1023, 1023, -0.49999999999999994))
    @example((1023, 1023, 0.5))
    @example((1022, 1023, 0.5))
    @example((1023, 1023, -0.5))
    @example((0, 1023, math.inf))
    @example((1023, 1023, -math.inf))
    @example((0, 1023, math.nan))
    @example((1023, 1023, math.nan))
    def test_clamps_as_min_max_then_round(self, case):
        counts, full_scale, drawn = case
        rng = SimpleNamespace(gauss=lambda mu, sigma: drawn)  # every draw is ``drawn``
        if math.isnan(drawn):
            with pytest.raises(ValueError):
                clamped_counts(counts + drawn, full_scale)
            with pytest.raises(ValueError):
                _add_noise(counts, 1.0, full_scale, rng)
            return
        got = _add_noise(counts, 1.0, full_scale, rng)
        assert type(got) is int  # the trace writes it with str()
        assert got == clamped_counts(counts + drawn, full_scale)


class TestSense:
    def test_open_line_reads_full_scale(self):
        assert sense(SPEC, ContactSet()).counts == 1023

    def test_firm_press_frozen_table(self):
        got = [
            sense(SPEC, ContactSet((ContactPoint(float(d)),))).counts
            for d in range(0, 81, 5)
        ]
        assert got == FIRM_COUNTS
        # on the smooth skin, either side of the boundaries of counts 223 (71.5 mm exactly) and 94
        boundaries = (math.nextafter(71.5, 0.0), 71.5, 0.47362755651237887, 0.4736275565123789)
        smooth = [sense(SPEC, ContactSet((ContactPoint(d),), quantize_to_spikes=False)).counts for d in boundaries]
        assert smooth == [222, 223, 93, 94]

    @given(st.one_of(positions, near_count_boundaries()))
    # 71.5 mm is exactly the boundary of count 223: R = 27,875 ohm and 1023 * R / (R + 100,000) = 223
    @example(71.5)
    @example(math.nextafter(71.5, 0.0))
    # the boundary of count 94 is no float: these are the floats either side of it
    @example(0.47362755651237887)
    @example(0.4736275565123789)
    def test_firm_press_matches_chain_oracle(self, position):
        contact_set = ContactSet((ContactPoint(position),), quantize_to_spikes=False)
        assert sense(SPEC, contact_set).counts == chain_counts(SPEC, position)

    def test_firm_tip_press_uses_network(self):
        # a hard press past the body limit still bridges the rails at full strength
        assert sense(SPEC, ContactSet((ContactPoint(70.0),))).counts == 220

    def test_light_tip_touch_scales_with_bridge(self):
        # quality 0.5 from a bridge equal to the pull-up
        contact_set = ContactSet((ContactPoint(70.0, 100_000.0),))
        assert sense(SPEC, contact_set).counts == tip_counts(SPEC, Fraction(1, 2)) == 629

    @given(near_tip_boundaries(lambda quality: quality))
    @example(0.9988269794721407)  # the float model read 236 for 237
    @example(0.0012707722385141742)  # and 1022 for 1021
    def test_light_tip_quality_matches_oracle(self, quality):
        contact_set = ContactSet((ContactPoint(70.0),))
        assert sense(SPEC, contact_set, fingertip_quality=quality).counts == tip_counts(SPEC, quality)

    @given(near_tip_boundaries(lambda quality: PULLUP / quality - PULLUP))
    @example(117.43981209630066)  # the float model read 236 for 237
    def test_light_tip_bridge_matches_oracle(self, bridge):
        # the smallest tip bridge decides the quality, pullup / (pullup + bridge)
        contact_set = ContactSet((ContactPoint(75.0, 2 * bridge), ContactPoint(70.0, bridge)))
        assert sense(SPEC, contact_set).counts == tip_counts(SPEC, PULLUP / (PULLUP + Fraction(bridge)))

    def test_fingertip_quality_override(self):
        contact_set = ContactSet((ContactPoint(70.0),))
        full = sense(SPEC, contact_set, fingertip_quality=1.0)
        assert full.counts == 236  # reads like a press at the insulation point
        faint = sense(SPEC, contact_set, fingertip_quality=0.01)
        assert faint.counts > 1000

    def test_quality_override_out_of_range(self):
        with pytest.raises(ValueError, match="fingertip_quality"):
            sense(SPEC, ContactSet(), fingertip_quality=0.0)
        with pytest.raises(ValueError, match="fingertip_quality"):
            sense(SPEC, ContactSet(), fingertip_quality=1.1)

    def test_body_contact_dominates_tip_touch(self):
        mixed = ContactSet((ContactPoint(20.0), ContactPoint(70.0, 100_000.0)))
        assert sense(SPEC, mixed).counts == sense(SPEC, ContactSet((ContactPoint(20.0),))).counts

    @given(st.lists(st.tuples(positions, st.one_of(st.just(0.0), bridges)), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_counts_always_in_range(self, pairs):
        contact_set = ContactSet(
            tuple(ContactPoint(p, b) for p, b in pairs), quantize_to_spikes=False
        )
        counts = sense(SPEC, contact_set).counts
        assert 0 <= counts <= SPEC.adc_full_scale

    @given(
        st.lists(
            st.one_of(
                st.tuples(positions, st.just(0.0)),
                st.tuples(st.floats(min_value=0.0, max_value=SPEC.body_limit_mm), bridges),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @example([(71.5, 0.0)])
    @example([(20.0, 1000.0), (71.5, 0.0)])
    @settings(max_examples=200, deadline=None)
    def test_network_presses_match_solver_chain(self, pairs):
        # firm presses anywhere and light ones on the body all go through the ladder,
        # and read the floor of the exact divider ratio of the nodal oracle's resistance
        contact_set = ContactSet(tuple(ContactPoint(p, b) for p, b in pairs), quantize_to_spikes=False)
        assert sense(SPEC, contact_set).counts == divider_counts(SPEC, nodal_line_resistance(SPEC, pairs))


class TestSweep:
    def test_repeats_and_timestamps(self):
        samples = simulate_sweep(SPEC, [0.0, 40.0], repeats=3)
        assert samples == [(0.0, 93)] * 3 + [(40.0, 170)] * 3

    def test_jitter_is_two_sided(self):
        samples = simulate_sweep(SPEC, [40.0], jitter_mm=2.5, repeats=200, rng=random.Random(5))
        touched = {touched_mm for touched_mm, _ in samples}
        assert touched == {37.5, 42.5}

    def test_jitter_clamps_at_ends(self):
        samples = simulate_sweep(SPEC, [0.0, 80.0], jitter_mm=2.5, repeats=50, rng=random.Random(5))
        assert all(0.0 <= touched_mm <= 80.0 for touched_mm, _ in samples)

    def test_same_seed_same_samples(self):
        kwargs = dict(jitter_mm=2.5, repeats=20, noise_sd_counts=2.0)
        first = simulate_sweep(SPEC, [10.0, 20.0], rng=random.Random(9), **kwargs)
        second = simulate_sweep(SPEC, [10.0, 20.0], rng=random.Random(9), **kwargs)
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            simulate_sweep(SPEC, [0.0], repeats=0)
        with pytest.raises(ValueError, match="jitter"):
            simulate_sweep(SPEC, [0.0], jitter_mm=-1.0)
        with pytest.raises(ValueError, match="rng"):
            simulate_sweep(SPEC, [0.0], jitter_mm=1.0)
        with pytest.raises(ValueError, match="outside"):
            simulate_sweep(SPEC, [90.0])

    @given(sweep_cases())
    # the shipped line on its 5 mm grid: at 2.5 mm every jittered press lands on a midpoint
    @example((SPEC, GRID_5MM, 3, dict(jitter_mm=2.5, repeats=20, quantize_to_spikes=True)))
    # at 1.3 mm no jittered press does
    @example((SPEC, GRID_5MM, 3, dict(jitter_mm=1.3, repeats=20, quantize_to_spikes=True)))
    @example((SPEC, GRID_5MM, 7, dict(jitter_mm=2.5, repeats=20, noise_sd_counts=8.0)))
    # 77.5 mm is a midpoint whose upper spike, 80 mm, clamps to the line end
    @example((NerveLineSpec(effective_length_mm=77.5), [77.5], 3, dict(jitter_mm=0.0, repeats=20)))
    # a 0.1 mm pitch, where 2.45 snaps to 2.5 and 0.25 ties
    @example((NerveLineSpec(spike_pitch_mm=0.1), [2.45, 0.25, 0.35000000000000003], 3, dict(repeats=20)))
    @example((NerveLineSpec(spike_pitch_mm=0.1), [2.4, 40.0], 3, dict(jitter_mm=0.05, repeats=20)))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_press_sense_loop(self, case):
        spec, grid, seed, kwargs = case
        rng = random.Random(seed)
        samples = simulate_sweep(spec, grid, rng=rng, **kwargs)
        ref_rng = random.Random(seed)
        assert samples == per_press_sweep(spec, grid, rng=ref_rng, **kwargs)
        assert rng.getstate() == ref_rng.getstate()

    @given(tally_cases())
    # chunk boundaries: the shipped grid, with midpoints on both sides inside and on one side at the ends
    @example((SPEC, [0.0, 40.0, 80.0], 5, random.Random, dict(jitter_mm=2.5, repeats=_CHUNK - 1)))
    @example((SPEC, [0.0, 40.0, 80.0], 5, random.Random, dict(jitter_mm=2.5, repeats=_CHUNK)))
    @example((SPEC, [0.0, 40.0, 80.0], 5, random.Random, dict(jitter_mm=2.5, repeats=_CHUNK + 1)))
    @example((SPEC, [40.0], 5, random.Random, dict(jitter_mm=7.5, repeats=_CHUNK + 1)))
    @example((SPEC, [2.5, 40.0], 5, random.Random, dict(jitter_mm=1.0, repeats=_CHUNK + 1)))
    @example((SPEC, [2.5, 40.0], 5, random.Random, dict(repeats=_CHUNK + 1)))
    @example((SPEC, [0.0, 42.5], 5, PlainSubclass, dict(jitter_mm=2.5, repeats=_CHUNK + 1)))
    @example((SPEC, [0.0, 42.5], 5, random.Random, dict(jitter_mm=2.5, repeats=_CHUNK + 1, noise_sd_counts=3.0)))
    @settings(max_examples=100, deadline=None)
    def test_tallies_match_press_order(self, case):
        spec, grid, seed, generator, kwargs = case
        rng, ref_rng = generator(seed), generator(seed)
        presses = _sweep_presses(
            spec,
            grid,
            kwargs.get("jitter_mm", 0.0),
            kwargs["repeats"],
            rng,
            kwargs.get("noise_sd_counts", 0.0),
            kwargs.get("quantize_to_spikes", True),
        )
        samples = simulate_sweep(spec, grid, rng=ref_rng, **kwargs)
        repeats = kwargs["repeats"]
        for row, (tally, in_turn) in enumerate(presses):
            assert in_turn is None
            tallied = Counter()
            for counts, times in tally:
                assert times >= 0
                tallied[counts] += times
            assert +tallied == Counter(counts for _, counts in samples[row * repeats : (row + 1) * repeats])
        assert rng.getstate() == ref_rng.getstate()

    def test_noisy_memory_does_not_grow_with_repeats(self):
        # one position of a noisy sweep, as `nerveline sweep` tallies it: without press order,
        # only a chunk of presses is held at a time
        def peak(repeats):
            tracemalloc.start()
            try:
                _sweep_presses(SPEC, [40.0], 2.5, repeats, random.Random(3), 3.0, True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(20_000), peak(200_000)
        assert abs(large - small) < 1_000_000, (small, large)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 300))
    @example(0, 1)
    @settings(max_examples=100)
    def test_bulk_coins_are_per_press_coins(self, seed, n):
        rng, ref = random.Random(seed), random.Random(seed)
        coins = _coins(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), 0, 1)
        assert [coins >> (8 * i + 7) & 1 for i in range(n)] == [ref.random() >= 0.5 for _ in range(n)]
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(jitter_mm=2.5, repeats=20),
            dict(jitter_mm=1.3, repeats=20),
            dict(jitter_mm=2.5, repeats=20, quantize_to_spikes=False),
            dict(repeats=20),
            dict(jitter_mm=2.5, repeats=20, noise_sd_counts=4.0),
        ],
        ids=["both_midpoints", "no_midpoints", "smooth", "no_jitter", "noisy"],
    )
    def test_subclass_draws_press_by_press(self, kwargs):
        # a subclass may override random(), so the sweep must not read getrandbits in its place
        grid = GRID_5MM + [2.5, 77.5]
        assert simulate_sweep(SPEC, grid, rng=CyclingRandom(), **kwargs) == per_press_sweep(
            SPEC, grid, rng=CyclingRandom(), **kwargs
        )

    @pytest.mark.parametrize(
        "grid,kwargs,with_rng",
        [
            ([0.0], dict(repeats=0), True),
            ([0.0], dict(jitter_mm=-1.0), True),
            ([0.0], dict(jitter_mm=math.nan), True),
            ([0.0], dict(jitter_mm=math.inf), True),
            ([0.0], dict(jitter_mm=1.0), False),
            ([0.0, 90.0], dict(), True),
            ([0.0], dict(noise_sd_counts=-1.0), True),
            ([0.0, 90.0], dict(noise_sd_counts=-1.0), True),
            ([0.0], dict(noise_sd_counts=2.0), False),
            ([2.5], dict(), False),
            ([2.5], dict(noise_sd_counts=-1.0), False),
            ([90.0], dict(noise_sd_counts=2.0), False),
        ],
        ids=[
            "repeats", "jitter_negative", "jitter_nan", "jitter_inf", "jitter_without_rng",
            "outside", "noise_negative", "noise_negative_before_later_outside",
            "noise_without_rng", "tie_without_rng", "tie_before_noise_negative",
            "outside_before_noise_without_rng",
        ],
    )
    def test_errors_match_per_press_loop(self, grid, kwargs, with_rng):
        with pytest.raises(ValueError) as expected:
            per_press_sweep(SPEC, grid, rng=random.Random(1) if with_rng else None, **kwargs)
        with pytest.raises(ValueError) as got:
            simulate_sweep(SPEC, grid, rng=random.Random(1) if with_rng else None, **kwargs)
        assert str(got.value) == str(expected.value)
