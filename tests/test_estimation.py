"""Filter, calibration, and contact-point estimator tests."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerveline import (
    CalibrationData,
    CalibrationError,
    ContactEstimate,
    FilterState,
    NerveLineSpec,
    Regime,
    auto_calibration,
    calibrate,
    detect_touch,
    estimate_p,
    filter_step,
    position_reached,
    read_calibration,
    smoothing_coefficient,
    write_calibration,
)
from nerveline.estimation import BODY_SPLIT_P, _channel

CAL = CalibrationData(v_max=1023, v_mid=236, v_min=93)

# 5 Hz cutoff sampled at 10 ms, frozen from 1 / (1 + 2*pi*0.05)
COEFFICIENT_A = 0.7609427763893117


class TestFilter:
    def test_coefficient_frozen_value(self):
        assert smoothing_coefficient(5.0, 10.0) == COEFFICIENT_A

    def test_coefficient_shrinks_with_cutoff(self):
        assert smoothing_coefficient(50.0, 10.0) < smoothing_coefficient(5.0, 10.0)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError, match="cutoff_hz"):
            smoothing_coefficient(0.0, 10.0)
        with pytest.raises(ValueError, match="dt_ms"):
            smoothing_coefficient(5.0, 0.0)
        with pytest.raises(ValueError, match="cutoff_hz: must be high enough to move the filter"):
            smoothing_coefficient(1e-300, 10.0)

    def test_first_sample_seeds_state(self):
        state = FilterState(coefficient_a=COEFFICIENT_A)
        state, filtered = filter_step(state, 612)
        assert filtered == 612.0
        assert state.last == 612.0

    def test_step_mixes_previous_and_raw(self):
        state = FilterState(coefficient_a=0.75, last=100.0)
        _, filtered = filter_step(state, 200)
        assert filtered == 125.0

    def test_geometric_convergence_to_step_input(self):
        # from rest, n samples of a constant leave residual a^n of the step
        state = FilterState(coefficient_a=0.9, last=0.0)
        for n in range(1, 40):
            state, filtered = filter_step(state, 1023)
            assert filtered == pytest.approx(1023.0 * (1.0 - 0.9**n), rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1023.0, allow_nan=False))
    def test_constant_input_is_fixed_point(self, raw):
        state = FilterState(coefficient_a=COEFFICIENT_A, last=raw)
        _, filtered = filter_step(state, raw)
        assert filtered == pytest.approx(raw, abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1023.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1023.0, allow_nan=False),
    )
    def test_output_between_previous_and_raw(self, last, raw):
        state = FilterState(coefficient_a=COEFFICIENT_A, last=last)
        _, filtered = filter_step(state, raw)
        assert min(last, raw) - 1e-9 <= filtered <= max(last, raw) + 1e-9

    def test_state_validation(self):
        with pytest.raises(ValueError, match="coefficient_a"):
            FilterState(coefficient_a=1.0)


class TestChannel:
    """_channel gives the values of filter_step and estimate_p, and its last tuple again exactly when the filter stands still."""

    @given(
        st.one_of(
            st.sampled_from([0.0, COEFFICIENT_A, 0.99, math.nextafter(1.0, 0.0)]),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
        # (count, samples) runs; a run of about 130 samples or more brings the default filter to a standstill
        st.lists(st.tuples(st.integers(0, 1100), st.integers(1, 300)), min_size=1, max_size=6),
    )
    @example(COEFFICIENT_A, [(93, 2), (1023, 300), (1022, 3), (1023, 2)])
    @example(0.0, [(612, 3), (93, 1), (612, 2)])
    @settings(max_examples=100, deadline=None)
    def test_matches_filter_step_and_estimate_p(self, a, runs):
        channel = _channel(a, CAL)
        state = FilterState(coefficient_a=a)
        before = None
        for count, samples in runs:
            for _ in range(samples):
                standing = state.last
                state, filtered = filter_step(state, count)
                expected = estimate_p(filtered, CAL)
                sample = channel(count)
                assert [repr(sample[0]), repr(sample[1]), sample[2]] == [
                    repr(filtered),
                    repr(expected.p),
                    expected.regime,
                ]
                assert (sample is before) == (filtered == standing)
                before = sample


class TestSweepChannel:
    """A channel at a = 0 gives `estimate_p` of every count it reads, as the sweep reads each distinct count's p."""

    def test_every_count_of_the_full_scale(self):
        channel = _channel(0.0, CAL)
        for counts in range(NerveLineSpec().adc_full_scale + 1):
            p, regime = channel(counts)[1:]
            expected = estimate_p(counts, CAL)
            assert (repr(p), regime) == (repr(expected.p), expected.regime)

    @given(
        st.lists(st.one_of(st.integers(0, 1023), st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=30)
    )
    @example([236.0, 236, math.nextafter(236.0, math.inf), 93.0, -0.0, 1022.9999999999995, 1023])
    @settings(max_examples=150)
    def test_drawn_values_in_turn(self, values):
        """One channel, as the sweep uses it: whatever it read before, each finite value passes through exactly."""
        channel = _channel(0.0, CAL)
        for v in values:
            p, regime = channel(v)[1:]
            expected = estimate_p(v, CAL)
            assert (repr(p), regime) == (repr(expected.p), expected.regime)


class TestCalibrate:
    def test_averages_last_window(self):
        open_stream = [0] * 50 + [1023] * 100
        tip_stream = [0] * 10 + [236] * 100
        base_stream = [93] * 100
        data = calibrate(open_stream, tip_stream, base_stream)
        assert (data.v_max, data.v_mid, data.v_min) == (1023, 236, 93)

    def test_rounds_means_to_int(self):
        data = calibrate([1000, 1001], [500, 501], [100, 100], window=2)
        assert (data.v_max, data.v_mid, data.v_min) == (1000, 500, 100)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError) as excinfo:
            calibrate([1023], [236], [93], window=0)
        assert str(excinfo.value) == "window must be >= 1, got 0"

    def test_short_stream_named_in_error(self):
        with pytest.raises(ValueError, match="base stream has 42"):
            calibrate([1023] * 100, [236] * 100, [93] * 42)

    def test_misordered_poses_rejected(self):
        with pytest.raises(CalibrationError, match="v_min < v_mid"):
            calibrate([100] * 100, [500] * 100, [900] * 100)
        with pytest.raises(CalibrationError, match="v_mid < v_max"):
            calibrate([500] * 100, [500] * 100, [100] * 100)

    def test_auto_calibration_of_default_line(self):
        data = auto_calibration(NerveLineSpec())
        assert (data.v_max, data.v_mid, data.v_min) == (1023, 236, 93)


class TestEstimateP:
    def test_anchor_points_exact(self):
        assert estimate_p(1023.0, CAL).p == 100.0
        assert estimate_p(236.0, CAL).p == 80.0
        assert estimate_p(93.0, CAL).p == 0.0
        assert estimate_p((236.0 + 93.0) / 2.0, CAL).p == 40.0

    def test_fingertip_branch_frozen_point(self):
        # halfway between v_mid and v_max in voltage lands at p = 90
        assert estimate_p(629.5, CAL).p == 90.0

    def test_regimes(self):
        assert estimate_p(1023.0, CAL).regime is Regime.NONE
        assert estimate_p(1100.0, CAL).regime is Regime.NONE
        assert estimate_p(1022.9, CAL).regime is Regime.FINGERTIP
        assert estimate_p(236.0, CAL).regime is Regime.BODY
        assert estimate_p(50.0, CAL).regime is Regime.BODY

    def test_clamps_below_base(self):
        estimate = estimate_p(10.0, CAL)
        assert estimate.p == 0.0
        assert estimate.regime is Regime.BODY

    @given(st.floats(min_value=0.0, max_value=1100.0, allow_nan=False))
    def test_range_and_branch_consistency(self, v):
        estimate = estimate_p(v, CAL)
        assert 0.0 <= estimate.p <= 100.0
        if estimate.regime is Regime.FINGERTIP:
            assert 80.0 < estimate.p < 100.0
        elif estimate.regime is Regime.BODY:
            assert estimate.p <= 80.0

    @given(
        st.floats(min_value=0.0, max_value=1100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1100.0, allow_nan=False),
    )
    def test_monotone_in_v(self, a, b):
        low, high = sorted((a, b))
        assert estimate_p(low, CAL).p <= estimate_p(high, CAL).p

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="v must be a number"):
            estimate_p(float("nan"), CAL)

    def test_continuous_at_v_mid(self):
        below = estimate_p(236.0, CAL).p
        above = estimate_p(236.0 + 1e-9, CAL).p
        assert abs(above - below) < 1e-9


def reference_estimate_p(v, calibration):
    """`estimate_p` as it was before the per-calibration map, kept verbatim as the reference."""
    if math.isnan(v):
        raise ValueError(f"v must be a number, got {v}")
    v_max = float(calibration.v_max)
    v_mid = float(calibration.v_mid)
    v_min = float(calibration.v_min)
    if v >= v_max:
        return ContactEstimate(p=100.0, regime=Regime.NONE)
    if v > v_mid:
        tip_span = 100.0 - BODY_SPLIT_P
        p = 100.0 - (v_max - v) / (v_max - v_mid) * tip_span
        return ContactEstimate(p=p, regime=Regime.FINGERTIP)
    p = (v - v_min) / (v_mid - v_min) * BODY_SPLIT_P
    p = min(max(p, 0.0), BODY_SPLIT_P)
    return ContactEstimate(p=p, regime=Regime.BODY)


def _nudged(v, steps):
    """``v`` moved ``steps`` floats up (or down, if negative)."""
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.inf if steps > 0 else -math.inf)
    return v


@st.composite
def _triplet_and_value(draw):
    """An ordered (v_min, v_mid, v_max) and a value, often within a few ulps of a breakpoint."""
    bound = draw(st.sampled_from([4095, 2**20, 2**53]))
    # any strictly increasing triplet in [-bound, bound]: a base, then two positive gaps that fit
    v_min = draw(st.integers(-bound, bound - 2))
    v_mid = v_min + draw(st.integers(1, bound - 1 - v_min))
    triplet = (v_min, v_mid, v_mid + draw(st.integers(1, bound - v_mid)))
    breakpoint = float(draw(st.sampled_from(triplet)))
    v = draw(
        st.one_of(
            st.integers(-4, 4).map(lambda steps: _nudged(breakpoint, steps)),
            st.floats(-2.0, 2.0).map(lambda offset: breakpoint + offset),
            st.floats(triplet[0] - 1.0, triplet[2] + 1.0),
            st.floats(allow_nan=False),
        )
    )
    return triplet, v


CAL_TRIPLET = (CAL.v_min, CAL.v_mid, CAL.v_max)


class TestEstimatorMatchesReference:
    @given(_triplet_and_value())
    @example((CAL_TRIPLET, 1023.0))
    @example((CAL_TRIPLET, 236.0))
    @example((CAL_TRIPLET, 93.0))
    @example((CAL_TRIPLET, math.nextafter(1023.0, 0.0)))
    @example((CAL_TRIPLET, math.nextafter(1023.0, math.inf)))
    @example((CAL_TRIPLET, math.nextafter(236.0, 0.0)))
    @example((CAL_TRIPLET, math.nextafter(236.0, math.inf)))
    @example((CAL_TRIPLET, math.nextafter(93.0, 0.0)))
    @example((CAL_TRIPLET, math.nextafter(93.0, math.inf)))
    @example((CAL_TRIPLET, 1022.9999999999995))
    @example((CAL_TRIPLET, math.inf))
    @example((CAL_TRIPLET, -math.inf))
    @example(((0, 1, 2), -0.0))  # the body branch gives -0.0, which the clamp keeps
    @settings(max_examples=500)
    def test_same_p_and_regime(self, case):
        (v_min, v_mid, v_max), v = case
        calibration = CalibrationData(v_max=v_max, v_mid=v_mid, v_min=v_min)
        expected = reference_estimate_p(v, calibration)
        public = estimate_p(v, calibration)
        # a fresh channel at a = 0 passes v through exactly, so its map is checked on the same draws
        for p, regime in (_channel(0.0, calibration)(v)[1:], (public.p, public.regime)):
            assert repr(p) == repr(expected.p)
            assert regime is expected.regime

    def test_nan_still_rejected(self):
        with pytest.raises(ValueError, match="v must be a number, got nan"):
            estimate_p(math.nan, CAL)


class TestThresholds:
    def test_detect_touch_strictly_below(self):
        assert detect_touch(estimate_p(600.0, CAL))  # p ~ 89.25
        assert not detect_touch(estimate_p(1023.0, CAL))
        exactly_90 = ContactEstimate(p=90.0, regime=Regime.FINGERTIP)
        assert not detect_touch(exactly_90)

    def test_detect_touch_threshold_validation(self):
        estimate = estimate_p(600.0, CAL)
        with pytest.raises(ValueError, match="threshold_p"):
            detect_touch(estimate, threshold_p=0.0)
        with pytest.raises(ValueError, match="threshold_p"):
            detect_touch(estimate, threshold_p=100.0)

    def _history(self, p_values):
        return [ContactEstimate(p=p, regime=Regime.BODY) for p in p_values]

    def test_position_reached_waits_for_full_window(self):
        history = self._history([10.0] * 9)
        assert not position_reached(history, window_n=10)
        assert position_reached(self._history([10.0] * 10), window_n=10)

    def test_position_reached_uses_window_mean(self):
        history = self._history([100.0] * 10 + [45.0] * 10)
        assert position_reached(history)
        mixed = self._history([100.0] * 5 + [10.0] * 5)
        assert not position_reached(mixed)  # mean 55 is not below 50

    def test_position_reached_strictly_below(self):
        assert not position_reached(self._history([50.0] * 10))

    def test_position_reached_rejects_dropouts(self):
        # a lost-contact sample voids the hold even if the mean qualifies
        window = self._history([0.0] * 9)
        window.append(ContactEstimate(p=100.0, regime=Regime.NONE))
        assert not position_reached(window, window_n=10)

    def test_position_reached_validation(self):
        with pytest.raises(ValueError, match="window_n"):
            position_reached([], window_n=0)


class TestCalibrationFile:
    TABLE = {
        0: CalibrationData(1023, 236, 93),
        1: CalibrationData(1020, 240, 95),
    }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "calibration.txt"
        write_calibration(path, self.TABLE)
        assert read_calibration(path) == self.TABLE

    def test_exact_file_format(self, tmp_path):
        path = tmp_path / "calibration.txt"
        write_calibration(path, {0: CalibrationData(1023, 236, 93)})
        assert path.read_text() == "sensor=0\nv_max=1023\nv_mid=236\nv_min=93\n"

    @pytest.mark.parametrize(
        "content,message",
        [
            ("sensor=0\nv_max=1023\nv_mid=236\n", "incomplete sensor group"),
            ("sensor=0\nv_mid=236\nv_max=1023\nv_min=93\n", "line 2: expected key 'v_max'"),
            ("sensor=0\nv_max=10.5\nv_mid=2\nv_min=1\n", "line 2: expected an integer"),
            ("sensor=0\nv_max=1_023\nv_mid=236\nv_min=93\n", "line 2: expected an integer"),
            ("sensor=0\nv_max=1023\nv_mid= +220\nv_min=93\n", "line 3: expected an integer"),
            ("sensor=0\n\nv_max=1023\nv_mid=236\nv_min=93\n", "line 2: blank"),
            ("sensor zero\n", "line 1: expected key=value"),
            ("   \nsensor=0\nv_max=1023\nv_mid=236\nv_min=93\n", "line 1: blank"),
            # whitespace around a key or a value is not stripped
            ("  sensor=0\nv_max=1023\nv_mid=236\nv_min=93\n", "line 1: expected key 'sensor'"),
            ("sensor=0\nv_max=1023  \nv_mid=236\nv_min=93\n", "line 2: expected an integer"),
            ("sensor=0\n\tv_max=1023\nv_mid=236\nv_min=93\n", "line 2: expected key 'v_max'"),
            pytest.param(
                "sensor=0\nv_max=1" + "0" * 400 + "\n",
                "line 2: integer beyond the float range",
                id="beyond_float_range",
            ),
            (
                "sensor=0\nv_max=100\nv_mid=200\nv_min=93\n",
                "line 4: v_mid < v_max violated",
            ),
            (
                "sensor=0\nv_max=1023\nv_mid=236\nv_min=93\n"
                "sensor=0\nv_max=1023\nv_mid=236\nv_min=93\n",
                "line 8: duplicate sensor 0",
            ),
            # lines break only at newlines: other line breaks of str.splitlines() are value text
            pytest.param(
                "sensor=0\x0cv_max=1023\x0bv_mid=236\x1cv_min=93\n",
                "line 1: expected an integer",
                id="line_breaks_inside_a_line",
            ),
            *(
                pytest.param(
                    f"sensor=0\nv_max=1023{sep}\nv_mid=236\nv_min=93\n",
                    "line 2: expected an integer",
                    id=f"line_break_{ord(sep):#04x}",
                )
                for sep in "\x0b\x0c\x1c\x1d\x1e"
            ),
            pytest.param(
                "sensor=0\nv_max=1023\nv_mid=236\nv_min=93\n\n",
                "line 5: blank line not allowed",
                id="trailing_blank_line",
            ),
        ],
    )
    def test_malformed_files_name_the_line(self, tmp_path, content, message):
        path = tmp_path / "calibration.txt"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            read_calibration(path)

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"sensor=0\nv_max=1023\nv_mid=2\xb36\nv_min=93\n", "line 3: byte 0xb3 is not ASCII"),
            (b"sensor=0\r\nv_max=1023\r\n\xff", "line 3: byte 0xff is not ASCII"),
            (b"\x80sensor=0\n", "line 1: byte 0x80 is not ASCII"),
        ],
        ids=["lf", "crlf", "first_byte"],
    )
    def test_non_ascii_byte_names_the_line(self, tmp_path, content, message):
        path = tmp_path / "calibration.txt"
        path.write_bytes(content)
        with pytest.raises(ValueError) as raised:
            read_calibration(path)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "content,table",
        [
            (b"sensor=0\r\nv_max=1023\r\nv_mid=236\r\nv_min=93\r\n", {0: TABLE[0]}),
            (b"sensor=0\nv_max=1023\nv_mid=236\nv_min=93", {0: TABLE[0]}),
            (b"", {}),
        ],
        ids=["crlf", "no_final_newline", "empty"],
    )
    def test_accepted_line_endings(self, tmp_path, content, table):
        path = tmp_path / "calibration.txt"
        path.write_bytes(content)
        assert read_calibration(path) == table
