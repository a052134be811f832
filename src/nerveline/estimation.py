"""Contact-point estimation from nerve-line ADC readings.

The raw counts from one line pass through an exponential smoothing filter,
then a three-point calibration maps the filtered value to a contact-point
ratio p in [0, 100]: 0 at the finger base, 80 at the insulation point where
the sensitive region ends, 100 at the nail tip.  Thresholds on p drive
touch detection and grasp-position checks.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .bounds import is_finite_number
from .errors import CalibrationError
from .line import ContactPoint, ContactSet, NerveLineSpec, sense

# Ratio assigned to a press at the insulation point; the remaining twenty
# points cover the folded-out fingertip band beyond it.
BODY_SPLIT_P = 80.0

# Low-pass cutoff of the smoothing filter unless a config sets one.
DEFAULT_CUTOFF_HZ = 5.0


class Regime(enum.Enum):
    """Which branch of the piecewise estimator produced a value."""

    NONE = "none"
    FINGERTIP = "fingertip"
    BODY = "body"


@dataclass(frozen=True)
class FilterState:
    """State of the first-order exponential smoother for one sensor.

    ``last`` is None until the first sample arrives; the first raw value
    seeds the filter so startup shows no artificial transient.
    """

    coefficient_a: float
    last: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.coefficient_a < 1.0:
            raise ValueError(f"coefficient_a: must be in [0, 1), got {self.coefficient_a}")


def smoothing_coefficient(cutoff_hz: float, dt_ms: float) -> float:
    """Smoothing coefficient of a first-order low-pass at a given cutoff.

    Discretizing an RC low-pass with time constant 1/(2*pi*fc) sampled
    every dt gives out = a * prev + (1 - a) * raw with
    a = 1 / (1 + 2*pi*fc*dt).  A cutoff so low that a rounds to 1, a
    filter that never moves, is rejected.
    """
    if cutoff_hz <= 0:
        raise ValueError(f"cutoff_hz: must be > 0, got {cutoff_hz}")
    if dt_ms <= 0:
        raise ValueError(f"dt_ms must be positive, got {dt_ms}")
    a = 1.0 / (1.0 + 2.0 * math.pi * cutoff_hz * (dt_ms / 1000.0))
    if a == 1.0:
        raise ValueError(f"cutoff_hz: must be high enough to move the filter at dt_ms {dt_ms}, got {cutoff_hz}")
    return a


def _smooth(a: float, last: float | None, raw: float) -> tuple[float, float | None]:
    """The smoother's output after ``raw`` (``last`` None seeds it), and ``raw`` if that output is ``last``.

    The output is a pure function of ``(last, raw)``, so once a count leaves
    the filter where it was, every later sample of that count does too: the
    second value is the count the filter stands still at, else None.
    """
    filtered = float(raw) if last is None else a * last + (1.0 - a) * raw
    return filtered, (raw if filtered == last else None)


def filter_step(state: FilterState, raw: float) -> tuple[FilterState, float]:
    """Advance the smoother by one sample.

    Args:
        state: current filter state.
        raw: new raw value (ADC counts).

    Returns:
        The next state and the filtered value.
    """
    filtered, _ = _smooth(state.coefficient_a, state.last, raw)
    return replace(state, last=filtered), filtered


@dataclass(frozen=True)
class CalibrationData:
    """Reference counts for the three calibration poses of one line.

    v_max: no contact (open line), v_mid: press at the insulation point,
    v_min: press at the finger base.
    """

    v_max: int
    v_mid: int
    v_min: int

    def __post_init__(self) -> None:
        if not self.v_min < self.v_mid:
            raise CalibrationError(
                f"v_min < v_mid violated (v_min={self.v_min}, v_mid={self.v_mid})"
            )
        if not self.v_mid < self.v_max:
            raise CalibrationError(
                f"v_mid < v_max violated (v_mid={self.v_mid}, v_max={self.v_max})"
            )


def calibrate(
    open_stream: Sequence[int],
    fingertip_stream: Sequence[int],
    base_stream: Sequence[int],
    window: int = 100,
) -> CalibrationData:
    """Average the last ``window`` samples of each calibration pose.

    Args:
        open_stream: counts recorded with nothing touching the line.
        fingertip_stream: counts with a firm press at the insulation point.
        base_stream: counts with a firm press at the finger base.
        window: samples to average per pose.

    Returns:
        The rounded reference triplet.

    Raises:
        ValueError: a stream is shorter than the window.
        CalibrationError: the averaged poses are not strictly ordered.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    streams = {"open": open_stream, "fingertip": fingertip_stream, "base": base_stream}
    means: dict[str, int] = {}
    for name, stream in streams.items():
        if len(stream) < window:
            raise ValueError(f"{name} stream has {len(stream)} samples; need >= {window}")
        means[name] = round(math.fsum(stream[-window:]) / window)  # statistics.fmean's bits, without its imports
    return CalibrationData(v_max=means["open"], v_mid=means["fingertip"], v_min=means["base"])


def auto_calibration(
    spec: NerveLineSpec,
    window: int = 100,
    noise_sd_counts: float = 0.0,
    rng: random.Random | None = None,
) -> CalibrationData:
    """Sense the open, fingertip and base poses ``window`` times each and calibrate.

    Without noise every sample of a pose is the same, so it is sensed at most once.
    """
    poses = (
        ContactSet(),
        ContactSet(contacts=(ContactPoint(spec.effective_length_mm),), quantize_to_spikes=False),
        ContactSet(contacts=(ContactPoint(0.0),), quantize_to_spikes=False),
    )
    samples = window if noise_sd_counts > 0 else min(window, 1)
    streams = [
        [sense(spec, pose, noise_sd_counts=noise_sd_counts, rng=rng).counts for _ in range(samples)]
        for pose in poses
    ]
    return calibrate(*streams, window=samples)


class ContactEstimate(NamedTuple):
    """Estimator output for one sample: the ratio and the branch that gave it."""

    p: float
    regime: Regime


def _estimator(calibration: CalibrationData) -> Callable[[float], tuple[float, Regime]]:
    """The three-point map of one calibration, v -> (p, regime), with its floats taken once.

    Piecewise linear in the triplet: values between v_mid and v_max land on
    the fingertip branch (p in (80, 100)); values at or below v_mid land on
    the body branch (p in [0, 80]), clamped at 0 below v_min.  Values at or
    above v_max mean no contact and report p = 100.  NaN is not checked.
    """
    v_max = float(calibration.v_max)
    v_mid = float(calibration.v_mid)
    v_min = float(calibration.v_min)
    tip_counts, body_counts = v_max - v_mid, v_mid - v_min
    tip_p, body_p = 100.0 - BODY_SPLIT_P, BODY_SPLIT_P
    none, fingertip, body = Regime.NONE, Regime.FINGERTIP, Regime.BODY

    def estimate(v: float) -> tuple[float, Regime]:
        if v >= v_max:
            return 100.0, none
        if v > v_mid:
            return 100.0 - (v_max - v) / tip_counts * tip_p, fingertip
        p = (v - v_min) / body_counts * body_p
        return (0.0 if p < 0.0 else body_p if p > body_p else p), body  # min(max(p, 0.0), body_p)

    return estimate


def estimate_p(v: float, calibration: CalibrationData) -> ContactEstimate:
    """Map a (filtered) ADC value in counts to the contact-point ratio (see `_estimator`).

    NaN is rejected with a ValueError.
    """
    if math.isnan(v):
        raise ValueError(f"v must be a number, got {v}")
    return ContactEstimate(*_estimator(calibration)(v))


def detect_touch(estimate: ContactEstimate, threshold_p: float = 90.0) -> bool:
    """True when the ratio has dropped below the touch threshold."""
    if not 0.0 < threshold_p < 100.0:
        raise ValueError(f"threshold_p must be in (0, 100), got {threshold_p}")
    return estimate.p < threshold_p


def position_reached(
    estimates: Sequence[ContactEstimate],
    threshold_p: float = 50.0,
    window_n: int = 10,
) -> bool:
    """True when the mean ratio over the last ``window_n`` estimates is below threshold.

    Averaging a window rather than testing single samples keeps the check
    robust against quantization flicker near the threshold.  False until
    the window has filled, and false if any sample in the window shows no
    contact at all: a window mean dragged down by dropouts is not a hold.
    """
    if not 0.0 < threshold_p < 100.0:
        raise ValueError(f"threshold_p must be in (0, 100), got {threshold_p}")
    if window_n < 1:
        raise ValueError(f"window_n must be >= 1, got {window_n}")
    if len(estimates) < window_n:
        return False
    window = estimates[-window_n:]
    if any(e.regime is Regime.NONE for e in window):
        return False
    return math.fsum(e.p for e in window) / window_n < threshold_p


_CAL_KEYS = ("sensor", "v_max", "v_mid", "v_min")


def write_calibration(path: str | Path, table: Mapping[int, CalibrationData]) -> None:
    """Write calibration triplets as flat key=value lines, one group per sensor."""
    lines: list[str] = []
    for sensor in sorted(table):
        data = table[sensor]
        lines.append(f"sensor={sensor}")
        lines.append(f"v_max={data.v_max}")
        lines.append(f"v_mid={data.v_mid}")
        lines.append(f"v_min={data.v_min}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_int(raw: str, lineno: int) -> int:
    try:
        value = int(raw, 10)
        if str(value) != raw:  # plain decimal, as write_calibration writes it
            raise ValueError
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {raw!r}") from None
    if not is_finite_number(value):
        raise ValueError(f"line {lineno}: integer beyond the float range")
    return value


def _read_lines(path: str | Path) -> list[str]:
    """The lines of an ASCII text file, broken only at ``\\n``; ``\\r\\n`` and ``\\r`` are read as ``\\n``.

    Raises:
        ValueError: a byte outside ASCII, named by its line number.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]  # read_text decodes the whole file in one call
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"line {lineno}: byte {exc.object[exc.start]:#04x} is not ASCII") from None
    lines = text.split("\n")
    if not lines[-1]:  # a final newline ends the last line and opens none
        lines.pop()
    return lines


def read_calibration(path: str | Path) -> dict[int, CalibrationData]:
    """Read calibration triplets written by write_calibration.

    The format is strict: groups of exactly four ``key=value`` lines in the
    order sensor, v_max, v_mid, v_min, with plain decimal integer values,
    no blank lines and no whitespace around a key or a value.

    Raises:
        ValueError: malformed line, wrong key order, duplicate sensor, or
            a triplet that fails the ordering check; messages carry the
            line number.
    """
    lines = _read_lines(path)
    table: dict[int, CalibrationData] = {}
    fields: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            raise ValueError(f"line {lineno}: blank line not allowed")
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        expected = _CAL_KEYS[len(fields)]
        if key != expected:
            raise ValueError(f"line {lineno}: expected key {expected!r}, got {key!r}")
        fields[key] = _parse_int(value, lineno)
        if len(fields) == len(_CAL_KEYS):
            sensor = fields["sensor"]
            if sensor in table:
                raise ValueError(f"line {lineno}: duplicate sensor {sensor}")
            try:
                table[sensor] = CalibrationData(
                    v_max=fields["v_max"], v_mid=fields["v_mid"], v_min=fields["v_min"]
                )
            except CalibrationError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            fields = {}
    if fields:
        raise ValueError(f"line {len(lines)}: incomplete sensor group")
    return table
