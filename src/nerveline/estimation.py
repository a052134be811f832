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
import os
import random
import stat
import sys
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .bounds import bounded, record
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


def filter_step(state: FilterState, raw: float) -> tuple[FilterState, float]:
    """Advance the smoother by one sample.

    Args:
        state: current filter state.
        raw: new raw value (ADC counts).

    Returns:
        The next state and the filtered value.
    """
    a, last = state.coefficient_a, state.last
    filtered = float(raw) if last is None else a * last + (1.0 - a) * raw
    return replace(state, last=filtered), filtered


@record(CalibrationError)
class CalibrationData:
    """Reference counts for the three calibration poses of one line.

    v_max: no contact (open line), v_mid: press at the insulation point,
    v_min: press at the finger base.
    """

    v_max: int = bounded()
    v_mid: int = bounded()
    v_min: int = bounded()

    @staticmethod
    def cross_problems(values: Mapping[str, Any]) -> list[str]:
        v_max, v_mid, v_min = values.get("v_max"), values.get("v_mid"), values.get("v_min")
        if v_min is not None and v_mid is not None and not v_min < v_mid:
            return [f"v_min < v_mid violated (v_min={v_min}, v_mid={v_mid})"]
        if v_mid is not None and v_max is not None and not v_mid < v_max:
            return [f"v_mid < v_max violated (v_mid={v_mid}, v_max={v_max})"]
        return []


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


def _channel(a: float, calibration: CalibrationData) -> Callable[[float], tuple[float, float, Regime]]:
    """One sensor's smoother of coefficient ``a`` and three-point map: each raw count -> (filtered, p, regime).

    The filtered values are those of `filter_step` from an unseeded state.  The map, on floats taken from
    ``calibration`` once, is piecewise linear in the triplet: values between v_mid and v_max land on the
    fingertip branch (p in (80, 100)); values at or below v_mid land on the body branch (p in [0, 80]), clamped
    at 0 below v_min; values at or above v_max mean no contact and report p = 100.  A count that leaves the
    filtered value where it was returns the very tuple before it, as does each later sample of it: the output is
    a pure function of the last filtered value and the count.  With ``a`` = 0 every count passes through
    exactly.  NaN is not checked.
    """
    v_max, v_mid, v_min = float(calibration.v_max), float(calibration.v_mid), float(calibration.v_min)
    tip_counts, body_counts = v_max - v_mid, v_mid - v_min
    tip_p, body_p = 100.0 - BODY_SPLIT_P, BODY_SPLIT_P
    none, fingertip, body = Regime.NONE, Regime.FINGERTIP, Regime.BODY
    last, held = (None,), None  # the last sample's tuple, its None seeding the filter, and the count it stands still at

    def channel(raw: float) -> tuple[float, float, Regime]:
        nonlocal last, held
        if raw == held:
            return last
        previous = last[0]
        v = float(raw) if previous is None else a * previous + (1.0 - a) * raw
        if v == previous:
            held = raw
        elif v >= v_max:
            last, held = (v, 100.0, none), None
        elif v > v_mid:
            last, held = (v, 100.0 - (v_max - v) / tip_counts * tip_p, fingertip), None
        else:
            p = (v - v_min) / body_counts * body_p
            last, held = (v, 0.0 if p < 0.0 else p, body), None  # v <= v_mid, so p <= body_p
        return last

    return channel


def estimate_p(v: float, calibration: CalibrationData) -> ContactEstimate:
    """Map a (filtered) ADC value in counts to the contact-point ratio: `_channel`'s map at a = 0.

    NaN is rejected with a ValueError.
    """
    if math.isnan(v):
        raise ValueError(f"v must be a number, got {v}")
    return ContactEstimate(*_channel(0.0, calibration)(v)[1:])


def detect_touch(estimate: tuple[float, Regime], threshold_p: float = 90.0) -> bool:
    """True when the ratio of a ``(p, regime)`` pair, such as a `ContactEstimate`, is below the touch threshold."""
    if not 0.0 < threshold_p < 100.0:
        raise ValueError(f"threshold_p must be in (0, 100), got {threshold_p}")
    return estimate[0] < threshold_p


def position_reached(
    estimates: Sequence[tuple[float, Regime]],
    threshold_p: float = 50.0,
    window_n: int = 10,
) -> bool:
    """True when the mean ratio of the last ``window_n`` ``(p, regime)`` pairs is below threshold.

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
    if any(regime is Regime.NONE for _, regime in window):
        return False
    return math.fsum(p for p, _ in window) / window_n < threshold_p


def write_calibration(path: str | Path, table: Mapping[int, CalibrationData]) -> None:
    """Write calibration triplets as `config.read_calibration` reads them: a ``sensors:`` list, a block per sensor."""
    blocks = (
        f"  - index: {i}\n    v_max: {c.v_max}\n    v_mid: {c.v_mid}\n    v_min: {c.v_min}\n"
        for i, c in sorted(table.items())
    )
    _write_lines(path, chain(["sensors:\n" if table else "sensors: []\n"], blocks))


def _read_lines(path: str | Path) -> list[str]:
    """The lines of an ASCII text file, broken only at ``\\n``; ``\\r\\n`` and ``\\r`` are read as ``\\n``.

    Raises:
        OSError: open's text, a directory's too.
        ValueError: a byte outside ASCII, named by its line number.
    """
    with open(path, "rb", buffering=0) as handle:  # unbuffered: one read sized from the file, no text layer
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"line {lineno}: byte {data[exc.start]:#04x} is not ASCII") from None
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    if not lines[-1]:  # a final newline ends the last line and opens none
        lines.pop()
    return lines


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ending in a newline, to ``path`` as ASCII, 4,096 lines to an ``os.write``.

    A regular file is overwritten in place and cut to the bytes written, also when a write or ``lines`` fails
    part-way, once what ``lines`` gave is written; cutting it to zero on open frees blocks that the write allocates
    again.  Devices and pipes are only written.  The file stdout goes to (``--out /dev/stdout > file``) is written
    at stdout's offset, so that what the command prints next follows the lines.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    status = os.fstat(fd)
    regular = stat.S_ISREG(status.st_mode)
    try:
        to_stdout = regular and os.path.samestat(status, os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # stdout is closed, or has no descriptor (captured in process)
        to_stdout = False
    if to_stdout:
        os.close(fd)
        sys.stdout.flush()
        fd, regular = os.dup(sys.stdout.fileno()), False
    lines = iter(lines)  # islice of a list would start it again
    try:
        while True:
            chunk: list[str] = []
            try:
                chunk.extend(islice(lines, 4096))  # a frame log of any length in bounded memory
            finally:
                data = memoryview("".join(chunk).encode("ascii"))
                while data:  # a pipe may take fewer bytes than it is given
                    data = data[os.write(fd, data):]
            if not chunk:
                break
    finally:
        if regular:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        os.close(fd)
