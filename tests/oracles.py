"""Independent oracles used by the test suite.

``sweep_csv_reference`` builds ``sweep.csv`` from the public
``simulate_sweep`` and ``estimate_p`` and the ``statistics`` module, one
``p`` value per press.  ``replay_reference`` is the frame-by-frame replay loop as it stood before
``cmd_replay`` accepted frames by lookup: three ``int()`` calls, a
re-formatted copy of each line, and the public ``filter_step`` and
``estimate_p`` on every frame.  The nodal solver here shares no code with the series-parallel fold it
checks: it builds the full two-rail ladder as a resistor graph, contracts
zero-resistance edges, and solves the conductance Laplacian by Gaussian
elimination over exact rationals.  Floats are exact rationals, so the
oracle has no rounding error at all, whatever the spread between rail and
bridge resistances.  The count and spike oracles are exact in the same way:
``Fraction`` arithmetic on the floats' exact values, floored or compared
only at the end.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

from nerveline import FilterState, NerveLineSpec, RunConfig, estimate_p, filter_step, simulate_sweep
from nerveline.cli import FRAMES_HEADER, REPLAY_HEADER, SWEEP_HEADER, _calibration_table, _position_grid


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    rows = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] / pivot
            for c in range(col, n + 1):
                rows[r][c] -= factor * rows[col][c]
    solution = [Fraction(0)] * n
    for i in reversed(range(n)):
        acc = rows[i][n] - sum(rows[i][j] * solution[j] for j in range(i + 1, n))
        solution[i] = acc / rows[i][i]
    return solution


def nodal_line_resistance(
    spec: NerveLineSpec, contacts: list[tuple[float, float]]
) -> Fraction | float:
    """Exact base-to-base resistance of the bridged ladder, by nodal analysis; ``math.inf`` when open.

    Args:
        contacts: (position_mm, bridge_ohm) pairs, any order; duplicates
            at the same position are merged keeping the smallest bridge
            (the same contract the production solver implements).
    """
    merged: dict[float, float] = {}
    for position, bridge in contacts:
        if position in merged:
            merged[position] = min(merged[position], bridge)
        else:
            merged[position] = bridge
    points = sorted(merged.items())
    if not points:
        return math.inf

    # node 0: flat rail at the base, node 1: string rail at the base
    edges: list[tuple[int, int, Fraction]] = []
    flat_rho = Fraction(spec.flat_rail_ohm_per_mm)
    string_rho = Fraction(spec.string_rail_ohm_per_mm)
    prev_flat, prev_string = 0, 1
    prev_d = Fraction(0)
    count = 2
    for position, bridge in points:
        flat, string = count, count + 1
        count += 2
        span = Fraction(position) - prev_d
        edges.append((prev_flat, flat, flat_rho * span))
        edges.append((prev_string, string, string_rho * span))
        edges.append((flat, string, Fraction(bridge)))
        prev_flat, prev_string, prev_d = flat, string, Fraction(position)

    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, ohm in edges:
        if ohm == 0:
            parent[find(u)] = find(v)

    groups: dict[int, int] = {}
    for node in range(count):
        groups.setdefault(find(node), len(groups))
    source = groups[find(0)]
    sink = groups[find(1)]
    if source == sink:
        return Fraction(spec.lead_offset_ohm)

    n = len(groups)
    laplacian = [[Fraction(0)] * n for _ in range(n)]
    for u, v, ohm in edges:
        if ohm == 0:
            continue
        i, j = groups[find(u)], groups[find(v)]
        if i == j:
            continue
        conductance = 1 / ohm
        laplacian[i][i] += conductance
        laplacian[j][j] += conductance
        laplacian[i][j] -= conductance
        laplacian[j][i] -= conductance

    keep = [i for i in range(n) if i != sink]
    reduced = [[laplacian[i][j] for j in keep] for i in keep]
    current = [Fraction(0)] * len(keep)
    current[keep.index(source)] = Fraction(1)
    potential = _solve_exact(reduced, current)
    return Fraction(spec.lead_offset_ohm) + potential[keep.index(source)]


def divider_counts(spec: NerveLineSpec, resistance: Fraction) -> int:
    """Noise-free ADC counts of an exact line resistance: the floor of the exact divider ratio."""
    return math.floor(spec.adc_full_scale * resistance / (resistance + Fraction(spec.pullup_ohm)))


def firm_ohm(spec: NerveLineSpec, position_mm: float) -> Fraction:
    """Exact line resistance of a single firm press: the lead, then both rails out to the press."""
    rails = Fraction(spec.flat_rail_ohm_per_mm) + Fraction(spec.string_rail_ohm_per_mm)
    return Fraction(spec.lead_offset_ohm) + rails * Fraction(position_mm)


def chain_counts(spec: NerveLineSpec, position_mm: float) -> int:
    """ADC counts for a single firm press, straight from the circuit laws, in exact arithmetic."""
    return divider_counts(spec, firm_ohm(spec, position_mm))


def count_boundary_mm(spec: NerveLineSpec, counts: int) -> Fraction:
    """Exact position where a firm press starts to read ``counts``: R = counts * pullup / (full_scale - counts)."""
    resistance = counts * Fraction(spec.pullup_ohm) / (spec.adc_full_scale - counts)
    rails = Fraction(spec.flat_rail_ohm_per_mm) + Fraction(spec.string_rail_ohm_per_mm)
    return (resistance - Fraction(spec.lead_offset_ohm)) / rails


def tip_counts(spec: NerveLineSpec, quality: Fraction | float) -> int:
    """ADC counts of a light tip touch of contact ``quality``, in exact arithmetic.

    The divider ratio moves from the open line's 1 toward that of a press at
    the full length, ``R_full / (R_full + pullup)``, in proportion to quality.
    """
    full = firm_ohm(spec, spec.effective_length_mm)
    pullup = Fraction(spec.pullup_ohm)
    return math.floor(spec.adc_full_scale * (1 - Fraction(quality) * pullup / (full + pullup)))


def tip_boundary_quality(spec: NerveLineSpec, counts: int) -> Fraction:
    """Exact quality at and below which a light tip touch reads ``counts`` or more: the inverse of `tip_counts`."""
    full = firm_ohm(spec, spec.effective_length_mm)
    pullup = Fraction(spec.pullup_ohm)
    return (spec.adc_full_scale - counts) * (full + pullup) / (spec.adc_full_scale * pullup)


def clamped_counts(v: float, full_scale: int) -> int:
    """``v`` clamped to the converter range 0..``full_scale`` and rounded, as ``min``/``max`` give it; NaN raises."""
    return round(min(max(v, 0), full_scale))


def nearest_spike(spec: NerveLineSpec, position_mm: float) -> tuple[int, bool]:
    """Index of the spike nearest ``position_mm`` and whether two tie (then the lower one), in exact arithmetic."""
    spikes = Fraction(position_mm) / Fraction(spec.spike_pitch_mm)
    lower = math.floor(spikes)
    beyond = spikes - lower
    return lower + (beyond > Fraction(1, 2)), beyond == Fraction(1, 2)


def replay_reference(config: RunConfig, log: str | Path) -> tuple[str | None, str | None]:
    """``(replay.csv text, None)`` for an accepted frame log, ``(None, message)`` for a rejected one.

    The message is what ``nerveline replay`` reports after the log's path.
    Lines are broken only at newlines, as ``cmd_replay`` reads them.
    """
    calibration = _calibration_table(config)
    sensors = {
        sensor: [spec.adc_full_scale, calibration[sensor], None, FilterState(config.filter_coefficient_a)]
        for sensor, spec in config.sensors.items()
    }
    try:
        lines = Path(log).read_text(encoding="ascii").split("\n")
        if not lines[-1]:
            lines.pop()
        if not lines:
            raise ValueError("line 1: empty log")
        if lines[0] != FRAMES_HEADER:
            raise ValueError(f"line 1: expected header {FRAMES_HEADER!r}, got {lines[0]!r}")
        out_lines = []
        for lineno, line in enumerate(islice(lines, 1, None), start=2):
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                t_ms, sensor, counts = map(int, parts)
                head = f"{t_ms},{sensor},{counts}"
                if head != line:  # plain decimal, as sweep --frames-out writes it
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {lineno}: fields must be integers, got {line!r}") from None
            state = sensors.get(sensor)
            if state is None:
                raise ValueError(f"line {lineno}: sensor {sensor} is not configured")
            full_scale, triplet, previous, smoother = state
            if not 0 <= counts <= full_scale:
                raise ValueError(f"line {lineno}: counts {counts} outside 0..{full_scale}")
            if previous is not None and t_ms <= previous:
                raise ValueError(f"line {lineno}: t_ms {t_ms} not after t_ms {previous} of sensor {sensor}")
            state[2] = t_ms
            state[3], filtered = filter_step(smoother, counts)
            p, regime = estimate_p(filtered, triplet)
            out_lines.append(f"{head},{filtered!r},{p!r},{regime._value_}\n")
    except ValueError as exc:
        return None, str(exc)
    return REPLAY_HEADER + "\n" + "".join(out_lines), None


def sweep_csv_reference(config: RunConfig, sensor: int, jitter_mm: float, repeats: int) -> str:
    """The sweep.csv text of ``nerveline sweep`` on ``config`` with these arguments."""
    spec = config.sensors[sensor]
    calibration = _calibration_table(config)[sensor]
    positions = _position_grid(spec.effective_length_mm, spec.spike_pitch_mm)
    columns = []
    for quantize in (True, False):
        rng = random.Random(config.seed)
        samples = simulate_sweep(spec, positions, jitter_mm, repeats, rng, config.noise_sd_counts, quantize)
        column = []
        for row in range(len(positions)):
            tally = Counter(counts for _, counts in samples[row * repeats : (row + 1) * repeats])
            p_values = [estimate_p(counts, calibration).p for counts, k in tally.items() for _ in range(k)]
            column.append(f"{statistics.fmean(p_values)!r},{statistics.pvariance(p_values)!r}")
        columns.append(column)
    rows = (f"{float(position)!r},{spiked},{smooth}\n" for position, spiked, smooth in zip(positions, *columns))
    return SWEEP_HEADER + "\n" + "".join(rows)
