"""Guards that hold the sources, and the files the project ships or generates, to the project's rules.

Each source guard scans the modules of a source directory and returns its findings, one
``path:line: text`` a finding, and has a test that it fires on a violation planted in a copy.
"""

import ast
import re
import shutil
import sys
from pathlib import Path

import pytest

from nerveline import load_config, load_scenario

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "nerveline"


def grep(src, pattern, owner="estimation.py"):
    """Each line of a module in ``src``, other than ``owner``, that ``pattern`` matches."""
    return [
        f"{path}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != owner
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(pattern, line)
    ]


def smoothing(src):
    """Run, replay and sweep read each sample through ``estimation._channel``, with ``filter_step`` as its
    reference; a second copy of the smoother's expression in another module would let the two drift apart."""
    return grep(src, re.escape("(1.0 - a)"))


def floors(src):
    """Every noise-free count is the floor of one exact integer ratio; ``line.adc_quantize``, the one
    float quantizer, is the only code that floors a float, so a float count cannot come back.  The
    ADC is ratiometric, so the supply cancels out of every count, and a ``supply_volts`` field read
    anywhere, ``adc_quantize`` aside, is a finding too."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if path.name == "line.py" and isinstance(node, ast.FunctionDef) and node.name == "adc_quantize":
                allowed = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            named = isinstance(node, ast.Attribute) and node.attr in ("floor", "supply_volts")
            named = named or isinstance(node, ast.Name) and node.id == "floor"  # from math import floor
            if named and id(node) not in allowed:
                found.append(f"{path}:{node.lineno}: {ast.unparse(node)} outside line.adc_quantize")
    return found


def writes(src):
    """``estimation._write_lines`` is the one writer of every output file: it overwrites in place, cuts to
    the bytes written and writes at stdout's offset when the output is the file stdout goes to; a second
    writer would not keep those promises."""
    return grep(src, r"""write_text\(|write_bytes\(|writelines\(|os\.write\(|open\([^)]*(["'][rbt]*[wax+]|O_WRONLY|O_RDWR)""")


def reads(src):
    """``estimation._read_lines`` is the one reader of every input file: it reads ``\\r\\n`` and ``\\r`` as
    ``\\n``, names a byte outside ASCII by its line and raises open's OSError texts, a directory's included;
    a second reader could drift from all three."""
    return grep(src, r"\bopen\(|fdopen\(|\.read_text\(|\.read_bytes\(|os\.read\(")


# each guard, the module a violation is planted in, and the violation
GUARDS = {
    "smoothing": (smoothing, "controller.py", "smoothed = a * last + (1.0 - a) * raw"),
    "floor": (floors, "estimation.py", "count = math.floor(2.5)"),
    "supply_volts": (floors, "cli.py", "volts = spec.supply_volts"),
    "writes": (writes, "cli.py", "Path('out.csv').write_text('')"),
    "reads": (reads, "config.py", "text = open(path).read()"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_sources_keep_the_rule(name):
    guard, _, _ = GUARDS[name]
    assert guard(SRC) == []


@pytest.mark.parametrize("name", GUARDS)
def test_guard_fires_on_a_planted_violation(tmp_path, name):
    guard, module, violation = GUARDS[name]
    src = tmp_path / "nerveline"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    lines = (src / module).read_text(encoding="utf-8").splitlines()
    (src / module).write_text("\n".join([*lines, violation]) + "\n", encoding="utf-8")
    found = guard(src)
    assert len(found) == 1 and found[0].startswith(f"{src / module}:{len(lines) + 1}: "), found


def test_shipped_and_generated_yaml_load(tmp_path):
    """Every shipped config and scenario, and every YAML file ``bench/generate.py`` writes for a workload,
    loads: each is in the reader's subset, so a change to either cannot break a run or the benchmark."""
    sys.path.insert(0, str(REPO / "bench"))
    try:
        import generate
    finally:
        sys.path.remove(str(REPO / "bench"))
    for name in ("sweep-dense", "scenario-mix"):
        generate.write_inputs(name, tmp_path, generate.LOG_SEEDS)
    paths = sorted([*(REPO / "configs").glob("*.yaml"), *(REPO / "scenarios").glob("*.yaml")])
    paths += sorted(tmp_path.glob("*.yaml"))
    config = load_config(REPO / "configs" / "default.yaml")
    for path in paths:
        load_scenario(path, config) if path.stem in generate.SCENARIOS else load_config(path)
    assert len(paths) == 71
