"""Fresh outputs of small fixed-seed commands against the committed golden files.

``golden/regenerate.py`` lists the commands and wrote the files. Labels,
dates, K, flags, counts and texts must match exactly, and floats to 1e-12
relative. The sidecars must have the same keys, leaving out the timings
and the input path, which are not outputs of the computation.
"""

import csv
import json
import math
import re

from golden import regenerate

RTOL = 1e-12
UNCOMPARED = {"stage_seconds", "wall_clock_seconds", "raw_file"}
INTEGER = re.compile(r"-?\d+")


def same_cell(want: str, have: str) -> bool:
    """A CSV cell: a float to ``RTOL`` relative (NaN equals NaN), anything else exactly."""
    if want == have:
        return True
    if INTEGER.fullmatch(want) or INTEGER.fullmatch(have):
        return False
    try:
        return same_float(float(want), float(have))
    except ValueError:
        return False


def same_float(want: float, have: float) -> bool:
    return math.isclose(want, have, rel_tol=RTOL, abs_tol=0.0) or (
        math.isnan(want) and math.isnan(have)
    )


def json_differences(want, have, where: str) -> list:
    """Where two parsed sidecars differ: keys, types, texts and integers exactly, floats to ``RTOL``."""
    if isinstance(want, dict) and isinstance(have, dict):
        if set(want) != set(have):
            return [f"{where}: keys {sorted(want)} != {sorted(have)}"]
        return [d for key in want for d in json_differences(want[key], have[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(have, list):
        if len(want) != len(have):
            return [f"{where}: {len(want)} entries != {len(have)}"]
        return [d for i, (w, h) in enumerate(zip(want, have))
                for d in json_differences(w, h, f"{where}[{i}]")]
    if type(want) is float and type(have) is float:
        return [] if same_float(want, have) else [f"{where}: {want!r} != {have!r}"]
    return [] if type(want) is type(have) and want == have else [f"{where}: {want!r} != {have!r}"]


def file_differences(want_path, have_path, name: str) -> list:
    if name.endswith(".json"):
        want, have = (json.loads(p.read_text()) for p in (want_path, have_path))
        for sidecar in (want, have):
            for key in UNCOMPARED:
                sidecar.pop(key, None)
        return json_differences(want, have, name)
    want, have = (list(csv.reader(p.read_text().splitlines())) for p in (want_path, have_path))
    if [len(row) for row in want] != [len(row) for row in have]:
        return [f"{name}: rows or columns differ"]
    return [f"{name} row {r} column {c}: {w!r} != {h!r}"
            for r, (want_row, have_row) in enumerate(zip(want, have))
            for c, (w, h) in enumerate(zip(want_row, have_row)) if not same_cell(w, h)]


def test_commands_reproduce_the_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(regenerate.HERE)
    regenerate.run_commands(tmp_path)
    golden, fresh = ({p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
                     for root in (regenerate.OUTPUTS, tmp_path))
    assert fresh == golden
    differences = [d for name in sorted(golden) for d in file_differences(
        regenerate.OUTPUTS / name, tmp_path / name, name)]
    assert not differences, "\n".join(differences[:20])


def test_floats_agree_to_the_tolerance_and_everything_else_exactly():
    assert same_cell("0.1", "0.10000000000000002") and same_cell("nan", "nan")
    assert not same_cell("0.1", "0.100000000001")
    # K, counts, flags, dates and texts
    assert not same_cell("3.0", "4.0") and not same_cell("1", "0") and same_cell("1e-05", "1e-05")
    assert not same_cell("10", "10.0")
    assert not same_cell("2021-10-02", "2021-10-03") and not same_cell("fpca:0.8", "fpca:0.80")
    assert json_differences({"k": 3, "x": [1.5, "a"]}, {"k": 3, "x": [1.5 + 1e-15, "a"]}, "") == []
    assert json_differences({"k": 3}, {"k": 3.0}, "") and json_differences({"k": 3}, {"j": 3}, "")
