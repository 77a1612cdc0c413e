"""The benchmark harness's own inputs run through the CLI.

``perfbench/workloads.py`` writes the config and arguments of each
workload. The ``mc-default`` ones still carry the retired ``threads``
key and ``--threads 1`` flag, so the CLI must accept them. The module is
loaded from its file and only read: no bytecode is written next to it.
"""

import importlib.util
import sys
from pathlib import Path

from farkit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its `import rawgen` resolves next to it; its dataclass needs it registered
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        del sys.modules[spec.name]
    return module


def test_mc_default_small_inputs_run(tmp_path):
    before = sorted(PERFBENCH.rglob("*"))
    workloads = load_workloads()
    assert sorted(PERFBENCH.rglob("*")) == before
    info = workloads.make_inputs(workloads.WORKLOADS["mc-default"], "small", 5, tmp_path / "in")
    assert main(info["argv"] + ["--out", str(tmp_path / "out")]) == 0
