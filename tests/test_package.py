import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import farkit
from test_cli import write_raw_days

MODULES = sorted(info.name for info in pkgutil.iter_modules(farkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry breaks `from farkit.<name> import *`
    module = importlib.import_module(f"farkit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_the_benchmark_tables_are_exported():
    # the README's "Removed public names" table points readers to
    # regret_table(means) with means = mean_misfe_table(report)
    for name in ("mean_misfe_table", "regret_table", "worst_case_table", "tuning_summary"):
        assert getattr(farkit, name) is getattr(farkit.evaluate, name)


def test_readme_quick_tour_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    spec = farkit.REGIMES["II"]
    op = farkit.draw_regime_operator(spec, 3)
    test_sample = farkit.simulate_far1(op, spec, 40, 5)
    ns = {"values": farkit.simulate_far1(op, spec, 120, 4).values, "test_sample": test_sample}
    exec(code, ns)
    assert ns["est"].tuning["alpha"] == ns["cv"].selected_alpha == ns["ridge"].tuning["alpha"]
    weighted = test_sample.values[:-1] * test_sample.grid.weights
    assert np.allclose(ns["forecasts"], weighted @ ns["kernel"].T)
    assert ns["next_curve"].shape == (101,)
    assert np.isfinite(ns["err"])


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, every
    # module imports and a backtest runs end to end
    raw, out = tmp_path / "raw.csv", tmp_path / "roll"
    write_raw_days(raw, 130)
    script = "\n".join([
        "import importlib, sys",
        "sys.modules['scipy'] = None",
        f"for name in {MODULES!r}:",
        "    importlib.import_module('farkit.' + name)",
        "from farkit.cli import main",
        f"sys.exit(main(['rolling', '--raw', {str(raw)!r}, '--out', {str(out)!r},",
        "               '--window', '40', '--refit', '10']))",
    ])
    src = str(Path(farkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    summary = (out / "summary.csv").read_text().splitlines()
    # the six default methods, each with scored days
    assert len(summary) == 7 and all(int(row.split(",")[4]) > 0 for row in summary[1:])
