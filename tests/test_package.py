import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import farkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(farkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry breaks `from farkit.<name> import *`
    module = importlib.import_module(f"farkit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


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
