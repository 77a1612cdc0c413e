"""The benchmark harness's tracer sees one sample at the names it observes.

``perfbench/tracing.py`` reads the result of ``cv_select_alpha`` as one
``CvResult`` and counts the eigenvalues of ``eigendecompose`` as one
sample's dimension, so a stack fitted through ``fit_methods`` must reach
neither name. The tracer is loaded from its file and only read.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from farkit.evaluate import fit_methods
from farkit.grid import uniform_grid
from farkit.moments import FunctionalSample, span_coordinates

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_stacks_reach_no_observed_name():
    tracing = load_tracing()
    rng = np.random.default_rng(21)
    coords = span_coordinates(FunctionalSample(rng.standard_normal((120, 9)), uniform_grid(9)))
    stack = coords.windows(np.arange(10), 100)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        (alone,) = fit_methods(coords, ["tikhonov:cv"])
        (stacked,) = fit_methods(stack, ["tikhonov:cv"])
    finally:
        tracer.uninstall()
    assert alone.error is None and len(stacked) == 10
    assert all(o.error is None for o in stacked)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["tikhonov.cv_select_alpha.calls"][0] == 1
    assert metrics["fpca.eigendecompose.calls"][0] == 1
    assert metrics["fpca.eigendecompose.dim_mean"][0] == coords.dim
