"""The benchmark's workloads and the inputs each one is given.

Every workload is one `farkit` CLI command, run closed loop: one client,
one command at a time, ``threads=1``. Inputs are generated from the run's
seed; the program sees only the generated files and the seed argument.

Each workload has two sizes. ``full`` is what the benchmark measures.
``small`` is used twice: at a fixed seed it is the canary whose outputs are
compared with the reference values in ``reference.json``, and at the run's
seed it is the measured input of a ``--tiny`` run (the smoke test).

Run as a script, this module is the set-up probe timed for ``setup_s``:
it imports farkit, numpy and scipy, then writes the workload's inputs.

    python3 perfbench/workloads.py WORKLOAD SEED DIR [--tiny]
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import rawgen

METHODS = ("fpca:0.80", "fpca:0.85", "fpca:0.90", "fpca:0.95", "fpca:0.99", "tikhonov:cv")
WINDOW = 100


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    kind: str  # "benchmark" or "rolling"
    full: dict
    small: dict
    canary_seed: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-default",
            "benchmark",
            full={"n_values": [100, 200, 400, 800], "replications": 50},
            small={"n_values": [100, 400], "replications": 2},
            canary_seed=14,
        ),
        Workload(
            "rolling-refit1",
            "rolling",
            full={"days": 1000, "season_only": True, "missing": False, "refit": 1},
            small={"days": 140, "season_only": True, "missing": False, "refit": 1},
            canary_seed=7,
        ),
        Workload(
            "rolling-long-refit20",
            "rolling",
            full={"days": 4000, "season_only": False, "missing": True, "refit": 20},
            small={"days": 450, "season_only": False, "missing": True, "refit": 20},
            canary_seed=7,
        ),
    )
}


def make_inputs(workload: Workload, size: str, seed: int, directory: Path) -> dict:
    """Write the inputs of one command into ``directory``.

    Returns the input description: the CLI arguments (without ``--out``)
    and what the output check needs to know about the inputs.
    """
    directory.mkdir(parents=True, exist_ok=True)
    params = getattr(workload, size)
    if workload.kind == "benchmark":
        config = {
            "regimes": ["I", "II", "III"],
            "n_values": params["n_values"],
            "methods": list(METHODS),
            "replications": params["replications"],
            "test_length": 200,
            "threads": 1,
        }
        path = directory / "config.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        argv = ["benchmark", "--config", str(path), "--seed", str(seed), "--threads", "1"]
        info = {"kind": "benchmark", "config": config, "master_seed": seed}
    else:
        dates, readings = rawgen.generate(
            seed, params["days"], season_only=params["season_only"], missing=params["missing"]
        )
        kept = rawgen.expected_kept_days(dates, readings)
        rawgen.self_check(params, dates, readings, kept)
        path = directory / "raw.csv"
        rawgen.write_csv(path, dates, readings)
        argv = [
            "rolling", "--raw", str(path),
            "--window", str(WINDOW), "--refit", str(params["refit"]),
            "--methods", ",".join(METHODS), "--gap-policy", "exclude-cross-gap",
        ]
        info = {
            "kind": "rolling",
            "raw": str(path),
            "window": WINDOW,
            "refit": params["refit"],
            "methods": list(METHODS),
            "expected_kept_days": kept,
            # on the small inputs too few windows are fitted for a stable median K
            "check_distinct_k": size == "full",
        }
    info["argv"] = argv
    (directory / "inputs.json").write_text(json.dumps(info, indent=2) + "\n")
    return info


def main(argv) -> int:
    # the caller times this whole process, these imports included
    import farkit  # noqa: F401
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401

    name, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    size = "small" if "--tiny" in argv[3:] else "full"
    make_inputs(WORKLOADS[name], size, seed, directory)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
