"""farkit's benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the program is imported from
``src/``. Each run

1. times the set-up (``setup_s``): a fresh interpreter imports farkit,
   numpy and scipy and writes the workload's inputs from ``--seed``; this
   is repeated twice more after step 3 and the median is reported;
2. runs the workload's canary (a small input at a fixed seed) and
   ``farkit verify`` and compares them with ``reference.json``; this also
   warms the process up;
3. calls ``farkit.cli.main`` with the workload's command again and again,
   one command at a time, for about ``--seconds`` (a command is started
   only if it should end within half a command of that deadline);
4. checks the outputs of the measured commands (see ``checks.py``) and that
   every repetition wrote byte-identical CSVs;
5. prints one line per metric and, last, one JSON object.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` the
commands run untraced and traced in turn (see ``tracing.py``), and it reports
the per-layer metrics of the last traced command and the tracing overhead
(median traced minus median untraced wall time); the spans of that command
are written to ``.bench_work/<workload>/spans.json``. ``--tiny``
measures the small input instead (used by the smoke test).

The exit code is 0 only if every check passed; a failed check prints the
result with ``"correct": false`` and exits 1. BLAS is pinned to one thread.
"""

import os

# pinned before numpy loads, here and in every process this one starts
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
ORACLE_SAMPLES = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="measure the small input")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    return args


def import_farkit():
    """Import farkit from this checkout's src/, or exit if it is not there."""
    if not (SRC / "farkit" / "__init__.py").is_file():
        print(f"error: no farkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import farkit.cli

    if Path(farkit.__file__).resolve().parent != SRC / "farkit":
        print(f"error: imported farkit from {farkit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return farkit.cli.main


def time_setup(workload: str, seed: int, directory: Path, tiny: bool) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(directory)]
    start = time.perf_counter()
    subprocess.run(cmd + (["--tiny"] if tiny else []), env=env, check=True, timeout=150)
    return time.perf_counter() - start


class Sample:
    """One command run: its timings and what its outputs say about fits."""

    def __init__(self, wall, cpu, code, out: Path, kind: str):
        self.wall, self.cpu, self.code = wall, cpu, code
        csvs = sorted(out.glob("*.csv"))
        self.fingerprint = hashlib.sha256(b"".join(p.read_bytes() for p in csvs)).hexdigest()
        self.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        # failed fits: an error text in records.csv, a NaN forecast in forecasts.csv
        if kind == "benchmark":
            rows = checks.read_rows(out / "records.csv")
            self.failed = sum(1 for r in rows if r["error"])
        else:
            rows = checks.read_rows(out / "forecasts.csv")
            self.failed = sum(1 for r in rows if r["ise"] == "nan")
        self.attempted = len(rows)


def run_cli(cli_main, argv, out: Path):
    """Run one command in this process; return (wall s, cpu s, exit code)."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli_main(argv + ["--out", str(out)])
    return time.perf_counter() - t0, time.process_time() - cpu0, code


def keep_going(start: float, samples, seconds: int) -> bool:
    """Start another command if it should end within half a command of the deadline."""
    typical = statistics.median(s.wall for s in samples)
    return time.perf_counter() - start + typical / 2 <= seconds


def canary(cli_main, workload, work: Path) -> dict:
    """Run the workload's canary and verify; return their values for the reference."""
    info = workloads.make_inputs(workload, "small", workload.canary_seed, work / "canary-in")
    out = work / "canary-out"
    _, _, code = run_cli(cli_main, info["argv"], out)
    values = {"canary": checks.canary_values(workload.kind, out), "canary_exit": code}
    _, _, values["verify_exit"] = run_cli(cli_main, ["verify"], work / "verify-out")
    report = json.loads((work / "verify-out" / "verify.json").read_text())
    values["verify"] = [c["name"] for c in report["checks"]]
    return values


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": sha,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_main = import_farkit()
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    setup_times = [time_setup(workload.name, args.seed, inputs, args.tiny)]
    info = json.loads((inputs / "inputs.json").read_text())

    problems = []
    reference = json.loads(REFERENCE.read_text())
    got = canary(cli_main, workload, work)
    if got["canary_exit"] != 0:
        problems.append(f"canary: exit code {got['canary_exit']}")
    problems += checks.reference_problems(got["canary"], reference[workload.name])
    problems += checks.verify_problems(work / "verify-out", got["verify_exit"], reference["verify"])

    out = work / "out"
    samples, tracer = [], None
    start = time.perf_counter()
    while len(samples) < 1 + args.trace or keep_going(start, samples, args.seconds):
        if args.trace and len(samples) % 2 == 1:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result = run_cli(tracer.wrap(tracing.ROOT, cli_main), info["argv"], out)
            finally:
                tracer.uninstall()
        else:
            result = run_cli(cli_main, info["argv"], out)
        samples.append(Sample(*result, out, workload.kind))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the other set-ups run after the commands, apart from the first, so that
    # a short slow spell of the machine does not hit all of them
    if not (args.tiny or args.trace):
        setup_times += [time_setup(workload.name, args.seed, work / "setup", args.tiny)
                        for _ in range(SETUP_REPEATS - 1)]

    last = samples[-1]
    for i, s in enumerate(samples):
        if s.code != 0:
            problems.append(f"command {i}: exit code {s.code}")
        if s.fingerprint != samples[0].fingerprint:
            problems.append(f"command {i}: CSVs differ from command 0 (same seed and inputs)")
    rng = np.random.default_rng([args.seed, 1])
    if workload.kind == "benchmark":
        problems += checks.benchmark_problems(out, info, ORACLE_SAMPLES, rng)
    else:
        problems += checks.rolling_problems(out, info, ORACLE_SAMPLES, rng)

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    walls = [s.wall for s in samples]
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["cli.bytes_written"] = (last.bytes_written, "B")
        metrics["process.cpu_s"] = (statistics.median(s.cpu for s in samples[::2]), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(walls[1::2]) - statistics.median(walls[::2]), "s")
        tracer.dump(work / "spans.json")

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}, seed {args.seed}: {len(samples)} commands "
          f"({'untraced and traced in turn' if args.trace else 'untraced'}), "
          f"wall s min {min(walls):.4f} median {statistics.median(walls):.4f} max {max(walls):.4f}; "
          f"set-up s {', '.join(f'{t:.4f}' for t in setup_times)}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    for p in problems:
        print(f"check failed: {p}")
    print(f"output check: {'passed' if not problems else f'{len(problems)} problem(s)'}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, environment=env, walls=walls, setup=setup_times, problems=problems)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
