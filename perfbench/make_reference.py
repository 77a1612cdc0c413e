"""Write reference.json: the canary outputs of the current program.

    python3 perfbench/make_reference.py

Run it only at a commit whose results are known to be right; every later
benchmark run compares its canaries with these values.
"""

import json
import sys

import run


def main() -> int:
    cli_main = run.import_farkit()
    reference = {"made_at": run.environment()["git_sha"]}
    for workload in run.workloads.WORKLOADS.values():
        work = run.WORK / "reference" / workload.name
        got = run.canary(cli_main, workload, work)
        if got["canary_exit"] != 0 or got["verify_exit"] != 0:
            print(f"error: {workload.name} canary or verify failed", file=sys.stderr)
            return 1
        reference[workload.name] = got["canary"]
        reference["verify"] = got["verify"]
    # one canary row per line keeps the file reviewable
    text = json.dumps(reference, separators=(",", ":")).replace("],[", "],\n[")
    run.REFERENCE.write_text(text + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
