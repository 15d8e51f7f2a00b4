"""Record the correctness reference for every benchmark instance.

    python3 perfbench/reference.py

For each workload and each instance index in the pool, runs the solve (or
exclusion-search) command, traced, and the verify command once, and
rewrites reference.json: the SHA-256 of the generated YAML, the exit
codes, the output digests, buyer_utility and t0 from run_manifest.json,
each check's verdict, and the instance shape and branch. Run it only on
the commit whose outputs define correctness; later runs of run.py compare
against this file.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import (
    GENERATORS,
    POOL,
    REFERENCE,
    WORK,
    instance_shape,
    load_program,
    parse_checks,
    run_cli,
    solve_result,
    solver_command,
)
from tracer import Tracer


def record(cli, scenario, workload: str, index: int) -> dict:
    text = GENERATORS[workload](index)
    work = WORK / f"reference-{workload}-{index}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yaml_path = work / "scenario.yaml"
        yaml_path.write_text(text)
        out_dir = work / "out"
        tracer = Tracer()
        with tracer.installed(), tracer.span("solve"):
            _, code, stdout, error = run_cli(
                cli, [solver_command(workload), str(yaml_path), "--out", str(out_dir)]
            )
        if code != 0:
            raise SystemExit(f"{workload} instance {index}: solve exit {code}\n{error}")
        _, vcode, report, error = run_cli(cli, ["verify", str(yaml_path)])
        if vcode not in (0, 1):
            raise SystemExit(f"{workload} instance {index}: verify exit {vcode}\n{error}")
        return {
            "yaml_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "solve": solve_result(out_dir, code),
            "verify": {"exit": vcode, "checks": parse_checks(report)},
            "shape": instance_shape(scenario, yaml_path, out_dir, tracer, stdout),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    cli, scenario, _ = load_program()
    data = {"workloads": {}}
    for workload in GENERATORS:
        entries = data["workloads"][workload] = {}
        for index in range(POOL):
            entries[str(index)] = rec = record(cli, scenario, workload, index)
            print(workload, index, rec["verify"]["exit"], json.dumps(rec["shape"]), flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
