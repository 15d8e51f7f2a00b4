"""Show that the benchmark's correctness check catches broken outputs.

    python3 perfbench/selftest.py

Runs four repetitions of the weather_dense instance 0 through the same
Run.rep that run.py times. Each repetition is three checked calls: the
set-up loads, solve and verify. The first is unchanged; in the second one
digit of schedule.csv is changed; in the third the solver raises (solve
and verify both fail); in the fourth the set-up load raises. The failed
calls must go 0 -> 1 -> 3 -> 4 of 3 -> 6 -> 9 -> 12. Exits 0 when they do.
"""
from __future__ import annotations

import contextlib
import json
import re
import shutil
import sys

from run import GENERATORS, REFERENCE, WORK, Run, load_program


def main() -> int:
    cli, scenario, _ = load_program()
    import procure.mechanism as mechanism

    workload = "weather_dense"
    ref = json.loads(REFERENCE.read_text())
    work = WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    schedule_csv = cli.schedule_csv

    def one_digit_off(schedule):
        text = schedule_csv(schedule)
        header, first, rest = text.split("\n", 2)
        first = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), first, count=1)
        return "\n".join((header, first, rest))

    def raising(*args, **kwargs):
        raise RuntimeError("injected fault")

    faults = (
        ("unchanged", None, None, None),
        ("one digit changed", cli, "schedule_csv", one_digit_off),
        ("solver raises", mechanism, "anchor_payment", raising),
        ("set-up raises", scenario, "load_scenario", raising),
    )
    counts = []
    try:
        yaml_path = work / "scenario.yaml"
        yaml_path.write_text(GENERATORS[workload](0))
        run = Run(cli, scenario, workload, yaml_path, work, ref["workloads"][workload]["0"])
        for _, module, attr, fault in faults:
            original = getattr(module, attr) if module else None
            if module:
                setattr(module, attr, fault)
            try:
                run.rep()
            finally:
                if module:
                    setattr(module, attr, original)
            counts.append((run.failed, run.attempted))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for (label, *_), (failed, attempted) in zip(faults, counts):
        print(f"{label:18s} failed_share={failed / attempted:.4g} ({failed} of {attempted})")
    for problem in run.problems:
        print(f"  caught: {problem.splitlines()[0] or problem.splitlines()[-1]}")
    ok = counts == [(0, 3), (1, 6), (3, 9), (4, 12)]
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
