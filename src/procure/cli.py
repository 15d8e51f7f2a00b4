"""Command-line entry points: solve, verify, plotdata, exclusion-search.

All outputs are deterministic: every float as '%.12g' formats it, UTF-8,
LF line endings, atomic write-then-rename, no timestamps or locale
dependence.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .csvfmt import SLAB_BYTES, block_rows, csv_chunks, format_g12
from .errors import ConfigurationError, ProcureError
from .mechanism import (
    ContractOutcome,
    PriceSchedule,
    evaluate,
    exclusion_search,
    solve,
)
from .scenario import CORRUPTIONS, Scenario, load_scenario
from .settlement import SettlementTable, settlement_table
from .verify import buyer_utility_survival, report_text, run_checks


def _csv_field(s: str) -> str:
    """s as csv.writer writes it among other fields of a row: quoted when
    it holds a comma, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([s, ""])
    return buf.getvalue()[:-2]


def _id_fields(ids: Sequence[str]) -> np.ndarray:
    """The type ids as CSV fields, UTF-8 encoded in a bytes array."""
    return np.array([_csv_field(i).encode("utf-8") for i in ids], dtype="S")


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to path as they come, through a temporary file
    renamed over path at the end; a chunk that raises leaves no temporary
    file and path as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _csv(header: bytes, columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    yield header
    yield from csv_chunks(columns)


def _schedule_chunks(schedule: PriceSchedule) -> Iterator[bytes]:
    p, pts, t = schedule.p, schedule.grid.points, schedule.payments()
    n = len(p)
    closed = np.array([b"closed"])
    # k$/MWh equals $/kWh numerically
    yield b"q_MWh,p_k$_per_MWh,p_$_per_kWh,t_k$\n"
    yield from csv_chunks([pts[:n], p, p, t[:n]])
    yield from csv_chunks([pts[n : n + 1], closed, closed, t[n : n + 1]])
    # no price adds to t after point n, so t[n + 1:] repeats t[-1]; t[n]
    # can differ from it in the sign of a zero. The rows after n are each
    # a grid point and one constant field.
    if n + 1 < len(t):
        tail = b"closed,closed," + format_g12(t[-1:]).tobytes().rstrip(b"\0")
        yield from csv_chunks([pts[n + 1 :], np.array([tail])])


def schedule_csv(schedule: PriceSchedule) -> str:
    """One row per grid point, priced by the cell it starts; closed cells
    and the last point read "closed". Text rather than bytes, unlike the
    other outputs: perfbench/selftest.py edits it to inject a fault."""
    return b"".join(_schedule_chunks(schedule)).decode("utf-8")


def outcome_csv(outcome: ContractOutcome) -> Iterator[bytes]:
    columns = (outcome.q, outcome.payment, outcome.expected_cost, outcome.utility)
    header = b"type_id,q,payment,expected_cost,utility\n"
    return _csv(header, [_id_fields(outcome.admissible_ids), *columns])


def settlement_csv(table: SettlementTable) -> Iterator[bytes]:
    """Type by type, one row per weather state. The type ids, w and
    payment_base are formatted once; csv_chunks takes the rows of as many
    whole types as fill one block, or of one type when its states fill
    more, so that no column is repeated over the whole table."""
    n_types, n_states = table.generation.shape
    ids = _id_fields(table.type_ids)
    w = format_g12(table.w)
    base = format_g12(table.payment_base)
    expost = table.payment_expost

    def columns(i: int, j: int) -> list[np.ndarray]:
        """The columns of the rows of types i to j - 1."""
        if j - i == 1:  # a column of one field repeats it on every line
            type_id, w_rows, base_rows = ids[i:j], w, base[i:j]
        else:
            type_id = np.repeat(ids[i:j], n_states)
            w_rows = np.tile(w, (j - i, 1))
            base_rows = np.repeat(base[i:j], n_states, axis=0)
        return [
            type_id,
            w_rows,
            table.generation[i:j].ravel(),
            table.realized_cost[i:j].ravel(),
            base_rows,
            np.array([b""]) if expost is None else expost[i:j].ravel(),
            table.payment_risk[i:j].ravel(),
            table.profit[i:j].ravel(),
        ]

    types = max(1, block_rows(columns(0, 1)) // n_states)
    yield b"type_id,w,g_w,realized_cost,payment_base,payment_expost,payment_risk_alpha,profit\n"
    for i in range(0, n_types, types):
        yield from csv_chunks(columns(i, min(i + types, n_types)))


def _corrupt_schedule(schedule: PriceSchedule, kind: str) -> PriceSchedule:
    """The schedule with its prices corrupted as kind says; t0 is kept. A
    corruption that changes no price is no negative control and is refused."""
    p = CORRUPTIONS[kind](schedule.p)
    if np.array_equal(p, schedule.p):
        raise ConfigurationError(f"options.corruption: {kind!r} changes no price of the schedule")
    return replace(schedule, p=p)


def _solve_scenario(sc: Scenario) -> ContractOutcome:
    if sc.exclusion_search:
        return exclusion_search(sc.instance)
    return solve(sc.instance, admissible=sc.admissible)


def _manifest(sc: Scenario, outcome: ContractOutcome) -> bytes:
    """The run's inputs, the instance's shape and the solver's branch:
    worst_type is the solved set's worst type, which anchors the payment
    when there is one."""
    inst = outcome.instance
    grid = inst.grid
    worst = inst.worst_type
    data = {
        "scenario_sha256": sc.sha256,
        "package_version": __version__,
        "grid": {"q_max": grid.q_max, "n_cells": grid.n_cells, "dq": grid.dq},
        "admissible": list(outcome.admissible_ids),
        "buyer_utility": outcome.buyer_utility,
        "buyer_utility_survival": buyer_utility_survival(outcome),
        "t0": outcome.schedule.t0,
        "types": len(sc.space),
        "weather_states": len(inst.weather.speed_array),
        "n_open": outcome.schedule.n_open,
        "worst_type": None if worst is None else worst.id,
        "anchor": "a-posteriori" if worst is None else "worst-type",
    }
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_outputs(
    out_dir: Path, sc: Scenario, outcome: ContractOutcome, alpha: Optional[float]
) -> None:
    """schedule.csv, outcome.csv, settlement.csv when alpha is given, and
    run_manifest.json, written in that order into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    text = schedule_csv(outcome.schedule)
    # encoded a slab at a time, never as one copy of the whole file
    slabs = range(0, len(text), SLAB_BYTES)
    _write_atomic(out_dir / "schedule.csv", (text[i : i + SLAB_BYTES].encode("utf-8") for i in slabs))
    _write_atomic(out_dir / "outcome.csv", outcome_csv(outcome))
    if alpha is not None:
        table = settlement_table(outcome, alpha)
        _write_atomic(out_dir / "settlement.csv", settlement_csv(table))
    _write_atomic(out_dir / "run_manifest.json", [_manifest(sc, outcome)])


def cmd_solve(
    scenario_path: Path,
    out_dir: Path,
    alpha: Optional[float] = None,
    grid_cells: Optional[int] = None,
    admissible: Optional[str] = None,
) -> int:
    if alpha is not None and not (0.0 <= alpha <= 1.0):  # NaN fails too
        raise ConfigurationError(f"--alpha: {alpha} outside [0, 1]")
    # "" is an empty set, refused like options.admissible: []
    ids = None if admissible is None else admissible.split(",")
    sc = load_scenario(scenario_path, grid_cells, ids)
    alpha = sc.alpha if alpha is None else alpha
    _write_outputs(out_dir, sc, _solve_scenario(sc), alpha)
    return 0


def cmd_verify(scenario_path: Path, grid_cells: Optional[int] = None) -> int:
    sc = load_scenario(scenario_path, grid_cells)
    outcome = _solve_scenario(sc)
    if sc.corruption is not None:
        # the corrupted schedule's own best responses, under its own t0
        corrupted = _corrupt_schedule(outcome.schedule, sc.corruption)
        outcome = evaluate(outcome.instance, corrupted)
    results = run_checks(outcome)
    print(report_text(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_plotdata(
    scenario_path: Path, out_dir: Path, grid_cells: Optional[int] = None
) -> int:
    sc = load_scenario(scenario_path, grid_cells)
    outcome = _solve_scenario(sc)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = outcome.schedule
    n = schedule.n_open
    header = b"q_MWh,p_k$_per_MWh,t_k$\n"
    if n == 0:
        series = [b"# schedule closed at q=0; no open quantity range\n", header]
    else:
        series = _csv(header, [schedule.grid.points[:n], schedule.p, schedule.payments()[:n]])
    _write_atomic(out_dir / "price_series.csv", series)
    markers = [_id_fields(outcome.admissible_ids), outcome.q, outcome.payment]
    _write_atomic(out_dir / "type_markers.csv", _csv(b"type_id,q_MWh,t_k$\n", markers))
    return 0


def cmd_exclusion_search(
    scenario_path: Path, out_dir: Path, grid_cells: Optional[int] = None
) -> int:
    sc = load_scenario(scenario_path, grid_cells, exclusion_search=True)
    outcome = _solve_scenario(sc)
    _write_outputs(out_dir, sc, outcome, sc.alpha)
    print(f"best admissible set (exhaustive): {','.join(outcome.admissible_ids)}")
    print(f"buyer utility: {outcome.buyer_utility:.12g}")
    if outcome.buyer_utility < 0.0:
        # the search weighs non-empty sets only; buying nothing earns 0
        print("buying nothing beats every admissible set (buyer utility 0)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="procure",
        description="Optimal nonlinear-pricing contracts for energy procurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("scenario", type=Path)
        p.add_argument("--grid-cells", type=int, default=None)
        return p

    p_solve = add("solve", help="solve a scenario and write CSV outputs")
    p_solve.add_argument("--out", type=Path, default=Path("out"))
    p_solve.add_argument("--alpha", type=float, default=None)
    p_solve.add_argument("--admissible", type=str, default=None, help="comma-separated type ids")

    add("verify", help="run the certification suite; exit 0 iff all checks pass")

    p_plot = add("plotdata", help="emit price/payment series for plotting")
    p_plot.add_argument("--out", type=Path, default=Path("out"))

    p_excl = add("exclusion-search", help="search admissible subsets")
    p_excl.add_argument("--out", type=Path, default=Path("out"))

    args = parser.parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        # type ids are printed as the files are written, whatever the locale
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        if args.command == "solve":
            return cmd_solve(
                args.scenario, args.out, args.alpha, args.grid_cells, args.admissible
            )
        if args.command == "verify":
            return cmd_verify(args.scenario, args.grid_cells)
        if args.command == "plotdata":
            return cmd_plotdata(args.scenario, args.out, args.grid_cells)
        if args.command == "exclusion-search":
            return cmd_exclusion_search(args.scenario, args.out, args.grid_cells)
        raise AssertionError(args.command)
    except (ProcureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
