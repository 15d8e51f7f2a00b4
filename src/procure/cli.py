"""Command-line entry points: solve, verify, plotdata, exclusion-search.

All outputs are deterministic: every float as '%.12g' formats it, UTF-8,
LF line endings, atomic write-then-rename, no timestamps or locale
dependence.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .csvfmt import csv_chunks, format_g12
from .errors import ConfigurationError, ProcureError
from .mechanism import ContractOutcome, PriceSchedule, QuantityGrid, exclusion_search, solve
from .scenario import Scenario, load_scenario
from .settlement import SettlementTable, settlement_table
from .verify import grid_tolerance, report_text, run_checks


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_field(s: str) -> str:
    """s as csv.writer writes it among other fields of a row: quoted when
    it holds a comma, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([s, ""])
    return buf.getvalue()[:-2]


def _id_fields(ids: Sequence[str]) -> np.ndarray:
    """The type ids as CSV fields, UTF-8 encoded in a bytes array."""
    return np.array([_csv_field(i).encode("utf-8") for i in ids], dtype="S")


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _schedule_chunks(schedule: PriceSchedule) -> Iterator[bytes]:
    n = schedule.n_open
    pts, t = schedule.grid.points, schedule.payments()
    p = schedule.p[:n]
    closed = np.array([b"closed"])
    # k$/MWh equals $/kWh numerically
    yield b"q_MWh,p_k$_per_MWh,p_$_per_kWh,t_k$\n"
    yield from csv_chunks([pts[:n], p, p, t[:n]])
    yield from csv_chunks([pts[n : n + 1], closed, closed, t[n : n + 1]])
    # no price adds to t after point n, so t[n + 1:] repeats t[-1]; t[n]
    # can differ from it in the sign of a zero
    if n + 1 < len(t):
        yield from csv_chunks([pts[n + 1 :], closed, closed, format_g12(t[-1:])])


def schedule_csv(schedule: PriceSchedule) -> str:
    """One row per grid point, priced by the cell it starts; closed cells
    and the last point read "closed". Text rather than bytes, unlike the
    other outputs: perfbench/selftest.py edits it to inject a fault."""
    return b"".join(_schedule_chunks(schedule)).decode("utf-8")


def read_schedule_csv(path: Path, grid: QuantityGrid) -> PriceSchedule:
    """Rebuild a PriceSchedule from schedule.csv (round-trip support)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != grid.n_cells + 1:
        raise ProcureError(f"{path}: expected {grid.n_cells + 1} rows, got {len(rows)}")
    cells = [row["p_k$_per_MWh"] for row in rows[:-1]]
    p = [np.nan if cell == "closed" else float(cell) for cell in cells]
    return PriceSchedule(grid=grid, p=p, t0=float(rows[0]["t_k$"]))


def outcome_csv(outcome: ContractOutcome) -> bytes:
    columns = (outcome.q, outcome.payment, outcome.expected_cost, outcome.utility)
    return b"".join(
        [
            b"type_id,q,payment,expected_cost,utility\n",
            *csv_chunks([_id_fields(outcome.admissible_ids), *columns]),
        ]
    )


def settlement_csv(table: SettlementTable) -> bytes:
    """Type by type, one row per weather state; w and payment_base are
    formatted once."""
    n_types, n_states = table.generation.shape
    expost = table.payment_expost
    columns = [
        np.repeat(_id_fields(table.type_ids), n_states),
        np.tile(format_g12(table.w), (n_types, 1)),
        table.generation.ravel(),
        table.realized_cost.ravel(),
        np.repeat(format_g12(table.payment_base), n_states, axis=0),
        np.array([b""]) if expost is None else expost.ravel(),
        table.payment_risk.ravel(),
        table.profit.ravel(),
    ]
    header = b"type_id,w,g_w,realized_cost,payment_base,payment_expost,payment_risk_alpha,profit\n"
    return b"".join([header, *csv_chunks(columns)])


def _corrupt_schedule(schedule: PriceSchedule, kind: str) -> PriceSchedule:
    """The schedule with its prices corrupted as kind says; t0 is kept."""
    n = schedule.n_open
    p = schedule.p.copy()
    if kind == "halve_prices":
        p[n // 2 : n] *= 0.5
    elif kind == "early_close" and n > 0:
        p[n - 1] = np.nan
    return replace(schedule, p=p)


def _load(
    scenario_path: Path,
    grid_cells: Optional[int] = None,
    admissible: Optional[str] = None,
) -> Scenario:
    sc = load_scenario(scenario_path, n_cells=grid_cells)
    if admissible:
        sc = replace(sc, admissible=tuple(admissible.split(",")))
        sc.space.subset(sc.admissible)  # validate ids early
    return sc


def _search(sc: Scenario) -> tuple[tuple[str, ...], ContractOutcome]:
    """exclusion_search on the scenario's instance. The search picks the
    admissible set itself, so one given by the scenario or by --admissible
    is an error rather than silently ignored."""
    if sc.admissible is not None:
        raise ConfigurationError(
            "exclusion search conflicts with the admissible set "
            f"{','.join(sc.admissible)} (options.admissible or --admissible): "
            "the search chooses the admissible set itself; drop one of the two"
        )
    return exclusion_search(sc.instance)


def _solve_scenario(sc: Scenario) -> ContractOutcome:
    if sc.exclusion_search:
        return _search(sc)[1]
    return solve(sc.instance, admissible=sc.admissible)


def _manifest(scenario_path: Path, outcome: ContractOutcome) -> bytes:
    digest = hashlib.sha256(scenario_path.read_bytes()).hexdigest()
    grid = outcome.instance.grid
    data = {
        "scenario_sha256": digest,
        "package_version": __version__,
        "grid": {"q_max": grid.q_max, "n_cells": grid.n_cells, "dq": grid.dq},
        "tol_grid": grid_tolerance(outcome.instance),
        "admissible": list(outcome.admissible_ids),
        "buyer_utility": outcome.buyer_utility,
        "buyer_utility_survival": outcome.buyer_utility_survival,
        "t0": outcome.schedule.t0,
    }
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


def cmd_solve(
    scenario_path: Path,
    out_dir: Path,
    alpha: Optional[float] = None,
    grid_cells: Optional[int] = None,
    admissible: Optional[str] = None,
) -> int:
    sc = _load(scenario_path, grid_cells, admissible)
    alpha = sc.alpha if alpha is None else alpha
    outcome = _solve_scenario(sc)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "schedule.csv", schedule_csv(outcome.schedule).encode("utf-8"))
    _write_atomic(out_dir / "outcome.csv", outcome_csv(outcome))
    if alpha is not None:
        table = settlement_table(outcome, alpha)
        _write_atomic(out_dir / "settlement.csv", settlement_csv(table))
    _write_atomic(out_dir / "run_manifest.json", _manifest(scenario_path, outcome))
    return 0


def cmd_verify(scenario_path: Path, grid_cells: Optional[int] = None) -> int:
    sc = _load(scenario_path, grid_cells)
    outcome = _solve_scenario(sc)
    if sc.corruption is not None:
        # the solver's columns, certified against the corrupted schedule
        outcome = replace(outcome, schedule=_corrupt_schedule(outcome.schedule, sc.corruption))
    results = run_checks(outcome)
    print(report_text(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_plotdata(
    scenario_path: Path, out_dir: Path, grid_cells: Optional[int] = None
) -> int:
    sc = _load(scenario_path, grid_cells)
    outcome = _solve_scenario(sc)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = outcome.schedule
    n = schedule.n_open
    series = [b"q_MWh,p_k$_per_MWh,t_k$\n"]
    if n == 0:
        series.insert(0, b"# schedule closed at q=0; no open quantity range\n")
    else:
        series += csv_chunks([schedule.grid.points[:n], schedule.p[:n], schedule.payments()[:n]])
    _write_atomic(out_dir / "price_series.csv", b"".join(series))
    markers = csv_chunks([_id_fields(outcome.admissible_ids), outcome.q, outcome.payment])
    _write_atomic(out_dir / "type_markers.csv", b"".join([b"type_id,q_MWh,t_k$\n", *markers]))
    return 0


def cmd_exclusion_search(
    scenario_path: Path, out_dir: Path, grid_cells: Optional[int] = None
) -> int:
    sc = _load(scenario_path, grid_cells)
    ids, outcome = _search(sc)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "schedule.csv", schedule_csv(outcome.schedule).encode("utf-8"))
    _write_atomic(out_dir / "outcome.csv", outcome_csv(outcome))
    _write_atomic(out_dir / "run_manifest.json", _manifest(scenario_path, outcome))
    print(f"best admissible set (exhaustive): {','.join(ids)}")
    print(f"buyer utility: {_fmt(outcome.buyer_utility)}")
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
