"""Command-line entry points: solve, verify, plotdata, exclusion-search.

All outputs are deterministic: fixed 12-significant-digit floats, LF line
endings, atomic write-then-rename, no timestamps or locale dependence.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConfigurationError, ProcureError
from .mechanism import ContractOutcome, PriceSchedule, QuantityGrid, exclusion_search, solve
from .scenario import Scenario, load_scenario
from .settlement import SettlementTable, settlement_table
from .verify import grid_tolerance, report_text, run_checks


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_column(a) -> list[str]:
    """_fmt of every element of a float array, in C order.

    Each distinct value is formatted once; values are told apart by their
    bit pattern, so -0.0 and 0.0 (and NaNs) each keep their own text.
    """
    a = np.ascontiguousarray(a, dtype=float).reshape(-1)
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    values = bits.view(float).tolist()
    # one % operation for all values; "%.12g" % x is _fmt(x) for every float
    text = np.array(("%.12g\n" * len(values) % tuple(values)).split("\n")[:-1], dtype=object)
    return text[inverse].tolist()


def _csv_field(s: str) -> str:
    """s as csv.writer writes it among other fields of a row: quoted when
    it holds a comma, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([s, ""])
    return buf.getvalue()[:-2]


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, newline="\n")
    os.replace(tmp, path)


def _csv_text(header: Sequence[str], columns: Sequence[Sequence[str]]) -> str:
    """A header line and one line per row of equal-length columns of
    already formatted fields; LF line endings."""
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def schedule_csv(schedule: PriceSchedule) -> str:
    """One row per grid point, priced by the cell it starts; closed cells
    and the last point read "closed". Rows 0 to n_open are formatted as
    columns. The closed tail after them shares one template, its payment
    formatted once: no price adds to t there. (t at n_open can differ
    from the tail in the sign of a zero, so it stays with the columns.)"""
    n = schedule.n_open
    pts, t = schedule.grid.points, schedule.payments()
    # k$/MWh equals $/kWh numerically
    prices = _fmt_column(schedule.p[:n]) + ["closed"]
    head = _csv_text(
        ["q_MWh", "p_k$_per_MWh", "p_$_per_kWh", "t_k$"],
        [_fmt_column(pts[: n + 1]), prices, prices, _fmt_column(t[: n + 1])],
    )
    tail = pts[n + 1 :].tolist()
    return head + ("%.12g,closed,closed," + _fmt(t[-1]) + "\n") * len(tail) % tuple(tail)


def read_schedule_csv(path: Path, grid: QuantityGrid) -> PriceSchedule:
    """Rebuild a PriceSchedule from schedule.csv (round-trip support)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != grid.n_cells + 1:
        raise ProcureError(f"{path}: expected {grid.n_cells + 1} rows, got {len(rows)}")
    p = np.full(grid.n_cells, np.nan)
    closed_from = None
    for k, row in enumerate(rows[:-1]):
        cell = row["p_k$_per_MWh"]
        if cell == "closed":
            if closed_from is None:
                closed_from = k
        else:
            p[k] = float(cell)
    t0 = float(rows[0]["t_k$"])
    return PriceSchedule(grid=grid, p=p, t0=t0, closed_from=closed_from)


def outcome_csv(outcome: ContractOutcome) -> str:
    columns = (outcome.q, outcome.payment, outcome.expected_cost, outcome.utility)
    return _csv_text(
        ["type_id", "q", "payment", "expected_cost", "utility"],
        [list(map(_csv_field, outcome.admissible_ids)), *map(_fmt_column, columns)],
    )


def settlement_csv(table: SettlementTable) -> str:
    n_states = len(table.w)
    # type_id and payment_base hold one field per type, repeated over its states
    ids = [cell for cell in map(_csv_field, table.type_ids) for _ in range(n_states)]
    base = [cell for cell in _fmt_column(table.payment_base) for _ in range(n_states)]
    if table.payment_expost is None:
        expost = [""] * len(table)
    else:
        expost = _fmt_column(table.payment_expost)
    return _csv_text(
        [
            "type_id",
            "w",
            "g_w",
            "realized_cost",
            "payment_base",
            "payment_expost",
            "payment_risk_alpha",
            "profit",
        ],
        [
            ids,
            _fmt_column(table.w) * len(table.type_ids),
            _fmt_column(table.generation),
            _fmt_column(table.realized_cost),
            base,
            expost,
            _fmt_column(table.payment_risk),
            _fmt_column(table.profit),
        ],
    )


def _corrupt_schedule(schedule: PriceSchedule, kind: str) -> None:
    n = schedule.n_open
    if kind == "halve_prices":
        schedule.p[n // 2 : n] *= 0.5
    elif kind == "early_close" and n > 0:
        schedule.p[n - 1] = np.nan
        schedule.closed_from = n - 1


def _load(
    scenario_path: Path,
    grid_cells: Optional[int] = None,
    admissible: Optional[str] = None,
) -> Scenario:
    sc = load_scenario(scenario_path, n_cells=grid_cells)
    if admissible:
        sc.admissible = tuple(admissible.split(","))
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


def _manifest(scenario_path: Path, outcome: ContractOutcome) -> str:
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
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def cmd_solve(
    scenario_path: Path,
    out_dir: Path,
    alpha: Optional[float] = None,
    grid_cells: Optional[int] = None,
    admissible: Optional[str] = None,
) -> int:
    sc = _load(scenario_path, grid_cells, admissible)
    if alpha is not None:
        sc.alpha = alpha
    outcome = _solve_scenario(sc)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "schedule.csv", schedule_csv(outcome.schedule))
    _write_atomic(out_dir / "outcome.csv", outcome_csv(outcome))
    if sc.alpha is not None:
        table = settlement_table(outcome, sc.alpha)
        _write_atomic(out_dir / "settlement.csv", settlement_csv(table))
    _write_atomic(out_dir / "run_manifest.json", _manifest(scenario_path, outcome))
    return 0


def cmd_verify(scenario_path: Path, grid_cells: Optional[int] = None) -> int:
    sc = _load(scenario_path, grid_cells)
    outcome = _solve_scenario(sc)
    if sc.corruption is not None:
        _corrupt_schedule(outcome.schedule, sc.corruption)
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
    header = ["q_MWh", "p_k$_per_MWh", "t_k$"]
    if n == 0:
        series = "# schedule closed at q=0; no open quantity range\n" + _csv_text(header, [])
    else:
        columns = (schedule.grid.points[:n], schedule.p[:n], schedule.payments()[:n])
        series = _csv_text(header, [_fmt_column(c) for c in columns])
    _write_atomic(out_dir / "price_series.csv", series)
    markers = _csv_text(
        ["type_id", "q_MWh", "t_k$"],
        [
            list(map(_csv_field, outcome.admissible_ids)),
            _fmt_column(outcome.q),
            _fmt_column(outcome.payment),
        ],
    )
    _write_atomic(out_dir / "type_markers.csv", markers)
    return 0


def cmd_exclusion_search(
    scenario_path: Path, out_dir: Path, grid_cells: Optional[int] = None
) -> int:
    sc = _load(scenario_path, grid_cells)
    ids, outcome = _search(sc)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "schedule.csv", schedule_csv(outcome.schedule))
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
