"""The columnar settlement table and CSV writers against the row-wise
writers they replaced, kept here as references: byte-equal output on every
bundled scenario, with --alpha, --admissible, a fully closed schedule and a
type id that needs CSV quoting."""
import csv
import io
import math
import sys

import numpy as np
import pytest

from procure.cli import _csv_field, _load, _solve_scenario, main, schedule_csv
from procure.csvfmt import FIELD, format_g12
from procure.mechanism import PriceSchedule, QuantityGrid
from procure.settlement import SettlementRow, _payment_at

SIMPLE_YAML = """\
description: simple pair whose ids need CSV quoting
weather: {{kind: weibull, shape: 3.0, mean: 5.0, n_points: 60}}
cost_model: {{kind: simple}}
types:
  - {{id: '{worse}', params: {{c0: 4, theta_c: 1.2, gamma: 1}}}}
  - {{id: '{better}', params: {{c0: 4, theta_c: 1.2, gamma: 2}}}}
buyer:
  marginal_utility: {{kind: affine, intercept: {intercept}, slope: 1.5e-3}}
grid: {{q_max: 300, n_cells: 150}}
options: {{alpha: 0.4}}
"""

# a comma and a quote in one id (YAML doubles the single quote), and a
# quote alone in the other
QUOTED = SIMPLE_YAML.format(worse='lo,"x', better="hi''s", intercept=1.0)
# the buyer values no unit above any seller's cost: every cell is closed
CLOSED = SIMPLE_YAML.format(worse="a", better="b", intercept=1e-4)


def _fmt(x):
    return f"{x:.12g}"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def ref_settlement_table(outcome, alpha):
    """One (type, state) row at a time, with the scalar cost calls."""
    schedule, inst = outcome.schedule, outcome.instance
    space, model, worst = inst.space, inst.model, inst.worst_type
    grid = schedule.grid
    pts, t = grid.points, schedule.payments()
    speeds = inst.weather.speeds
    q, payment, expected = (
        c.tolist() for c in (outcome.q, outcome.payment, outcome.expected_cost)
    )
    if worst is not None:
        q_worst = q[inst.worst]
        t_worst = _payment_at(grid, pts, t, q_worst)
        worst_cost = [model.realized_cost(worst, q_worst, w) for w in speeds]
    rows = []
    for i, x in enumerate(space):
        if worst is not None:
            shift = _payment_at(grid, pts, t, q[i]) - t_worst
            expost = [shift + c for c in worst_cost]
        else:
            expost = [None] * len(speeds)
        for w, payment_expost in zip(speeds, expost):
            cost = model.realized_cost(x, q[i], w)
            risk = payment[i] + alpha * (cost - expected[i])
            rows.append(
                SettlementRow(
                    type_id=x.id,
                    w=w,
                    generation=model.generation(x, w),
                    realized_cost=cost,
                    payment_base=payment[i],
                    payment_expost=payment_expost,
                    payment_risk=risk,
                    profit=risk - cost,
                )
            )
    return rows


def ref_schedule_csv(schedule):
    t = schedule.payments().tolist()
    p = schedule.p.tolist()
    rows = []
    for k, q in enumerate(schedule.grid.points.tolist()):
        if k < schedule.grid.n_cells and not math.isnan(p[k]):
            p_cell = p_kwh = _fmt(p[k])
        else:
            p_cell = p_kwh = "closed"
        rows.append([_fmt(q), p_cell, p_kwh, _fmt(t[k])])
    return _csv_text(["q_MWh", "p_k$_per_MWh", "p_$_per_kWh", "t_k$"], rows)


def ref_outcome_csv(outcome):
    columns = (outcome.q, outcome.payment, outcome.expected_cost, outcome.utility)
    rows = [
        [type_id, *(_fmt(float(c[i])) for c in columns)]
        for i, type_id in enumerate(outcome.admissible_ids)
    ]
    return _csv_text(["type_id", "q", "payment", "expected_cost", "utility"], rows)


def ref_settlement_csv(rows):
    out = [
        [
            r.type_id,
            _fmt(r.w),
            _fmt(r.generation),
            _fmt(r.realized_cost),
            _fmt(r.payment_base),
            "" if r.payment_expost is None else _fmt(r.payment_expost),
            _fmt(r.payment_risk),
            _fmt(r.profit),
        ]
        for r in rows
    ]
    header = [
        "type_id", "w", "g_w", "realized_cost", "payment_base",
        "payment_expost", "payment_risk_alpha", "profit",
    ]
    return _csv_text(header, out)


def ref_plotdata(outcome):
    schedule = outcome.schedule
    pts = schedule.grid.points
    t = schedule.payments()
    n = schedule.n_open
    if n == 0:
        series = "# schedule closed at q=0; no open quantity range\n" + _csv_text(
            ["q_MWh", "p_k$_per_MWh", "t_k$"], []
        )
    else:
        rows = [
            [_fmt(float(pts[k])), _fmt(float(schedule.p[k])), _fmt(float(t[k]))]
            for k in range(n)
        ]
        series = _csv_text(["q_MWh", "p_k$_per_MWh", "t_k$"], rows)
    markers = _csv_text(
        ["type_id", "q_MWh", "t_k$"],
        [
            [type_id, _fmt(float(outcome.q[i])), _fmt(float(outcome.payment[i]))]
            for i, type_id in enumerate(outcome.admissible_ids)
        ],
    )
    return {"price_series.csv": series, "type_markers.csv": markers}


def _scenario(name, scenario_dir, tmp_path):
    if name in ("quoted", "closed"):
        path = tmp_path / f"{name}.yaml"
        path.write_text(QUOTED if name == "quoted" else CLOSED)
        return path
    return scenario_dir / name


def _read(out):
    return {p.name: p.read_text() for p in out.iterdir()}


@pytest.mark.parametrize(
    "name, args",
    [
        ("six_types.yaml", []),
        ("simple_worst.yaml", []),
        ("six_types_corrupted.yaml", []),
        ("tiny_oracle.yaml", []),
        ("tiny_oracle.yaml", ["--alpha", "0.3"]),
        ("six_types.yaml", ["--alpha", "0.7", "--admissible", "a,b,c"]),
        ("simple_worst.yaml", ["--alpha", "1", "--admissible", "g1"]),
        ("simple_worst.yaml", ["--alpha", "0", "--grid-cells", "77"]),
        ("quoted", []),
        ("quoted", ["--admissible", "hi's", "--alpha", "0.9"]),
        ("closed", []),
    ],
)
def test_solve_outputs_equal_row_wise_reference(scenario_dir, tmp_path, name, args):
    path = _scenario(name, scenario_dir, tmp_path)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out), *args]) == 0
    opts = dict(zip(args[::2], args[1::2]))
    sc = _load(path, int(opts.get("--grid-cells", 0)) or None, opts.get("--admissible"))
    alpha = float(opts["--alpha"]) if "--alpha" in opts else sc.alpha
    outcome = _solve_scenario(sc)
    want = {
        "schedule.csv": ref_schedule_csv(outcome.schedule),
        "outcome.csv": ref_outcome_csv(outcome),
    }
    if alpha is not None:
        want["settlement.csv"] = ref_settlement_csv(ref_settlement_table(outcome, alpha))
    got = _read(out)
    got.pop("run_manifest.json")
    assert got == want


@pytest.mark.parametrize(
    "name", ["six_types.yaml", "simple_worst.yaml", "tiny_oracle.yaml", "quoted", "closed"]
)
def test_plotdata_equals_row_wise_reference(scenario_dir, tmp_path, name):
    path = _scenario(name, scenario_dir, tmp_path)
    out = tmp_path / "plot"
    assert main(["plotdata", str(path), "--out", str(out)]) == 0
    assert _read(out) == ref_plotdata(_solve_scenario(_load(path)))


@pytest.mark.parametrize(
    "n_cells, closed_from",
    [(40, None), (40, 0), (40, 17), (40, 39), (1, None), (1, 0)],
    ids=["open", "closed-at-0", "mid-grid", "last-cell", "one-cell-open", "one-cell-closed"],
)
def test_schedule_csv_equals_row_wise_reference(n_cells, closed_from):
    rng = np.random.default_rng(n_cells * 100 + (closed_from or 0))
    grid = QuantityGrid(q_max=123.4, n_cells=n_cells)
    p = rng.uniform(0.0, 2.0, n_cells)
    if closed_from is not None:
        p[closed_from:] = np.nan
    schedule = PriceSchedule(grid=grid, p=p, t0=3.7)
    assert schedule.closed_from == closed_from
    assert schedule_csv(schedule) == ref_schedule_csv(schedule)


def test_schedule_csv_keeps_the_sign_of_a_zero_payment():
    # t = t0 + cumulative payments is -0.0 at the first closed point and
    # +0.0 after it (-0.0 + 0.0 is +0.0): the closed rows are not all alike
    grid = QuantityGrid(q_max=4.0, n_cells=4)
    schedule = PriceSchedule(grid=grid, p=np.array([-0.0, np.nan, np.nan, np.nan]), t0=-0.0)
    assert schedule.payments()[1:].tolist() == [-0.0, 0.0, 0.0, 0.0]
    text = schedule_csv(schedule)
    assert text == ref_schedule_csv(schedule)
    assert text.splitlines()[2:] == ["1,closed,closed,-0", "2,closed,closed,0",
                                     "3,closed,closed,0", "4,closed,closed,0"]


def test_quoted_ids_and_closed_schedule_are_exercised(tmp_path):
    # the two in-test scenarios reach the cases they are here for
    assert _csv_field('lo,"x') == '"lo,""x"'
    assert _csv_field("hi's") == "hi's"
    path = tmp_path / "closed.yaml"
    path.write_text(CLOSED)
    assert _solve_scenario(_load(path)).schedule.n_open == 0


def _texts(values):
    """format_g12's fields as strings, the NUL padding removed, in C order."""
    rows = format_g12(values).reshape(-1, FIELD)
    return [row.tobytes().translate(None, b"\0").decode() for row in rows]


def test_format_g12_equals_scalar_format():
    special = [
        0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
        sys.float_info.max, -sys.float_info.max, 0.1, 0.1, 1.0, 1.0, 0.0, -0.0,
    ]
    rng = np.random.default_rng(20260418)
    bits = rng.integers(-(2**63), 2**63, size=100_000, dtype=np.int64)
    values = np.concatenate([np.array(special), bits.view(np.float64)])
    assert _texts(values) == [f"{x:.12g}" for x in values.tolist()]
    # two-dimensional input is read in C order
    grid = values[:60].reshape(6, 10)
    assert _texts(grid) == [f"{x:.12g}" for x in grid.ravel().tolist()]
    assert _texts(np.empty(0)) == []
