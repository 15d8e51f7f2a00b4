"""The columnar settlement table and CSV writers against the row-wise
writers they replaced, kept here as references: byte-equal output on every
bundled scenario, with --alpha, --admissible, a fully closed schedule and a
type id that needs CSV quoting."""
import csv
import io
import math
import sys
import tracemalloc

import numpy as np
import pytest

from settlement_reference import expost_payment, risk_payment
from procure import cli, csvfmt
from procure.cli import (
    _csv_field, _schedule_chunks, _solve_scenario, main, schedule_csv, settlement_csv,
)
from procure.csvfmt import FIELD, format_g12
from procure.mechanism import PriceSchedule, QuantityGrid
from procure.scenario import load_scenario
from procure.settlement import SettlementRow, SettlementTable, settlement_table

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

MANY_YAML = """\
description: {description}
weather: {{kind: empirical, samples: {samples}}}
cost_model: {{kind: simple}}
types:
{types}buyer:
  marginal_utility: {{kind: affine, intercept: 1.0, slope: 1.5e-3}}
grid: {{q_max: 300, n_cells: 150}}
"""
# 40 types in a dominance chain over 3 states: several types share a block
# of settlement.csv (all 40 in one, or 3 at a time and 1 last in SMALL_SLAB
# blocks), and the ex-post column is written
MANY_TYPES = MANY_YAML.format(
    description="many types, few weather states",
    samples="[3.0, 8.0, 11.0]",
    types="".join(
        f"  - {{id: t{i}, params: {{c0: 4, theta_c: 1.2, gamma: {0.5 + 0.05 * i:.2f}}}}}\n"
        for i in range(40)
    ),
)
# 13 types whose costs cross over one weather state: no worst type, so no
# ex-post column; SMALL_SLAB blocks take 12 types and then 1
ONE_STATE = MANY_YAML.format(
    description="one-state weather",
    samples="[6.0]",
    types="".join(
        f"  - {{id: u{i}, params: {{c0: {4 + 0.1 * i:.1f}, theta_c: {1.3 - 0.02 * i:.2f}, gamma: 1}}}}\n"
        for i in range(13)
    ),
)
GENERATED = {"quoted": QUOTED, "closed": CLOSED, "many_types": MANY_TYPES, "one_state": ONE_STATE}


def _fmt(x):
    return f"{x:.12g}"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def ref_settlement_table(outcome, alpha):
    """One (type, state) row at a time, with the scalar cost calls and the
    per-row payment references."""
    inst = outcome.instance
    model, worst = inst.model, inst.worst_type
    payment = outcome.payment.tolist()
    rows = []
    for i, x in enumerate(inst.space):
        q = float(outcome.q[i])
        for w in inst.weather.speed_array.tolist():
            cost = model.realized_cost(x, q, w)
            risk = risk_payment(outcome, x, w, alpha, model)
            rows.append(
                SettlementRow(
                    type_id=x.id,
                    w=w,
                    generation=model.generation(x, w),
                    realized_cost=cost,
                    payment_base=payment[i],
                    payment_expost=None if worst is None else expost_payment(
                        outcome, outcome.schedule, worst, q, w, model
                    ),
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
        if k < len(p):
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
    if name in GENERATED:
        path = tmp_path / f"{name}.yaml"
        path.write_text(GENERATED[name])
        return path
    return scenario_dir / name


def _read(out):
    return {p.name: p.read_text() for p in out.iterdir()}


SOLVE_CASES = [
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
    ("many_types", ["--alpha", "0.6"]),
    ("one_state", ["--alpha", "0.6"]),
]
PLOT_CASES = ["six_types.yaml", "simple_worst.yaml", "tiny_oracle.yaml", "quoted", "closed"]
# padded bytes per CSV block small enough that schedule.csv's closed tail
# and settlement.csv span several blocks on the bundled scenarios
SMALL_SLAB = 2048


@pytest.mark.parametrize("name, args", SOLVE_CASES)
def test_solve_outputs_equal_row_wise_reference(scenario_dir, tmp_path, name, args):
    path = _scenario(name, scenario_dir, tmp_path)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out), *args]) == 0
    opts = dict(zip(args[::2], args[1::2]))
    ids = opts["--admissible"].split(",") if "--admissible" in opts else None
    sc = load_scenario(path, int(opts.get("--grid-cells", 0)) or None, ids)
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


@pytest.mark.parametrize("name", PLOT_CASES)
def test_plotdata_equals_row_wise_reference(scenario_dir, tmp_path, name):
    path = _scenario(name, scenario_dir, tmp_path)
    out = tmp_path / "plot"
    assert main(["plotdata", str(path), "--out", str(out)]) == 0
    assert _read(out) == ref_plotdata(_solve_scenario(load_scenario(path)))


@pytest.mark.parametrize("name, args", SOLVE_CASES)
def test_solve_outputs_in_small_blocks_equal_row_wise_reference(
    scenario_dir, tmp_path, monkeypatch, name, args
):
    monkeypatch.setattr(csvfmt, "SLAB_BYTES", SMALL_SLAB)
    test_solve_outputs_equal_row_wise_reference(scenario_dir, tmp_path, name, args)


@pytest.mark.parametrize("name", PLOT_CASES)
def test_plotdata_in_small_blocks_equals_row_wise_reference(
    scenario_dir, tmp_path, monkeypatch, name
):
    monkeypatch.setattr(csvfmt, "SLAB_BYTES", SMALL_SLAB)
    test_plotdata_equals_row_wise_reference(scenario_dir, tmp_path, name)


def test_small_blocks_split_the_closed_tail_and_settlement(scenario_dir, monkeypatch):
    # the small-block comparisons above reach the cases they are here for
    monkeypatch.setattr(csvfmt, "SLAB_BYTES", SMALL_SLAB)
    outcome = _solve_scenario(load_scenario(scenario_dir / "six_types.yaml"))
    # header, open rows, first closed row, then the tail's blocks
    assert len(list(_schedule_chunks(outcome.schedule))) > 3 + 10
    assert len(list(settlement_csv(settlement_table(outcome, 0.5)))) > 1 + 10


@pytest.mark.parametrize(
    "name, slab, lines",
    [
        ("many_types", csvfmt.SLAB_BYTES, [120]),
        ("many_types", SMALL_SLAB, [9] * 13 + [3]),
        ("one_state", SMALL_SLAB, [12, 1]),
        ("simple_worst.yaml", SMALL_SLAB, ([11] * 18 + [2]) * 2),
    ],
    ids=["many-types-one-block", "many-types-3-a-block", "one-state", "one-type-in-blocks"],
)
def test_settlement_blocks_hold_whole_types_or_part_of_one(
    scenario_dir, tmp_path, monkeypatch, name, slab, lines
):
    # a settlement.csv line takes 176 padded bytes with an ex-post column and
    # 160 without, so SMALL_SLAB holds 11 or 12 lines: 3 types of 3 states,
    # 12 types of one state, or 11 of one type's 200 states
    monkeypatch.setattr(csvfmt, "SLAB_BYTES", slab)
    outcome = _solve_scenario(load_scenario(_scenario(name, scenario_dir, tmp_path)))
    chunks = list(settlement_csv(settlement_table(outcome, 0.5)))
    assert [c.count(b"\n") for c in chunks[1:]] == lines


@pytest.mark.parametrize("n_types, n_states", [(200, 2000), (20, 2000), (2000, 5)])
def test_settlement_csv_peak_memory(n_types, n_states):
    # Repeating w, payment_base and the type ids over every row would hold
    # 22 MB at 200 x 2000, whatever the slab. format_g12 peaks at about 82
    # bytes a value (its 24-byte fields and the 8-byte temporaries), so a
    # block's floats, 6 a line, cost under 3 slabs, and its lines, their
    # bytes and the previous chunk 3 more; 8 leave room. The per-state and
    # per-type fields are formatted once, at the same cost a value.
    rng = np.random.default_rng(n_types)

    def column():
        return rng.uniform(-100.0, 100.0, (n_types, n_states))

    table = SettlementTable(
        type_ids=tuple(f"t{i}" for i in range(n_types)),
        w=rng.uniform(0.0, 20.0, n_states),
        payment_base=rng.uniform(0.0, 100.0, n_types),
        generation=column(),
        realized_cost=column(),
        payment_expost=column(),
        payment_risk=column(),
        profit=column(),
    )
    tracemalloc.start()
    try:
        for _ in settlement_csv(table):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * csvfmt.SLAB_BYTES + 128 * (n_states + n_types)


def test_solve_writes_the_text_schedule_csv_returns(scenario_dir, tmp_path, monkeypatch):
    # perfbench/selftest.py injects its fault by replacing cli.schedule_csv;
    # its text, here over two slabs and not ASCII, is what schedule.csv holds
    original = cli.schedule_csv

    def altered(schedule):
        return "é," * csvfmt.SLAB_BYTES + original(schedule)

    monkeypatch.setattr(cli, "schedule_csv", altered)
    path, out = scenario_dir / "tiny_oracle.yaml", tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    outcome = _solve_scenario(load_scenario(path))
    assert (out / "schedule.csv").read_bytes() == altered(outcome.schedule).encode("utf-8")


@pytest.mark.parametrize(
    "n_cells, n_open",
    [(40, 40), (40, 0), (40, 17), (40, 39), (1, 1), (1, 0)],
    ids=["open", "closed-at-0", "mid-grid", "last-cell", "one-cell-open", "one-cell-closed"],
)
def test_schedule_csv_equals_row_wise_reference(n_cells, n_open):
    rng = np.random.default_rng(n_cells * 100 + n_open)
    grid = QuantityGrid(q_max=123.4, n_cells=n_cells)
    p = rng.uniform(0.0, 2.0, n_cells)[:n_open]
    schedule = PriceSchedule(grid=grid, p=p, t0=3.7)
    assert schedule.n_open == n_open
    assert schedule_csv(schedule) == ref_schedule_csv(schedule)


def test_schedule_csv_keeps_the_sign_of_a_zero_payment():
    # t = t0 + cumulative payments is -0.0 at the first closed point and
    # +0.0 after it (-0.0 + 0.0 is +0.0): the closed rows are not all alike
    grid = QuantityGrid(q_max=4.0, n_cells=4)
    schedule = PriceSchedule(grid=grid, p=np.array([-0.0]), t0=-0.0)
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
    assert _solve_scenario(load_scenario(path)).schedule.n_open == 0


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
