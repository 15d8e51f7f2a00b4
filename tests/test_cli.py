"""End-to-end CLI tests: deterministic outputs, exit codes, and scenario
validation errors."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import procure
from procure.cli import main, read_schedule_csv
from procure.errors import CellReopenedError
from procure.mechanism import QuantityGrid
from procure.scenario import load_scenario

TINY_YAML = """\
description: tiny two-type instance
weather: {{kind: weibull, shape: 3.0, mean: 5.0, n_points: 50}}
cost_model: {{kind: simple}}
types:
  - {{id: lo, params: {{c0: 2, theta_c: 1.0, gamma: 2}}}}
  - {{id: hi, params: {{c0: 3, theta_c: 1.4, gamma: 1}}}}
buyer:
  marginal_utility: {{kind: affine, intercept: 0.9, slope: 4.0e-3}}
grid: {{q_max: 120, n_cells: 6}}
{extra}
"""


def _read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_solve_writes_expected_files(scenario_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", str(scenario_dir / "six_types.yaml"), "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    # six_types sets alpha, so the settlement table is included
    assert names == {"schedule.csv", "outcome.csv", "settlement.csv", "run_manifest.json"}
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["grid"]["n_cells"] == 2000
    assert manifest["admissible"] == ["a", "b", "c", "d", "e", "f"]
    assert manifest["buyer_utility"] > 0.0


def test_solve_is_byte_identical_across_runs(scenario_dir, tmp_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["solve", str(scenario_dir / "six_types.yaml"), "--out", str(out)]) == 0
        outs.append(_read_all(out))
    assert outs[0] == outs[1]


def test_schedule_csv_roundtrip(scenario_dir, tmp_path):
    out = tmp_path / "out"
    path = scenario_dir / "simple_worst.yaml"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    sc = load_scenario(path)
    schedule = read_schedule_csv(out / "schedule.csv", sc.grid)
    assert schedule.grid.n_cells == sc.grid.n_cells
    assert schedule.t0 == pytest.approx(4.0, abs=1e-9)
    assert schedule.n_open > 0


def test_read_schedule_csv_rejects_a_price_after_closure(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text(
        "q_MWh,p_k$_per_MWh,p_$_per_kWh,t_k$\n0,1,1,0\n1,closed,closed,1\n"
        "2,0.5,0.5,1\n3,closed,closed,1\n4,closed,closed,1\n"
    )
    with pytest.raises(CellReopenedError, match="^cell 2 reopened after closure at 1$"):
        read_schedule_csv(path, QuantityGrid(q_max=4.0, n_cells=4))


def test_verify_exit_codes(scenario_dir):
    assert main(["verify", str(scenario_dir / "six_types.yaml")]) == 0
    assert main(["verify", str(scenario_dir / "simple_worst.yaml")]) == 0
    assert main(["verify", str(scenario_dir / "tiny_oracle.yaml")]) == 0


def test_verify_fails_on_corrupted_scenario(scenario_dir, capsys):
    # halved prices leave the candidates (pointwise) and move the threshold
    # quantities off the solver's (quasi_concavity, read from the schedule)
    rc = main(["verify", str(scenario_dir / "six_types_corrupted.yaml")])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[0] for line in lines if " status=FAIL " in line}
    assert failed == {"check=pointwise", "check=quasi_concavity"}


@pytest.mark.parametrize(
    "weather",
    [
        "{kind: empirical, samples: [3.0, .nan, 5.0]}",
        "{kind: empirical, samples: [.inf]}",
    ],
)
def test_non_finite_weather_exits_2(scenario_dir, tmp_path, capsys, weather):
    # a NaN speed used to make every expected cost flat at c0: verify
    # passed every check and solve priced every open cell at 0
    text = (scenario_dir / "tiny_oracle.yaml").read_text()
    head, _, rest = text.partition("weather:")
    path = tmp_path / "bad_weather.yaml"
    path.write_text(head + f"weather: {weather}\n" + rest.partition("\n")[2])
    for argv in (["verify", str(path)], ["solve", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite weather state w=")
        assert "Traceback" not in err


def test_plotdata_outputs(scenario_dir, tmp_path):
    out = tmp_path / "plot"
    rc = main(["plotdata", str(scenario_dir / "six_types.yaml"), "--out", str(out)])
    assert rc == 0
    series = (out / "price_series.csv").read_text()
    header, first = series.splitlines()[:2]
    assert header == "q_MWh,p_k$_per_MWh,t_k$"
    assert len(series.splitlines()) > 50
    markers = (out / "type_markers.csv").read_text().splitlines()
    assert markers[0] == "type_id,q_MWh,t_k$"
    assert len(markers) == 7


def test_solve_grid_cells_override(scenario_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "solve",
            str(scenario_dir / "six_types.yaml"),
            "--out",
            str(out),
            "--grid-cells",
            "500",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["grid"]["n_cells"] == 500


def test_solve_admissible_subset(scenario_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "solve",
            str(scenario_dir / "six_types.yaml"),
            "--out",
            str(out),
            "--admissible",
            "a,b,c",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["admissible"] == ["a", "b", "c"]


def test_solve_alpha_override_adds_settlement(scenario_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "solve",
            str(scenario_dir / "simple_worst.yaml"),
            "--out",
            str(out),
            "--alpha",
            "0.25",
        ]
    )
    assert rc == 0
    assert (out / "settlement.csv").exists()


def test_exclusion_search_command(scenario_dir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["exclusion-search", str(scenario_dir / "tiny_oracle.yaml"), "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "best admissible set" in text
    assert (out / "outcome.csv").exists()


@pytest.mark.parametrize(
    "options, argv",
    [
        ("{exclusion_search: true, admissible: [hi]}", ["solve"]),
        ("{exclusion_search: true}", ["solve", "--admissible", "hi"]),
        ("{admissible: [hi]}", ["exclusion-search"]),
    ],
    ids=["solve-options", "solve-flag", "exclusion-search-command"],
)
def test_exclusion_search_with_admissible_set_exits_2(
    scenario_dir, tmp_path, capsys, options, argv
):
    # the search picks the admissible set itself; it used to search every
    # type and report them all as admissible, exit 0
    path = tmp_path / "tiny.yaml"
    path.write_text((scenario_dir / "tiny_oracle.yaml").read_text() + f"options: {options}\n")
    out = tmp_path / "out"
    rc = main([argv[0], str(path), "--out", str(out), *argv[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exclusion search conflicts with the admissible set hi")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("prior: -0.5", "negative prior"),
        ("REMOVE_BUYER", "missing required field 'buyer'"),
        ("unknown_top: 1", "unknown fields"),
        ("options: {alpha: 1.5}", "outside [0, 1]"),
        ("options: {corruption: nonsense}", "unknown corruption"),
    ],
)
def test_bad_scenarios_exit_2_with_message(tmp_path, capsys, mutation, fragment):
    if mutation == "REMOVE_BUYER":
        text = TINY_YAML.format(extra="")
        text = "\n".join(
            line
            for line in text.splitlines()
            if "buyer" not in line and "marginal_utility" not in line
        )
    elif mutation.startswith("prior:"):
        text = TINY_YAML.format(extra="")
        text = text.replace(
            "{id: lo, params:", "{" + mutation + ", id: lo, params:"
        ).replace("{id: hi, params:", "{prior: 0.5, id: hi, params:")
    else:
        text = TINY_YAML.format(extra=mutation)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert fragment in err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "out")])
    assert rc == 2


# ids that are not ASCII, and one that needs CSV quoting
UNICODE_YAML = """\
description: non-ASCII type ids
weather: {kind: weibull, shape: 3.0, mean: 5.0, n_points: 40}
cost_model: {kind: simple}
types:
  - {id: "é1", params: {c0: 4, theta_c: 1.2, gamma: 1}}
  - {id: 'ü,"2', params: {c0: 4, theta_c: 1.2, gamma: 2}}
buyer:
  marginal_utility: {kind: affine, intercept: 1.0, slope: 1.5e-3}
grid: {q_max: 300, n_cells: 150}
options: {alpha: 0.4}
"""


def _procure(argv, **env):
    """procure run in a child process under the given environment, with
    default-encoding warnings on."""
    src = str(Path(procure.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-m", "procure.cli", *argv],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )


def test_outputs_do_not_depend_on_the_locale(tmp_path):
    path = tmp_path / "unicode.yaml"
    path.write_bytes(UNICODE_YAML.encode("utf-8"))
    outs = {}
    for name, env in (
        ("ascii", {"PYTHONUTF8": "0", "LC_ALL": "POSIX"}),
        ("utf8", {"LC_ALL": "C.UTF-8"}),
    ):
        out = tmp_path / name
        outs[name] = {}
        for command, *options in (
            ("solve", "--out", str(out)),
            ("verify",),
            ("exclusion-search", "--out", str(tmp_path / f"{name}-search")),
        ):
            proc = _procure([command, str(path), *options], **env)
            assert proc.returncode == 0, proc.stderr
            assert "EncodingWarning" not in proc.stderr
            outs[name][command] = proc.stdout
        outs[name].update(_read_all(out))
    assert outs["ascii"] == outs["utf8"]
    assert "é1" in outs["ascii"]["verify"]
    outcome = outs["ascii"]["outcome.csv"].decode("utf-8").splitlines()
    assert [row.split(",")[0] for row in outcome[1:]] == ["é1", '"ü']
    assert outcome[2].startswith('"ü,""2",')


def test_scenario_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(UNICODE_YAML.encode("latin-1"))
    out = tmp_path / "out"
    proc = _procure(["solve", str(path), "--out", str(out)], PYTHONUTF8="0", LC_ALL="POSIX")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_nul_in_a_type_id_exits_2(tmp_path, capsys):
    path = tmp_path / "nul.yaml"
    path.write_text(TINY_YAML.format(extra="").replace("id: lo", 'id: "l\\0o"'))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: types[0].id: 'l\\x00o' holds a NUL character\n"
    assert not out.exists()
