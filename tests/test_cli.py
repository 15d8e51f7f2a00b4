"""End-to-end CLI tests: deterministic outputs, exit codes, and scenario
validation errors."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import procure
from procure.cli import _write_atomic, main
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


@pytest.mark.parametrize(
    "name, shape",
    [
        ("six_types.yaml", (6, 200, 82, None, "a-posteriori")),
        ("simple_worst.yaml", (2, 200, 191, "g1", "worst-type")),
    ],
)
def test_manifest_records_shape_and_branch(scenario_dir, tmp_path, name, shape):
    out = tmp_path / "out"
    assert main(["solve", str(scenario_dir / name), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    keys = ("types", "weather_states", "n_open", "worst_type", "anchor")
    assert tuple(manifest[key] for key in keys) == shape


# t3's cell cost equals V' = 0.4 in cells 1-3 up to rounding, which falls
# below it in cell 1 only
CLOSURE_TIE_YAML = """\
weather: {kind: empirical, samples: [3.0, 8.0]}
cost_model: {kind: simple}
types:
  - {id: t1, prior: 1, params: {c0: 0.5, theta_c: 2.0, gamma: 0.001}}
  - {id: t3, prior: 0, params: {c0: 0.5, theta_c: 0.8, gamma: 0.027}}
buyer: {marginal_utility: {kind: affine, intercept: 0.4, slope: 0}}
grid: {q_max: 14.0, n_cells: 5}
"""


def test_a_closure_tie_that_rounding_breaks_unevenly_solves_and_verifies(tmp_path, capsys):
    # solve exited 2 here with "cell 2 reopened after closure at 1"
    path = tmp_path / "tie.yaml"
    path.write_text(CLOSURE_TIE_YAML)
    inst = load_scenario(path).instance
    assert (inst.vbar < inst.cbar.min(axis=0)).tolist() == [False, True, False, True, True]
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "run_manifest.json").read_text())["n_open"] == 1
    assert main(["verify", str(path)]) == 0
    report = capsys.readouterr().out
    assert report.count(" status=pass ") == 8
    assert "witness=oracle=-0.5 solver=-0.5" in report


def test_solve_is_byte_identical_across_runs(scenario_dir, tmp_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["solve", str(scenario_dir / "six_types.yaml"), "--out", str(out)]) == 0
        outs.append(_read_all(out))
    assert outs[0] == outs[1]


def test_write_atomic_streams_and_leaves_nothing_behind_on_error(tmp_path):
    path = tmp_path / "settlement.csv"
    _write_atomic(path, (bytes([65 + i]) * 3 for i in range(3)))
    assert path.read_bytes() == b"AAABBBCCC"

    def failing():
        yield b"partial\n"
        raise RuntimeError("formatter failed")

    with pytest.raises(RuntimeError, match="formatter failed"):
        _write_atomic(path, failing())
    assert path.read_bytes() == b"AAABBBCCC"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["settlement.csv"]


def test_verify_exit_codes(scenario_dir):
    assert main(["verify", str(scenario_dir / "six_types.yaml")]) == 0
    assert main(["verify", str(scenario_dir / "simple_worst.yaml")]) == 0
    assert main(["verify", str(scenario_dir / "tiny_oracle.yaml")]) == 0


def test_verify_fails_on_corrupted_scenario(scenario_dir, capsys):
    # halved prices leave the candidates (pointwise). Every type's quantity
    # is its best response to the halved schedule under its own t0, so the
    # threshold audit (quasi_concavity) agrees with it, and the halved
    # schedule is incentive compatible (ic, vp and monotone pass)
    rc = main(["verify", str(scenario_dir / "six_types_corrupted.yaml")])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[0] for line in lines if " status=FAIL " in line}
    assert failed == {"check=pointwise"}
    # six_types has 82 open cells, and halve_prices halves p[41:]
    pointwise = next(line for line in lines if line.startswith("check=pointwise "))
    assert pointwise.endswith("witness=cell 41: p not a candidate")


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


WIND_YAML = """\
weather: {weather}
cost_model: {{kind: wind_conventional}}
types:
  - {{id: a, params: {{c0: 4, theta_w: 0.2, theta_c: 1.2, v_ci: 3, v_r: {v_r}, v_co: 1.0e+300, gamma: 1}}}}
  - {{id: b, params: {{c0: 5, theta_w: 0.1, theta_c: 1.2, v_ci: 3, v_r: 13, v_co: 20, gamma: 1}}}}
buyer: {{marginal_utility: {{kind: affine, intercept: 0.55, slope: 1.0e-4}}}}
grid: {{n_cells: 50}}
"""

CALM = "{kind: weibull, shape: 3.0, mean: 5.0, n_points: 50}"


def _exits_2_with(path, tmp_path, capsys, message, end=" overflows\n", solve=True):
    """verify, and solve unless solve is False, exit 2 with one stderr line
    that starts with message and ends with end, and solve writes nothing."""
    out = tmp_path / "out"
    commands = [["verify", str(path)], ["solve", str(path), "--out", str(out)]]
    for argv in commands if solve else commands[:1]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.endswith(end)
        assert err.count("\n") == 1
        assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["simple", "wind_conventional"])
@pytest.mark.parametrize(
    "weather, message",
    [
        ("{kind: weibull, shape: 0.001, mean: 5.0, n_points: 20}",
         "error: weibull shape 0.001 is too small, Gamma(1 + 1/shape) overflows\n"),
        ("{kind: weibull, shape: 3.0, mean: 1.0e+300, n_points: 20}",
         "error: weather: wind speed 3.28815"),
        ("{kind: empirical, samples: [3.0, 2.0e+200]}",
         "error: weather: wind speed 2e+200 is too large, w**3 overflows\n"),
    ],
    ids=["weibull-shape", "weibull-mean", "empirical-sample"],
)
def test_overflowing_weather_exits_2(tmp_path, capsys, kind, weather, message):
    # these raised OverflowError, a traceback and exit 1, which verify
    # uses for a failed check; the simple model cubes the top speed in the
    # startup-cost check, the wind model in its expected-cost rows
    path = tmp_path / "big.yaml"
    if kind == "simple":
        text = TINY_YAML.format(extra="")
        path.write_text(text.replace(f"weather: {CALM}", f"weather: {weather}"))
    else:
        path.write_text(WIND_YAML.format(weather=weather, v_r=13))
    _exits_2_with(path, tmp_path, capsys, message)


def test_overflowing_rated_speed_exits_2(tmp_path, capsys):
    path = tmp_path / "big.yaml"
    path.write_text(WIND_YAML.format(weather=CALM, v_r="1.0e+200"))
    message = "error: type 'a': parameter v_r=1e+200 is too large, v_r**3 overflows\n"
    _exits_2_with(path, tmp_path, capsys, message)


@pytest.mark.parametrize("kind", ["early_close", "halve_prices"])
def test_corruption_that_changes_no_price_exits_2(scenario_dir, tmp_path, capsys, kind):
    # at slope 1.0 every cell of tiny_oracle is closed, so neither kind has
    # a price to change, and verify passed every check: no negative control
    text = (scenario_dir / "tiny_oracle.yaml").read_text()
    path = tmp_path / "closed.yaml"
    path.write_text(text.replace("slope: 4.0e-3", "slope: 1.0")
                    + f"options: {{corruption: {kind}}}\n")
    message = f"error: options.corruption: {kind!r} changes no price of the schedule\n"
    _exits_2_with(path, tmp_path, capsys, message, end="\n", solve=False)


def test_underflowing_cell_width_exits_2(scenario_dir, tmp_path, capsys, ec_calls):
    # dq = 1e-323 / 4 rounds to 0, so the grid points repeat: the grid is
    # refused before V or any expected cost is computed on it
    path = tmp_path / "tiny.yaml"
    text = (scenario_dir / "tiny_oracle.yaml").read_text()
    path.write_text(text.replace("{q_max: 120, n_cells: 6}", "{q_max: 1.0e-323, n_cells: 4}"))
    message = "error: q_max / n_cells must be positive, got 1e-323 / 4\n"
    _exits_2_with(path, tmp_path, capsys, message, end="\n")
    assert not ec_calls


@pytest.mark.parametrize(
    "grid", ["{q_max: 1.0e+160, n_cells: 1}", "{q_max: 1.0e+200, n_cells: 4}"]
)
def test_overflowing_buyer_value_exits_2(scenario_dir, tmp_path, capsys, ec_calls, grid):
    # verify passed the first grid with a pointwise gate of inf, and solve
    # called the second a reopened cell: V(q)'s q * q overflows on both
    path = tmp_path / "big.yaml"
    text = (scenario_dir / "tiny_oracle.yaml").read_text()
    path.write_text(text.replace("grid: {q_max: 120, n_cells: 6}", f"grid: {grid}"))
    _exits_2_with(path, tmp_path, capsys, "error: buyer: V(q) on the cell from q = 0 overflows")
    assert not ec_calls


@pytest.mark.parametrize(
    "weather",
    ["{kind: weibull, shape: 3.0, mean: 1.0e+300, n_points: 30}",
     "{kind: empirical, samples: [3.0, 2.0e+200]}"],
    ids=["weibull-mean", "empirical-sample"],
)
def test_plugin_that_never_cubes_takes_any_finite_speed(tmp_path, monkeypatch, capsys, weather):
    from test_scenario import PLUGIN_YAML, SQRT_WIND_PLUGIN  # test_scenario imports this module

    (tmp_path / "sqrt_wind_plugin.py").write_text(SQRT_WIND_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    path = tmp_path / "plugin.yaml"
    path.write_text(
        PLUGIN_YAML.format(target="sqrt_wind_plugin:SqrtWind").replace(
            "{kind: weibull, shape: 3.0, mean: 5.0, n_points: 30}", weather
        )
    )
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", ["", "a,"])
def test_solve_admissible_naming_no_type_exits_2(scenario_dir, tmp_path, capsys, flag):
    # an empty --admissible used to solve every type and exit 0, while
    # options: {admissible: []} exits 2
    out = tmp_path / "out"
    rc = main(["solve", str(scenario_dir / "six_types.yaml"), "--out", str(out),
               "--admissible", flag])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: admissible subset is empty" if flag == ""
                          else "error: unknown type ids in admissible set: ['']")
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("alpha", ["1.5", "-0.25", "nan"])
def test_bad_alpha_leaves_the_output_directory_as_it_was(scenario_dir, tmp_path, capsys, alpha):
    path = str(scenario_dir / "tiny_oracle.yaml")
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out), "--alpha", "0.4"]) == 0
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    assert "settlement.csv" in before
    assert main(["solve", path, "--out", str(out), "--alpha", alpha]) == 2
    after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    assert after == before
    assert main(["solve", path, "--out", str(tmp_path / "new"), "--alpha", alpha]) == 2
    assert not (tmp_path / "new").exists()
    err = capsys.readouterr().err
    assert err.count(f"error: --alpha: {float(alpha)} outside [0, 1]") == 2
    assert "Traceback" not in err


def test_exclusion_search_command(scenario_dir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["exclusion-search", str(scenario_dir / "tiny_oracle.yaml"), "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "best admissible set" in text
    assert "buying nothing" not in text
    assert (out / "outcome.csv").exists()
    # the printed set is the one the written outcome was solved on
    manifest = json.loads((out / "run_manifest.json").read_text())
    first = text.splitlines()[0]
    assert first == "best admissible set (exhaustive): " + ",".join(manifest["admissible"])


def test_exclusion_search_command_writes_settlement_with_alpha(scenario_dir, tmp_path):
    # the command writes what solve writes for a scenario that turns the
    # search on, settlement.csv included
    path = tmp_path / "tiny.yaml"
    text = (scenario_dir / "tiny_oracle.yaml").read_text()
    path.write_text(text + "options: {exclusion_search: true, alpha: 0.5}\n")
    outs = {}
    for command in ("solve", "exclusion-search"):
        outs[command] = tmp_path / command
        assert main([command, str(path), "--out", str(outs[command])]) == 0
    written = _read_all(outs["exclusion-search"])
    assert "settlement.csv" in written
    assert written == _read_all(outs["solve"])


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
    scenario_dir, tmp_path, capsys, ec_calls, options, argv
):
    # the search picks the admissible set itself; it used to search every
    # type and report them all as admissible, exit 0. The conflict is found
    # before the instance is built
    path = tmp_path / "tiny.yaml"
    path.write_text((scenario_dir / "tiny_oracle.yaml").read_text() + f"options: {options}\n")
    out = tmp_path / "out"
    rc = main([argv[0], str(path), "--out", str(out), *argv[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exclusion search conflicts with the admissible set hi")
    assert "Traceback" not in err
    assert not out.exists()
    assert not ec_calls


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


@pytest.mark.parametrize(
    "replacements",
    [
        [("{id: lo,", "{prior: 0, id: lo,"), ("{id: hi,", "{prior: 1, id: hi,")],
        [("{kind: weibull, shape: 3.0, mean: 5.0, n_points: 50}",
          "{kind: empirical, samples: [6.0]}")],
        [("c0: 3, theta_c: 1.4, gamma: 1", "c0: 2, theta_c: 1.0, gamma: 2")],
        [("{kind: affine, intercept: 0.9, slope: 4.0e-3}",
          "{kind: piecewise, breakpoints: "
          "[[0, 0.9], [30, 0.9], [60, 0.5], [90, 0.5], [120, 0.2]]}")],
        [("slope: 4.0e-3", "slope: 1.0")],
    ],
    ids=["zero-prior", "one-state-weather", "identical-types", "flat-piecewise-v", "closed"],
)
def test_odd_but_valid_inputs_run_cleanly(request, tmp_path, capsys, replacements):
    # one-state weather costs nothing per cell, so tol_grid is 0 while ic,
    # vp and monotone gate on the round-off of utilities that are not 0;
    # the closed schedule opens no cell, so every admissible set pays t0
    # for nothing and buying nothing beats them all
    text = TINY_YAML.format(extra="")
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "odd.yaml"
    path.write_text(text)
    for argv in (["solve", "--out", str(tmp_path / "solve")], ["verify"],
                 ["exclusion-search", "--out", str(tmp_path / "search")]):
        assert main([argv[0], str(path), *argv[1:]]) == 0, argv[0]
    out, err = capsys.readouterr()
    assert err == ""
    checks = [line for line in out.splitlines() if line.startswith("check=")]
    assert len(checks) == 8 and all(" status=pass " in line for line in checks), out
    assert "nan" not in out
    nothing = "\nbuying nothing beats every admissible set (buyer utility 0)\n"
    assert (nothing in out) == (request.node.callspec.id == "closed"), out


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
