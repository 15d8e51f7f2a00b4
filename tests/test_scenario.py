"""Scenario parsing: libyaml's loader builds the same objects as PyYAML's
pure-Python one, and malformed YAML is a configuration error."""
import importlib.util
from pathlib import Path

import pytest
import yaml

from procure.cli import main
from procure.errors import ConfigurationError
from procure.scenario import YAML_LOADER, load_scenario
from test_cli import TINY_YAML
from test_csv_output import CLOSED, QUOTED

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scenario_texts():
    texts = {p.name: p.read_text() for p in sorted((ROOT / "src/procure/scenarios").glob("*.yaml"))}
    texts["tiny"] = TINY_YAML.format(extra="options: {alpha: 0.25, admissible: [lo, hi]}")
    texts["quoted"] = QUOTED
    texts["closed"] = CLOSED
    workloads = _workloads()
    for name, generate in workloads.GENERATORS.items():
        for index in range(workloads.POOL):
            texts[f"{name}/{index}"] = generate(index)
    return texts


def _canonical(obj):
    """obj with every value tagged by its exact type and floats written as
    float.hex, so that equal results mean equal bits."""
    if isinstance(obj, dict):
        return ("dict", [(_canonical(k), _canonical(v)) for k, v in obj.items()])
    if isinstance(obj, list):
        return ("list", [_canonical(v) for v in obj])
    if isinstance(obj, float):
        return ("float", obj.hex())
    return (type(obj).__name__, obj)


def test_libyaml_loader_builds_the_pure_python_objects():
    texts = _scenario_texts()
    assert len(texts) == 4 + 3 + 48
    for name, text in texts.items():
        fast = yaml.load(text, Loader=YAML_LOADER)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert _canonical(fast) == _canonical(slow), name


def test_loader_is_libyaml_when_pyyaml_has_it():
    assert YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


@pytest.mark.parametrize(
    "text",
    [
        "weather: {kind: weibull, shape: 3.0\n",
        "weather:\n  kind: weibull\n shape: 3.0\n",
        "types:\n\t- {id: a}\n",
        "cost_model: *missing\n",
        "description: 'unterminated\n",
    ],
    ids=["unclosed-flow", "bad-indent", "tab", "undefined-alias", "unterminated-quote"],
)
def test_malformed_yaml_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not valid YAML" in err
    assert "Traceback" not in err


TINY = TINY_YAML.format(extra="")
LO_TYPE = "  - {id: lo, params: {c0: 2, theta_c: 1.0, gamma: 2}}"
HI_TYPE = "  - {id: hi, params: {c0: 3, theta_c: 1.4, gamma: 1}}"
BUYER = "  marginal_utility: {kind: affine, intercept: 0.9, slope: 4.0e-3}"
GRID = "grid: {q_max: 120, n_cells: 6}"


@pytest.mark.parametrize(
    "old, new, field",
    [
        (HI_TYPE, "  - 7", "types[1]"),
        (HI_TYPE, "  - {id: hi, params: [c0]}", "types[1].params"),
        ("gamma: 1}", "gamma: abc}", "types[1].params.gamma"),
        (BUYER, "  marginal_utility: {kind: piecewise, breakpoints: [[0, 1], 2]}",
         "buyer.marginal_utility.breakpoints[1]"),
        ("cost_model: {kind: simple}", "cost_model: {kind: [simple]}", "cost_model.kind"),
        ("grid: {q_max: 120, n_cells: 6}", "grid: {q_max: 120, n_cells: 6}\noptions: {admissible: lo}",
         "options.admissible"),
        (GRID, "grid: {q_max: 120, n_cells: 6.9}", "grid.n_cells"),
        (GRID, 'grid: {q_max: 120, n_cells: "6.9"}', "grid.n_cells"),
        (GRID, "grid: {q_max: 120, n_cells: true}", "grid.n_cells"),
        ("n_points: 50}", "n_points: 50.5}", "weather.n_points"),
        ("n_points: 50}", 'n_points: "50.5"}', "weather.n_points"),
        ("n_points: 50}", "n_points: true}", "weather.n_points"),
        (GRID, GRID + '\noptions: {exclusion_search: "false"}', "options.exclusion_search"),
        (GRID, GRID + "\noptions: {exclusion_search: 0}", "options.exclusion_search"),
        (GRID, GRID + "\noptions: {alpha: true}", "options.alpha"),
        (LO_TYPE + "\n" + HI_TYPE,
         LO_TYPE.replace("params", "prior: 0.5, params") + "\n"
         + HI_TYPE.replace("params", "prior: true, params"), "types[1].prior"),
        ("gamma: 1}", "gamma: true}", "types[1].params.gamma"),
        ("shape: 3.0", "shape: true", "weather.shape"),
        ("mean: 5.0", "mean: false", "weather.mean"),
        ("q_max: 120", "q_max: true", "grid.q_max"),
        ("intercept: 0.9", "intercept: true", "buyer.marginal_utility.intercept"),
    ],
    ids=["type-entry", "params-list", "param-text", "breakpoint", "model-kind", "admissible-text",
         "cells-fraction", "cells-fraction-text", "cells-bool",
         "states-fraction", "states-fraction-text", "states-bool",
         "search-text", "search-number", "alpha-bool", "prior-bool", "param-bool", "shape-bool",
         "mean-bool", "q-max-bool", "intercept-bool"],
)
def test_wrongly_typed_field_exits_2(tmp_path, capsys, old, new, field):
    assert TINY.count(old) == 1
    path = tmp_path / "bad.yaml"
    path.write_text(TINY.replace(old, new))
    with pytest.raises(ConfigurationError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value).startswith(f"{field}: ")
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {field}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("intercept: 0.9", "intercept: .nan"),
        ("intercept: 0.9", "intercept: .inf"),
        ("slope: 4.0e-3", "slope: .nan"),
        ("slope: 4.0e-3", "slope: .inf"),
        (BUYER, "  marginal_utility: {kind: piecewise, breakpoints: [[0, 1], [.nan, 0]]}"),
        (BUYER, "  marginal_utility: {kind: piecewise, breakpoints: [[0, 1], [100, .nan]]}"),
        (BUYER, "  marginal_utility: {kind: piecewise, breakpoints: [[0, .inf], [100, 0]]}"),
        (BUYER, "  marginal_utility: {kind: piecewise, breakpoints: [[0, 1], [.inf, 0]]}"),
        ("q_max: 120", "q_max: .nan"),
        ("q_max: 120", "q_max: .inf"),
    ],
    ids=["intercept-nan", "intercept-inf", "slope-nan", "slope-inf", "breakpoint-q-nan",
         "breakpoint-v-nan", "breakpoint-v-inf", "breakpoint-q-inf", "q-max-nan", "q-max-inf"],
)
def test_non_finite_buyer_or_grid_number_exits_2(tmp_path, capsys, old, new):
    # NaN passes every ordered comparison that fails, so a check written as
    # "a <= 0 is an error" lets it through to the outputs
    assert TINY.count(old) == 1
    path = tmp_path / "bad.yaml"
    path.write_text(TINY.replace(old, new))
    with pytest.raises(ConfigurationError, match="finite"):
        load_scenario(path)
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
