"""Scenario parsing: libyaml's loader builds the same objects as PyYAML's
pure-Python one, and malformed YAML is a configuration error."""
import dataclasses
import importlib.util
from pathlib import Path

import pytest
import yaml

from procure.cli import main
from procure.errors import ConfigurationError
from procure.scenario import YAML_LOADER, Scenario, load_scenario
from procure.weather import DEFAULT_N_POINTS
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
    "value", ["null", "true", "1.5", "[a, b]", "{x: 1}"],
    ids=["null", "bool", "fraction", "list", "mapping"],
)
def test_type_id_of_another_kind_exits_2(tmp_path, capsys, value):
    # str() would write these into the outputs as Python spells them
    path = tmp_path / "bad.yaml"
    path.write_text(TINY.replace("{id: hi,", f"{{id: {value},"))
    with pytest.raises(ConfigurationError, match=r"^types\[1\]\.id: expected a string or a "):
        load_scenario(path)
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: types[1].id: ") and err.count("\n") == 1


@pytest.mark.parametrize("value, tid", [("hi", "hi"), ("'7'", "7"), ("7", "7")])
def test_type_id_is_a_string_or_a_whole_number(tmp_path, value, tid):
    path = tmp_path / "ok.yaml"
    path.write_text(TINY.replace("{id: hi,", f"{{id: {value},"))
    assert load_scenario(path).space.types[1].id == tid


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


SQRT_WIND_PLUGIN = """\
import math
from procure.costmodel import CostModel


class SqrtWind(CostModel):
    param_names = ("c0", "gamma")

    def generation(self, x, w):
        return x.param("gamma") * math.sqrt(w)

    def realized_cost(self, x, q, w):
        return x.param("c0") + 1.3 * max(q - self.generation(x, w), 0.0)
"""

PLUGIN_YAML = """\
weather: {{kind: weibull, shape: 3.0, mean: 5.0, n_points: 30}}
cost_model: {{kind: plugin, import: '{target}'}}
types:
  - {{id: p1, params: {{c0: 1, gamma: 1}}}}
  - {{id: p2, params: {{c0: 1, gamma: 2}}}}
buyer: {{marginal_utility: {{kind: affine, intercept: 1.0, slope: 0.05}}}}
grid: {{q_max: 8, n_cells: 40}}
"""


def _plugin_scenario(tmp_path, monkeypatch, target):
    (tmp_path / "sqrt_wind_plugin.py").write_text(SQRT_WIND_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    path = tmp_path / "plugin.yaml"
    path.write_text(PLUGIN_YAML.format(target=target))
    return path


def test_subclass_plugin_runs_end_to_end(tmp_path, monkeypatch, capsys):
    path = _plugin_scenario(tmp_path, monkeypatch, "sqrt_wind_plugin:SqrtWind")
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out), "--alpha", "0.5"]) == 0
    sc = load_scenario(path)
    expected = [
        f"{sc.model.generation(x, w):.12g}" for x in sc.space for w in sc.weather.speeds
    ]
    lines = (out / "settlement.csv").read_text().splitlines()
    column = lines[0].split(",").index("g_w")
    assert [line.split(",")[column] for line in lines[1:]] == expected
    assert main(["verify", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, detail",
    [
        ("no_such_mod:factory", "No module named 'no_such_mod'"),
        ("sqrt_wind_plugin:missing", "has no attribute 'missing'"),
        ("sqrt_wind_plugin:math", "is not callable"),
        ("math:sqrt", "raised TypeError: math.sqrt() takes exactly one argument"),
    ],
    ids=["no-module", "no-factory", "not-callable", "factory-raises"],
)
def test_plugin_import_error_exits_2(tmp_path, monkeypatch, capsys, target, detail):
    # unchecked, these escape as ModuleNotFoundError, AttributeError and
    # TypeError (a module is not callable; sqrt() needs an argument): a
    # traceback and exit 1, the exit code of a failed certificate
    path = _plugin_scenario(tmp_path, monkeypatch, target)
    with pytest.raises(ConfigurationError, match="^cost_model.import: "):
        load_scenario(path)
    rc = main(["verify", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cost_model.import: ") and repr(target) in err
    assert detail in err and err.count("\n") == 1


def test_weibull_without_n_points_takes_the_default(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML.format(extra="").replace(", n_points: 50", ""))
    assert len(load_scenario(path).weather.states) == DEFAULT_N_POINTS


def test_scenario_reads_model_inputs_from_its_instance(scenario_dir):
    # the types, weather, cost model, grid and V' live in the instance
    # alone, so a scenario cannot hold a type space other than its own
    names = [f.name for f in dataclasses.fields(Scenario)]
    assert names == ["instance", "alpha", "admissible", "exclusion_search", "corruption"]
    sc = load_scenario(scenario_dir / "six_types.yaml")
    for name in ("weather", "model", "space", "vprime", "grid"):
        assert getattr(sc, name) is getattr(sc.instance, name)
        with pytest.raises(AttributeError):
            setattr(sc, name, None)
