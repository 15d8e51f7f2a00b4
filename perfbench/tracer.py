"""Per-layer tracing of procure from outside the package.

The tracer rebinds procure's public functions, in every procure module
that holds a reference to them, to wrappers that record a span (name,
start, end, parent) and optional counts. The scenario's cost-model
instance gets its expected_cost_grid and check_assumptions wrapped as soon
as load_scenario builds it. Spans stay in memory; per-layer metrics are
derived from them after each traced repetition. Uninstalling restores
every original binding.
"""
from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

CHECKS = (
    "ic",
    "vp",
    "monotone",
    "identity",
    "pointwise",
    "quasi_concavity",
    "worst_type_pricing",
)

# (module, function, span name, counts taken from the call's result,
#  counts taken from the call's arguments)
TARGETS = [
    ("procure.weather", "weibull_model", "weather.discretize",
     lambda r: {"states": len(r.states)}, None),
    ("procure.costmodel", "dominates", "costmodel.dominates", None, None),
    ("procure.costmodel", "find_worst_type", "costmodel.find_worst_type",
     lambda r: {"worst": None if r is None else r.id}, None),
    ("procure.scenario", "load_scenario", "scenario.load", None, None),
    ("procure.mechanism", "build_price_schedule", "mechanism.build_price_schedule",
     None, None),
    ("procure.mechanism", "anchor_payment", "mechanism.anchor_payment", None, None),
    ("procure.mechanism", "best_response", "mechanism.best_response", None, None),
    ("procure.mechanism", "solve", "mechanism.solve", None,
     lambda args, kwargs: {"admissible": kwargs.get(
         "admissible", args[5] if len(args) > 5 else None)}),
    ("procure.mechanism", "exclusion_search", "mechanism.exclusion_search", None, None),
    ("procure.settlement", "settlement_table", "settlement.settlement_table",
     lambda rows: {"rows": len(rows),
                   "expost_rows": sum(r.payment_expost is not None for r in rows)}, None),
    ("procure.verify", "run_checks", "verify.run_checks",
     lambda results: {"failed": sum(not r.passed for r in results)}, None),
] + [("procure.verify", f"check_{c}", f"verify.{c}", None, None) for c in CHECKS]

SOLVERS = ("mechanism.solve", "mechanism.exclusion_search")


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.phase = parent.phase if parent else name
        self.counts: dict = {}
        self.start = perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def within(self, names) -> bool:
        p = self.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None, on_call=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                if on_call is not None:
                    s.counts.update(on_call(args, kwargs))
                result = fn(*args, **kwargs)
                if counts is not None:
                    s.counts.update(counts(result))
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "procure" and not name.startswith("procure."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def _instrument_model(self, model) -> None:
        model.expected_cost_grid = self.wrap(
            "costmodel.expected_cost_grid",
            model.expected_cost_grid,
            on_call=lambda a, kw: {"elems": len(a[2].states) * len(a[1])},
        )
        model.check_assumptions = self.wrap(
            "costmodel.check_assumptions", model.check_assumptions
        )

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        for modname, attr, span_name, counts, on_call in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            self._rebind(original, self.wrap(span_name, original, counts, on_call))
        make_model = importlib.import_module("procure.scenario").make_model

        def instrumented_make_model(kind):
            model = make_model(kind)
            self._instrument_model(model)
            return model

        self._rebind(make_model, instrumented_make_model)
        try:
            yield self
        finally:
            for mod, key, original in reversed(self._patches):
                setattr(mod, key, original)
            self._patches.clear()

    # --- derived per-layer metrics -------------------------------------

    def _select(self, name: str, phases) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase in phases]

    def total(self, name: str, *phases: str) -> float:
        return sum(s.seconds for s in self._select(name, phases))

    def calls(self, name: str, *phases: str) -> int:
        return len(self._select(name, phases))

    def counted(self, name: str, key: str, *phases: str) -> int:
        return sum(s.counts.get(key, 0) for s in self._select(name, phases))

    def self_time(self, phase: str, children) -> float:
        """Duration of a phase's root span minus its direct children that
        are named in children."""
        root = next(s for s in self.spans if s.name == phase and s.parent is None)
        return root.seconds - sum(
            s.seconds for s in self.spans if s.parent is root and s.name in children
        )


def solver_branch(tr: Tracer, admissible) -> dict:
    """How the solve command's traced run went: the number of
    mechanism.solve calls (upward-closed subsets searched) and the worst
    type that anchor_payment found for the winning admissible set."""
    solves = tr._select("mechanism.solve", ("solve",))
    chosen = [s for s in solves if s.counts["admissible"] in (None, tuple(admissible))]
    found = [
        s.counts["worst"]
        for s in tr._select("costmodel.find_worst_type", ("solve",))
        if s.parent.name == "mechanism.anchor_payment" and s.parent.parent in chosen
    ]
    if not found:  # anchor_payment no longer asks find_worst_type
        return {"subsets": len(solves), "worst_type": "unknown", "anchor": "unknown"}
    anchor = "a-posteriori" if found[0] is None else "worst-type"
    return {"subsets": len(solves), "worst_type": found[0], "anchor": anchor}


def layer_metrics(tr: Tracer, cells_open: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced repetition: one set-up load
    ('setup'), one solve or exclusion-search command ('solve') and one
    verify command ('verify')."""
    both = ("solve", "verify")
    ec = "costmodel.expected_cost_grid"
    subsets = tr.calls("mechanism.solve", "solve")
    solve_s = tr.total("mechanism.solve", "solve")
    m = {
        "weather.discretize_s": tr.total("weather.discretize", "setup"),
        "weather.states": tr.counted("weather.discretize", "states", "setup"),
        "costmodel.ec_calls_solve": sum(
            s.within(SOLVERS) for s in tr._select(ec, ("solve",))
        ),
        "costmodel.ec_calls_verify": sum(
            s.within(("verify.run_checks",)) for s in tr._select(ec, ("verify",))
        ),
        "costmodel.ec_calls": tr.calls(ec, *both),
        "costmodel.ec_s": tr.total(ec, *both),
        "costmodel.ec_elems": tr.counted(ec, "elems", *both),
        "costmodel.dominates_calls": tr.calls("costmodel.dominates", *both),
        "costmodel.worst_type_s": tr.total("costmodel.find_worst_type", *both),
        "costmodel.assumptions_s": tr.total("costmodel.check_assumptions", "setup"),
        "mechanism.price_s": tr.total("mechanism.build_price_schedule", "solve"),
        "mechanism.anchor_s": tr.total("mechanism.anchor_payment", "solve"),
        "mechanism.respond_s": tr.total("mechanism.best_response", "solve"),
        "mechanism.solve_s": solve_s,
        "mechanism.cells_open": cells_open,
        "mechanism.exclusion_s": tr.total("mechanism.exclusion_search", "solve"),
        "mechanism.subsets": subsets,
        "mechanism.subset_ms": 1000.0 * solve_s / subsets if subsets else 0.0,
        "settlement.table_s": tr.total("settlement.settlement_table", "solve"),
        "settlement.rows": tr.counted("settlement.settlement_table", "rows", "solve"),
        "settlement.expost_rows": tr.counted(
            "settlement.settlement_table", "expost_rows", "solve"
        ),
        "verify.run_checks_s": tr.total("verify.run_checks", "verify"),
        "verify.checks_failed": tr.counted("verify.run_checks", "failed", "verify"),
    }
    for c in CHECKS:
        m[f"verify.{c}_s"] = tr.total(f"verify.{c}", "verify")
    m["cli.output_s"] = tr.self_time(
        "solve", ("scenario.load", "settlement.settlement_table") + SOLVERS
    )
    m["cli.bytes_written"] = bytes_written
    return m
