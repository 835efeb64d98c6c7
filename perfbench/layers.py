"""Per-layer instrumentation: which package functions the traced run wraps,
the exact work counts taken at each, and the per-layer metrics derived from
the spans.  Layers are the package's modules; metric names are
``<module>.<public function>.<quantity>`` and ``s`` is self time."""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np

from spans import Target, totals_by_name

PACKAGE = "bilinctrl"

# (name, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = [
    ("propagator.Propagator.s", "s"),
    ("propagator.Propagator.calls", "count"),
    ("propagator.coupling_matrix.s", "s"),
    ("propagator.coupling_matrix.calls", "count"),
    ("propagator.propagate.s", "s"),
    ("propagator.propagate.calls", "count"),
    ("propagator.propagate.steps", "count"),
    ("propagator.step_us", "us"),
    ("propagator.propagate_linearized.free.s", "s"),
    ("propagator.propagate_linearized.free.steps", "count"),
    ("propagator.propagate_linearized.discrete.s", "s"),
    ("propagator.propagate_linearized.discrete.steps", "count"),
    ("propagator.ControlSignal.from_terms.s", "s"),
    ("propagator.ControlSignal.from_terms.samples", "count"),
    ("integrals.poly_exp_integral.s", "s"),
    ("integrals.poly_exp_integral.calls", "count"),
    ("integrals.poly_exp_integral.omegas", "count"),
    ("integrals.adaptive_integral.s", "s"),
    ("integrals.adaptive_integral.calls", "count"),
    ("spectral.hermite_function_values.s", "s"),
    ("spectral.hermite_function_values.calls", "count"),
    ("potentials.coefficient_table.s", "s"),
    ("potentials.coefficient_table.hits", "count"),
    ("potentials.coefficient_table.misses", "count"),
    ("potentials.coefficient_table.hit_ratio", "ratio"),
    ("potentials.neumann_obstruction_scan.s", "s"),
    ("moments.solve.s", "s"),
    ("moments.solve.calls", "count"),
    ("moments.gram_condition.max", "ratio"),
    ("moments.moments.s", "s"),
    ("moments.moments.evals", "count"),
    ("steering.steer.s", "s"),
    ("steering.steer.calls", "count"),
    ("steering.iterations", "count"),
    ("steering.iterations_per_solve", "iter/solve"),
    ("steering.stalled", "count"),
    ("steering.raised", "count"),
    ("steering.linearized_control.s", "s"),
    ("steering.endpoint_derivative_check.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.rows", "count"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.write_csv.MBps", "MB/s"),
    ("trace.overhead", "ratio"),
    ("trace.uncovered_s", "s"),
    ("trace.units", "count"),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _calls(rec, name, state, args, kwargs, result, exc):
    rec.add(name + ".calls")


def _propagate(rec, name, state, args, kwargs, result, exc):
    rec.add(name + ".calls")
    rec.add(name + ".steps", _arg(args, kwargs, 2, "u").n_steps)


def _is_free(args, kwargs) -> bool:
    """The linearization the call runs, by the rule in its docstring: the
    exact-phase (free) update around a zero base, else the discrete one."""
    u_base = _arg(args, kwargs, 3, "u_base")
    mode = _arg(args, kwargs, 4, "mode", "auto")
    free_base = u_base is None or (u_base.parametric == ((0.0, 0.0j),)
                                   or not np.any(u_base.samples))
    return mode == "exact_phase" or (mode == "auto" and free_base)


def _linearized_label(args, kwargs) -> str:
    kind = "free" if _is_free(args, kwargs) else "discrete"
    return f"propagator.propagate_linearized.{kind}"


def _linearized(rec, name, state, args, kwargs, result, exc):
    v = _arg(args, kwargs, 1, "v")
    # the free update has a per-step loop only for sampled controls
    stepped = not name.endswith(".free") or v.parametric is None
    rec.add(name + ".calls")
    rec.add(name + ".steps", v.n_steps if stepped else 0)


def _from_terms(rec, name, state, args, kwargs, result, exc):
    rec.add(name + ".calls")
    if result is not None:
        rec.add(name + ".samples",
                len(result.parametric) * result.samples.size)


def _poly_exp(rec, name, state, args, kwargs, result, exc):
    rec.add(name + ".calls")
    rec.add(name + ".omegas", np.size(_arg(args, kwargs, 3, "omega")))


def _cache_probe(cached):
    def before(args, kwargs):
        return args, kwargs, cached.cache_info()

    def count(rec, name, state, args, kwargs, result, exc):
        after = cached.cache_info()
        rec.add(name + ".calls")
        rec.add(name + ".hits", after.hits - state.hits)
        rec.add(name + ".misses", after.misses - state.misses)

    return before, count


def _solve(rec, name, state, args, kwargs, result, exc):
    rec.add(name + ".calls")
    if result is not None:
        rec.observe_max("moments.gram_condition.max", result.gram_condition)


def _moments(rec, name, state, args, kwargs, result, exc):
    u = _arg(args, kwargs, 0, "u")
    per_freq = u.samples.size if u.parametric is None else len(u.parametric)
    rec.add(name + ".calls")
    rec.add(name + ".evals",
            np.size(_arg(args, kwargs, 1, "frequencies")) * per_freq)


def _steer(rec, name, state, args, kwargs, result, exc):
    rec.add(name + ".calls")
    if result is not None:
        rec.add("steering.iterations", result.iterations)
        rec.add("steering.stalled", not result.converged)
    elif hasattr(exc, "history"):
        rec.add("steering.iterations", max(len(exc.history) - 1, 0))
        rec.add("steering.raised")


def _csv_rows(args, kwargs):
    """Count rows as write_csv consumes them (they may be a generator)."""
    box = [0]

    def counted(rows):
        for row in rows:
            box[0] += 1
            yield row

    args = list(args)
    if len(args) > 2:
        args[2] = counted(args[2])
    else:
        kwargs = dict(kwargs, rows=counted(kwargs["rows"]))
    return tuple(args), kwargs, box


def _csv(rec, name, box, args, kwargs, result, exc):
    rec.add(name + ".calls")
    rec.add(name + ".rows", box[0])
    if exc is None:
        rec.add(name + ".bytes", os.path.getsize(_arg(args, kwargs, 0,
                                                      "path")))


def targets() -> list[Target]:
    """The wrapped entry points of each layer.  Call before installing, so
    the cached function handed to the cache probe is the original."""
    mod = {name: importlib.import_module(f"{PACKAGE}.{name}")
           for name in ("propagator", "integrals", "spectral", "potentials",
                        "moments", "steering", "cli")}
    prop = mod["propagator"]
    cache_before, cache_count = _cache_probe(mod["potentials"]
                                             .coefficient_table)
    fn = [
        ("propagator", "coupling_matrix", _calls),
        ("integrals", "poly_exp_integral", _poly_exp),
        ("integrals", "adaptive_integral", _calls),
        ("spectral", "hermite_function_values", _calls),
        ("potentials", "neumann_obstruction_scan", _calls),
        ("moments", "solve", _solve),
        ("moments", "moments", _moments),
        ("steering", "steer", _steer),
        ("steering", "linearized_control", _calls),
        ("steering", "endpoint_derivative_check", _calls),
        ("cli", "main", _calls),
    ]
    out = [Target(f"{m}.{attr}", mod[m], attr, count=count)
           for m, attr, count in fn]
    out += [
        Target("potentials.coefficient_table", mod["potentials"],
               "coefficient_table", before=cache_before, count=cache_count),
        Target("cli.write_csv", mod["cli"], "write_csv", before=_csv_rows,
               count=_csv),
        Target("propagator.Propagator", prop.Propagator, "__init__",
               count=_calls),
        Target("propagator.propagate", prop.Propagator, "propagate",
               count=_propagate),
        Target("propagator.propagate_linearized", prop.Propagator,
               "propagate_linearized", label=_linearized_label,
               count=_linearized),
        Target("propagator.ControlSignal.from_terms", prop.ControlSignal,
               "from_terms", count=_from_terms),
    ]
    return out


def program_caches() -> list:
    """Memoised functions of the package (``functools.lru_cache``); call
    before installing wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE
                                  or name.startswith(PACKAGE + ".")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and not any(
                    value is f for f in found):
                found.append(value)
    return found


def layer_metrics(spans, counts, maxima, traced_walls,
                  untraced_walls) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``traced_walls`` and
    ``untraced_walls`` are the unit walls of the same units."""
    totals = totals_by_name(spans)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def count(key):
        return float(counts.get(key, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".s"):
            out[name] = self_s(name[:-2])
        else:
            out[name] = count(name)
    out["propagator.step_us"] = 1e6 * ratio(
        self_s("propagator.propagate"), count("propagator.propagate.steps"))
    table = "potentials.coefficient_table"
    out[table + ".hit_ratio"] = ratio(
        count(table + ".hits"), count(table + ".hits")
        + count(table + ".misses"))
    out["moments.gram_condition.max"] = maxima.get(
        "moments.gram_condition.max", 0.0)
    out["steering.iterations_per_solve"] = ratio(
        count("steering.iterations"), count("steering.steer.calls"))
    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.write_csv.MBps"] = ratio(count("cli.write_csv.bytes") / 1e6,
                                      self_s("cli.write_csv"))
    out["trace.overhead"] = ratio(sum(traced_walls), sum(untraced_walls)) - 1
    out["trace.uncovered_s"] = self_s("unit")
    out["trace.units"] = float(len(traced_walls))
    return out
