"""Spans around the calls between quadrec's layers, recorded from outside.

``install`` replaces the names that one module of ``quadrec`` imported from
another layer (for example ``quadrec.critical.final_value``) with wrappers
that record one span per call: name, start, end, parent span and run id,
plus a few attributes read from the arguments and the result.  Spans stay in
memory and are handed to the parent when the run ends.  Untraced runs never
call ``install``, so they execute the unwrapped program.

``layer_metrics`` turns the spans of one run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from fractions import Fraction


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._tallies: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        function = getattr(module, attr)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "attrs": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span["attrs"].update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)

    def count_stream(self, module, attr: str, counter: str) -> None:
        """Count the values drawn from a generator function, without spans.

        The count is kept by an ``itertools.count`` zipped with the stream,
        so no Python code runs per value and the overhead stays small.
        """
        function = getattr(module, attr)
        tallies = self._tallies.setdefault(counter, [])

        @functools.wraps(function)
        def counted(*args, **kwargs):
            tally = itertools.count()
            tallies.append(tally)
            return map(operator.itemgetter(1), zip(tally, function(*args, **kwargs)))

        setattr(module, attr, counted)

    def counters(self) -> dict[str, int]:
        # repr(count(n)) is "count(n)": the number of values drawn so far
        return {
            name: sum(int(repr(tally)[6:-1]) for tally in tallies)
            for name, tallies in self._tallies.items()
        }


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


def _exact_orbit(args, kwargs, result):
    last = result[-1]
    return {"steps": len(result) - 1, "max_bits": _bits(getattr(last, "a", last))}


def _steps(args, kwargs, result):
    return {"steps": args[1]}


def _order(args, kwargs, result):
    return {"order": args[0]}


def _estimate(via):
    def describe(args, kwargs, result):
        return {
            "via": via,
            "newton_iterations": result.newton_iterations,
            "bound_log10": float(result.truncation_bound.value.log10()),
        }

    return describe


def _sum(args, kwargs, result):
    return {"m": result.m, "digits": args[0] if result.m in (0, 1) else args[1],
            "terms_summed": result.terms_summed}


def _factors(args, kwargs, result):
    return {"factors": result.factors_used}


def install(recorder: Recorder) -> None:
    """Wrap every cross-layer name the workloads reach."""
    import quadrec.cli as cli
    import quadrec.critical as critical
    import quadrec.rate_constants as rate_constants
    import quadrec.recurrence as recurrence
    import quadrec.series_engine as series_engine
    import quadrec.sums as sums

    wrap = recorder.wrap
    wrap(cli, "main", "cli.main")
    # entry points of the CLI handlers, so that cli.self_s is parsing,
    # validation and rendering only
    wrap(cli, "iterate_exact", "recurrence.exact", _exact_orbit)
    wrap(cli, "rate_constant", "rate_constants.rate_constant", _factors)
    wrap(cli, "solve_coefficients", "series_engine.solve", _order)
    wrap(cli, "estimate_constant", "critical.estimate", _estimate("cli"))
    wrap(cli, "residual_order_check", "critical.residual_check")
    wrap(cli, "power_sum", "sums.power_sum", _sum)
    wrap(cli, "regularized_s1", "sums.s1", _sum)
    wrap(cli, "bootstrap_check", "sums.bootstrap")
    wrap(cli, "harmonic_divergence_diagnostic", "sums.diverge")
    # critical -> recurrence, series_engine (and its own estimate, which
    # residual_order_check calls)
    wrap(critical, "final_value", "recurrence.final_value", _steps)
    wrap(critical, "solve_coefficients", "series_engine.solve", _order)
    wrap(critical, "eval_series_coeffs", "series_engine.eval_coeffs")
    wrap(critical, "estimate_constant", "critical.estimate", _estimate("critical"))
    # sums -> critical, series_engine, recurrence, numerics, and the sums
    # that bootstrap and the divergence check recompute
    wrap(sums, "estimate_constant", "critical.estimate", _estimate("sums"))
    wrap(sums, "solve_coefficients", "series_engine.solve", _order)
    wrap(sums, "logistic_iterate", "recurrence.exact", _exact_orbit)
    wrap(sums, "regularized_s1", "sums.s1", _sum)
    wrap(sums, "sum_of_power_sums", "sums.family", _sum)
    wrap(sums, "euler_gamma", "numerics.euler_gamma")
    recorder.count_stream(sums, "logistic_decimals", "recurrence.logistic_steps")
    # rate_constants -> numerics, and the table's per-parameter calls
    wrap(rate_constants, "rate_constant", "rate_constants.rate_constant", _factors)
    wrap(rate_constants, "confirmed_value", "numerics.confirm")
    # the benchmark's own direct library calls
    wrap(recurrence, "iterate_exact", "recurrence.exact", _exact_orbit)
    wrap(series_engine, "solve_coefficients", "series_engine.solve", _order)


def layer_metrics(spans: list[dict], counters: dict[str, int], stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced run (all but trace_overhead_frac)."""
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["end"] - span["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_time(name):
        return sum(s["end"] - s["start"] - children.get(s["id"], 0.0) for s in named(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    final_s = total("recurrence.final_value")
    final_steps = attr_sum("recurrence.final_value", "steps")
    estimates = named("critical.estimate")
    bounds = [s["attrs"]["bound_log10"] for s in estimates if "bound_log10" in s["attrs"]]
    logistic_steps = counters.get("recurrence.logistic_steps", 0)
    # a sum recomputed with the same arguments is not useful work twice
    useful = {}
    for name in ("sums.power_sum", "sums.s1", "sums.family"):
        for s in named(name):
            a = s["attrs"]
            if "terms_summed" in a:
                useful[(name, a["m"], a["digits"])] = a["terms_summed"]
    terms = sum(useful.values())
    return {
        "recurrence.final_value_s": final_s,
        "recurrence.final_value_steps": final_steps,
        "recurrence.decimal_steps_per_s": final_steps / final_s if final_s else 0.0,
        "recurrence.logistic_steps": logistic_steps,
        "recurrence.exact_s": total("recurrence.exact"),
        "recurrence.exact_steps": attr_sum("recurrence.exact", "steps"),
        "recurrence.exact_max_bits": max(
            (s["attrs"].get("max_bits", 0) for s in named("recurrence.exact")), default=0
        ),
        "series_engine.solve_s": total("series_engine.solve"),
        "series_engine.solve_calls": len(named("series_engine.solve")),
        "series_engine.solve_order_sum": attr_sum("series_engine.solve", "order"),
        "series_engine.eval_coeffs_s": total("series_engine.eval_coeffs"),
        "series_engine.eval_coeffs_calls": len(named("series_engine.eval_coeffs")),
        "critical.estimate_s": total("critical.estimate"),
        "critical.estimate_calls": len(estimates),
        "critical.self_s": self_time("critical.estimate"),
        "critical.newton_iterations": attr_sum("critical.estimate", "newton_iterations"),
        "critical.truncation_bound_log10": sum(bounds) / len(bounds) if bounds else 0.0,
        "sums.power_sum_s": total("sums.power_sum"),
        "sums.s1_s": total("sums.s1"),
        "sums.family_s": total("sums.family"),
        "sums.bootstrap_self_s": self_time("sums.bootstrap"),
        "sums.terms_summed": terms,
        "sums.estimate_calls": sum(1 for s in estimates if s["attrs"].get("via") == "sums"),
        "sums.steps_per_useful_term": logistic_steps / terms if terms else 0.0,
        "rate_constants.rate_constant_s": total("rate_constants.rate_constant"),
        "rate_constants.factors": attr_sum("rate_constants.rate_constant", "factors"),
        "numerics.confirm_calls": len(named("numerics.confirm")),
        "numerics.confirm_s": total("numerics.confirm"),
        "numerics.euler_gamma_s": total("numerics.euler_gamma"),
        "cli.self_s": self_time("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
    }
