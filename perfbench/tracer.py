"""Benchmark-side tracing of one rxgeo CLI stage.

Run as ``python3 perfbench/tracer.py <spans.json> <run_id> <rxgeo args...>``
with ``src`` on ``PYTHONPATH``.  It wraps the public functions of the rxgeo
modules listed in ``TRACED`` on every rxgeo namespace that binds them, runs
``rxgeo.cli.main`` on the remaining arguments, and exits with its code.

Each wrapped call records a span (id, parent id, name, start, end, failed,
run id) plus a few result counts.  Spans stay in memory and are written to
``<spans.json>`` when the stage ends.  Start and end come from
``time.perf_counter``, which on Linux reads the system-wide monotonic clock,
so the parent benchmark can nest these spans under its own stage span.

Nothing under ``src/`` is edited: the wrappers replace module attributes in
this process only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Span name -> (module, attribute).  Every rxgeo module attribute that is the
# same function object gets the wrapper, so ``from x import f`` bindings
# (cli.parse_csv, intervention.nelder_mead, ...) are traced too.
TRACED = {
    "syngen.generate": ("rxgeo.syngen", "generate"),
    "records.parse_csv": ("rxgeo.records", "parse_csv"),
    "records.write_csv": ("rxgeo.records", "write_csv"),
    "records.clean": ("rxgeo.records", "clean"),
    "geo.classify_records": ("rxgeo.geo", "classify_records"),
    "series.aggregate_monthly": ("rxgeo.series", "aggregate_monthly"),
    "series.summarize_classes": ("rxgeo.series", "summarize_classes"),
    "series.pre_post_table": ("rxgeo.series", "pre_post_table"),
    "stats.one_way_anova": ("rxgeo.stats", "one_way_anova"),
    "stats.t_test_greater": ("rxgeo.stats", "t_test_greater"),
    "stats.mean_ci": ("rxgeo.stats", "mean_ci"),
    "arima.auto_fit": ("rxgeo.arima", "auto_fit"),
    "arima.fit": ("rxgeo.arima", "fit"),
    "arima.select_differencing": ("rxgeo.arima", "select_differencing"),
    "arima.tentative_orders": ("rxgeo.arima", "tentative_orders"),
    "arima.forecast": ("rxgeo.arima", "forecast"),
    "optimize.nelder_mead": ("rxgeo._optimize", "nelder_mead"),
    "intervention.its_batch": ("rxgeo.intervention", "its_batch"),
    "intervention.its_analysis": ("rxgeo.intervention", "its_analysis"),
    "intervention.fit_arimax": ("rxgeo.intervention", "fit_arimax"),
}
# Every public function of rxgeo.report is traced as "report.<name>".
REPORT_MODULE = "rxgeo.report"


def _counts(name: str, result) -> dict:
    """Work counts read off a traced call's return value."""
    if name in ("syngen.generate", "geo.classify_records"):
        return {"records": len(result)}
    if name == "records.parse_csv":
        recs, errors = result
        return {"rows": len(recs), "row_errors": len(errors)}
    if name == "records.clean":
        return {"excluded": result[1].total_excluded}
    if name == "optimize.nelder_mead":
        return {"evals": result.n_evals, "converged": int(result.converged)}
    if name == "intervention.its_batch":
        return {"results": len(result.results), "failures": len(result.failures)}
    return {}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "run_id": self.run_id, "failed": False}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_counts(name, result))
            return result
        return traced

    def install(self) -> None:
        """Replace each traced function on every rxgeo namespace binding it."""
        importlib.import_module("rxgeo.cli")
        targets = {}
        for name, (module, attr) in TRACED.items():
            targets[getattr(importlib.import_module(module), attr)] = name
        report = importlib.import_module(REPORT_MODULE)
        for attr, obj in vars(report).items():
            if (callable(obj) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == REPORT_MODULE):
                targets[obj] = f"report.{attr}"
        wrappers = {func: self.wrap(name, func) for func, name in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rxgeo" or mod_name.startswith("rxgeo.")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def main(argv: list[str]) -> int:
    out_path, run_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    tracer.install()
    from rxgeo import cli
    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
