"""Spans and counts around calls into taxisim's modules, taken from outside
the package.

taxisim's modules import functions by name, so a call is traced by replacing
the name in the calling module's namespace (for example
`taxisim.stepper.rhs_arrays`, which `step` calls) with a wrapper, and
restoring it afterwards.  Nothing in the package changes.

A span has a name, a start, an end and a parent (the span open when it
started).  A span's self time is its duration minus the durations of its
direct children.  Spans are aggregated per name as they close; the first
SPAN_LOG_CAP closed spans are also kept as records for `write_spans`.
"""
from __future__ import annotations

import importlib
import math
import statistics
import time

SPAN_LOG_CAP = 20_000

# (module, attribute, span name): the attribute is the name through which
# the module calls into the span's layer.
PATCHES = (
    ("taxisim.experiments", "make_initial", "presets.make_initial"),
    ("taxisim.experiments", "run_until", "stepper.run_until"),
    ("taxisim.experiments", "full_record", "diagnostics.full_record"),
    ("taxisim.experiments", "write_series", "diagnostics.write_series"),
    ("taxisim.experiments", "write_field", "grid.write_field"),
    ("taxisim.experiments", "write_pgm", "experiments.write_pgm"),
    ("taxisim.stepper", "step", "stepper.step"),
    ("taxisim.stepper", "stability_dt", "model.stability_dt"),
    ("taxisim.stepper", "rhs_arrays", "model.rhs_arrays"),
    ("taxisim.mms", "build_sources", "mms.build_sources"),
    ("taxisim.mms", "residual_check", "mms.residual_check"),
    ("taxisim.cli", "load_config", "config.load_config"),
    ("taxisim.cli", "cosine_family", "inequalities.cosine_family"),
    ("taxisim.cli", "check_ineq_61", "inequalities.check_ineq_61"),
    ("taxisim.cli", "check_ineq_64", "inequalities.check_ineq_64"),
)


class Tracer:
    def __init__(self):
        self.stats = {}   # span name -> [calls, total ns, self ns]
        self.records = []  # (id, name, start ns, end ns, parent id or -1)
        self.rejected_steps = 0
        self.cell_updates = 0
        self._open = []   # [id, ns covered by children] per open span
        self._next_id = 0
        self._last_dt = math.inf
        self._saved = []

    def reset(self) -> None:
        """Start a fresh set of aggregates (records are kept)."""
        self.stats = {}
        self.rejected_steps = 0
        self.cell_updates = 0

    def span(self, name: str, fn, on_return=None):
        """`fn` wrapped so that each call is one span named `name`;
        `on_return(args, kwargs, result)` may inspect or replace the result."""
        clock = time.perf_counter_ns
        open_spans = self._open

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            frame = [self._next_id, 0]
            self._next_id += 1
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if len(self.records) < SPAN_LOG_CAP:
                    self.records.append((frame[0], name, start, end,
                                         -1 if parent is None else parent[0]))
            if on_return is not None:
                result = on_return(args, kwargs, result)
            return result

        return traced

    # -- hooks that turn returns into counts --------------------------------

    def _after_stability_dt(self, args, kwargs, dt):
        self._last_dt = dt
        return dt

    def _after_step(self, args, kwargs, new_state):
        # step starts from min(stability_dt, dt_max) and halves on rejection,
        # so an accepted dt below that start counts its halvings as rejected
        # attempts.
        state = args[0]
        start = self._last_dt
        cap = kwargs.get("dt_max", args[3] if len(args) > 3 else None)
        if cap is not None:
            start = min(start, cap)
        dt = new_state.t - state.t
        if dt < start * (1.0 - 1e-6):
            self.rejected_steps += round(math.log2(start / dt))
        self.cell_updates += state.u.values.size
        return new_state

    def _after_build_sources(self, args, kwargs, sources):
        return tuple(self.span("mms.source", f) for f in sources)

    def install(self) -> None:
        hooks = {"model.stability_dt": self._after_stability_dt,
                 "stepper.step": self._after_step,
                 "mms.build_sources": self._after_build_sources}
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for rec in self.records:
                fh.write(",".join(str(x) for x in rec) + "\n")


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(calls: list) -> dict:
    """Per-layer metrics from traced calls, each a dict with `spans` (name ->
    [calls, total ns, self ns]), `rejected_steps`, `cell_updates` and
    `bytes_written`.  Counts are those of the first call; times are medians
    over calls.  A layer a workload never enters reports 0."""
    def stat(call, name):
        return call["spans"].get(name, (0, 0, 0))

    def count(name):
        return stat(calls[0], name)[0]

    def us_per_call(name, index=1):
        return _median([st[index] / st[0] * 1e-3 for c in calls
                        if (st := stat(c, name))[0]])

    def total_s(name, index=1):
        return _median([stat(c, name)[index] * 1e-9 for c in calls])

    accepted = count("stepper.step")
    rejected = calls[0]["rejected_steps"]
    return {
        "presets.make_initial_ms": us_per_call("presets.make_initial") * 1e-3,
        "mms.residual_check_s": total_s("mms.residual_check"),
        "mms.source_us": us_per_call("mms.source"),
        "mms.source_calls": count("mms.source"),
        "model.rhs_arrays_us": us_per_call("model.rhs_arrays"),
        "model.rhs_arrays_calls": count("model.rhs_arrays"),
        "model.stability_dt_us": us_per_call("model.stability_dt"),
        "model.stability_dt_calls": count("model.stability_dt"),
        "stepper.step_self_us": us_per_call("stepper.step", 2),
        "stepper.accepted_steps": accepted,
        "stepper.rejected_steps": rejected,
        "stepper.accept_ratio": (accepted / (accepted + rejected)
                                 if accepted + rejected else 0.0),
        "stepper.cell_updates_per_s": _median(
            [c["cell_updates"] / (st[1] * 1e-9) for c in calls
             if (st := stat(c, "stepper.step"))[0]]),
        "stepper.run_until_self_s": total_s("stepper.run_until", 2),
        "diagnostics.full_record_us": us_per_call("diagnostics.full_record"),
        "diagnostics.full_record_calls": count("diagnostics.full_record"),
        "diagnostics.write_series_ms": total_s("diagnostics.write_series") * 1e3,
        "grid.write_field_us": us_per_call("grid.write_field"),
        "grid.write_field_calls": count("grid.write_field"),
        "experiments.write_pgm_us": us_per_call("experiments.write_pgm"),
        "experiments.bytes_written": calls[0]["bytes_written"],
        "inequalities.cosine_family_s": total_s("inequalities.cosine_family"),
        "inequalities.check_ineq_61_us": us_per_call("inequalities.check_ineq_61"),
        "inequalities.check_ineq_64_us": us_per_call("inequalities.check_ineq_64"),
        "inequalities.checks": (count("inequalities.check_ineq_61")
                                + count("inequalities.check_ineq_64")),
        "experiments.run_scenario_self_s": total_s("experiments.run_scenario", 2),
        "experiments.refinement_study_self_s": total_s(
            "experiments.refinement_study", 2),
        "cli.main_self_s": total_s("cli.main", 2),
    }


COUNT_SPANS = ("stepper.step", "model.rhs_arrays", "model.stability_dt",
               "diagnostics.full_record", "grid.write_field", "mms.source",
               "inequalities.check_ineq_61", "inequalities.check_ineq_64")


def counts_repeat(calls: list) -> bool:
    """Whether every traced call of identical input did the same work."""
    def key(c):
        return ([c["spans"].get(n, (0,))[0] for n in COUNT_SPANS]
                + [c["rejected_steps"], c["cell_updates"], c["bytes_written"]])
    return all(key(c) == key(calls[0]) for c in calls)
