"""Spans around the public entry points of each pdomd module.

The wrappers are installed from outside the package, at the place each
function is looked up when called: several functions are imported by name
into other modules, so a wrapper on the defining module alone would miss
those calls. Spans are kept in memory as (name, start, end, parent) and
written out when the run ends. Outside `Tracer.installed()` no wrapper is
in place.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import os
import time
from collections import defaultdict

EXPERIMENT = "cli.run_experiment"
HINDSIGHT = "oracle.hindsight_optimum"
MIRROR_STEP = "geometry.mirror_step"
DESCENT = "_descent.minimize_on_set"


def _iterations(result, args):
    return result.iterations


def _file_bytes(result, args):
    return os.path.getsize(args[2])  # export(obj, fmt, path)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.notes = {}  # span index -> solver iterations or bytes written
        self._stack = []

    def wrap(self, name, fn, note=None, post=None):
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if note is not None:
                notes[index] = note(result, args)
            return result if post is None else post(result)

        return wrapper

    def _traced_problem(self, problem):
        sampler = self.wrap("problems.sample_slot", problem.sample_slot)
        return dataclasses.replace(problem, sample_slot=sampler)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced entry point for the duration of the block.

        A name missing from this version of the package is skipped; its
        layer metrics then read zero."""
        from pdomd import _descent, cli, core, oracle, problems, telemetry

        patches = []

        def patch(owner, attr, name, **kwargs):
            original = owner.__dict__.get(attr)
            if original is None:
                return
            setattr(owner, attr, self.wrap(name, original, **kwargs))
            patches.append((owner, attr, original))

        for owner in (core, telemetry, cli):
            patch(owner, "slot_rng", "problems.slot_rng")
        for build in ("build_synthetic_problem", "build_datacenter_problem"):
            patch(cli, build, "problems.build", post=self._traced_problem)
        patch(problems.SlotFunctions, "observe", "problems.observe")
        patch(cli, "reac_policy_step", "problems.reac_policy_step")
        patch(cli, "run", "core.run")
        patch(core, "step", "core.step")
        patch(core, "mirror_step", MIRROR_STEP)
        patch(_descent, "minimize_on_set", DESCENT, note=_iterations)  # geometry's lookup
        patch(oracle, "minimize_on_set", DESCENT, note=_iterations)
        patch(cli, "hindsight_optimum", HINDSIGHT)
        patch(cli, "export", "telemetry.export", note=_file_bytes)
        patch(cli, "compute_metrics", "telemetry.compute_metrics")
        patch(cli, "import_record", "telemetry.import_record")
        patch(cli, "dpp_audit", "telemetry.dpp_audit")
        patch(cli, "_replay_baselines", "cli.replay_baselines")
        patch(cli, "_write_series", "cli.write_series")
        patch(cli, "_write_metrics_table", "cli.write_metrics_table")
        patch(cli, "run_experiment", EXPERIMENT)
        patch(cli, "main", "cli.main")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent])

    def summarize(self, slots_per_experiment: int):
        """Per-layer metrics and the self-time share of each layer inside
        run_experiment.

        Timings are per call (self time where the layer has traced
        children); counts are per run_experiment call, except the oracle's
        descent counts, which are per hindsight call."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_experiment = [False] * len(spans)
        in_hindsight = [False] * len(spans)
        for index, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                parent_name = spans[parent][0]
                in_experiment[index] = in_experiment[parent] or parent_name == EXPERIMENT
                in_hindsight[index] = in_hindsight[parent] or parent_name == HINDSIGHT

        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        experiment_calls = defaultdict(int)
        experiment_self = defaultdict(float)
        numeric = [0, 0, 0.0]  # calls, iterations, seconds
        oracle_descent = [0, 0]  # calls, iterations
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            inclusive[name] += duration
            self_time[name] += duration - child_time[index]
            if in_experiment[index]:
                layer = name
                if name == DESCENT:
                    layer += " (oracle)" if in_hindsight[index] else " (geometry)"
                experiment_calls[layer] += 1
                experiment_self[layer] += duration - child_time[index]
                if name == DESCENT and spans[parent][0] == MIRROR_STEP:
                    numeric[0] += 1
                    numeric[1] += self.notes[index]
                    numeric[2] += duration
            if name == DESCENT and in_hindsight[index]:
                oracle_descent[0] += 1
                oracle_descent[1] += self.notes[index]

        def per_call(table, name, scale=1.0):
            return scale * table[name] / calls[name] if calls[name] else 0.0

        experiments = calls[EXPERIMENT]
        experiment_wall = inclusive[EXPERIMENT]
        hindsight_calls = calls[HINDSIGHT]
        export_bytes = [b for i, b in self.notes.items() if spans[i][0] == "telemetry.export"]
        metrics = {
            "problems.build_s": per_call(inclusive, "problems.build"),
            "problems.draws_per_slot": experiment_calls["problems.slot_rng"]
            / (experiments * slots_per_experiment),
            "problems.slot_rng_us": per_call(self_time, "problems.slot_rng", 1e6),
            "problems.sample_slot_us": per_call(self_time, "problems.sample_slot", 1e6),
            "problems.observe_us": per_call(self_time, "problems.observe", 1e6),
            "problems.reac_calls": experiment_calls["problems.reac_policy_step"] / experiments,
            "problems.reac_us": per_call(self_time, "problems.reac_policy_step", 1e6),
            "core.step_us": per_call(self_time, "core.step", 1e6),
            "core.run_s": per_call(inclusive, "core.run"),
            "geometry.mirror_step_us": per_call(self_time, MIRROR_STEP, 1e6),
            "geometry.numeric_prox_calls": numeric[0] / experiments,
            "geometry.numeric_prox_iters": numeric[1] / experiments,
            "geometry.numeric_prox_s": numeric[2] / experiments,
            "oracle.hindsight_s": per_call(inclusive, HINDSIGHT),
            "oracle.descent_calls": oracle_descent[0] / hindsight_calls if hindsight_calls else 0.0,
            "oracle.descent_iters": oracle_descent[1] / hindsight_calls if hindsight_calls else 0.0,
            "telemetry.export_s": per_call(inclusive, "telemetry.export"),
            "telemetry.export_bytes": sum(export_bytes) / len(export_bytes) if export_bytes else 0.0,
            "telemetry.compute_metrics_s": per_call(self_time, "telemetry.compute_metrics"),
            "telemetry.import_s": per_call(inclusive, "telemetry.import_record"),
            "telemetry.dpp_audit_s": per_call(inclusive, "telemetry.dpp_audit"),
            "cli.replay_baselines_s": per_call(self_time, "cli.replay_baselines"),
            "cli.write_series_s": per_call(inclusive, "cli.write_series"),
            "trace.coverage": sum(experiment_self.values()) / experiment_wall,
        }
        shares = {
            layer: (experiment_calls[layer] / experiments, experiment_self[layer] / experiment_wall)
            for layer in sorted(experiment_self, key=experiment_self.get, reverse=True)
        }
        return metrics, shares
