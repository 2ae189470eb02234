"""The pdomd benchmark: one workload per fresh process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]
    python3 bench/run.py --write-spec

A run imports pdomd from the checkout's `src/` (it refuses to run without
it), times SETUP_UPFRONT set-ups in fresh interpreters, then repeats rounds
of one more set-up, one `run_experiment`, the workload's `pdomd audit` calls
of written records and two `iterate_run` passes per seed for about S
seconds. Each call starts when the previous one returns. With --trace 0 it
reports the end-to-end metrics with no wrapper installed; with --trace 1 it
alternates untraced and traced experiments and reports the per-layer
metrics. The last line of standard output is the JSON result. See bench/README.md.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD_TIMEOUT_S = 170
RESIDUAL = re.compile(r"worst bound residual over \d+ samples: (\S+)")


def import_pdomd():
    if not (SRC / "pdomd" / "__init__.py").is_file():
        raise SystemExit(f"error: no pdomd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdomd

    if not Path(pdomd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: pdomd imported from {pdomd.__file__}, not {SRC}")
    return pdomd


def environment() -> dict:
    import scipy

    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "process_threads": threads,
    }


class Workload:
    """One workload's inputs, operations and correctness checks."""

    def __init__(self, pdomd, name: str, seed: int, work: Path):
        self.pdomd = pdomd
        self.cli = pdomd.cli
        self.config_path = work / "config.json"
        mapping = spec.workload_config(name, seed, str(work / "out"))
        self.config_path.write_text(json.dumps(mapping, indent=2) + "\n")
        self.config = pdomd.parse_config(self.config_path)
        self.horizon = self.config.horizon
        self.seeds = self.config.seeds
        self.out = Path(self.config.out_dir)
        self.problem = spec.build_problem(pdomd, self.config)
        self.audits_per_round = spec.WORKLOADS[name][2]
        self.attempted = 0
        self.failed = 0
        self.result = None
        self.setup_s = []
        self.experiment_s = []
        self.traced_experiment_s = []
        self.audit_s = []
        self.slot_s = {seed: [] for seed in self.seeds}  # seed -> one list per pass

    # -- bookkeeping -------------------------------------------------------

    def attempt(self, label: str, operation, *args) -> None:
        """Run one operation; it fails on an exception or any reported fault."""
        self.attempted += 1
        try:
            faults = operation(*args)
        except Exception:  # the benchmark must keep counting after a failure
            traceback.print_exc(file=sys.stderr)
            faults = ["raised an exception"]
        if faults:
            self.failed += 1
            for fault in faults:
                print(f"FAILED {label}: {fault}", file=sys.stderr)

    # -- operations --------------------------------------------------------

    def setup_probe(self) -> list:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(self.config_path)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
        self.setup_s.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        return []

    def experiment(self, walls: list) -> list:
        started = time.perf_counter()
        result = self.cli.run_experiment(self.config)
        walls.append(time.perf_counter() - started)
        self.result = result
        faults = []
        for seed, summary in result["metrics"]:
            for field in dataclasses.fields(summary):
                value = getattr(summary, field.name)
                if value is not None and not math.isfinite(value):
                    faults.append(f"seed {seed}: {field.name} is {value}")
        for table in result["series"].values():
            for policy, series in table.items():
                if not np.isfinite(series).all():
                    faults.append(f"{policy} series is not finite")
        return faults

    def record_path(self, seed: int) -> Path:
        return self.out / "records" / f"run_seed{seed}.csv"

    def audit(self, seed: int) -> list:
        argv = ["audit", "--config", str(self.out / "config_resolved.json"),
                "--record", str(self.record_path(seed))]
        printed = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            code = self.cli.main(argv)
        self.audit_s.append(time.perf_counter() - started)
        faults = [] if code == 0 else [f"exit code {code}: {printed.getvalue()[-400:]}"]
        found = RESIDUAL.search(printed.getvalue())
        if found is None:
            faults.append("no bound residual reported")
        elif not float(found.group(1)) <= self.cli.AUDIT_TOL:
            faults.append(f"residual {found.group(1)} above {self.cli.AUDIT_TOL}")
        return faults

    def iterate(self, seed: int) -> list:
        """Drive iterate_run slot by slot, timing each yield, and check the
        record run_experiment exported for this seed against the live run."""
        problem = self.problem
        horizon, dim = self.horizon, problem.dimension
        live = {
            "decisions": np.zeros((horizon, dim)),
            "objective_realized": np.zeros(horizon),
            "ineq_realized": np.zeros((horizon, problem.n_ineq)),
            "eq_realized": np.zeros((horizon, problem.n_eq)),
            "ineq_dual_norm": np.zeros(horizon),
            "eq_dual_norm": np.zeros(horizon),
            "drift": np.zeros(horizon),
        }
        params = self.config.params_for(horizon)
        slots = self.pdomd.iterate_run(
            problem, horizon, params, seed, self.config.resolved_variant
        )
        laps = []
        clock = time.perf_counter
        for t in range(horizon):
            started = clock()
            state, outcome, _, obs = next(slots)
            laps.append(clock() - started)
            live["decisions"][t] = state.decision
            live["objective_realized"][t] = obs.objective_value
            live["ineq_realized"][t] = obs.ineq_values
            if problem.n_eq:
                live["eq_realized"][t] = obs.eq_matrix @ state.decision
            live["ineq_dual_norm"][t] = outcome.ineq_dual_norm
            live["eq_dual_norm"][t] = outcome.eq_dual_norm
            live["drift"][t] = outcome.drift
        self.slot_s[seed].append(laps)

        faults = []
        for column in ("ineq_dual_norm", "eq_dual_norm"):
            if not live[column].min() >= 0.0:
                faults.append(f"seed {seed}: negative or non-finite {column}")
        record = self.pdomd.import_record(self.record_path(seed))
        if (record.seed, record.variant) != (seed, self.config.resolved_variant):
            faults.append(f"seed {seed}: record header names another run")
        for column, values in live.items():
            stored = np.asarray(getattr(record, column), dtype=float)
            if stored.shape != values.shape or stored.tobytes() != values.tobytes():
                faults.append(f"seed {seed}: exported {column} differs from the live run")
        return faults

    # -- runs --------------------------------------------------------------

    def run_rounds(self, seconds: float, tracer) -> None:
        """Repeat rounds for about `seconds`: a round starts only when it is
        expected to end less than half a round past the deadline. An untraced
        run completes at least two, so every (seed, slot) is timed in at
        least four passes.

        Each round spreads every kind of sample over the run: an untraced
        round starts with a set-up, and every seed is passed once before the
        audits and once after, so a slow phase of the machine lands in few
        of the samples of any one metric."""
        clock = time.perf_counter
        deadline = clock() + seconds
        min_rounds = 2 if tracer is None else 1
        rounds = 0
        round_s = 0.0
        while rounds < min_rounds or clock() + round_s / 2 < deadline:
            started = clock()
            first = rounds * self.audits_per_round
            audited = [self.seeds[(first + k) % len(self.seeds)]
                       for k in range(self.audits_per_round)]
            if tracer is None:
                self.attempt("setup", self.setup_probe)
            self.attempt("experiment", self.experiment, self.experiment_s)
            for seed in self.seeds:
                self.attempt("iterate", self.iterate, seed)
            if tracer is None:
                for seed in audited:
                    self.attempt("audit", self.audit, seed)
            else:
                with tracer.installed():
                    self.attempt("experiment", self.experiment, self.traced_experiment_s)
                    for seed in audited:
                        self.attempt("audit", self.audit, seed)
            for seed in self.seeds:
                self.attempt("iterate", self.iterate, seed)
            rounds += 1
            round_s = clock() - started

    def result_values(self) -> dict:
        rows = [summary for _, summary in self.result["metrics"]]
        root_t = math.sqrt(self.horizon)
        cost = self.result["series"]["cost"]
        return {
            "result.regret_sqrtT": float(np.mean([s.expected_regret for s in rows])) / root_t,
            "result.violation_sqrtT": root_t
            * float(np.mean([math.hypot(s.ineq_violation, s.eq_violation) for s in rows])),
            "result.dual_ratio": float(np.mean([s.dual_ratio for s in rows])),
            "result.reac_cost_ratio": float(cost["algorithm"][-1] / cost["reac"][-1])
            if "reac" in cost
            else 0.0,
        }

    def end_to_end(self) -> dict:
        """The machine switches between fast and slow phases, often within a
        run. A median over samples jumps from one phase's speed to another's
        as their shares cross one half; a mean moves in proportion to the
        shares, so timings are averaged over the run. Interference only ever
        adds time, and a burst can swamp a slot of about 100 us, so each
        (seed, slot) drops its slowest pass before its passes are averaged;
        an experiment or an audit lasts long enough to absorb one."""
        slot_us = np.concatenate([
            (np.sum(laps, axis=0) - np.max(laps, axis=0)) / (len(laps) - 1)
            for laps in map(np.asarray, self.slot_s.values())
        ]) * 1e6
        return {
            "setup_s": statistics.median(self.setup_s),
            "slots_per_s": len(self.seeds) * self.horizon / statistics.mean(self.experiment_s),
            "slot_us_p50": float(np.percentile(slot_us, 50)),
            "slot_us_p99": float(np.percentile(slot_us, 99)),
            "audit_s": statistics.mean(self.audit_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    pdomd = import_pdomd()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Workload(pdomd, name, seed, work)
        tracer = Tracer() if trace else None
        if not trace:
            for _ in range(spec.SETUP_UPFRONT):
                bench.attempt("setup", bench.setup_probe)
        bench.run_rounds(seconds, tracer)

        slots = len(bench.seeds) * bench.horizon
        print(f"workload {name}: seed {seed}, d={bench.problem.dimension}, T={bench.horizon}, "
              f"run seeds {bench.seeds[0]}..{bench.seeds[-1]}")
        if trace:
            metrics, shares = tracer.summarize(slots)
            metrics["trace.overhead"] = statistics.median(
                bench.traced_experiment_s
            ) / statistics.median(bench.experiment_s)
            metrics.update(bench.result_values())
            table = spec.PER_LAYER
            spans_path = WORK / f"spans-{name}-seed{seed}.csv"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
            print("self-time share of run_experiment (calls per experiment):")
            for layer, (calls, share) in shares.items():
                print(f"  {layer:36s} {100 * share:6.2f}%  {calls:12.1f}")
            print(f"  {'(untraced remainder)':36s} {100 * (1 - metrics['trace.coverage']):6.2f}%")
        else:
            metrics = bench.end_to_end()
            table = spec.END_TO_END
            print(f"samples: setup {len(bench.setup_s)}, experiments {len(bench.experiment_s)}, "
                  f"audits {len(bench.audit_s)}, slots {len(bench.seeds) * bench.horizon} "
                  f"timed {len(bench.slot_s[bench.seeds[0]])} times each")
        print("env: " + json.dumps(environment(), sort_keys=True))
        for key, value in metrics.items():
            print(f"  {key:32s} {value:16.6g} {table[key][0]}")
        missing = set(table) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not produced: {sorted(missing)}")
        correct = bench.failed == 0 and all(math.isfinite(v) for v in metrics.values())
        print(json.dumps({
            "correct": correct,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": metrics[k], "unit": table[k][0]} for k in table},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {}
    status = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} (exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            combined.setdefault(name, {})[f"trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from bench/spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(f"wrote {spec.write_spec(ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
