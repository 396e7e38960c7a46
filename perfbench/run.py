"""gapcert benchmark: one workload per run, closed loop, one call at a time.

    python3 perfbench/run.py --workload exact_oracles --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from the `src` directory next
to this one, never from an installed copy. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run. `--workload all` runs the
three workloads one after another, each in its own process. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("exact_oracles", "gibbs_trials", "gaussian_trials")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 6
SUBPROCESS_TIMEOUT = 120
# a fresh process that imports some of the libraries the program imports,
# but not the program; its time follows the machine's speed for imports
BASELINE_CODE = "import time, numpy, scipy.special; print(time.perf_counter())"
# the baseline process's time on the machine the benchmark was written on, in
# its fast stretches; rescaled set-up times are seconds at that speed
BASELINE_REFERENCE_SECONDS = 0.45

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
# every per-layer metric; a layer the workload does not exercise reads 0
PER_LAYER_UNITS = {
    "model.enumerate_samples.states": "count",
    "model.enumerate_samples.states_per_s": "1/s",
    "hamiltonian.bounded_difference_coefficient.busy_s": "s",
    "hamiltonian.log_partition.calls_per_s": "1/s",
    "hamiltonian.posterior.calls_per_s": "1/s",
    "verify.exact_mixed_mgf.busy_s": "s",
    "verify.check_proposition_main.busy_s": "s",
    "verify.check_bernstein_unit_mgf.busy_s": "s",
    "verify.check_logZ_bounded_differences.busy_s": "s",
    "verify.check_martingale_mgf.busy_s": "s",
    "verify.violation_rate_gibbs.trials_per_s": "1/s",
    "verify.violation_rate_gaussian.trials_per_s": "1/s",
    "verify.violation_rate_gaussian.kl_trials_per_s": "1/s",
    "verify.violation_rate_gaussian.posterior_draws": "count",
    "verify.checks.attempted": "count",
    "verify.checks.failed": "count",
    "verify.exact.worst_margin": "1",
    "bounds.certificates.calls_per_s": "1/s",
    "bounds.kl_inverse_upper.calls_per_s": "1/s",
    "config.parse_config.busy_s": "s",
    "cli.verify.self_s": "s",
    "cli.csv.bytes": "count",
    "trace.overhead_s": "s",
}
# per-round self time of these spans becomes `<span>.busy_s`
BUSY_SPANS = (
    "hamiltonian.bounded_difference_coefficient",
    "verify.exact_mixed_mgf",
    "verify.check_proposition_main",
    "verify.check_bernstein_unit_mgf",
    "verify.check_logZ_bounded_differences",
    "verify.check_martingale_mgf",
    "config.parse_config",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one fresh-process set-up, timed by the parent
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def describe_times(timings) -> str:
    """The scaled round, then the unscaled whole rounds: count, median and
    the highest percentile with ten rounds beyond it."""
    ordered = sorted(timings.rounds)
    text = (f"scaled round {timings.scaled_round():.4f} s; {len(ordered)} rounds unscaled, "
            f"median {statistics.median(ordered):.4f} s")
    if len(ordered) > 10:
        k = len(ordered) - 11
        text += f", p{100.0 * (k + 1) / len(ordered):.0f} {ordered[k]:.4f} s"
    return text + f", max {ordered[-1]:.4f} s"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def process_seconds(cmd: list[str]) -> float:
    """From starting `cmd` to the moment it prints as its last line, read
    from the clock that all processes share."""
    start = time.perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=SUBPROCESS_TIMEOUT)
    return float(out.stdout.split()[-1]) - start


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Times of fresh processes that import gapcert and make the workload's
    first timed round's inputs, and of the baseline process run just before
    each, one process at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times, baseline = [], []
    for _ in range(SETUP_REPEATS):
        baseline.append(process_seconds([sys.executable, "-c", BASELINE_CODE]))
        times.append(process_seconds(cmd))
    return times, baseline


def work_dir(args, kind: str) -> Path:
    return ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{kind}-{os.getpid()}"


class Timings:
    """Wall-clock times of the timed rounds, and of each program call in
    them relative to one run of the speed kernel just before the call."""

    def __init__(self):
        self.rounds: list[float] = []
        self.ratios: dict[str, list[float]] = defaultdict(list)
        self.first_outputs = None

    @contextlib.contextmanager
    def step(self, key: str):
        import speed
        kernel = speed.calibration_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ratios[key].append((time.perf_counter() - start) / kernel)

    def scaled_round(self) -> float:
        """One round in reference seconds: per program call of a round, the
        median over the run of its time over the kernel's time just before
        it, summed and multiplied by the kernel's reference time.

        The machine's speed drifts by tens of percent over seconds, and the
        kernel slows with it; a call's time relative to the kernel run
        right before it repeats between runs far better than its fastest or
        median time does."""
        import speed
        return speed.REFERENCE_SECONDS * sum(statistics.median(r)
                                             for r in self.ratios.values())


def timed_rounds(workload, gate, seconds: float, index: int, tracer=None) -> Timings:
    """Run rounds index, index + 1, ... until `seconds` have passed; each
    round's inputs are made before its timing starts."""
    timings = Timings()
    start = time.perf_counter()
    while not timings.rounds or time.perf_counter() - start < seconds:
        inputs = workload.prepare(index)
        t0 = time.perf_counter()
        with tracer.span("round") if tracer else contextlib.nullcontext():
            raw = workload.execute(inputs, timings.step)
        timings.rounds.append(time.perf_counter() - t0)
        outputs = workload.outputs(raw, gate)
        if index == workload.reference_rounds:
            timings.first_outputs = outputs
        index += 1
    return timings


def repeat_first_round(workload, gate, first_outputs) -> tuple[object, int, int]:
    """Run the first timed round's inputs once more, untimed: its outputs
    must not change. Returns the inputs and the checks this round made,
    attempted and failed, which depend on the inputs alone."""
    import workloads
    attempted, failed = gate.attempted, gate.failed
    inputs = workload.prepare(workload.reference_rounds)
    outputs = workload.outputs(workload.execute(inputs, workloads.untimed_step), gate)
    checks = (gate.attempted - attempted, gate.failed - failed)
    gate.check(outputs == first_outputs,
               f"{workload.name} round {workload.reference_rounds}: outputs differ "
               f"from the first run of the same inputs")
    return inputs, *checks


def reference_pass(workloads_mod, gate_mod, args, gate) -> None:
    """Run the reference rounds of the default seed and compare their
    outputs with the stored reference. Also warms the code paths before
    timing."""
    observed = workloads_mod.reference_outputs(args.workload, work_dir(args, "reference"), gate)
    gate.compare(f"{args.workload} reference (seed {workloads_mod.DEFAULT_SEED})",
                 observed, gate_mod.load_reference(args.workload))


def layer_metrics(workload, tracer, gate, untraced, traced, recorded, first) -> dict:
    """`first` is the repeated first timed round: its inputs and checks."""
    rounds = len(traced.rounds)
    self_s = tracer.self_seconds()
    busy = tracer.busy_seconds()
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for span in BUSY_SPANS:
        metrics[f"{span}.busy_s"] = self_s.get(span, 0.0) / rounds
    metrics["cli.verify.self_s"] = self_s.get("cli.verify", 0.0) / rounds
    gibbs_span = "verify.violation_rate_gibbs"
    if busy.get(gibbs_span):
        metrics[f"{gibbs_span}.trials_per_s"] = (tracer.count(gibbs_span) * workload.trials
                                                 / busy[gibbs_span])
    inputs, attempted, failed = first
    metrics.update(workload.probes(inputs, recorded))
    metrics["verify.checks.attempted"] = attempted
    metrics["verify.checks.failed"] = failed
    if gate.worst_margin is not None:
        metrics["verify.exact.worst_margin"] = gate.worst_margin
    metrics["trace.overhead_s"] = traced.scaled_round() - untraced.scaled_round()
    return metrics


def print_self_shares(tracer, rounds: int) -> None:
    """Self time per span name, as a share of the program spans' time. The
    `round` span's own time, the benchmark's speed kernel and the program
    calls that are not wrapped, is printed but left out of the shares."""
    self_s = tracer.self_seconds()
    outside = self_s.pop("round", 0.0)
    total = sum(self_s.values())
    print(f"self time per traced round ({rounds} rounds), by span:")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:48s} {value / rounds:10.5f} s  {100.0 * value / total:5.1f}%")
    print(f"  {'(round, outside the spans above)':48s} {outside / rounds:10.5f} s")
    top = max(self_s.items(), key=lambda kv: kv[1])
    print(f"largest self-time share: {top[0]} ({100.0 * top[1] / total:.1f}%)")


def run_workload(args) -> int:
    import gate as gate_mod
    import speed
    import workloads as workloads_mod
    from tracing import Tracer

    if workloads_mod.PROGRAM != ROOT / "src" / "gapcert":
        raise RuntimeError(f"gapcert was imported from {workloads_mod.PROGRAM}, "
                           f"not from {ROOT / 'src'}")

    if args.trace == 0:
        setup_times, setup_baseline = measure_setup(args)
    gate = gate_mod.Gate()
    out_root = ROOT / ".perfbench_out"
    try:
        reference_pass(workloads_mod, gate_mod, args, gate)
        workload = workloads_mod.WORKLOADS[args.workload](args.seed, work_dir(args, "run"))
        start = workload.reference_rounds
        if args.trace == 0:
            times = timed_rounds(workload, gate, args.seconds, start)
            repeat_first_round(workload, gate, times.first_outputs)
        else:
            untraced = timed_rounds(workload, gate, args.seconds / 2, start)
            tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
            recorded: list = []
            workload.instrument(tracer, recorded)
            try:
                traced = timed_rounds(workload, gate, args.seconds / 2,
                                      start + len(untraced.rounds), tracer)
            finally:
                tracer.restore()
            first = repeat_first_round(workload, gate, untraced.first_outputs)
            metrics = layer_metrics(workload, tracer, gate, untraced, traced, recorded, first)
            tracer.write_jsonl(out_root / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        for kind in ("reference", "run"):
            shutil.rmtree(work_dir(args, kind), ignore_errors=True)

    print(f"machine: {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace == 0:
        # each set-up over the baseline process just before it, as wall_s
        # takes each program call over the kernel run just before it
        setup = BASELINE_REFERENCE_SECONDS * statistics.median(
            t / b for t, b in zip(setup_times, setup_baseline))
        wall = times.scaled_round()
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "work_per_s": workload.work_per_round / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"  round: {workload.work_per_round} {workload.work_unit}; "
              f"{describe_times(times)}")
        print(f"  set-up: {len(setup_times)} fresh processes, "
              f"{', '.join(f'{t:.4f}' for t in setup_times)} s; baseline processes "
              f"{', '.join(f'{t:.4f}' for t in setup_baseline)} s")
        print(f"  scaled to a baseline process of {BASELINE_REFERENCE_SECONDS} s "
              f"and a speed kernel of {speed.REFERENCE_SECONDS} s")
    else:
        units = PER_LAYER_UNITS
        print(f"  untraced: {describe_times(untraced)}")
        print(f"  traced:   {describe_times(traced)}")
        print_self_shares(tracer, len(traced.rounds))
    for name, value in metrics.items():
        print(f"  {name:50s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':50s} {gate.failed / gate.attempted:.6g} ratio "
          f"({gate.failed} of {gate.attempted} checks failed)")
    print(f"  gate: {'PASS' if not gate.failures else 'FAIL'}")
    for failure in gate.failures[:20]:
        print(f"    {failure}")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def setup_probe(args) -> int:
    """Import gapcert, build the workload and make its first timed round's
    inputs; print the clock when done."""
    import workloads
    workdir = work_dir(args, "setup")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare(workload.reference_rounds)
        print(time.perf_counter())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "gapcert" / "cli.py").is_file():
        print(f"benchmark: no program source at {src}/gapcert; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
