"""Batch front end.

Subcommands:
    certify  - compute the configured certificates for one seeded draw,
               the draw of trial 0 of `verify`
    verify   - enumeration oracles (when in budget) plus violation-rate trials
    compare  - tightness grids against the closed-form baselines
    accept   - the full acceptance suite

Exit codes: 0 success, 2 invariant violation (a failed exact-regime margin or
a violation rate above the configured confidence), 3 configuration or usage
error (an unwritable output path included), 4 enumeration-budget refusal.

All output is deterministic in the scenario file alone, which holds the
master seed: the CSV files are byte-identical across reruns. Wall-clock
timings therefore live in the human-readable summary, never in the CSV.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

from . import bounds as bd
from . import verify as vf
from .config import ConfigError, ScenarioConfig, parse_config
from .hamiltonian import Gibbs
from .model import BudgetExceeded, generalization_gap

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONFIG = 3
EXIT_BUDGET = 4

CSV_SCHEMA_VERSION = "gapcert_csv_v1"
CSV_COLUMNS = (
    "schema", "scenario_id", "phase", "method", "value", "delta",
    "violations", "trials", "cp_upper", "baseline", "inputs",
)


def _write_outputs(out_dir: Path, stem: str, rows: list[dict], summary: str) -> None:
    """A command's outputs: the CSV `<stem>.csv`, the summary file
    `<stem>_summary.txt`, and the summary on stdout. A reader that closed
    stdout early (`gapcert verify ... | head -0`) loses the printed summary
    but changes no exit code."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{stem}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in sorted(rows, key=lambda r: (r["scenario_id"], r["phase"],
                                               r["method"], r["inputs"])):
            writer.writerow({"schema": CSV_SCHEMA_VERSION, **row})
    (out_dir / f"{stem}_summary.txt").write_text(summary + "\n")
    try:
        print(summary, flush=True)
    except BrokenPipeError:
        # the unwritten text stays buffered; send it, and the flush at exit,
        # to the null device rather than raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _row(cfg_id: str, phase: str, method: str, value, **columns) -> dict:
    """A CSV row; a column of CSV_COLUMNS not given is written empty."""
    return dict(columns, scenario_id=cfg_id, phase=phase, method=method,
                value=repr(value) if isinstance(value, float) else value)


def _scenario_run(config: ScenarioConfig) -> vf.GibbsRun | vf.GaussianRun:
    spec = config.spec
    if isinstance(spec, Gibbs):
        return vf.GibbsRun(config.space, config.loss, config.prior, spec.beta, config.n,
                           config.delta)
    return vf.GaussianRun(config.space, config.loss, spec.algorithm, spec.sigma, config.n,
                          config.delta, config.posterior_draws)


def cmd_certify(config: ScenarioConfig, out_dir: Path) -> int:
    """Certificates for one seeded draw: trial 0 of `verify`. Every one is
    recomputable bit-identically from its recorded inputs."""
    certs = vf.certificates(_scenario_run(config), config.methods, config.master_seed)
    rows = []
    lines = []
    for cert in certs:
        again = vf.recompute(cert)
        if again.value != cert.value:
            print(f"certificate {cert.method} not recomputable bit-identically",
                  file=sys.stderr)
            return EXIT_INVARIANT
        lines.append(cert.serialize())
        rows.append(_row(config.scenario_id, "certify", cert.method, cert.value,
                         delta=repr(cert.delta), inputs=";".join(cert.input_pairs())))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{config.scenario_id}_certificates.txt").write_text(
        "\n".join(lines) + ("\n" if lines else ""))
    summary = [f"scenario {config.scenario_id}: {len(certs)} certificate(s)"]
    summary += [f"  {ln}" for ln in lines]
    _write_outputs(out_dir, f"{config.scenario_id}_certify", rows, "\n".join(summary))
    return EXIT_OK


def _exact_oracles(config: ScenarioConfig) -> tuple[list[dict], bool]:
    """Enumerated oracle checks for a Gibbs scenario; returns (rows, ok), or
    raises BudgetExceeded before any check runs if X^n is over the budget."""
    rows = []
    reports = vf.check_logZ_bounded_differences(
        config.spec, config.space, config.loss, config.prior, config.n,
        budget=config.enumeration_budget)
    reports.append(vf.check_proposition_main(
        config.spec, config.space, config.loss, config.prior, config.n,
        lambda h, s: float(config.n) * generalization_gap(h, s, config.space,
                                                          config.loss),
        budget=config.enumeration_budget))
    for rep in reports:
        rows.append(_row(config.scenario_id, "verify_oracle", rep.name,
                         rep.lhs, baseline=repr(rep.rhs),
                         inputs=f"margin={rep.margin!r};regime={rep.regime}"))
    return rows, all(rep.passed for rep in reports)


def cmd_verify(config: ScenarioConfig, out_dir: Path) -> int:
    rows: list[dict] = []
    ok = True
    summary: list[str] = []
    t0 = t1 = time.perf_counter()
    phases = ""

    if isinstance(config.spec, Gibbs):
        # the oracles refuse a state space over the budget: no exact rows
        # under `auto`, exit 4 from main under `require`
        try:
            rows, ok = _exact_oracles(config)
        except BudgetExceeded as exc:
            if config.verify_exact == "require":
                raise
            summary.append(f"exact oracles: none, {exc}")
        else:
            summary.append(f"exact oracles: {'ok' if ok else 'MARGIN FAILURE'} "
                           f"({len(rows)} checks)")
        t1 = time.perf_counter()
        phases = f"exact oracles {t1 - t0:.2f}s, "
        rep = vf.violation_rate_gibbs(
            config.space, config.loss, config.prior, config.spec.beta, config.n,
            config.delta, config.methods, config.trials, config.master_seed)
    else:
        rep = vf.violation_rate_gaussian(
            config.space, config.loss, config.spec.algorithm, config.spec.sigma,
            config.n, config.delta, config.methods, config.trials,
            config.master_seed, posterior_draws=config.posterior_draws)
    trials_s = time.perf_counter() - t1

    for m, stats in sorted(rep.per_method.items()):
        ok = ok and stats.passed(config.delta)
        rows.append(_row(config.scenario_id, "verify_trials", m, stats.mean_bound,
                         delta=repr(config.delta), violations=str(stats.violations),
                         trials=str(stats.trials), cp_upper=repr(stats.clopper_pearson_upper),
                         inputs=f"master_seed={config.master_seed}"))
        line = stats.summary(config.delta)
        if vf.SCENARIO_METHODS[m].target == vf.POSTERIOR_KL:
            line += f" ({vf.kl_estimator(config.spec.algorithm.dim_d, config.posterior_draws)})"
        summary.append(line)

    summary.append(f"mean gap over {rep.trials} trials: {rep.mean_gap:.4g}")
    summary.append(f"wall-clock: {phases}trials {trials_s:.2f}s "
                   f"({rep.trials / trials_s:.0f} trials/s)")
    text = "\n".join([f"scenario {config.scenario_id}: verify "
                      f"{'passed' if ok else 'FAILED'}"] + [f"  {s}" for s in summary])
    _write_outputs(out_dir, f"{config.scenario_id}_verify", rows, text)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_compare(config: ScenarioConfig, out_dir: Path) -> int:
    rows = []
    table = vf.tightness_report()
    improved = 0
    for r in table:
        inputs = f"n={r.n};beta={r.beta!r};delta={r.delta!r}"
        rows.append(_row(config.scenario_id, "compare", "bounded_differences",
                         r.eq_simple, delta=repr(r.delta),
                         baseline=repr(r.baseline_gibbs), inputs=inputs))
        improved += int(r.improvement_holds)
        for lh, chain in sorted(r.kl_chain.items()):
            rows.append(_row(config.scenario_id, "compare", "empirical_bernstein",
                             chain["empirical_bernstein"], delta=repr(r.delta),
                             baseline=repr(chain["inverted_kl_baseline"]),
                             inputs=inputs + f";l_hat={lh!r}"))
    text = (f"scenario {config.scenario_id}: compare grid of {len(table)} points, "
            f"simple bound below baseline at {improved}/{len(table)}")
    _write_outputs(out_dir, f"{config.scenario_id}_compare", rows, text)
    return EXIT_OK


def cmd_accept(out_dir: Path) -> int:
    from . import acceptance  # only accept runs the suite, so no other command loads it
    results = acceptance.run_all()
    rows = []
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.number}: {r.name} "
                     f"({r.seconds:.1f}s) -- {r.detail}")
        rows.append(_row("acceptance", "accept", f"criterion_{r.number}",
                         "1" if r.passed else "0", inputs=r.name))
    all_ok = all(r.passed for r in results)
    text = "\n".join(lines + [f"acceptance: {'all passed' if all_ok else 'FAILURES'}"])
    _write_outputs(out_dir, "acceptance", rows, text)
    return EXIT_OK if all_ok else EXIT_INVARIANT


PLOT_SCRIPT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Render bound-vs-n and bound-vs-beta curves with baselines overlaid.

Self-contained: reads the results CSV embedded by path below and writes PNG
files next to it. Requires matplotlib.
"""
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

RESULTS = {results_path!r}


def parse_inputs(s):
    out = {{}}
    for part in s.split(";"):
        if "=" in part:
            k, _, v = part.partition("=")
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v
    return out


rows = []
with open(RESULTS) as fh:
    for row in csv.DictReader(fh):
        if row.get("phase") == "compare":
            row["_in"] = parse_inputs(row.get("inputs", ""))
            rows.append(row)

for xkey, fname in (("n", "bound_vs_n.png"), ("beta", "bound_vs_beta.png")):
    fig, ax = plt.subplots()
    series = defaultdict(list)
    for row in rows:
        x = row["_in"].get(xkey)
        if x is None:
            continue
        series[(row["method"], "bound")].append((x, float(row["value"])))
        if row.get("baseline"):
            series[(row["method"], "baseline")].append((x, float(row["baseline"])))
    for (method, kind), pts in sorted(series.items()):
        pts.sort()
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        style = "-" if kind == "bound" else "--"
        ax.plot(xs, ys, style, label=f"{{method}} ({{kind}})")
    ax.set_xlabel(xkey)
    ax.set_ylabel("bound value")
    if series:
        ax.set_xscale("log" if xkey == "n" else "linear")
        ax.legend(fontsize=7)
    ax.set_title(f"bound vs {{xkey}}")
    fig.savefig(fname, dpi=120)
    print(f"wrote {{fname}}")
'''


def emit_plot_script(results_path, output_path) -> None:
    """Write a self-contained plotting script for a results CSV."""
    results_path = str(results_path)
    with open(results_path) as fh:
        header = fh.readline()
    if header.strip() and not header.startswith("schema"):
        raise ValueError(f"{results_path}: not a results CSV (bad header)")
    Path(output_path).write_text(PLOT_SCRIPT_TEMPLATE.format(results_path=results_path))


FLAGS = {
    "--config": dict(required=True, help="scenario file"),
    "--out": dict(default="out", help="output directory (default: out)"),
    "--plot-script": dict(help="also emit a plotting script here"),
}

# each subcommand accepts only the flags it reads
SUBCOMMANDS = (
    ("certify", "compute certificates only", ("--config", "--out")),
    ("verify", "enumeration oracles and violation-rate trials", ("--config", "--out")),
    ("compare", "tightness grids against the baselines",
     ("--config", "--out", "--plot-script")),
    ("accept", "run the full acceptance suite", ("--out",)),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="Generalization-gap certificates for Hamiltonian "
                    "stochastic learners: computation, verification, comparison.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage; its exit code 2 for a usage error
        # would read as an invariant violation here
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    config = None
    if args.command != "accept":
        try:
            config = parse_config(args.config)
        except OSError as exc:  # a missing or unreadable scenario file, or a directory
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except ConfigError as exc:
            for e in exc.errors:
                print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG

    out_dir = Path(args.out)

    try:
        # a file in the way fails before the command (not after accept's suite);
        # only the writers make the directory, so a refused run leaves none
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"{existing} is a file, not a directory")
        if args.command == "certify":
            return cmd_certify(config, out_dir)
        if args.command == "verify":
            return cmd_verify(config, out_dir)
        if args.command == "accept":
            return cmd_accept(out_dir)
        code = cmd_compare(config, out_dir)
        if args.plot_script and code == EXIT_OK:
            emit_plot_script(out_dir / f"{config.scenario_id}_compare.csv", args.plot_script)
        return code
    except BudgetExceeded as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except bd.DomainError as exc:
        # a certificate's domain that parsing does not check, such as the
        # n > 8 of the expected-kl bound
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output path under a file, or in a missing directory
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy's, for a run's arrays: a trial's, (trials, n) for one, and
        # where the kl rule draws, its posterior_draws x d normals
        sizes = "n, posterior_draws" if (config and config.posterior_draws
                                         and vf.kl_draws(config.spec.algorithm.dim_d)) else "n"
        print(f"config error: {sizes}: the scenario is too large to run: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
