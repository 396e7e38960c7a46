"""Scenario-file parsing, validation, and the command-line front end."""

import csv
import dataclasses
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gapcert import acceptance
from gapcert.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    cmd_certify,
    cmd_verify,
    emit_plot_script,
    main,
)
from gapcert.config import _KEYS, ConfigError, parse_config
from gapcert.verify import SCENARIO_METHODS
from gapcert.hamiltonian import GaussianKernel, Gibbs


def write_config(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


GIBBS_SMALL = """\
scenario_id = demo
n = 4
instance.num_points = 3
instance.num_hypotheses = 4
hamiltonian.beta = 5.0
methods = bounded_differences,empirical_bernstein
# enough trials for the 99.9% Clopper-Pearson upper bound to clear delta
trials = 200
"""

GAUSSIAN_SMALL = """\
scenario_id = gdemo
hamiltonian.variant = gaussian_kernel
hamiltonian.sigma = 0.5
n = 100
instance.num_points = 6
methods = gaussian_gap
trials = 200
posterior_draws = 200
"""

# a Gibbs scenario on a loss-table file; {good_table} is a valid one
GIBBS_FILE = """\
scenario_id = fdemo
n = 3
hamiltonian.beta = 2.0
instance.file = {good_table}
"""

GOOD_TABLE = "points a b\n#mu 0.5 0.5\nh0 0.1 0.2\nh1 0.7 0.3\n"

# loss-table files that load_loss_table rejects; a NaN fails every comparison,
# so each non-finite entry needs a check of its own
BAD_TABLES = {
    "nan_mu_table": "points a b c\n#mu 0.5 nan 0.5\nh0 0.1 0.2 0.3\nh1 0.7 0.3 0.5\n",
    "nan_loss_table": "points a b\n#mu 0.5 0.5\nh0 0.1 nan\nh1 0.7 0.3\n",
    "nan_b_table": "points a b\n#mu 0.5 0.5\nb nan\nh0 0.1 0.2\nh1 0.7 0.3\n",
    "bare_b_table": "points a b\n#mu 0.5 0.5\nb\nh0 0.1 0.2\nh1 0.7 0.3\n",
}

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# sha256 prefixes of the CSVs that `certify` and `verify` write for each file
# in configs/, and `compare` for gibbs_small; no change may move a byte of them
CSV_SHA256 = {
    "gibbs_exact_certify.csv": "e61cc29e",
    "gibbs_exact_verify.csv": "1cee2f35",
    "gibbs_small_certify.csv": "308e3214",
    "gibbs_small_verify.csv": "30722ea4",
    "gibbs_small_compare.csv": "136d4d30",
    "gaussian_mean_embedding_certify.csv": "138335af",
    "gaussian_mean_embedding_verify.csv": "7b5a832f",
}

# scenario files that parse_config must reject; {table} is a loss-table file
# in the README's old, unparsable `# mu =` form
BAD_SCENARIOS = {
    "malformed_compare_list": GIBBS_SMALL + "compare.ns = 10,abc\n",
    "malformed_beta_tag": GIBBS_SMALL + "compare.betas = 0,sqrtn\n",
    "rejected_loss_table": GIBBS_FILE.replace("{good_table}", "{table}"),
    "unknown_algorithm": GAUSSIAN_SMALL + "hamiltonian.algorithm = foo\n",
    "ridge_declares_no_c_A": GAUSSIAN_SMALL + "hamiltonian.algorithm = ridge\n",
    # keys the scenario's variant does not read
    "gaussian_with_instance_file": GAUSSIAN_SMALL + "instance.file = {table}\n",
    "gaussian_with_beta": GAUSSIAN_SMALL + "hamiltonian.beta = 3.0\n",
    "gibbs_with_sigma": GIBBS_SMALL + "hamiltonian.sigma = 0.5\n",
    "gibbs_with_algorithm": GIBBS_SMALL + "hamiltonian.algorithm = mean_embedding\n",
    "gibbs_with_dim": GIBBS_SMALL + "instance.dim = 7\n",
    "gaussian_with_num_hypotheses": GAUSSIAN_SMALL + "instance.num_hypotheses = 99\n",
    "gaussian_with_enumeration_budget": GAUSSIAN_SMALL + "enumeration_budget = 1000\n",
    # a continuous hypothesis space has no exact regime
    "gaussian_with_verify_exact": GAUSSIAN_SMALL + "verify.exact = skip\n",
    "gibbs_with_posterior_draws": GIBBS_SMALL + "posterior_draws = 100\n",
    # an unknown key: a random Gibbs instance needs no generator name
    "gaussian_with_generator": GAUSSIAN_SMALL + "instance.generator = gibbs_random\n",
    "file_with_generator": GIBBS_FILE + "instance.generator = gibbs_random\n",
    # random-instance keys next to instance.file
    "file_with_seed": GIBBS_FILE + "instance.seed = 3\n",
    "file_with_num_points": GIBBS_FILE + "instance.num_points = 2\n",
    "file_with_num_hypotheses": GIBBS_FILE + "instance.num_hypotheses = 2\n",
    # values outside a key's domain
    "duplicate_method": GIBBS_SMALL.replace("bounded_differences,empirical_bernstein",
                                            "bounded_differences,bounded_differences"),
    "nan_delta": GIBBS_SMALL + "delta = nan\n",
    "nan_beta": GIBBS_SMALL.replace("beta = 5.0", "beta = nan"),
    "inf_beta": GIBBS_SMALL.replace("beta = 5.0", "beta = inf"),
    "inf_sigma": GAUSSIAN_SMALL.replace("sigma = 0.5", "sigma = inf"),
    "nan_sigma": GAUSSIAN_SMALL.replace("sigma = 0.5", "sigma = nan"),
    "zero_compare_n": GIBBS_SMALL + "compare.ns = 0\n",
    "negative_compare_n": GIBBS_SMALL + "compare.ns = 100,-5\n",
    "compare_delta_above_1": GIBBS_SMALL + "compare.deltas = 0.05,1.5\n",
    "compare_l_hat_above_b": GIBBS_SMALL + "compare.l_hats = 2\n",
    "negative_compare_beta": GIBBS_SMALL + "compare.betas = sqrt_n,-1\n",
    "scenario_id_with_separator": GIBBS_SMALL.replace("scenario_id = demo", "scenario_id = a/b"),
    "empty_scenario_id": GIBBS_SMALL.replace("scenario_id = demo", "scenario_id ="),
    # a Gibbs file on each rejected loss table, read as {<table name>}
    **{name: GIBBS_FILE.replace("{good_table}", f"{{{name}}}") for name in BAD_TABLES},
}


class TestParse:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "minimal.txt", "n = 20\n"))
        assert cfg.scenario_id == "minimal"
        assert isinstance(cfg.spec, Gibbs) and cfg.spec.beta == 5.0
        assert cfg.methods == ("bounded_differences",)
        assert cfg.delta == 0.05
        assert cfg.verify_exact == "auto"
        assert cfg.beta_grid(100) == [0.0, 10.0, 10.0]

    @pytest.mark.parametrize("name", sorted(BAD_TABLES))
    def test_bad_loss_table_is_a_parse_error(self, tmp_path, name):
        """The table is refused while the scenario is parsed, under the key that
        names it, not later by a certificate or a margin."""
        table = write_config(tmp_path, "t.txt", BAD_TABLES[name])
        with pytest.raises(ConfigError, match="instance.file: "):
            parse_config(write_config(tmp_path, "c.txt", GIBBS_FILE.format(good_table=table)))

    def test_gaussian_variant(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "g.txt", GAUSSIAN_SMALL))
        assert isinstance(cfg.spec, GaussianKernel)
        assert cfg.spec.sigma == 0.5
        assert cfg.prior is None

    def test_missing_n(self, tmp_path):
        with pytest.raises(ConfigError, match="n: required"):
            parse_config(write_config(tmp_path, "c.txt", "delta = 0.05\n"))

    def test_delta_out_of_domain_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="delta"):
            parse_config(write_config(tmp_path, "c.txt", "n = 10\ndelta = 1.5\n"))

    def test_all_errors_collected(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, "c.txt",
                                      "delta = 1.5\ntrials = 0\n"))
        msgs = "\n".join(exc.value.errors)
        assert len(exc.value.errors) >= 3
        assert "delta" in msgs and "trials" in msgs and "n: required" in msgs

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_config(tmp_path, "c.txt", "n = 10\nbogus = 1\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(write_config(tmp_path, "c.txt", "n = 10\nn = 11\n"))

    def test_method_variant_compatibility(self, tmp_path):
        with pytest.raises(ConfigError, match="incompatible"):
            parse_config(write_config(tmp_path, "c.txt",
                                      "n = 10\nmethods = gaussian_gap\n"))

    def test_unknown_method(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config(write_config(tmp_path, "c.txt", "n = 10\nmethods = foo\n"))

    def test_verify_exact_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="verify.exact"):
            parse_config(write_config(tmp_path, "c.txt",
                                      "n = 10\nverify.exact = maybe\n"))

    def test_instance_file_scenario(self, tmp_path):
        table = write_config(tmp_path, "table.txt", GOOD_TABLE)
        cfg = parse_config(write_config(tmp_path, "f.txt",
                                        GIBBS_FILE.format(good_table=table)))
        assert cfg.space.points == ("a", "b")
        assert cfg.loss.num_hypotheses == 2

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.txt")))
    def test_config_file_parses(self, name):
        assert parse_config(CONFIGS / f"{name}.txt").scenario_id == name

    @pytest.mark.parametrize("index", [0, 1])
    def test_benchmark_scenarios_parse(self, tmp_path, index):
        """The scenario files that perfbench fills from its two templates,
        GIBBS_SCENARIO and GAUSSIAN_SCENARIO, parse."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        seed = workloads.round_seed(workloads.DEFAULT_SEED, index)
        for workload in (workloads.GibbsTrials, workloads.GaussianTrials):
            for scenario_id, text in workload(seed, tmp_path).scenarios(seed):
                path = write_config(tmp_path, f"{scenario_id}.txt", text)
                assert parse_config(path).scenario_id == scenario_id

    def test_readme_key_table_matches_keys(self):
        """README's scenario-file table names every key once, with its default."""
        section = (ROOT / "README.md").read_text().split("### Scenario files")[1]
        rows = [line.split("|")[1:3] for line in section.split("\n### ")[0].splitlines()
                if line.startswith("| `")]
        table = {key.strip().strip("`"): default.strip() for key, default in rows}
        assert len(rows) == len(table) and set(table) == set(_KEYS)
        assert {k: v for k, v in table.items() if _KEYS[k].default is not None} == {
            k: f"`{key.default}`" for k, key in _KEYS.items() if key.default is not None}

    def test_stability_precondition_checked_at_parse(self, tmp_path):
        text = GAUSSIAN_SMALL.replace("hamiltonian.sigma = 0.5",
                                      "hamiltonian.sigma = 0.01")
        with pytest.raises(ConfigError, match="stability precondition"):
            parse_config(write_config(tmp_path, "c.txt", text))


class TestCli:
    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_bad_scenario_exits_3(self, tmp_path, capsys, case):
        table = tmp_path / "table.txt"
        table.write_text("points a b\n# mu = 0.5 0.5\n# b = 1.0\nh0 0.1 0.2\n")
        good_table = write_config(tmp_path, "good_table.txt", GOOD_TABLE)
        bad_tables = {name: write_config(tmp_path, f"{name}.txt", text)
                      for name, text in BAD_TABLES.items()}
        cfg = write_config(tmp_path, "bad.txt", BAD_SCENARIOS[case].format(
            table=table, good_table=good_table, **bad_tables))
        assert main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_scenario_exits_3(self, tmp_path, capsys, case):
        cfg = tmp_path / "c.txt"
        if case == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(GIBBS_SMALL.encode() + b"# caf\xe9\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", ["certify", "verify"])
    def test_certificate_domain_error_exits_3(self, tmp_path, capsys, command):
        """The expected-kl bound needs n > 8, which parsing does not check."""
        cfg = write_config(tmp_path, "g.txt", GAUSSIAN_SMALL.replace("n = 100", "n = 5")
                           .replace("sigma = 0.5", "sigma = 5.0")
                           .replace("methods = gaussian_gap", "methods = gaussian_kl_expectation"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: the expected-kl bound requires n > 8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "--config", "{cfg}", "--bogus"],
                                      ["certify", "--config", "{cfg}", "--jobs", "2"],
                                      ["compare", "--config", "{cfg}", "--seed", "1"],
                                      ["accept", "--config", "{cfg}"],
                                      [],
                                      ["certify", "--config", "{cfg}", "--seed", "-1"],
                                      ["verify", "--config", "{cfg}", "--budget", "0"],
                                      ["accept", "--jobs", "0"]],
                             ids=["verify_bogus", "certify_jobs", "compare_seed",
                                  "accept_config", "no_subcommand", "negative_seed",
                                  "zero_budget", "zero_jobs"])
    def test_usage_error_exits_3(self, tmp_path, capsys, argv):
        """A usage error is a configuration error: argparse's own exit code 2
        would read as an invariant violation."""
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        assert main([a.format(cfg=cfg) for a in argv]) == EXIT_CONFIG
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gibbs_exact", "gibbs_small",
                                      "gaussian_mean_embedding"])
    def test_certify_is_trial_zero_of_verify(self, tmp_path, name):
        cfg = parse_config(CONFIGS / f"{name}.txt")
        variant = "gibbs" if isinstance(cfg.spec, Gibbs) else "gaussian_kernel"
        methods = tuple(m for m, s in SCENARIO_METHODS.items() if s.variant == variant)
        cfg = dataclasses.replace(cfg, methods=methods, trials=1, verify_exact="skip")
        cmd_certify(cfg, tmp_path)
        cmd_verify(cfg, tmp_path)

        def values(command):
            with open(tmp_path / f"{cfg.scenario_id}_{command}.csv") as fh:
                return {row["method"]: row["value"] for row in csv.DictReader(fh)}

        # values are repr() floats, so equal strings are bit-identical values
        assert sorted(values("certify")) == sorted(methods)
        assert values("certify") == values("verify")

    def test_certify_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "demo_certificates.txt").exists()
        csv_text = (out / "demo_certify.csv").read_text()
        assert csv_text.startswith("schema,")
        assert "bounded_differences" in csv_text
        assert "empirical_bernstein" in csv_text

    def test_certify_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["certify", "--config", str(cfg), "--out", str(a)])
        main(["certify", "--config", str(cfg), "--out", str(b)])
        assert (a / "demo_certify.csv").read_bytes() == (b / "demo_certify.csv").read_bytes()

    def test_seed_override_changes_empirical_row(self, tmp_path):
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["certify", "--config", str(cfg), "--out", str(a), "--seed", "1"])
        main(["certify", "--config", str(cfg), "--out", str(b), "--seed", "2"])
        assert (a / "demo_certify.csv").read_bytes() != (b / "demo_certify.csv").read_bytes()

    def test_bad_config_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "bad.txt", "n = 10\ndelta = 2\n")
        assert main(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["certify", "--config", str(tmp_path / "missing.txt")]) == EXIT_CONFIG
        assert main(["certify"]) == EXIT_CONFIG

    def test_verify_small_gibbs(self, tmp_path):
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        text = (out / "demo_verify.csv").read_text()
        assert "verify_oracle" in text  # 3^4 x 4 states fit the default budget
        assert "verify_trials" in text

    def test_verify_require_over_budget_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, "demo.txt",
                           GIBBS_SMALL.replace("n = 4", "n = 50")
                           + "verify.exact = require\n")
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_BUDGET

    def test_verify_require_far_over_budget_exits_4(self, tmp_path, capsys):
        """A state count of more than 4300 digits, which str() refuses, still
        gives a budget refusal and no traceback."""
        cfg = write_config(tmp_path, "demo.txt",
                           GIBBS_SMALL.replace("n = 4", "n = 10000")
                           + "verify.exact = require\n")
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_BUDGET
        assert "budget refused: enumeration of 3^10000 x 4 states" in capsys.readouterr().err

    def test_verify_require_refused_for_gaussian(self, tmp_path, capsys):
        """A continuous hypothesis space has no exact regime to require: a
        configuration error, not a budget refusal."""
        cfg = write_config(tmp_path, "g.txt", GAUSSIAN_SMALL + "verify.exact = require\n")
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: verify.exact" in capsys.readouterr().err

    def test_budget_flag_refused_for_gaussian(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g.txt", GAUSSIAN_SMALL)
        assert main(["verify", "--config", str(cfg), "--budget", "5",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: --budget" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("budget, exact, code", [("971", "auto", EXIT_OK),
                                                     ("971", "require", EXIT_BUDGET),
                                                     ("972", "require", EXIT_OK)])
    def test_verify_budget_boundary(self, tmp_path, capsys, budget, exact, code):
        """gibbs_exact has 3^5 x 4 = 972 states: one under budget refuses the
        exact oracles, which `auto` drops and `require` turns into exit 4."""
        text = (CONFIGS / "gibbs_exact.txt").read_text()
        cfg = write_config(tmp_path, "gibbs_exact.txt",
                           text.replace("verify.exact = require", f"verify.exact = {exact}"))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--budget", budget,
                     "--out", str(out)]) == code
        if code == EXIT_BUDGET:
            assert "budget refused: enumeration of 3^5 x 4 = 972 states exceeds budget 971" \
                in capsys.readouterr().err
            assert not out.exists()
        else:
            rows = csv.DictReader((out / "gibbs_exact_verify.csv").read_text().splitlines())
            phases = [row["phase"] for row in rows]
            assert ("verify_oracle" in phases) == (budget == "972")
            assert "verify_trials" in phases

    def test_instance_file_relative_to_scenario(self, tmp_path, monkeypatch):
        """A scenario and its loss table move together: a relative
        instance.file is read next to the scenario file, not the working
        directory."""
        sub = tmp_path / "sub"
        sub.mkdir()
        write_config(sub, "table.txt", GOOD_TABLE)
        write_config(sub, "f.txt", GIBBS_FILE.format(good_table="table.txt"))
        monkeypatch.chdir(tmp_path)
        assert main(["certify", "--config", "sub/f.txt", "--out", "o"]) == EXIT_OK
        assert (tmp_path / "o" / "fdemo_certify.csv").exists()

    def test_verify_gaussian(self, tmp_path):
        cfg = write_config(tmp_path, "g.txt", GAUSSIAN_SMALL)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "gaussian_gap" in (out / "gdemo_verify.csv").read_text()

    def test_compare_and_plot_script(self, tmp_path):
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL + (
            "compare.ns = 100,1000\ncompare.betas = 0,sqrt_n\n"
            "compare.deltas = 0.05\ncompare.l_hats = 0,0.1\n"))
        out = tmp_path / "out"
        script = tmp_path / "plot.py"
        assert main(["compare", "--config", str(cfg), "--out", str(out),
                     "--plot-script", str(script)]) == EXIT_OK
        csv_path = out / "demo_compare.csv"
        # 2 ns x 2 betas x 1 delta rows for the simple bound, plus kl-chain rows
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 4 * (1 + 2)
        # the emitted script is valid python and renders from the CSV
        compile(script.read_text(), str(script), "exec")
        run = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "bound_vs_n.png").exists()
        assert (tmp_path / "bound_vs_beta.png").exists()

    def test_emit_plot_script_rejects_foreign_csv(self, tmp_path):
        bad = tmp_path / "other.csv"
        bad.write_text("time,value\n1,2\n")
        with pytest.raises(ValueError, match="bad header"):
            emit_plot_script(bad, tmp_path / "plot.py")

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("GAPCERT_OUT", str(env_out))
        monkeypatch.chdir(tmp_path)
        assert main(["certify", "--config", str(cfg)]) == EXIT_OK
        assert (env_out / "demo_certify.csv").exists()

    def test_config_csvs_byte_identical(self, tmp_path):
        runs = [(command, name) for name in ("gibbs_exact", "gibbs_small",
                                             "gaussian_mean_embedding")
                for command in ("certify", "verify")] + [("compare", "gibbs_small")]
        for command, name in runs:
            assert main([command, "--config", str(CONFIGS / f"{name}.txt"),
                         "--out", str(tmp_path)]) == EXIT_OK
        got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:8]
               for f in CSV_SHA256}
        assert got == CSV_SHA256

    @pytest.mark.parametrize("command", ["certify", "verify", "compare", "accept"])
    def test_closed_stdout_keeps_exit_code(self, tmp_path, monkeypatch, command):
        """A reader that closes stdout early (`gapcert ... | head -0`) costs the
        summary, not the exit code or the CSV."""
        monkeypatch.setattr(acceptance, "run_all", lambda jobs=1: [])
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        if command != "accept":
            argv += ["--config", str(cfg)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(argv) == EXIT_OK
        assert list(out.glob("*.csv"))

    def test_closed_stdout_exits_without_traceback(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        run = subprocess.run(
            [sys.executable, "-m", "gapcert.cli", "compare", "--config",
             str(CONFIGS / "gibbs_small.txt"), "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        os.close(write_end)
        assert run.returncode == EXIT_OK
        assert run.stderr == ""
