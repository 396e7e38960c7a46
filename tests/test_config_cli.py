"""Scenario-file parsing, validation, and the command-line front end."""

import csv
import hashlib
import importlib.util
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gapcert import acceptance
from gapcert import verify as vf
from gapcert.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    SUBCOMMANDS,
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

# the posterior-expected kl past d = 3, where it averages posterior_draws normals
GAUSSIAN_KL_D4 = GAUSSIAN_SMALL.replace("methods = gaussian_gap",
                                        "methods = gaussian_kl_expectation") + "instance.dim = 4\n"

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
    "short_row_table": "points a b c\n#mu 0.2 0.3 0.5\nh0 0.1 0.2 0.3\nh1 0.7 0.3\n",
    "text_loss_table": "points a b\n#mu 0.5 0.5\nh0 0.1 0.2\nh1 0.7 x\n",
    "text_mu_table": "points a b\n#mu 0.5 zz\nh0 0.1 0.2\nh1 0.7 0.3\n",
    "repeated_points_table": "points a a\n#mu 0.5 0.5\nh0 0.1 0.2\n",
    "empty_points_table": "points\n#mu\nh0\n",
    "second_points_table": "points a b\n#mu 0.5 0.5\npoints a c\nh0 0.1 0.2\n",
    "second_mu_table": "points a b\n#mu 0.5 0.5\n#mu 0.1 0.9\nb 1\nb 2\nh0 0.1 0.2\n",
    "second_b_table": "points a b\n#mu 0.5 0.5\nb 1\nh0 0.1 0.2\nb 2\n",
}

# the file line that the error of a rejected loss table names
BAD_TABLE_LINES = {"bare_b_table": 3, "short_row_table": 4, "text_loss_table": 4,
                   "text_mu_table": 2, "second_points_table": 3, "second_mu_table": 3,
                   "second_b_table": 5}

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
# and of the certificate lines that `certify` writes for each file in configs/
CERTIFICATES_SHA256 = {
    "gaussian_mean_embedding_certificates.txt": "2415e81a",
    "gibbs_exact_certificates.txt": "1b0ec311",
    "gibbs_small_certificates.txt": "e19f344f",
}

# scenarios with a value whose square a bound takes and cannot hold: the key
# that refuses it, and the file
UNSQUARABLE_SCENARIOS = {
    "sigma_squares_past_max": (
        "hamiltonian.sigma", GAUSSIAN_SMALL.replace("sigma = 0.5", "sigma = 1e200")),
    "sigma_squares_to_zero": (
        "hamiltonian.sigma", GAUSSIAN_SMALL.replace("sigma = 0.5", "sigma = 1e-200")
        + "hamiltonian.algorithm = constant\n"),
    "sigma_squares_to_subnormal": (
        "hamiltonian.sigma", GAUSSIAN_SMALL.replace("sigma = 0.5", "sigma = 1e-160")
        + "hamiltonian.algorithm = constant\n"),
    "beta_coefficient_squares_past_max": (
        "hamiltonian.beta", GIBBS_SMALL.replace("n = 4", "n = 1")
        .replace("beta = 5.0", "beta = 1e200")
        .replace("bounded_differences,empirical_bernstein", "bernstein")),
}

# scenario files that parse_config must reject; {table} is a loss-table file
# in the README's old, unparsable `# mu =` form
BAD_SCENARIOS = {
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
    "gaussian_with_verify_exact": GAUSSIAN_SMALL + "verify.exact = auto\n",
    "gibbs_with_posterior_draws": GIBBS_SMALL + "posterior_draws = 100\n",
    # an unknown key: a random Gibbs instance needs no generator name
    "gaussian_with_generator": GAUSSIAN_SMALL + "instance.generator = gibbs_random\n",
    "file_with_generator": GIBBS_FILE + "instance.generator = gibbs_random\n",
    # the tightness grid is verify.tightness_report's, set by no key
    "malformed_compare_list": GIBBS_SMALL + "compare.ns = 10,abc\n",
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
    "line_without_equals": GIBBS_SMALL + "trials 200\n",
    "scenario_id_with_separator": GIBBS_SMALL.replace("scenario_id = demo", "scenario_id = a/b"),
    "empty_scenario_id": GIBBS_SMALL.replace("scenario_id = demo", "scenario_id ="),
    # a Gibbs file on each rejected loss table, read as {<table name>}
    **{name: GIBBS_FILE.replace("{good_table}", f"{{{name}}}") for name in BAD_TABLES},
}

# the message with which a bad scenario is refused, where a test pins it
BAD_SCENARIO_MESSAGES = {
    "repeated_points_table": "instance.file: points must be distinct",
    "empty_points_table": "instance.file: data space needs at least one point",
    "line_without_equals": "line 9: expected 'key = value'",
    "malformed_compare_list": "line 9: unknown key 'compare.ns'",
}


class TestParse:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "minimal.txt", "n = 20\n"))
        assert cfg.scenario_id == "minimal"
        assert isinstance(cfg.spec, Gibbs) and cfg.spec.beta == 5.0
        assert cfg.methods == ("bounded_differences",)
        assert cfg.delta == 0.05
        assert cfg.verify_exact == "auto"

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

    def test_posterior_draws_unread_at_low_dim(self, tmp_path):
        """At d <= 3 the posterior-expected kl is a Gauss-Hermite rule with no
        draws, so a posterior_draws past numpy's index range is accepted."""
        cfg = parse_config(write_config(tmp_path, "g.txt", GAUSSIAN_KL_D4.replace(
            "dim = 4", "dim = 3").replace("draws = 200", f"draws = {10**19}")))
        assert cfg.posterior_draws == 10**19

    def test_readme_flag_table_matches_subcommands(self):
        """README's subcommand table names each subcommand once, with the
        flags cli.SUBCOMMANDS gives it."""
        section = (ROOT / "README.md").read_text().split("## CLI")[1].split("\n### ")[0]
        rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        table = {name.strip().strip("`"): tuple(f.strip().strip("`") for f in flags.split(","))
                 for name, flags in rows}
        assert len(rows) == len(table)
        assert table == {name: flags for name, _, flags in SUBCOMMANDS}

    def test_stability_precondition_checked_at_parse(self, tmp_path):
        text = GAUSSIAN_SMALL.replace("hamiltonian.sigma = 0.5",
                                      "hamiltonian.sigma = 0.01")
        with pytest.raises(ConfigError, match="stability precondition"):
            parse_config(write_config(tmp_path, "c.txt", text))

    def test_parsed_gibbs_config_survives_pickle(self):
        """Its records unpickle through their checks, to equal fields and
        read-only arrays."""
        cfg = parse_config(CONFIGS / "gibbs_small.txt")
        back = pickle.loads(pickle.dumps(cfg))
        assert type(back) is type(cfg) and isinstance(back.spec, Gibbs)
        for old, new in zip(cfg, back):
            for a, b in zip(old, new) if hasattr(old, "_fields") else [(old, new)]:
                if hasattr(a, "flags"):
                    assert a.tolist() == b.tolist() and not b.flags.writeable
                else:
                    assert a == b


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
        err = capsys.readouterr().err
        assert "config error" in err
        if case in BAD_TABLE_LINES:
            assert f"{case}.txt:{BAD_TABLE_LINES[case]}: " in err
        assert BAD_SCENARIO_MESSAGES.get(case, "") in err

    @pytest.mark.parametrize("key,value", [("master_seed", 2**64), ("instance.seed", 2**128)],
                             ids=["master_seed", "instance_seed"])
    def test_seed_past_its_key_width_exits_3(self, tmp_path, capsys, key, value):
        """A seed wider than its Philox key word is refused under its key,
        rather than aliasing a smaller seed or failing inside numpy."""
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL + f"{key} = {value}\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize("command, text, old, new, message", [
        ("certify", GIBBS_SMALL, "num_points = 3", f"num_points = {10**17}",
         "config error: instance.num_points, instance.num_hypotheses: the instance is too large"),
        ("certify", GIBBS_SMALL, "num_hypotheses = 4", f"num_hypotheses = {10**17 // 3}",
         "config error: instance.num_points, instance.num_hypotheses: the instance is too large"),
        ("certify", GAUSSIAN_SMALL, "num_points = 6", f"num_points = {10**17}",
         "config error: instance.num_points, instance.dim: the instance is too large"),
        ("certify", GIBBS_SMALL, "n = 4", f"n = {10**17}",
         "config error: n: the scenario is too large to run: "),
        ("certify", GAUSSIAN_SMALL, "n = 100", f"n = {10**17}",
         "config error: n: the scenario is too large to run: "),
        ("verify", GAUSSIAN_SMALL, "n = 100", f"n = {10**17}",
         "config error: n: the scenario is too large to run: "),
        ("verify", GAUSSIAN_KL_D4, "draws = 200", f"draws = {10**17}",
         "config error: n, posterior_draws: the scenario is too large to run: "),
        ("certify", GIBBS_SMALL, "num_points = 3", f"num_points = {10**19}",
         "config error: instance.num_points, instance.num_hypotheses: the instance is too large"),
        ("certify", GAUSSIAN_SMALL, "num_points = 6", f"num_points = {10**19}",
         "config error: instance.num_points, instance.dim: the instance is too large"),
        ("certify", GIBBS_SMALL, "n = 4", f"n = {10**19}", "config error: n: "),
        ("certify", GIBBS_SMALL, "n = 4", f"n = {2 * 10**18}", "config error: n: "),
        ("verify", GAUSSIAN_KL_D4, "draws = 200", f"draws = {10**19}",
         "config error: posterior_draws: "),
        ("verify", GAUSSIAN_KL_D4, "draws = 200", f"draws = {2**58}",
         "config error: posterior_draws: "),
    ], ids=["gibbs_points", "gibbs_hypotheses", "gaussian_points", "gibbs_n", "gaussian_n",
            "gaussian_n_verify", "gaussian_draws_verify", "gibbs_points_past_index_range",
            "gaussian_points_past_index_range", "gibbs_n_past_index_range",
            "gibbs_n_bytes_past_index_range", "gaussian_draws_past_index_range",
            "gaussian_draws_bytes_past_index_range"])
    def test_too_large_to_allocate_exits_3(self, tmp_path, capsys, command, text, old, new,
                                           message):
        """An instance or a trial whose arrays take about 8e17 bytes, which
        no allocation grants, so that no page is touched, is refused with one
        line: while parsing under the instance's size keys, in the trials
        under n, and past d = 3 also posterior_draws. A Gibbs verify at such
        an n is left out: the Gibbs certify case covers its trials, and
        test_model its exact oracles' refusal, which product_rows gives
        without the power |X|^n. Sizes past numpy's index range, where it
        raises ValueError, not MemoryError, are refused under their keys too:
        the instance's as it is drawn, and while parsing n, where a trial's
        n + 1 floats would pass it in bytes, and posterior_draws past d = 3,
        where its posterior_draws x d normals would (2**58 x 4 x 8 = 2**63)."""
        cfg = write_config(tmp_path, "c.txt", text.replace(old, new))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["certify", "verify"])
    def test_byte_order_mark_ignored(self, tmp_path, command):
        """A scenario file and its loss table saved with a UTF-8 byte-order
        mark, as some editors write them, and configs/gibbs_small.txt, which
        opens with a comment, parse to the same scenario and give the same
        CSV bytes as without the mark."""
        table = GIBBS_FILE.format(good_table="table.txt")
        small = (CONFIGS / "gibbs_small.txt").read_text()
        pickles, csvs = {}, {}
        for mark in ("", "\ufeff"):
            d = tmp_path / f"mark{len(mark)}"
            d.mkdir()
            (d / "table.txt").write_bytes((mark + GOOD_TABLE).encode())
            for name, text in (("fdemo", table), ("gibbs_small", small)):
                cfg = d / f"{name}.txt"
                cfg.write_bytes((mark + text).encode())
                pickles[mark, name] = pickle.dumps(parse_config(cfg))
                assert main([command, "--config", str(cfg), "--out", str(d / "o")]) == EXIT_OK
                csvs[mark, name] = (d / "o" / f"{name}_{command}.csv").read_bytes()
        for name in ("fdemo", "gibbs_small"):
            assert pickles["", name] == pickles["\ufeff", name]
            assert csvs["", name] == csvs["\ufeff", name]

    @pytest.mark.parametrize("command", ["certify", "verify"])
    @pytest.mark.parametrize("case", sorted(UNSQUARABLE_SCENARIOS))
    def test_unsquarable_value_exits_3(self, tmp_path, capsys, case, command):
        """A sigma or a coefficient beta b / n whose square overflows, or a
        sigma whose square is 0, is refused under its key rather than raise
        inside a bound."""
        key, text = UNSQUARABLE_SCENARIOS[case]
        cfg = write_config(tmp_path, "c.txt", text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize("case", ["out_is_file", "out_under_file", "plot_script_dir_missing",
                                      "accept_out_is_file"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, monkeypatch, case):
        """The output directory is made before the command runs, so accept
        refuses a bad --out before its suite starts."""

        def suite():
            raise AssertionError("the acceptance suite ran")

        monkeypatch.setattr(acceptance, "run_all", suite)
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        a_file = write_config(tmp_path, "a_file", "")
        argv = {
            "out_is_file": ["certify", "--config", str(cfg), "--out", str(a_file)],
            "out_under_file": ["verify", "--config", str(cfg), "--out", str(a_file / "o")],
            "plot_script_dir_missing": ["compare", "--config", str(cfg), "--out",
                                        str(tmp_path / "o"), "--plot-script",
                                        str(tmp_path / "missing" / "p.py")],
            "accept_out_is_file": ["accept", "--out", str(a_file)],
        }[case]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("output error: ")

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
                                      ["accept", "--jobs", "2"],
                                      ["verify", "--config", "{cfg}", "--seed", str(2**64)]],
                             ids=["verify_bogus", "certify_jobs", "compare_seed",
                                  "accept_config", "no_subcommand", "negative_seed",
                                  "zero_budget", "accept_jobs", "seed_past_64_bits"])
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
        cfg = cfg._replace(methods=methods, trials=1)
        cmd_certify(cfg, tmp_path)
        cmd_verify(cfg, tmp_path)

        def values(command):
            with open(tmp_path / f"{cfg.scenario_id}_{command}.csv") as fh:
                return {row["method"]: row["value"] for row in csv.DictReader(fh)
                        if row["phase"] != "verify_oracle"}

        # values are repr() floats, so equal strings are bit-identical values
        assert sorted(values("certify")) == sorted(methods)
        assert values("certify") == values("verify")

    def test_constant_algorithm_scenario(self, tmp_path):
        """The constant built-in algorithm has V = c_A = 0, so its Gaussian
        gap certificate is sqrt(ln(1/delta) / n) exactly, and verify passes."""
        cfg = write_config(tmp_path, "gdemo.txt",
                           GAUSSIAN_SMALL + "hamiltonian.algorithm = constant\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with open(out / "gdemo_certify.csv") as fh:
            values = {row["method"]: row["value"] for row in csv.DictReader(fh)}
        assert float(values["gaussian_gap"]) == math.sqrt(math.log(1 / 0.05) / 100)
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

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

    # 200 trials, not the file's 2000: enough that the unpatched gate passes
    # (the 99.9% bound at 0 of 200 is 0.034; at 0 of 50 it is 0.129 > delta)
    @pytest.mark.parametrize("rule, value, failure, held", [
        ("CP_LEVEL", 1.0, "EXCEEDS delta", "exact oracles: ok"),
        ("EXACT_MARGIN_TOL", 1e6, "exact oracles: MARGIN FAILURE", "<= delta")],
        ids=["gate", "exact_margin"])
    def test_verify_failed_rule_exits_2(self, tmp_path, monkeypatch, rule, value,
                                        failure, held):
        """A failed gate or exact margin fails the run with exit code 2, and
        the summary names the rule that failed."""
        cfg = write_config(tmp_path, "gibbs_exact.txt", (CONFIGS / "gibbs_exact.txt")
                           .read_text().replace("trials = 2000", "trials = 200"))
        monkeypatch.setattr(vf, rule, value)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
        summary = (out / "gibbs_exact_verify_summary.txt").read_text()
        assert summary.startswith("scenario gibbs_exact: verify FAILED")
        assert failure in summary and held in summary
        with open(out / "gibbs_exact_verify.csv") as fh:
            trial_rows = [r for r in csv.DictReader(fh) if r["phase"] == "verify_trials"]
        assert len(trial_rows) == 2
        if rule == "CP_LEVEL":
            assert all(r["cp_upper"] == "1.0" for r in trial_rows)

    def test_unrecomputable_certificate_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(vf, "recompute",
                            lambda cert: cert._replace(value=cert.value + 1.0))
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        assert main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_INVARIANT
        assert ("certificate bounded_differences not recomputable bit-identically"
                in capsys.readouterr().err)

    def test_failed_criterion_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(acceptance, "run_all", lambda: [
            acceptance.CriterionResult(1, "holds", True, "", 0.0),
            acceptance.CriterionResult(2, "fails", False, "", 0.0)])
        out = tmp_path / "o"
        assert main(["accept", "--out", str(out)]) == EXIT_INVARIANT
        with open(out / "acceptance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["value"], r["inputs"]) for r in rows] == [
            ("criterion_1", "1", "holds"), ("criterion_2", "0", "fails")]
        assert (out / "acceptance_summary.txt").read_text().endswith("acceptance: FAILURES\n")

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

    @pytest.mark.parametrize("budget, exact, code", [("971", "auto", EXIT_OK),
                                                     ("971", "require", EXIT_BUDGET),
                                                     ("972", "require", EXIT_OK)])
    def test_verify_budget_boundary(self, tmp_path, capsys, budget, exact, code):
        """gibbs_exact has 3^5 x 4 = 972 states: one under budget refuses the
        exact oracles, which `auto` drops and `require` turns into exit 4."""
        text = (CONFIGS / "gibbs_exact.txt").read_text()
        cfg = write_config(tmp_path, "gibbs_exact.txt", text.replace(
            "verify.exact = require", f"verify.exact = {exact}\nenumeration_budget = {budget}"))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == code
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
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        out = tmp_path / "out"
        script = tmp_path / "plot.py"
        assert main(["compare", "--config", str(cfg), "--out", str(out),
                     "--plot-script", str(script)]) == EXIT_OK
        csv_path = out / "demo_compare.csv"
        # 3 ns x 3 betas x 3 deltas rows for the simple bound, plus 3 kl-chain rows each
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 27 * (1 + 3)
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

    @pytest.mark.parametrize("argv, text, refusal", [
        (["certify", "--seed", "1"], "", "unrecognized arguments: --seed 1"),
        (["verify", "--seed", "1"], "", "unrecognized arguments: --seed 1"),
        (["verify", "--budget", "5"], "", "unrecognized arguments: --budget 5"),
        (["verify"], "out = x\n", "unknown key 'out'"),
        (["compare"], "compare.ns = 100\n", "unknown key 'compare.ns'"),
        (["compare"], "compare.betas = 0\n", "unknown key 'compare.betas'"),
        (["compare"], "compare.deltas = 0.05\n", "unknown key 'compare.deltas'"),
        (["compare"], "compare.l_hats = 0\n", "unknown key 'compare.l_hats'"),
        (["verify"], "verify.exact = skip\n", "verify.exact: must be one of auto, require"),
    ], ids=["certify_seed", "verify_seed", "verify_budget", "out_key", "compare_ns",
            "compare_betas", "compare_deltas", "compare_l_hats", "verify_exact_skip"])
    def test_removed_setting_exits_3(self, tmp_path, capsys, monkeypatch, argv, text, refusal):
        """The flags and keys that set a run a second way are gone: each one
        exits 3 with a line that names it, and none is silently ignored. The
        master seed and the budget are the scenario's keys, the output
        directory is --out, and the tightness grid is tightness_report's.
        GAPCERT_OUT is not read."""
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL + text)
        monkeypatch.setenv("GAPCERT_OUT", str(tmp_path / "env"))
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert refusal in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "env").exists()

    def test_out_defaults_to_out(self, tmp_path, monkeypatch):
        """Without --out a command writes under ./out, whatever GAPCERT_OUT holds."""
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        monkeypatch.setenv("GAPCERT_OUT", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        assert main(["certify", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "demo_certify.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_config_csvs_byte_identical(self, tmp_path):
        runs = [(command, name) for name in ("gibbs_exact", "gibbs_small",
                                             "gaussian_mean_embedding")
                for command in ("certify", "verify")] + [("compare", "gibbs_small")]
        for command, name in runs:
            assert main([command, "--config", str(CONFIGS / f"{name}.txt"),
                         "--out", str(tmp_path)]) == EXIT_OK
        want = {**CSV_SHA256, **CERTIFICATES_SHA256}
        got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:8] for f in want}
        assert got == want

    def test_verify_twice_in_one_process_byte_identical(self, tmp_path):
        """Two verify runs of configs/gaussian_mean_embedding.txt in one
        process write the same CSV bytes: the first builds the posterior-kl
        rule (cold cache), the second takes the process's (warm cache)."""
        vf._tensor_kl_rule.cache_clear()
        for out in ("cold", "warm"):
            assert main(["verify", "--config", str(CONFIGS / "gaussian_mean_embedding.txt"),
                         "--out", str(tmp_path / out)]) == EXIT_OK
        assert vf._tensor_kl_rule.cache_info().misses == 1
        name = "gaussian_mean_embedding_verify.csv"
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()

    @pytest.mark.parametrize("name, phases", [
        ("gibbs_exact", r"exact oracles \d+\.\d\ds, "), ("gaussian_mean_embedding", "")])
    def test_verify_summary_times_each_phase(self, tmp_path, name, phases):
        """The summary gives the exact-oracle phase's seconds, where a
        Gibbs run has one, then the trial phase's seconds and trials/s."""
        assert main(["verify", "--config", str(CONFIGS / f"{name}.txt"),
                     "--out", str(tmp_path)]) == EXIT_OK
        summary = (tmp_path / f"{name}_verify_summary.txt").read_text().splitlines()
        assert re.fullmatch(rf"  wall-clock: {phases}trials \d+\.\d\ds \(\d+ trials/s\)",
                            summary[-1])

    def test_verify_summary_shows_means(self, tmp_path):
        """The summary gives each method's mean slack and the mean gap, which
        no CSV holds."""
        cfg = write_config(tmp_path, "demo.txt", GIBBS_SMALL)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        c = parse_config(cfg)
        rep = vf.violation_rate_gibbs(c.space, c.loss, c.prior, c.spec.beta, c.n, c.delta,
                                      c.methods, c.trials, c.master_seed)
        summary = (tmp_path / "demo_verify_summary.txt").read_text().splitlines()
        for m, stats in rep.per_method.items():
            assert (f"  {m}: {stats.violations}/200 violations, "
                    f"mean slack {stats.mean_slack:.4g}, cp99.9=") in "\n".join(summary)
        assert summary[-2] == f"  mean gap over 200 trials: {rep.mean_gap:.4g}"
        assert "slack" not in (tmp_path / "demo_verify.csv").read_text()

    @pytest.mark.parametrize("dim, estimator", [
        (1, "Gauss-Hermite, 18 nodes"), (2, "Gauss-Hermite, 232 nodes"),
        (3, "Gauss-Hermite, 2632 nodes"), (4, "Monte Carlo, 200 draws")])
    def test_verify_summary_names_kl_estimator(self, tmp_path, dim, estimator):
        """The kl method's summary line names its estimator: the tensor rule
        at d <= 3, with the count of nodes it keeps, where posterior_draws is
        accepted and not read, and the Monte Carlo draws beyond; the gap
        methods' lines name none."""
        text = GAUSSIAN_SMALL.replace("methods = gaussian_gap",
                                      "methods = gaussian_gap,gaussian_kl_expectation")
        cfg = write_config(tmp_path, "g.txt", text + f"instance.dim = {dim}\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        summary = (tmp_path / "gdemo_verify_summary.txt").read_text().splitlines()
        assert summary[1].startswith("  gaussian_gap: ") and summary[1].endswith("delta=0.05")
        assert summary[2].startswith("  gaussian_kl_expectation: ")
        assert summary[2].endswith(f"delta=0.05 ({estimator})")

    @pytest.mark.parametrize("command", ["certify", "verify", "compare", "accept"])
    def test_closed_stdout_keeps_exit_code(self, tmp_path, monkeypatch, command):
        """A reader that closes stdout early (`gapcert ... | head -0`) costs the
        summary, not the exit code or the CSV."""
        monkeypatch.setattr(acceptance, "run_all", lambda: [])
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

    def test_import_loads_no_heavy_modules(self):
        """The set-up time of every command rests on the CLI's imports:
        scipy is imported only by a run with a violation, the acceptance
        suite only by accept, numpy.polynomial only by the Gaussian identity
        check, and no thread or process pool module at all."""
        code = ("import sys, gapcert.cli; print(*(m for m in ('scipy', 'concurrent.futures', "
                "'logging', 'multiprocessing', 'gapcert.acceptance', 'numpy.polynomial') "
                "if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == []

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
