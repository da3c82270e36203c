import argparse
import csv
import io
import json
import time
from fractions import Fraction

import pytest

from auctionlab import cli, harness, position_randomized, sequential, verify
from auctionlab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--mode", "two-bidder", "--n", "4",
            "--samples", "20000", "--seed", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"scenario", "estimates", "exact", "statistics", "meta"}
        assert payload["scenario"]["mode"] == "two-bidder"
        assert payload["exact"][0]["num"] == 2
        assert payload["exact"][0]["den"] == 1
        assert payload["exact"][0]["decimal"] == "2"

    def test_fixed_adversary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--mode", "two-bidder", "--n", "5",
            "--adversary", "fixed:0.2,0.2,0.2,0.2,0.2",
            "--samples", "20000", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"][0] == {"num": 5, "den": 2, "decimal": "2.5"}
        assert abs(payload["estimates"][0]["mean"] - 2.5) < 0.05

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--mode", "two-bidder", "--n", "4",
            "--samples", "10000", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["bidder", "mean", "stderr", "exact_num", "exact_den"]
        assert len(rows) == 3

    def test_two_bidder_defaults_to_copycat(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--mode", "two-bidder", "--n", "4", "--samples", "1000"
        )
        assert code == 0
        assert json.loads(out)["scenario"]["adversary"]["kind"] == "copycat"

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--mode", "k-bidder", "--n", "5", "--k", "3"
        )
        assert code == 1
        assert "error" in err

    def test_missing_mode(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "4")
        assert code == 1

    def test_group_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--mode", "group", "--n", "3", "--k", "2",
            "--group-sizes", "1,2", "--adversary", "fixed:0.33333,0.33333",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimates"] == []

    def test_group_n_other_than_sizes_total_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--mode", "group",
            "--group-sizes", "1,2", "--adversary", "fixed:0.3,0.3",
        )
        assert code == 1 and out == ""
        assert "n = 3" in err

    def test_too_many_simplex_bidders_exits_1(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("drew samples for a refused k-bidder run")

        monkeypatch.setattr(harness, "draw_k_bidder", refuse)
        code, out, err = run_cli(
            capsys,
            "simulate", "--mode", "k-bidder", "--n", "200", "--k", "200", "--samples", "1000",
        )
        assert code == 1 and out == ""
        assert "83-bidder limit" in err

    def test_usage_error(self, capsys):
        assert main(["simulate", "--bogus"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1


class TestConfigAndEnv:
    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(
            json.dumps(
                {
                    "mode": "two-bidder",
                    "n": 4,
                    "samples": 10000,
                    "seed": 5,
                    "adversary": "fixed:0.25,0.25,0.25,0.25",
                }
            )
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert json.loads(out)["scenario"]["n"] == 4

    def test_config_bids_without_kind_mean_fixed(self, capsys, tmp_path):
        adversary = {"bids": ["0.7", "0.1", "0.1", "0.1"]}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(
            {"mode": "two-bidder", "n": 4, "samples": 1000, "adversary": adversary}
        ))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"]["adversary"]["kind"] == "fixed"
        # min(0.7 * n/2, 1) + 3 * 0.1 * n/2 against the Uniform(0, 2/n) marginal
        exact = payload["exact"][0]
        assert (exact["num"], exact["den"]) == (8, 5)

        config.write_text(json.dumps({"n": 4, "samples": 20, "adversary": adversary}))
        code, out, _ = run_cli(capsys, "sequential", "--config", str(config))
        assert code == 0
        assert json.loads(out)["scenario"]["adversary"]["kind"] == "fixed"

    def test_config_bids_with_other_kind_exit_1(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "mode": "two-bidder", "n": 2, "samples": 1000,
            "adversary": {"kind": "copycat", "bids": ["0.5", "0.5"]},
        }))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1
        assert out == ""
        assert "takes no bids" in err

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"mode": "two-bidder", "n": 4, "samples": 10000}))
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(config), "--n", "6"
        )
        assert code == 0
        assert json.loads(out)["scenario"]["n"] == 6

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("AUCTIONLAB_SEED", "99")
        code, out, _ = run_cli(
            capsys, "simulate", "--mode", "two-bidder", "--n", "4",
            "--samples", "10000",
        )
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 99

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("AUCTIONLAB_SEED", "99")
        code, out, _ = run_cli(
            capsys, "simulate", "--mode", "two-bidder", "--n", "4",
            "--samples", "10000", "--seed", "3",
        )
        assert json.loads(out)["meta"]["seed"] == 3

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--mode", "two-bidder", "--n", "4",
            "--samples", "10000", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["scenario"]["n"] == 4


class TestBestResponse:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "best-response", "--n", "4", "--k", "2")
        assert code == 0
        assert "9/4" in out
        assert "witness" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "best-response", "--n", "3", "--k", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["value"] == {"num": 13, "den": 9, "decimal": str(13 / 9)}
        assert len(payload["witness"]) == 3

    def test_large_size_answers_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "best-response", "--n", "100", "--k", "5", "--format", "csv"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        value = Fraction(sum(i**4 for i in range(1, 101)) - 1, 100**4)
        row = out.splitlines()[1].split(",")
        assert row[:2] == [str(value.numerator), str(value.denominator)]

    def test_oversized_ladder_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(position_randomized, "MAX_LADDER_DIGITS", 50)
        code, out, err = run_cli(capsys, "best-response", "--n", "51", "--k", "2")
        assert code == 1
        assert out == ""
        assert "ladder limit of 50" in err

    def test_ladder_past_float_range_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "best-response", "--n", str(10**400), "--k", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "ladder limit of 20,000,000" in err


class TestPrintLimits:
    MODES = {
        "two-bidder": ["--mode", "two-bidder", "--n", "4"],
        "position": ["--mode", "position-randomized", "--n", "4", "--k", "2"],
        "sequential": ["--mode", "sequential", "--n", "4", "--k", "2"],
        "group": ["--mode", "group", "--n", "1", "--k", "2", "--group-sizes", "1"],
    }

    def simulate(self, capsys, mode, amount, fmt):
        amounts = amount if mode == "group" else f"{amount},0,0,0"
        return run_cli(capsys, "simulate", *self.MODES[mode], "--samples", "10", "--format", fmt,
                       "--adversary", f"fixed:{amounts}")

    def test_huge_k_best_response_exits_1(self, capsys):
        # k * log10(n) once overflowed to a plain OverflowError, exit 2
        code, out, err = run_cli(capsys, "best-response", "--n", str(10**401), "--k", str(10**400))
        assert (code, out) == (1, "")
        assert err.startswith("error: the exact values of the n = 10^401.0, k = 10^400.0 ladder")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_amount_past_the_exponent_limit_exits_1(self, capsys, mode, fmt):
        # 1e-5000's denominator once failed to print: a plain ValueError, exit 2
        code, out, err = self.simulate(capsys, mode, "1e-5000", fmt)
        assert (code, out, err) == (1, "", "error: invalid amount '1e-5000'\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_value_past_the_digit_limit_exits_1(self, capsys, mode, fmt):
        # 1e-4300 reads, but its denominator runs to 4,301 digits; a CSV
        # report prints no bids, so only an exact value past the limit stops it
        code, out, err = self.simulate(capsys, mode, "1e-4300", fmt)
        if fmt == "csv" and mode in ("position", "sequential"):
            assert code == 0 and out.startswith("bidder,")
        else:
            assert (code, out) == (1, "")
            assert err == "error: an exact value runs to about 4,301 digits, past the 4,300 that can be printed\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exact_value_past_the_digit_limit_exits_1(self, capsys, fmt):
        # each amount holds under 4,300 digits, the adversary's exact value more
        code, out, err = run_cli(capsys, "simulate", *self.MODES["two-bidder"], "--samples", "10", "--format", fmt,
                                 "--adversary", f"fixed:1/{2**7400},1/{3**4650},0,0")
        assert (code, out) == (1, "")
        assert err.startswith("error: an exact value runs to about") and "past the 4,300 that can be printed" in err

    def test_value_past_the_float_range_exits_1_in_json(self, capsys):
        argv = ["simulate", "--mode", "group", "--n", str(10**400), "--k", "2",
                "--group-sizes", str(10**400), "--adversary", "fixed:0"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: an exact value of about 10^400.0 is past the float range\n"
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "0,,,0,1"

    def test_huge_exponent_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = self.simulate(capsys, "two-bidder", "1e-10000000", "json")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", "error: invalid amount '1e-10000000'\n")

    def test_exponent_within_the_limit_is_accepted(self, capsys):
        code, out, _ = self.simulate(capsys, "sequential", "1e-4000", "json")
        assert code == 0
        assert json.loads(out)["scenario"]["adversary"]["bids"][0]["den"] == 10**4000


class TestMarginals:
    def test_grid_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "marginals", "--n", "4", "--k", "2", "--grid", "8"
        )
        payload = json.loads(out)
        assert payload["spec"] == {"n": 4, "k": 2}
        assert payload["cdf"][0] == {"b": 0.0, "value": 0.0}
        assert payload["cdf"][-1] == {"b": 1.0, "value": 1.0}
        assert len(payload["spread_density"]) == 8

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "marginals", "--n", "4", "--k", "2", "--grid", "4", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["kind", "x", "value"]

    @pytest.mark.parametrize("k", [2, 10**400])
    def test_n_past_the_float_range_exits_1(self, capsys, k):
        # k/n once underflowed to 0.0, printing a CDF of all 1.0 for k = 2,
        # and 1.0 / (k - 1) exited 2 with an OverflowError for k = 10^400
        code, out, err = run_cli(capsys, "marginals", "--n", str(10**400), "--k", str(k), "--grid", "2")
        assert (code, out) == (1, "")
        assert err == "error: n = 2^1328.8 objects exceed the 2^1000-object limit\n"

    def test_samples_numpy_cannot_count_exit_1(self, capsys):
        # 2^63 samples once ran until killed
        for argv in (["simulate", "--mode", "two-bidder", "--n", "4"], ["sequential", "--n", "4", "--k", "2"]):
            code, out, err = run_cli(capsys, *argv, "--samples", str(2**63))
            assert (code, out) == (1, "")
            assert err == "error: 9,223,372,036,854,775,808 samples exceed the 2^63 - 1 that numpy can count\n"


class TestSequentialCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sequential", "--n", "4", "--k", "2",
            "--adversary", "fixed:0.6,0.4,0.4,0.4", "--samples", "200",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"][1] == {"num": 2, "den": 1, "decimal": "2"}

    def test_script_amount_outside_unit_range_exits_1(self, capsys):
        for script in ("fixed:-1,0.5", "fixed:2,2,2,2"):
            code, out, err = run_cli(
                capsys, "sequential", "--n", "4", "--k", "2", "--adversary", script,
            )
            assert code == 1 and out == ""
            assert "[0, 1]" in err

    def test_script_past_the_last_round_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "sequential", "--n", "2", "--k", "2", "--adversary", "fixed:0.5,0.5,0.5,0.7",
        )
        assert code == 1 and out == ""
        assert "at most 2 amounts" in err

    def test_default_adversary_is_steady(self, capsys):
        code, out, _ = run_cli(capsys, "sequential", "--n", "4", "--k", "2", "--samples", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"]["adversary"] == {"kind": "steady", "bids": None}
        assert payload["exact"][0] == {"num": 2, "den": 1, "decimal": "2"}

    def test_config_adversary_beats_default(self, capsys, tmp_path):
        config = tmp_path / "seq.json"
        config.write_text(json.dumps({"n": 4, "adversary": "fixed:0.6,0.4,0.4,0.4", "samples": 20}))
        code, out, _ = run_cli(capsys, "sequential", "--config", str(config))
        assert code == 0
        assert json.loads(out)["scenario"]["adversary"]["kind"] == "fixed"

    def test_all_steady_60_3_answers(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequential", "--n", "60", "--k", "3", "--samples", "1000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == [{"num": 20, "den": 1, "decimal": "20"}] * 3
        assert payload["meta"]["samples"] == 1000

    @pytest.mark.parametrize(
        "argv,env_seed",
        [
            ("sequential --n 4 --k 2 --seed -1 --samples 10", None),
            ("sequential --n 4 --k 2 --samples 10", "-5"),
            ("verify --suite sequential --n 4 --k 2 --seed -1", None),
        ],
    )
    def test_negative_seed_runs(self, capsys, monkeypatch, argv, env_seed):
        # a seed is reduced mod 2**64 into its streams, as in every other mode
        if env_seed is not None:
            monkeypatch.setenv("AUCTIONLAB_SEED", env_seed)
        code, _, err = run_cli(capsys, *argv.split())
        assert code == 0, err

    def test_state_cap_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sequential, "MAX_STATES", 3)
        code, out, err = run_cli(
            capsys, "sequential", "--n", "6", "--k", "2", "--adversary", "steady",
            "--samples", "10",
        )
        assert code == 1
        assert out == ""
        assert "exceeds 3 states" in err

    @pytest.mark.parametrize("argv,refusal", [
        ("sequential --n 1000 --k 1000", "exact round 2 exceeds 2097 states of 1000 bidders"),
        ("sequential --n 500000 --k 500000", "500,000 rounds of 500,000 bidders pass the 2,097,152-cell limit"),
        ("simulate --mode group --n 3 --k 100000000000000000000 --group-sizes 1,2 --adversary fixed:0.3,0.3",
         "group mode of 100,000,000,000,000,000,000 bidders exceeds the 65,536-bidder limit"),
        ("simulate --mode group --n 3 --k 1000000 --group-sizes 1,2 --adversary fixed:0.3,0.3",
         "group mode of 1,000,000 bidders exceeds the 65,536-bidder limit"),
    ], ids=["sequential-1000", "sequential-500000", "group-1e20", "group-1e6"])
    def test_many_bidders_exit_1_at_once(self, capsys, argv, refusal):
        # the group k = 10^20 once exited 2; the others ran for seconds on gigabytes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 3.0
        assert (code, out) == (1, "")
        assert refusal in err


class TestVerifyCommand:
    def test_position_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "position")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_one_sample_copycat_fails(self, capsys):
        # one draw whose mean is a whole object off n/k is no evidence of a pass
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "copycat", "--n", "3", "--k", "3",
            "--samples", "1", "--seed", "0",
        )
        assert code == 1
        assert "FAIL  copycat_3_3_stderr_multiples: inf" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "marginals", "--n", "4", "--k", "2",
            "--samples", "50000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} >= {"ks_coordinate_0", "max_sum_error"}


class TestKsSizeLimit:
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("drew samples for a refused KS run")

        # verify's marginal suite draws through harness.marginal_draw too
        monkeypatch.setattr(harness, "draw_two_bidder", refuse)

    def test_oversized_simulate_ks_exits_1(self, capsys, monkeypatch):
        self.no_draws(monkeypatch)
        code, out, err = run_cli(
            capsys, "simulate", "--mode", "two-bidder", "--n", "4",
            "--samples", "1000000000", "--ks",
        )
        assert code == 1
        assert out == ""
        assert "cell limit" in err

    def test_oversized_verify_marginals_exits_1(self, capsys, monkeypatch):
        self.no_draws(monkeypatch)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "marginals", "--n", "4",
            "--samples", "1000000000",
        )
        assert code == 1
        assert out == ""
        assert "cell limit" in err

    @pytest.mark.parametrize("command", [["simulate", "--mode", "two-bidder", "--ks"],
                                         ["verify", "--suite", "marginals"]])
    def test_one_sample_past_the_column_limit_exits_1(self, capsys, monkeypatch, command):
        # one sample stays under the cell cap, but the report holds an entry per column
        self.no_draws(monkeypatch)
        n = str(harness.KS_COLUMNS + 2)
        code, out, err = run_cli(capsys, *command, "--n", n, "--samples", "1")
        assert (code, out) == (1, "")
        assert "65,536-column limit" in err

    def test_oversized_verify_all_exits_1_before_any_suite(self, capsys, monkeypatch):
        self.no_draws(monkeypatch)

        def refuse():
            raise RuntimeError("ran the density suite before the KS size check")

        monkeypatch.setattr(verify, "density_suite", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "--suite", "all", "--samples", "1000000000",
        )
        assert time.perf_counter() - start < 0.3
        assert code == 1
        assert out == ""
        assert "cell limit" in err


class TestUnitLimit:
    def test_wide_denominator_script_exits_1_before_any_run(self, capsys, tmp_path, monkeypatch):
        # 200 rounds of distinct 4,000-digit denominators once ran 22 s on their lcm
        def refuse(*args, **kwargs):
            raise RuntimeError("ran a sequential walk past the unit limit")

        monkeypatch.setattr(harness, "_run_exact", refuse)
        config = tmp_path / "wide.json"
        amounts = ",".join(f"1/{10**3999 + 2 * i + 1}" for i in range(200))
        config.write_text(json.dumps({"n": 200, "samples": 10, "adversary": f"fixed:{amounts}"}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sequential", "--config", str(config))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert "limit of 100,000 digits" in err


class TestConfigSchema:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"mode": "two-bidder", "n": 4, "smaples": 10}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1
        assert "smaples" in err


@pytest.mark.parametrize("argv,config,message", [
    (["--mode", "two-bidder", "--n", "4", "--adversary", "fixed:"], None, "fixed adversary needs amounts"),
    ([], [1], "config file must hold a JSON object"),
    # a null once read as the text "None": the report went to a file of that name
    (["--mode", "two-bidder", "--samples", "10"], {"out": None}, "config key 'out' has an invalid value: None"),
    # a misspelt key once left the mode's default adversary in play
    (["--mode", "position-randomized", "--samples", "10"], {"adversary": {"knd": "undercut"}},
     "unknown adversary keys: ['knd']; allowed: ['bids', 'kind']"),
], ids=["fixed-without-amounts", "config-not-an-object", "null-out", "unknown-adversary-key"])
def test_simulate_input_errors_exit_1(capsys, tmp_path, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["config.json"] if config is not None else [])


# a small run of each command; a command missing here fails the format test
SMALL_ARGV = {
    "simulate": ["--mode", "two-bidder", "--samples", "100"],
    "sequential": ["--samples", "100"],
    "best-response": [],
    "marginals": ["--grid", "4"],
    "verify": ["--suite", "position"],
}


def declared_formats():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, fmt) for name, parser in commands.choices.items()
            for fmt in next(a for a in parser._actions if a.dest == "format").choices]


class TestForms:
    @pytest.mark.parametrize("command,fmt", declared_formats())
    def test_every_declared_format_prints(self, capsys, command, fmt):
        code, out, _ = run_cli(capsys, command, *SMALL_ARGV[command], "--format", fmt)
        assert code == 0 and out

    @pytest.mark.parametrize("fmt,calls", [("text", 0), ("csv", 1), ("json", 51)])
    def test_best_response_serializes_only_its_form(self, capsys, monkeypatch, fmt, calls):
        values = []
        monkeypatch.setattr(cli, "fraction_json", lambda v: values.append(v) or harness.fraction_json(v))
        code, out, _ = run_cli(capsys, "best-response", "--n", "50", "--k", "3", "--format", fmt)
        assert code == 0 and out
        assert len(values) == calls

    def test_simulate_csv_builds_no_json(self, capsys, monkeypatch):
        calls = []
        to_json_dict = harness.Report.to_json_dict
        monkeypatch.setattr(harness.Report, "to_json_dict", lambda r: calls.append(r) or to_json_dict(r))
        code, out, _ = run_cli(capsys, "simulate", "--mode", "two-bidder", "--samples", "100", "--format", "csv")
        assert code == 0 and out.startswith("bidder,")
        assert calls == []

    def test_a_form_that_raises_writes_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "simulate", "--mode", "two-bidder", "--n", "4", "--samples", "10",
                                 "--adversary", "fixed:1e-4300,0,0,0", "--format", "json", "--out", str(target))
        assert (code, out) == (1, "")
        assert "past the 4,300 that can be printed" in err
        assert not target.exists()
