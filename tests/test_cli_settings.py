"""Each CLI setting is declared once: the flags, the config keys and the
per-mode adversary defaults agree, and exit codes separate bad input (1)
from bugs (2)."""

import json
import shlex
import time
from pathlib import Path

import pytest

from auctionlab import AdversaryPlan, Scenario, ScenarioError, estimate, harness, verify
from auctionlab.cli import MAX_GRID, build_parser, main, parse_args
from auctionlab.verify import run_suite

README = Path(__file__).resolve().parent.parent / "README.md"

COMMON = {"n", "k", "format", "out"}
SAMPLED = COMMON | {"samples", "seed"}
FLAGS = {
    "simulate": SAMPLED | {"mode", "adversary", "group_sizes", "ks"},
    "sequential": SAMPLED | {"adversary"},
    "best-response": COMMON,
    "marginals": COMMON | {"grid"},
    "verify": SAMPLED | {"suite"},
}
# one valid flag text per option; ``ks`` is a switch
TEXT = {
    "n": "6", "k": "3", "samples": "10", "seed": "5", "format": "csv",
    "out": "report.txt", "mode": "k-bidder", "adversary": "fixed:0.5,0.5",
    "group_sizes": "1,2", "grid": "7", "suite": "position",
}


def flag(dest):
    return "--" + dest.replace("_", "-")


def with_config(tmp_path, command, config, *argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return parse_args([command, "--config", str(path), *argv])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlagsAndConfigAgree:
    @pytest.mark.parametrize("command", FLAGS)
    def test_options_are_the_declared_flags(self, command):
        parser = parse_args([command]).parser
        dests = {a.dest for a in parser._actions} - {"help", "config"}
        assert dests == FLAGS[command]

    @pytest.mark.parametrize("command", FLAGS)
    def test_config_keys_are_the_flags(self, command, tmp_path):
        for dest in FLAGS[command]:
            value = True if dest == "ks" else TEXT[dest]
            with_config(tmp_path, command, {dest: value})
        with pytest.raises(ScenarioError) as info:
            with_config(tmp_path, command, {"bogus": 1})
        assert f"allowed: {sorted(FLAGS[command])}" in str(info.value)

    @pytest.mark.parametrize("command", FLAGS)
    def test_config_value_reads_like_its_flag(self, command, tmp_path):
        for dest in FLAGS[command] - {"ks"}:
            by_flag = getattr(parse_args([command, flag(dest), TEXT[dest]]), dest)
            by_config = getattr(with_config(tmp_path, command, {dest: TEXT[dest]}), dest)
            assert by_config == by_flag, dest
            if TEXT[dest].isdigit():  # "n": 6 reads like "n": "6"
                number = int(TEXT[dest])
                assert getattr(with_config(tmp_path, command, {dest: number}), dest) == by_flag
        if "ks" in FLAGS[command]:
            assert with_config(tmp_path, command, {"ks": True}).ks is True

    @pytest.mark.parametrize("command", FLAGS)
    def test_flag_beats_config(self, command, tmp_path):
        args = with_config(tmp_path, command, {"n": 8, "k": 4}, "--n", "6")
        assert (args.n, args.k) == (6, 4)

    @pytest.mark.parametrize(
        "config",
        [{"n": [4]}, {"n": 4.5}, {"n": True}, {"format": "xml"}, {"k": None}, {"out": None}],
    )
    def test_wrong_config_type_refused(self, config, tmp_path):
        with pytest.raises(ScenarioError, match="invalid value"):
            with_config(tmp_path, "best-response", config)

    def test_switch_takes_a_boolean(self, tmp_path):
        with pytest.raises(ScenarioError, match="'ks'"):
            with_config(tmp_path, "simulate", {"ks": "yes"})

    @pytest.mark.parametrize("command", ["best-response", "marginals"])
    def test_unsampled_commands_refuse_samples_and_seed(self, command, tmp_path, capsys):
        for dest, text in (("samples", "10"), ("seed", "1")):
            code, out, err = run(capsys, command, flag(dest), text)
            assert (code, out) == (1, "")
            assert "unrecognized arguments" in err
            with pytest.raises(ScenarioError, match="unknown config keys"):
                with_config(tmp_path, command, {dest: int(text)})


class TestSharedParser:
    def test_plain_calls_share_one_parser(self, tmp_path):
        first = parse_args(["simulate"]).parser
        assert parse_args(["simulate", "--n", "5"]).parser is first
        assert with_config(tmp_path, "simulate", {"n": 5}).parser is not first

    def test_config_defaults_stay_with_their_call(self, tmp_path):
        assert with_config(tmp_path, "simulate", {"n": 6}).n == 6
        assert parse_args(["simulate", "--mode", "two-bidder"]).n == 4

    def test_exit_codes_after_the_parser_is_built(self, capsys):
        parse_args(["simulate"])
        assert main(["--version"]) == 0
        assert main(["simulate", "--bogus"]) == 1
        assert main(["--version"]) == 0
        capsys.readouterr()


class TestModeDefaults:
    @pytest.mark.parametrize(
        "mode, n, k, kind",
        [
            ("two-bidder", 4, 2, "copycat"),
            ("k-bidder", 6, 3, "copycat"),
            ("position-randomized", 4, 2, "dp-optimal"),
            ("sequential", 6, 3, "steady"),
        ],
    )
    def test_library_default_runs_and_matches_cli(self, capsys, mode, n, k, kind):
        scenario = Scenario(mode, n, k, samples=200, seed=1)
        assert scenario.adversary == AdversaryPlan(kind)
        assert kind == harness.MODES[mode].kinds[0]
        report = estimate(scenario)
        assert sum(report.exact) == n
        code, out, _ = run(
            capsys, "simulate", "--mode", mode, "--n", str(n), "--k", str(k),
            "--samples", "200", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == scenario.to_json_dict()
        assert payload["estimates"] == [
            {"bidder": e.bidder, "mean": e.mean, "stderr": e.stderr}
            for e in report.estimates
        ]

    def test_group_default_still_needs_amounts(self):
        scenario = Scenario("group", 3, 2, group_sizes=(1, 2))
        assert scenario.adversary == AdversaryPlan("fixed")
        with pytest.raises(ScenarioError, match="needs 2 group amounts"):
            estimate(scenario)

    def test_every_mode_has_a_default(self):
        for mode, spec in harness.MODES.items():
            assert Scenario(mode, 4).adversary.kind == spec.kinds[0]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            "simulate --mode two-bidder --n 2 --adversary fixed:1/0,1 --samples 10",
            "simulate --mode group --n 3 --group-sizes 1,abc --adversary fixed:0.3,0.3",
            "simulate --mode sequential --n 0 --samples 10",
            "best-response --n 1",
            "marginals --n 1",
            "marginals --grid 0",
            "verify --suite copycat --samples 0",
            "verify --suite marginals --samples 0",
            "verify --suite sequential --n 0",
        ],
    )
    def test_bad_input_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            "best-response --n 1500 --k 1500",
            "simulate --mode position-randomized --n 1500 --k 1500 --samples 10",
            f"marginals --grid {MAX_GRID + 1}",
            "sequential --n 1000000 --k 2",
            "verify --suite sequential --n 1000000 --k 2 --samples 10",
            "verify --suite all --n 1000000 --k 2 --samples 10",
            f"verify --suite copycat --n {harness.KS_CELLS // 2 + 1} --k 2 --samples 1",
            "verify --suite all --n 5 --k 3",
            "simulate --mode position-randomized --n 4 --ks",
            "simulate --mode two-bidder --n 4 --group-sizes 1,2",
        ],
    )
    def test_oversized_or_unused_input_exits_1_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_bad_size_for_a_later_suite_runs_no_suite(self, capsys, monkeypatch):
        # 3 does not divide 5, which only the sampled suites read
        def refuse():
            raise RuntimeError("ran the density suite before the (n, k) check")

        monkeypatch.setattr(verify, "density_suite", refuse)
        code, out, err = run(capsys, "verify", "--suite", "all", "--n", "5", "--k", "3")
        assert (code, out) == (1, "")
        assert "k | n" in err and "Traceback" not in err

    def test_wide_copycat_passes_the_up_front_check(self, monkeypatch):
        # copycat draws no KS table, so only a sampled row's cells bound its n
        monkeypatch.setattr(verify, "copycat_suite", lambda n, k, samples, seed: [])
        assert run_suite("copycat", n=5_000_000, k=2) == []

    def test_non_integer_env_seed_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("AUCTIONLAB_SEED", "abc")
        code, out, err = run(capsys, "verify", "--suite", "position")
        assert (code, out) == (1, "")
        assert "AUCTIONLAB_SEED" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--version"],
            ["best-response"],
            ["marginals", "--grid", "2"],
            ["simulate", "--mode", "two-bidder", "--samples", "100", "--seed", "5"],
        ],
    )
    def test_env_seed_read_only_as_the_fallback(self, capsys, monkeypatch, argv):
        # the variable was once read while building the parser, so every
        # command exited 1 on it
        monkeypatch.setenv("AUCTIONLAB_SEED", "abc")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out

    def test_wrong_config_type_exits_1(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": [4]}))
        code, out, err = run(capsys, "best-response", "--config", str(path))
        assert (code, out) == (1, "")
        assert "'n'" in err and "Traceback" not in err

    def test_plain_value_error_is_a_bug(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("sampler bug")

        monkeypatch.setattr(harness, "draw_two_bidder", broken)
        code, out, err = run(capsys, "simulate", "--mode", "two-bidder", "--samples", "10")
        assert (code, out) == (2, "")
        assert "Traceback" in err and "sampler bug" in err

    def test_run_suite_refuses_empty_runs(self):
        for suite in ("copycat", "marginals", "all"):
            with pytest.raises(ScenarioError, match="at least one sample"):
                run_suite(suite, samples=0)


def readme_commands():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("auctionlab ")
    ]


def test_readme_cli_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
