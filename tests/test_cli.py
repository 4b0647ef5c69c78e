"""Command-line interface: subcommands, precedence, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys

import pytest


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "saycanpay.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
        timeout=600,
    )


class TestHelp:
    def test_top_level_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for command in ("gen-data", "train", "plan", "eval", "ablate"):
            assert command in proc.stdout

    def test_subcommand_help_lists_defaults(self):
        proc = run_cli("eval", "--help")
        assert proc.returncode == 0
        assert "--jobs" in proc.stdout
        assert "default: beam-action" in proc.stdout
        assert "default: saycanpay" in proc.stdout
        assert "default: 6" in proc.stdout  # m


class TestGenData:
    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = run_cli(
                "gen-data", "--env", "blocks", "--train", "5", "--test", "3",
                "--gen", "2", "--seed", "0", "--data", str(out),
            )
            assert proc.returncode == 0, proc.stderr
        for split in ("train", "test", "test-generalize"):
            name = f"blocks_{split}.jsonl"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_hanoi_training_lengths_are_short(self, tmp_path):
        proc = run_cli(
            "gen-data", "--env", "hanoi", "--train", "50", "--test", "10",
            "--gen", "5", "--data", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        m = re.search(r"hanoi train: 50 trajectories, mean oracle length ([\d.]+)",
                      proc.stdout)
        assert m is not None
        assert 2.5 <= float(m.group(1)) <= 4.5

    def test_scp_data_dir_env_var_sets_the_output(self, tmp_path):
        proc = run_cli(
            "gen-data", "--env", "hanoi", "--train", "2", "--test", "2",
            "--gen", "1",
            env={"SCP_DATA_DIR": str(tmp_path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "hanoi_train.jsonl").exists()


class TestConfigPrecedence:
    def test_cli_flag_beats_config_file_beats_default(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"train": 7, "test": 2, "gen": 1}))
        from_file = run_cli(
            "gen-data", "--env", "hanoi", "--data", str(tmp_path / "d1"),
            "--config", str(config),
        )
        assert from_file.returncode == 0, from_file.stderr
        assert "hanoi train: 7 trajectories" in from_file.stdout
        overridden = run_cli(
            "gen-data", "--env", "hanoi", "--data", str(tmp_path / "d2"),
            "--config", str(config), "--train", "3",
        )
        assert overridden.returncode == 0, overridden.stderr
        assert "hanoi train: 3 trajectories" in overridden.stdout

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[7, 2, 1]", "not a JSON object"),
            ('{"epoch": 1}', "unknown key 'epoch'"),
            ("{not json", "is not JSON"),
        ],
        ids=["not-an-object", "unknown-key", "not-json"],
    )
    def test_bad_config_file_returns_one(self, tmp_path, text, named):
        config = tmp_path / "conf.json"
        config.write_text(text)
        proc = run_cli(
            "gen-data", "--env", "hanoi", "--data", str(tmp_path / "d"),
            "--train", "2", "--test", "1", "--gen", "1", "--config", str(config),
        )
        assert proc.returncode == 1
        assert named in proc.stderr
        assert not (tmp_path / "d").exists()


class TestTrainPlanEval:
    def test_train_writes_model_files(self, tiny_data_dir, tmp_path):
        proc = run_cli(
            "train", "--env", "hanoi", "--data", str(tiny_data_dir),
            "--models", str(tmp_path), "--epochs", "2",
        )
        assert proc.returncode == 0, proc.stderr
        for kind in ("can", "pay", "say"):
            assert (tmp_path / f"hanoi_{kind}_seed0.json").exists()
        assert "val_metric" in proc.stdout

    def test_plan_with_oracle_backends(self, tiny_data_dir):
        proc = run_cli(
            "plan", "--env", "gridworld", "--split", "test",
            "--backend-say", "uniform", "--backend-can", "oracle",
            "--backend-pay", "oracle", "--data", str(tiny_data_dir),
        )
        assert proc.returncode == 0, proc.stderr
        assert "episode: gridworld-test-" in proc.stdout
        assert "goal:" in proc.stdout
        assert "terminated by" in proc.stdout

    def test_eval_single_cell_writes_report(self, tiny_data_dir, tmp_path):
        proc = run_cli(
            "eval", "--env", "hanoi", "--strategy", "greedy-action",
            "--score", "saycanpay", "--backend-say", "uniform",
            "--backend-can", "oracle", "--backend-pay", "oracle",
            "--data", str(tiny_data_dir), "--models", str(tmp_path / "none"),
            "--out", str(tmp_path), "--jobs", "1",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "eval_report.json").read_text())
        assert len(report["cells"]) == 1
        cell = report["cells"][0]
        assert cell["strategy"] == "greedy-action"
        assert cell["n"] == 10

    def test_eval_defaults_to_the_full_grid(self, tiny_data_dir, tmp_path):
        proc = run_cli(
            "eval", "--env", "hanoi", "--backend-say", "uniform",
            "--backend-can", "oracle", "--backend-pay", "oracle",
            "--data", str(tiny_data_dir), "--models", str(tmp_path / "none"),
            "--out", str(tmp_path), "--jobs", "2",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "eval_report.json").read_text())
        combos = {(c["strategy"], c["score"]) for c in report["cells"]}
        assert combos == {
            (s, m)
            for s in ("greedy-action", "beam-action")
            for m in ("say", "saycan", "saycanpay")
        }

    def test_ablate_beam_size(self, tiny_data_dir, tiny_model_dir, tmp_path):
        proc = run_cli(
            "ablate", "beam-size", "--env", "hanoi",
            "--data", str(tiny_data_dir), "--models", str(tiny_model_dir),
            "--out", str(tmp_path), "--jobs", "2",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "ablate_beam-size.json").read_text())
        assert [c["k"] for c in report["cells"]] == [1, 2, 3]


class TestExitCodes:
    def test_usage_error_returns_one(self):
        proc = run_cli("gen-data", "--env", "atlantis")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_missing_subcommand_returns_one(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_runtime_error_returns_two(self, tiny_data_dir, tmp_path):
        for corrupt in (False, True):  # no model file, then one with dim=10
            if corrupt:
                (tmp_path / "hanoi_say_seed0.json").write_text(json.dumps({
                    "kind": "say", "env": "hanoi", "dim": 10, "weights": [0.0] * 10,
                    "hash_seed": 0, "profile": "plain", "bias": 0.0,
                    "config": {"head": "softmax"}, "val_metric": None,
                }))
            proc = run_cli(
                "plan", "--env", "hanoi", "--data", str(tiny_data_dir),
                "--models", str(tmp_path),
            )
            assert proc.returncode == 2
            assert "hanoi_say_seed0.json" in proc.stderr

    @pytest.mark.parametrize(
        "content, named",
        [
            ("", "holds no trajectories"),
            ("\n  \n", "holds no trajectories"),
            ("{not json\n", "line 1"),
            (None, "line 2"),  # a valid line, then a row missing its actions
        ],
        ids=["empty", "blank-lines", "bad-json", "missing-key"],
    )
    def test_empty_or_malformed_split_file_returns_two(
        self, tiny_data_dir, tmp_path, content, named
    ):
        if content is None:
            first = (tiny_data_dir / "hanoi_test.jsonl").read_text().splitlines()[0]
            row = json.loads(first)
            del row["actions"]
            content = first + "\n" + json.dumps(row) + "\n"
        (tmp_path / "hanoi_test.jsonl").write_text(content)
        proc = run_cli(
            "eval", "--env", "hanoi", "--data", str(tmp_path), "--models",
            str(tmp_path), "--out", str(tmp_path), "--jobs", "1",
            "--backend-can", "oracle", "--backend-pay", "oracle",
            "--backend-say", "uniform",
        )
        assert proc.returncode == 2
        assert "hanoi_test.jsonl" in proc.stderr
        assert named in proc.stderr

    @pytest.mark.parametrize(
        "flags",
        [
            ["gen-data", "--jobs", "2"],
            ["gen-data", "--out", "x"],
            ["train", "--out", "x"],
            ["plan", "--out", "x"],
            ["plan", "--max-steps", "5"],
        ],
    )
    def test_ignored_flags_are_gone(self, flags):
        assert run_cli(*flags).returncode == 1
