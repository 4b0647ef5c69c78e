"""Command-line interface: subcommands, precedence, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from saycanpay import cli


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
        # eval runs the whole grid unless --strategy or --score is set
        assert proc.stdout.count("default: all") == 2
        assert "default: beam-action" not in proc.stdout
        assert "default: 6" in proc.stdout  # m
        plan = run_cli("plan", "--help")
        assert "default: beam-action" in plan.stdout
        assert "default: saycanpay" in plan.stdout


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
            ('{"seed": "0"}', "'seed' must be int"),
            ('{"env": "chess"}', "'env' must be one of"),
            ('{"gen": 0}', "'gen' must be int >= 1"),
            ('{"lr": NaN}', "'lr' must be float > 0"),
        ],
        ids=["not-an-object", "unknown-key", "not-json", "wrong-type", "bad-choice",
             "out-of-bounds", "nan"],
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

    @pytest.mark.parametrize(
        "command, key, value",
        [(["ablate", "beam-size"], "delta", 0.9), (["gen-data"], "k", 3)],
        ids=["ablate-delta", "gen-data-k"],
    )
    def test_a_config_key_the_command_has_no_flag_for_returns_one(
        self, tmp_path, command, key, value
    ):
        """A known option the command takes no flag for is refused from a
        config file as it is as a flag: exit 1 naming the key and the
        command, before any write."""
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({key: value}))
        work = tmp_path / "work"
        paths = ["--data", str(work / "data")]
        if command[0] == "ablate":
            paths += ["--models", str(work / "models"), "--out", str(work / "out")]
        from_file = run_cli(*command, *paths, "--config", str(config))
        assert from_file.returncode == 1
        assert f"{command[0]} takes no '{key}'" in from_file.stderr
        as_flag = run_cli(*command, *paths, f"--{key}", str(value))
        assert as_flag.returncode == 1
        assert not work.exists()

    def test_eval_takes_strategy_and_score_from_the_config_file(
        self, tiny_data_dir, tmp_path
    ):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"strategy": "greedy-action", "score": "say"}))
        proc = run_cli(
            "eval", "--env", "hanoi", "--backend-say", "uniform",
            "--data", str(tiny_data_dir), "--models", str(tmp_path / "none"),
            "--out", str(tmp_path), "--jobs", "1", "--config", str(config),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "eval_report.json").read_text())
        assert [(c["strategy"], c["score"]) for c in report["cells"]] == [
            ("greedy-action", "say")
        ]


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

    def test_train_writes_a_sidecar_next_to_each_model(self, tiny_data_dir, tmp_path):
        proc = run_cli(
            "train", "--env", "gridworld", "--data", str(tiny_data_dir),
            "--models", str(tmp_path), "--epochs", "3", "--batch", "16",
        )
        assert proc.returncode == 0, proc.stderr
        split = tiny_data_dir / "gridworld_train.jsonl"
        for kind in ("can", "pay", "say"):
            model = json.loads((tmp_path / f"gridworld_{kind}_seed0.json").read_text())
            sidecar = json.loads(
                (tmp_path / f"gridworld_{kind}_seed0.train.json").read_text()
            )
            assert sidecar["val_metric"] == model["val_metric"]
            assert len(sidecar["epoch_losses"]) == 3
            assert all(math.isfinite(loss) for loss in sidecar["epoch_losses"])
            assert sidecar["samples"] > 0
            assert sidecar["config"]["epochs"] == 3
            assert sidecar["config"]["batch_size"] == 16
            assert sidecar["split"] == split.name
            assert sidecar["split_sha256"] == hashlib.sha256(split.read_bytes()).hexdigest()

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

    def test_say_only_cells_need_no_can_or_pay_model(
        self, tiny_data_dir, tiny_model_dir, tmp_path
    ):
        """Greedy-token and --score say cells read Say alone: without the Can
        model file they report what they report with it, while the cells that
        read Can are still skipped."""
        partial = tmp_path / "models"
        shutil.copytree(tiny_model_dir, partial)
        (partial / "hanoi_can_seed0.json").unlink()

        def rows(models, *flags):
            out = tmp_path / "out" / models.name / "-".join(flags)
            proc = run_cli(
                "eval", "--env", "hanoi", *flags, "--data", str(tiny_data_dir),
                "--models", str(models), "--out", str(out), "--jobs", "1",
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads((out / "eval_report.json").read_text())["cells"]

        for flags in (["--strategy", "greedy-token"], ["--score", "say"]):
            full = rows(tiny_model_dir, *flags)
            assert all("skipped" not in row for row in full)
            assert rows(partial, *flags) == full
        grid = rows(partial, "--strategy", "greedy-action")
        assert [("skipped" in row, row["score"]) for row in grid] == [
            (False, "say"), (True, "saycan"), (True, "saycanpay"),
        ]
        proc = run_cli(
            "plan", "--env", "hanoi", "--score", "say", "--data", str(tiny_data_dir),
            "--models", str(partial),
        )
        assert proc.returncode == 0, proc.stderr
        assert "terminated by" in proc.stdout

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

    def test_a_model_file_whose_head_misfits_its_kind_returns_two(
        self, tiny_data_dir, tiny_model_dir, tmp_path
    ):
        """A say file with a sigmoid head is a bad model file: a runtime
        error that names the file, not a usage error."""
        for kind in ("can", "pay", "say"):
            name = f"hanoi_{kind}_seed0.json"
            payload = json.loads((tiny_model_dir / name).read_text())
            if kind == "say":
                payload["config"]["head"] = "sigmoid"
            (tmp_path / name).write_text(json.dumps(payload))
        proc = run_cli(
            "eval", "--env", "hanoi", "--data", str(tiny_data_dir), "--models",
            str(tmp_path), "--out", str(tmp_path / "out"), "--jobs", "1",
        )
        assert proc.returncode == 2, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "hanoi_say_seed0.json" in errors[0] and "head 'sigmoid'" in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["plan", "eval"])
    def test_greedy_token_needs_a_full_distribution(
        self, tiny_data_dir, tmp_path, command
    ):
        out = tmp_path / "out"
        proc = run_cli(
            command, "--env", "hanoi", "--strategy", "greedy-token",
            "--backend-say", "perfect-say", "--backend-can", "oracle",
            "--backend-pay", "oracle", "--data", str(tiny_data_dir),
            *(["--out", str(out), "--jobs", "1"] if command == "eval" else []),
        )
        assert proc.returncode == 1, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "greedy-token" in errors[0] and "PerfectSay" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_returns_one(self, tiny_data_dir, tmp_path, jobs):
        proc = run_cli(
            "eval", "--env", "gridworld", "--strategy", "greedy-action",
            "--score", "say", "--backend-say", "uniform", "--backend-can",
            "oracle", "--backend-pay", "oracle", "--data", str(tiny_data_dir),
            "--out", str(tmp_path / "out"), "--jobs", jobs,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.count("error:") == 1 and "jobs" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("eval", ["--jobs", "0", "--models", "nomodels"]),
            ("gen-data", ["--gen", "0"]),
            ("gen-data", ["--seed", "-1"]),
            ("train", ["--epochs", "0"]),
            ("train", ["--lr", "nan"]),
            ("train", ["--wd", "inf"]),
            ("train", ["--batch", "1.5"]),
            ("plan", ["--delta", "0"]),
            ("eval", ["--k", "0"]),
        ],
    )
    def test_an_option_out_of_bounds_returns_one_before_any_write(
        self, tiny_data_dir, tmp_path, command, flags
    ):
        """Each numeric option's bound is checked before any work or write."""
        out = tmp_path / "out"
        paths = {
            "gen-data": ["--data", str(out)],
            "train": ["--data", str(tiny_data_dir), "--models", str(out)],
            "plan": ["--data", str(tiny_data_dir), "--models", str(out)],
            "eval": ["--data", str(tiny_data_dir), "--out", str(out)],
        }[command]
        proc = run_cli(command, "--env", "hanoi", *paths, *flags)
        assert proc.returncode == 1, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and flags[0] in errors[0]
        assert not out.exists()

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

    def test_a_hanoi_row_missing_a_disk_returns_two_naming_the_line(
        self, tiny_data_dir, tmp_path
    ):
        lines = (tiny_data_dir / "hanoi_test.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        next(rod for rod in row["init_state"]["rods"] if rod).pop()
        lines[1] = json.dumps(row)
        (tmp_path / "hanoi_test.jsonl").write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "plan", "--env", "hanoi", "--backend-say", "perfect-say",
            "--backend-can", "oracle", "--backend-pay", "oracle",
            "--data", str(tmp_path), "--models", str(tmp_path),
        )
        assert proc.returncode == 2
        errors = proc.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert "hanoi_test.jsonl line 2:" in errors[0]
        assert "each disk" in errors[0]

    @pytest.mark.parametrize(
        "backends",
        [(), ("--backend-say", "perfect-say", "--backend-can", "oracle",
              "--backend-pay", "oracle")],
        ids=["trained", "oracle"],
    )
    @pytest.mark.parametrize("command", ["plan", "eval"])
    def test_a_hanoi_row_naming_blocks_returns_two_naming_the_line(
        self, command, backends, tiny_data_dir, tiny_model_dir, tmp_path
    ):
        lines = (tiny_data_dir / "hanoi_test.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row["env"] = "blocks"
        lines[1] = json.dumps(row)
        (tmp_path / "hanoi_test.jsonl").write_text("\n".join(lines) + "\n")
        out = ("--out", str(tmp_path / "out")) if command == "eval" else ()
        proc = run_cli(
            command, "--env", "hanoi", *backends, *out,
            "--data", str(tmp_path), "--models", str(tiny_model_dir),
        )
        assert proc.returncode == 2
        errors = proc.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert "hanoi_test.jsonl line 2:" in errors[0]
        assert "env 'blocks' is not 'hanoi'" in errors[0]
        assert not (tmp_path / "out").exists()

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

    def test_ablate_takes_no_delta(self, tiny_data_dir, tiny_model_dir, tmp_path):
        """No ablation cell has an oracle Pay, so `--delta` is not a flag of
        ablate."""
        proc = run_cli(
            "ablate", "beam-size", "--delta", "0.9", "--env", "hanoi",
            "--data", str(tiny_data_dir), "--models", str(tiny_model_dir),
            "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == 1
        assert "unrecognized arguments: --delta" in proc.stderr
        assert not (tmp_path / "out").exists()


def _command_flags():
    """Each subcommand's long flags, without their dashes."""
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {o[2:] for a in parser._actions for o in a.option_strings if o[:2] == "--"}
        for name, parser in sub.choices.items()
    }


COMMAND_FLAGS = _command_flags()
PATH_OPTIONS = ("data", "models", "out")


def _bad_values(key):
    """Pairs (flag text, config value) that option `key` must refuse; the
    flag text is None where every text is a valid flag value."""
    default, checks = cli.OPTIONS[key]
    number, choices = checks.get("type"), checks.get("choices")
    not_null = () if default is None else (None,)
    if choices is not None:
        word = st.text("abcdexyz_", min_size=1, max_size=10).filter(
            lambda w: w not in choices
        )
        wrong = st.sampled_from((1, 2.5, True, ["hanoi"], *not_null))
        return st.tuples(word, st.one_of(word, wrong))
    if number is None:  # a free string: only a config value can be wrong
        wrong = st.sampled_from((3, 1.5, True, ["x"], {"a": 1}, *not_null))
        return st.tuples(st.none(), wrong)
    if number.kind is int:
        below = st.integers(-(10**6), number.low - 1).map(lambda v: (str(v), v))
        wrong_type = st.sampled_from(
            [("abc", "3"), ("1.5", 1.5), ("2e0", True), ("x", [1])]
            + [("y", v) for v in not_null]
        )
    else:
        below = st.floats(
            -1e6, number.low, exclude_max=not number.low_open
        ).map(lambda v: (repr(v), v))
        wrong_type = st.sampled_from(
            [("abc", "0.5"), ("1,5", True), ("x", [0.5])]
            + [("y", v) for v in not_null]
        )
    cases = [below, wrong_type, st.sampled_from(
        [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
    )]
    if number.high < math.inf:
        cases.append(
            st.floats(number.high, 1e6, exclude_min=True).map(lambda v: (repr(v), v))
        )
    return st.one_of(cases)


def _main_in_process(argv):
    """cli.main's exit code and stderr for `argv`, run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_bad_option_value_exits_one_before_any_write(data):
    """Any option of cli.OPTIONS given a value outside its type, bound or
    choices, as a flag or in a --config file, exits 1 with one error line
    that names the option, and writes nothing."""
    key = data.draw(st.sampled_from(sorted(cli.OPTIONS)), label="option")
    flag = key.replace("_", "-")
    command = next(c for c, flags in COMMAND_FLAGS.items() if flag in flags)
    text, value = data.draw(_bad_values(key), label="flag text, config value")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = [command, *(["beam-size"] if command == "ablate" else [])] + [
            f"--{name}={tmp / name}"
            for name in PATH_OPTIONS
            if name != flag and name in COMMAND_FLAGS[command]
        ]
        config = tmp / "conf.json"
        config.write_text(json.dumps({key: value}))
        runs = [([*base, "--config", str(config)], f"'{key}'")]
        if text is not None:
            runs.append(([*base, f"--{flag}={text}"], f"--{flag}"))
        for argv, named in runs:
            code, stderr = _main_in_process(argv)
            assert code == 1, (argv, stderr)
            errors = [line for line in stderr.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and named in errors[0], (argv, stderr)
            assert os.listdir(tmp) == ["conf.json"]
