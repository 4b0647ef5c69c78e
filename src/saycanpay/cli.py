"""Command-line entry point: data generation, training, planning, evaluation."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from .backends import CAN_BACKENDS, PAY_BACKENDS, SAY_BACKENDS
from .core import SCORE_MODES, ContractError
from .data import (
    generate_dataset,
    make_can_samples,
    make_pay_samples,
    read_trajectories,
    split_path,
)
from .decoding import DecodingConfig, STRATEGIES
from .envs import ENV_IDS, SPLITS, get_env
from .evaluate import (
    ModelStore,
    ablate,
    build_backends,
    plan_episode,
    run_matrix,
    write_report,
)
from .models import MODEL_KINDS, TrainConfig, train
from .oracle import DELTA

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class Number:
    """A numeric option's type and bound: `kind` within [low, high], with low
    excluded when `low_open`, and finite. A flag's text and a config file's
    value are held to the same rule."""

    def __init__(self, kind: type, low: float, high: float = math.inf,
                 low_open: bool = False):
        self.kind, self.low, self.high, self.low_open = kind, low, high, low_open

    def __str__(self) -> str:
        if self.high < math.inf:
            return (f"{self.kind.__name__} in {'(' if self.low_open else '['}"
                    f"{self.low:g}, {self.high:g}]")
        finite = " (finite)" if self.kind is float else ""
        return f"{self.kind.__name__} {'>' if self.low_open else '>='} {self.low:g}{finite}"

    def accepts(self, value) -> bool:
        types = (int, float) if self.kind is float else int
        if not isinstance(value, types) or isinstance(value, bool):
            return False
        above = value > self.low if self.low_open else value >= self.low
        return math.isfinite(value) and above and value <= self.high

    def __call__(self, text: str):
        """The flag's value; argparse reports a bad one as a usage error."""
        try:
            value = self.kind(text)
        except ValueError:
            value = None
        if not self.accepts(value):
            raise argparse.ArgumentTypeError(f"must be {self}, not {text!r}")
        return value


COUNT = Number(int, 1)

# Every option: its built-in default and the argparse keywords that check a
# flag; a config file's values are checked against the same entry.
OPTIONS = {
    "env": ("gridworld", dict(choices=ENV_IDS)),
    "split": ("test", dict(choices=SPLITS)),
    "strategy": (DecodingConfig.strategy, dict(choices=STRATEGIES)),
    "score": (DecodingConfig.score_mode, dict(choices=SCORE_MODES)),
    "m": (DecodingConfig.m, dict(type=COUNT)),
    "k": (DecodingConfig.k, dict(type=COUNT)),
    "delta": (DELTA, dict(type=Number(float, 0, 1, low_open=True))),
    "lr": (TrainConfig.lr, dict(type=Number(float, 0, low_open=True))),
    "wd": (TrainConfig.weight_decay, dict(type=Number(float, 0))),
    "batch": (TrainConfig.batch_size, dict(type=COUNT)),
    "epochs": (TrainConfig.epochs, dict(type=COUNT)),
    "seed": (0, dict(type=Number(int, 0))),
    "jobs": (os.cpu_count() or 1, dict(type=COUNT)),
    "backend_say": ("trained", dict(choices=SAY_BACKENDS)),
    "backend_can": ("trained", dict(choices=CAN_BACKENDS)),
    "backend_pay": ("trained", dict(choices=PAY_BACKENDS)),
    "adapter_endpoint": (None, dict()),
    "out": (".", dict()),
    "train": (400, dict(type=COUNT)),
    "test": (100, dict(type=COUNT)),
    "gen": (100, dict(type=COUNT)),
    "kind": ("all", dict(choices=(*MODEL_KINDS, "all"))),
    "data": (None, dict()),
    "models": ("models", dict()),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_common(parser: _Parser, names: list[str], **shown) -> None:
    """Add each option's flag; `shown` overrides the default its help shows."""
    for name in names:
        key = name.replace("-", "_")
        default, checks = OPTIONS[key]
        parser.add_argument(
            f"--{name}", default=None, help=f"default: {shown.get(key, default)}",
            **checks,
        )
    parser.add_argument("--config", default=None, help="JSON config file")


def _checked(config_path: str, key: str, value):
    """A config file's `value` for option `key`, checked as its flag would be;
    null is allowed only where the default is null."""
    default, checks = OPTIONS[key]
    number = checks.get("type")
    if value is None:
        ok = default is None
    elif "choices" in checks:
        ok = value in checks["choices"]
    elif number is not None:
        ok = number.accepts(value)
    else:
        ok = isinstance(value, str)
    if not ok:
        choices = checks.get("choices")
        expected = f"one of {', '.join(choices)}" if choices else (number or "str")
        raise ContractError(
            f"config {config_path}: {key!r} must be {expected}, not {value!r}"
        )
    return float(value) if number is not None and number.kind is float else value


def _resolve(args: argparse.Namespace, **defaults) -> dict:
    """CLI flag > config file > `defaults` > built-in default."""
    resolved = {key: default for key, (default, _) in OPTIONS.items()} | defaults
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ContractError(f"config {config_path} is not JSON: {exc}") from exc
        if not isinstance(file_conf, dict):
            raise ContractError(f"config {config_path} is not a JSON object")
        for key, value in file_conf.items():
            name = key.replace("-", "_")
            if name not in OPTIONS:
                raise ContractError(f"config {config_path}: unknown key {key!r}")
            resolved[name] = _checked(config_path, name, value)
            if name not in vars(args):  # an option this command has no flag for
                raise ContractError(f"config {config_path}: {args.command} takes no {key!r}")
    for key, value in vars(args).items():
        if key not in ("command", "config", "ablation") and value is not None:
            resolved[key] = value
    data_env = os.environ.get("SCP_DATA_DIR")
    if resolved.get("data") is None:
        resolved["data"] = data_env or "data"
    return resolved


def cmd_gen_data(args) -> int:
    opts = _resolve(args)
    counts = {
        "train": opts["train"],
        "test": opts["test"],
        "test-generalize": opts["gen"],
    }
    out_dir = Path(opts["data"])
    summary = generate_dataset(opts["env"], counts, opts["seed"], out_dir)
    for split, info in summary.items():
        print(
            f"{opts['env']} {split}: {info['count']} trajectories, "
            f"mean oracle length {info['mean_optimal_length']:.2f} -> {info['path']}"
        )
    return EXIT_OK


def cmd_train(args) -> int:
    """Train each kind, writing its model file and, next to it, a
    `<model>.train.json` sidecar of how it converged and what it read."""
    opts = _resolve(args)
    env = get_env(opts["env"])
    split = split_path(Path(opts["data"]), opts["env"], "train")
    trajectories = read_trajectories(env, split)
    split_sha256 = hashlib.sha256(split.read_bytes()).hexdigest()
    config = TrainConfig(
        lr=opts["lr"], weight_decay=opts["wd"], batch_size=opts["batch"],
        epochs=opts["epochs"], seed=opts["seed"],
    )
    kinds = ("can", "pay", "say") if opts["kind"] == "all" else (opts["kind"],)
    store = ModelStore(Path(opts["models"]))
    for kind in kinds:
        if kind == "can":
            dataset = make_can_samples(trajectories, seed=opts["seed"])
        elif kind == "pay":
            dataset = make_pay_samples(trajectories, delta=opts["delta"],
                                       seed=opts["seed"])
        else:
            dataset = trajectories
        model = train(kind, dataset, config, opts["env"], env=env)
        scorer = model.scorer if kind == "say" else model
        path = store.path(opts["env"], kind, opts["seed"])
        scorer.save(path)
        sidecar = {
            "epoch_losses": scorer.epoch_losses, "val_metric": scorer.val_metric,
            "samples": scorer.n_samples, "config": config.to_json(),
            "split": split.name, "split_sha256": split_sha256,
        }
        path.with_suffix(".train.json").write_text(
            json.dumps(sidecar, indent=1) + "\n", encoding="utf-8"
        )
        print(f"{opts['env']} {kind}: val_metric={scorer.val_metric:.4f} -> {path}")
    return EXIT_OK


def cmd_plan(args) -> int:
    opts = _resolve(args)
    trajectories = read_trajectories(
        get_env(opts["env"]), split_path(Path(opts["data"]), opts["env"], opts["split"])
    )
    traj = trajectories[opts["seed"] % len(trajectories)]
    names = {role: opts[f"backend_{role}"] for role in ("say", "can", "pay")}
    config = DecodingConfig(
        strategy=opts["strategy"], score_mode=opts["score"], m=opts["m"], k=opts["k"]
    )
    backends = build_backends(
        ModelStore(Path(opts["models"])), opts["env"], names, opts["seed"],
        opts["adapter_endpoint"], opts["delta"], config.roles,
    )
    result = plan_episode(traj, backends, config)
    print(f"episode: {traj.episode.episode_id}")
    print(f"goal:    {traj.episode.goal.text}")
    print(f"obs:     {traj.episode.init_obs}")
    print(f"{'step':<4} {'p_say':>8} {'p_can':>8} {'f_pay':>8} {'score':>9}  action")
    for i, cand in enumerate(result.plan.per_step, start=1):
        print(
            f"{i:<4} {cand.p_say:>8.4f} {cand.p_can:>8.4f} {cand.f_pay:>8.4f} "
            f"{cand.step_log_score:>9.4f}  {cand.action.text}"
        )
    print(
        f"terminated by {result.plan.terminated_by}; reached goal: "
        f"{result.reached_goal}; final score {result.plan.final_score:.4f}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    opts = _resolve(args, strategy=None, score=None)  # unset: the whole grid
    strategies = [opts["strategy"]] if opts["strategy"] else ["greedy-action", "beam-action"]
    scores = [opts["score"]] if opts["score"] else ["say", "saycan", "saycanpay"]
    backends = {role: opts[f"backend_{role}"] for role in ("say", "can", "pay")}
    report = run_matrix(
        data_dir=Path(opts["data"]),
        model_dir=Path(opts["models"]),
        envs=[opts["env"]],
        strategies=strategies,
        scores=scores,
        backends=backends,
        seeds=[opts["seed"]],
        splits=[opts["split"]],
        jobs=opts["jobs"],
        m=opts["m"],
        k=opts["k"],
        endpoint=opts["adapter_endpoint"],
        delta=opts["delta"],
    )
    return _write(report, opts["out"], "eval_report.json")


def cmd_ablate(args) -> int:
    opts = _resolve(args)
    report = ablate(
        args.ablation,
        data_dir=Path(opts["data"]),
        model_dir=Path(opts["models"]),
        envs=[opts["env"]],
        seeds=[opts["seed"]],
        split=opts["split"],
        jobs=opts["jobs"],
        m=opts["m"],
    )
    return _write(report, opts["out"], f"ablate_{args.ablation}.json")


def _write(report: dict, out: str, name: str) -> int:
    """Write the report to `out` (a .json path, else `out`/`name`) and print
    its table."""
    out = Path(out)
    path = out if out.suffix == ".json" else out / name
    write_report(report, path)
    print(report["table"])
    print(f"report -> {path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="saycanpay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate expert trajectory datasets")
    _add_common(p, ["env", "train", "test", "gen", "seed", "data"])

    p = sub.add_parser("train", help="train can/pay/say scorers")
    _add_common(p, ["env", "kind", "lr", "wd", "batch", "epochs", "delta", "seed",
                    "data", "models"])

    p = sub.add_parser("plan", help="plan a single episode and print the score table")
    _add_common(p, ["env", "split", "strategy", "score", "m", "k", "delta", "seed",
                    "backend-say", "backend-can", "backend-pay", "adapter-endpoint",
                    "data", "models"])

    p = sub.add_parser("eval", help="run the strategy x score evaluation grid")
    _add_common(p, ["env", "split", "strategy", "score", "m", "k", "delta", "seed",
                    "jobs", "backend-say", "backend-can", "backend-pay",
                    "adapter-endpoint", "data", "models", "out"],
                strategy="all", score="all")

    p = sub.add_parser("ablate", help="beam-size or perfect-say ablation")
    p.add_argument("ablation", choices=("beam-size", "perfect-say"))
    _add_common(p, ["env", "split", "m", "seed", "jobs", "data", "models", "out"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "plan": cmd_plan,
        "eval": cmd_eval,
        "ablate": cmd_ablate,
    }
    try:
        return handlers[args.command](args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
