"""Command-line entry point: data generation, training, planning, evaluation."""

from __future__ import annotations

import argparse
import json
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

DEFAULTS = {
    "env": "gridworld",
    "split": "test",
    "strategy": "beam-action",
    "score": "saycanpay",
    "m": 6,
    "k": 3,
    "delta": DELTA,
    "lr": 1e-4,
    "wd": 1e-5,
    "batch": 50,
    "epochs": 20,
    "seed": 0,
    "jobs": os.cpu_count() or 1,
    "backend_say": "trained",
    "backend_can": "trained",
    "backend_pay": "trained",
    "adapter_endpoint": None,
    "out": ".",
    "train": 400,
    "test": 100,
    "gen": 100,
    "kind": "all",
    "data": None,
    "models": "models",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_common(parser: _Parser, names: list[str]) -> None:
    specs = {
        "env": dict(choices=ENV_IDS),
        "split": dict(choices=SPLITS),
        "strategy": dict(choices=STRATEGIES),
        "score": dict(choices=SCORE_MODES),
        "m": dict(type=int),
        "k": dict(type=int),
        "delta": dict(type=float),
        "lr": dict(type=float),
        "wd": dict(type=float),
        "batch": dict(type=int),
        "epochs": dict(type=int),
        "seed": dict(type=int),
        "jobs": dict(type=int),
        "backend-say": dict(choices=SAY_BACKENDS),
        "backend-can": dict(choices=CAN_BACKENDS),
        "backend-pay": dict(choices=PAY_BACKENDS),
        "adapter-endpoint": dict(),
        "out": dict(),
        "train": dict(type=int),
        "test": dict(type=int),
        "gen": dict(type=int),
        "kind": dict(choices=(*MODEL_KINDS, "all")),
        "data": dict(),
        "models": dict(),
    }
    for name in names:
        key = name.replace("-", "_")
        parser.add_argument(
            f"--{name}",
            default=None,
            help=f"default: {DEFAULTS[key]}",
            **specs[name],
        )
    parser.add_argument("--config", default=None, help="JSON config file")


def _resolve(args: argparse.Namespace) -> dict:
    """CLI flag > config file > built-in default."""
    resolved = dict(DEFAULTS)
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
            if name not in DEFAULTS:
                raise ContractError(f"config {config_path}: unknown key {key!r}")
            resolved[name] = value
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
    opts = _resolve(args)
    env = get_env(opts["env"])
    trajectories = read_trajectories(
        env, split_path(Path(opts["data"]), opts["env"], "train")
    )
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
        print(f"{opts['env']} {kind}: val_metric={scorer.val_metric:.4f} -> {path}")
    return EXIT_OK


def cmd_plan(args) -> int:
    opts = _resolve(args)
    env = get_env(opts["env"])
    trajectories = read_trajectories(
        env, split_path(Path(opts["data"]), opts["env"], opts["split"])
    )
    traj = trajectories[opts["seed"] % len(trajectories)]
    names = {role: opts[f"backend_{role}"] for role in ("say", "can", "pay")}
    backends = build_backends(
        ModelStore(Path(opts["models"])), opts["env"], names, opts["seed"],
        opts["adapter_endpoint"], opts["delta"],
    )
    config = DecodingConfig(
        strategy=opts["strategy"], score_mode=opts["score"], m=opts["m"], k=opts["k"]
    )
    result = plan_episode(opts["env"], traj, backends, config)
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
    opts = _resolve(args)
    strategies = [opts["strategy"]] if args.strategy else ["greedy-action", "beam-action"]
    scores = [opts["score"]] if args.score else ["say", "saycan", "saycanpay"]
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
    out = Path(opts["out"])
    path = out if out.suffix == ".json" else out / "eval_report.json"
    write_report(report, path)
    print(report["table"])
    print(f"report -> {path}")
    return EXIT_OK


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
        endpoint=opts["adapter_endpoint"],
        delta=opts["delta"],
    )
    out = Path(opts["out"])
    path = out if out.suffix == ".json" else out / f"ablate_{args.ablation}.json"
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
                    "adapter-endpoint", "data", "models", "out"])

    p = sub.add_parser("ablate", help="beam-size or perfect-say ablation")
    p.add_argument("ablation", choices=("beam-size", "perfect-say"))
    _add_common(p, ["env", "split", "m", "delta", "seed", "jobs", "data", "models",
                    "out"])
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
