"""Spans, counts and self time around saycanpay's public functions.

Nothing here edits the package. `Tracer.install` replaces every module-level
binding of each wrapped function (``breadth_first_plan`` is bound in
``envs.base``, ``envs``, ``oracle`` and ``backends``; ``featurize`` in
``features`` and ``models``) and the class attribute of each wrapped method,
so calls through any import path are seen.

Untraced runs install only the pass-through around ``evaluate_episodes`` that
hands the per-episode results to the harness (a handful of calls per run).

Pool workers of ``evaluate_episodes(jobs>1)`` are forked with the wrappers in
place; each worker drops the parent's counts at fork, and writes its own to
``worker_dir`` when it exits. The parent merges those files when the pool has
shut down, so the per-layer numbers of a ``jobs 2`` run include the workers.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from functools import wraps
from multiprocessing import util as mp_util
from pathlib import Path

# Counters that must repeat exactly across runs of one commit.
EXACT_COUNTERS = (
    "oracle.bfs_successors_generated",
    "features.featurize_calls",
    "decoding.candidates_scored",
    "decoding.expand_calls",
    "models.score_calls",
)

_perf = time.perf_counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _cache_counts(fn) -> tuple[int, int]:
    info = fn.cache_info() if hasattr(fn, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


class Tracer:
    """In-memory spans and per-key [calls, total_s, self_s] statistics."""

    def __init__(self, full: bool, worker_dir: Path):
        self.full = full
        self.worker_dir = Path(worker_dir)
        self.stats: dict[str, list] = {}
        self.values: dict[str, float] = defaultdict(float)
        self.expand_durations: list[float] = []
        self.spans: list[tuple] = []
        self.bfs_starts: set[int] = set()
        self.cells: list[dict] = []
        self.cache: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._times = [0.0]  # child-time accumulators; the bottom one is a sentinel
        self._open: list = [None]  # open span ids
        self._bfs_depth = [0]
        self._ids = 0
        self._features = None

    # -- bookkeeping -------------------------------------------------------

    def _stat(self, key: str) -> list:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0]
        return st

    def _new_id(self):
        self._ids += 1
        return f"{os.getpid()}-{self._ids}"

    def span(self, name: str):
        """Context manager for a harness-level span (stages)."""
        return _Span(self, name)

    def _finish(self, key, t0, span_id, parent):
        t1 = _perf()
        d = t1 - t0
        child = self._times.pop()
        st = self._stat(key)
        st[0] += 1
        st[1] += d
        st[2] += d - child
        self._times[-1] += d
        if span_id is not None:
            self._open.pop()
            self.spans.append((span_id, key, t0, t1, parent))
        return d

    def _call(self, key, span, fn, args, kwargs):
        span_id = parent = None
        if span:
            span_id, parent = self._new_id(), self._open[-1]
            self._open.append(span_id)
        self._times.append(0.0)
        t0 = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            d = self._finish(key, t0, span_id, parent)
        return result, d

    # -- cache hit ratios at stage boundaries ------------------------------

    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        f = self._features
        if f is None:
            return {}
        return {
            "featurize": _cache_counts(getattr(f, "_featurize_cached", None)),
            "bucket": _cache_counts(getattr(f, "bucket", None)),
        }

    def cache_add(self, label: str, before: dict, after: dict) -> None:
        for name, (hits, misses) in after.items():
            acc = self.cache[f"{name}.{label}"]
            acc[0] += hits - before[name][0]
            acc[1] += misses - before[name][1]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import sys

        from saycanpay import backends, data, decoding, envs, evaluate, features, models, oracle
        from saycanpay.envs.base import breadth_first_plan

        self._features = features
        values = self.values

        def rebind(original, wrapper):
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "saycanpay" or name.startswith("saycanpay.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        def method(cls, name, wrapper_factory):
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                setattr(cls, name, classmethod(wrapper_factory(original.__func__)))
            else:
                setattr(cls, name, wrapper_factory(original))

        def wrap(original, key, span=False, observe=None):
            rebind(original, self._general(original, key, span, observe))

        def count_items(name):
            def observe(args, kwargs, result, d):
                values[name] += len(result)
            return observe

        def cell_done(args, kwargs, result, d):
            jobs = max(1, _arg(args, kwargs, 4, "jobs", 1))
            if self.full and jobs > 1:
                self._merge_workers()
            self.cells.append(
                {"jobs": jobs, "wall_s": d, "episode_wall_s": [r.wall_time for r in result]}
            )

        wrap(evaluate.evaluate_episodes, "evaluate.cell", span=True, observe=cell_done)
        if not self.full:
            return

        for cls in {type(envs.get_env(e)) for e in envs.ENV_IDS}:
            method(cls, "step", self._wrap_step)
            method(cls, "precondition_holds", lambda f: self._leaf(f, "envs.precondition_holds"))
            method(cls, "is_goal", lambda f: self._leaf(f, "envs.is_goal"))
            method(cls, "sample_episode", lambda f: self._leaf(f, "data.sample_episode"))
        rebind(breadth_first_plan, self._wrap_bfs(breadth_first_plan))
        method(oracle.ReplayCache, "state_for", lambda f: self._leaf(f, "oracle.replay"))

        for name in ("generate_split", "make_can_samples", "make_pay_samples"):
            wrap(getattr(data, name), f"data.{name}", observe=count_items(f"data.{name}.items"))
        wrap(data.write_trajectories, "data.write_trajectories")
        wrap(data.read_trajectories, "data.read_trajectories")

        rebind(features.featurize, self._leaf(features.featurize, "features.featurize"))

        def train_samples(args, kwargs, result, d):
            kind, dataset = _arg(args, kwargs, 0, "model_kind"), _arg(args, kwargs, 1, "dataset")
            samples = sum(len(t.actions) for t in dataset) if kind == "say" else len(dataset)
            values[f"models.train.{kind}.samples"] += samples

        def vocab_size(args, kwargs, result, d):
            values["models.action_probs.candidates"] += len(_arg(args, kwargs, 3, "vocab"))

        method(models.LinearScorer, "score", lambda f: self._leaf(f, "models.score"))
        method(models.LinearScorer, "save", lambda f: self._general(f, "models.save"))
        method(models.LinearScorer, "load", lambda f: self._general(f, "models.load"))
        method(models.SayPolicy, "action_probs",
               lambda f: self._general(f, "models.action_probs", observe=vocab_size))
        wrap(models.train, lambda a, k: f"models.train.{_arg(a, k, 0, 'model_kind')}",
             span=True, observe=train_samples)

        for cls, key in (
            (backends.TrainedSay, "backends.propose.trained"),
            (backends.PerfectSay, "backends.propose.perfect-say"),
        ):
            method(cls, "propose", lambda f, key=key: self._leaf(f, key))
        for cls, key in (
            (backends.TrainedCan, "backends.can.trained"),
            (backends.OracleCan, "backends.can.oracle"),
            (backends.TrainedPay, "backends.pay.trained"),
            (backends.OraclePay, "backends.pay.oracle"),
        ):
            method(cls, "__call__", lambda f, key=key: self._leaf(f, key))

        def expanded(args, kwargs, result, d):
            values["decoding.candidates_scored"] += len(result)
            self.expand_durations.append(d)

        def planned(args, kwargs, result, d):
            values["decoding.plan_actions"] += len(result.plan)

        wrap(decoding.expand_candidates, "decoding.expand", observe=expanded)
        wrap(decoding.run_strategy,
             lambda a, k: f"decoding.run_strategy.{_arg(a, k, 1, 'config').strategy}",
             observe=planned)
        wrap(evaluate.plan_episode, "evaluate.plan_episode", span=True)
        rebind(evaluate.execute_plan, self._leaf(evaluate.execute_plan, "evaluate.execute_plan"))

        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- wrappers ----------------------------------------------------------

    def _leaf(self, fn, key):
        """Hot call: count, total and self time, no span."""
        st = self._stat(key)
        times = self._times

        @wraps(fn)
        def leaf(*args, **kwargs):
            times.append(0.0)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _perf() - t0
                st[0] += 1
                st[1] += d
                st[2] += d - times.pop()
                times[-1] += d

        return leaf

    def _general(self, fn, key, span=False, observe=None):
        """Count and time a call, optionally as a span; `key` may be a
        function of the arguments, `observe(args, kwargs, result, seconds)`
        records what the call returned."""

        @wraps(fn)
        def general(*args, **kwargs):
            name = key(args, kwargs) if callable(key) else key
            result, d = self._call(name, span, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result, d)
            return result

        return general

    def _wrap_step(self, fn):
        """env.step, also counted as a BFS successor (duplicates included)
        when it runs inside breadth_first_plan."""
        inner = self._leaf(fn, "envs.step")
        depth = self._bfs_depth
        values = self.values

        @wraps(fn)
        def step(*args, **kwargs):
            if depth[0]:
                values["oracle.bfs_successors_generated"] += 1
            return inner(*args, **kwargs)

        return step

    def _wrap_bfs(self, fn):
        @wraps(fn)
        def bfs(env, spec, start_state=None):
            state = spec.init_state if start_state is None else start_state
            self.bfs_starts.add(hash((spec.env_id, spec.goal, state)))
            self._bfs_depth[0] += 1
            try:
                result, _ = self._call("oracle.bfs", True, fn, (env, spec, start_state), {})
            finally:
                self._bfs_depth[0] -= 1
            return result

        return bfs

    # -- pool workers ------------------------------------------------------

    def _after_fork(self) -> None:
        """Runs in a forked pool worker: start from zero, dump at exit."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.values.clear()
        self.expand_durations.clear()
        self.spans.clear()
        self.bfs_starts.clear()
        self.cells.clear()
        self.cache.clear()
        self._times[:] = [0.0]
        self._open[:] = [self._open[-1]]
        self._fork_cache = self.cache_snapshot()
        mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        self.cache_add("eval", self._fork_cache, self.cache_snapshot())
        payload = {
            "stats": self.stats,
            "values": self.values,
            "expand_durations": self.expand_durations,
            "spans": self.spans,
            "bfs_starts": list(self.bfs_starts),
            "cache": self.cache,
        }
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)

    def _merge_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            for key, (calls, total, self_s) in payload["stats"].items():
                st = self._stat(key)
                st[0] += calls
                st[1] += total
                st[2] += self_s
            for key, value in payload["values"].items():
                self.values[key] += value
            self.expand_durations.extend(payload["expand_durations"])
            self.spans.extend(tuple(s) for s in payload["spans"])
            self.bfs_starts.update(payload["bfs_starts"])
            for key, (hits, misses) in payload["cache"].items():
                self.cache[key][0] += hits
                self.cache[key][1] += misses

    # -- results -----------------------------------------------------------

    def span_rows(self) -> list[dict]:
        """Spans with self time = duration minus the union of child intervals."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        rows = []
        for span_id, name, start, end, parent in self.spans:
            covered, cursor = 0.0, start
            for _, _, c_start, c_end, _ in sorted(children.get(span_id, ()), key=lambda s: s[2]):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            rows.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "self_s": end - start - covered}
            )
        return rows

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.span_rows():
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric named in BENCHMARK.json, from this tracer."""
        st = lambda key: self.stats.get(key, [0, 0.0, 0.0])  # noqa: E731
        v = self.values
        out: dict[str, float] = {}

        out["envs.step_calls"] = st("envs.step")[0]
        out["envs.precondition_calls"] = st("envs.precondition_holds")[0]
        out["envs.is_goal_calls"] = st("envs.is_goal")[0]
        out["envs.self_s"] = sum(
            st(k)[2] for k in ("envs.step", "envs.precondition_holds", "envs.is_goal")
        )

        bfs_calls = st("oracle.bfs")[0]
        out["oracle.bfs_calls"] = bfs_calls
        out["oracle.bfs_s"] = st("oracle.bfs")[1]
        out["oracle.bfs_successors_generated"] = int(v["oracle.bfs_successors_generated"])
        out["oracle.bfs_distinct_start_ratio"] = _ratio(len(self.bfs_starts), bfs_calls)
        out["oracle.replay_calls"] = st("oracle.replay")[0]

        drawn = st("data.sample_episode")[0]
        out["data.generate_split_s"] = st("data.generate_split")[1]
        out["data.episodes_drawn"] = drawn
        out["data.episodes_kept_ratio"] = _ratio(v["data.generate_split.items"], drawn)
        out["data.write_s"] = st("data.write_trajectories")[1]
        out["data.read_s"] = st("data.read_trajectories")[1]
        out["data.can_samples"] = int(v["data.make_can_samples.items"])
        out["data.pay_samples"] = int(v["data.make_pay_samples.items"])
        out["data.samples_build_s"] = st("data.make_can_samples")[1] + st("data.make_pay_samples")[1]

        out["features.featurize_calls"] = st("features.featurize")[0]
        out["features.featurize_s"] = st("features.featurize")[1]
        for label in ("train", "eval"):
            hits, misses = self.cache.get(f"featurize.{label}", (0, 0))
            out[f"features.cache_hit_ratio.{label}"] = _ratio(hits, hits + misses)
        hits = sum(self.cache.get(f"bucket.{label}", (0, 0))[0] for label in ("gen", "train", "eval"))
        total = hits + sum(self.cache.get(f"bucket.{label}", (0, 0))[1] for label in ("gen", "train", "eval"))
        out["features.bucket_cache_hit_ratio"] = _ratio(hits, total)

        for kind in ("can", "pay", "say"):
            calls, total_s, _ = st(f"models.train.{kind}")
            out[f"models.train_s.{kind}"] = total_s
            out[f"models.train_samples_per_s.{kind}"] = _ratio(v[f"models.train.{kind}.samples"], total_s)
        out["models.score_calls"] = st("models.score")[0]
        out["models.score_s"] = st("models.score")[1]
        out["models.action_probs_calls"] = st("models.action_probs")[0]
        out["models.action_probs_s"] = st("models.action_probs")[1]
        out["models.candidates_per_action_probs"] = _ratio(
            v["models.action_probs.candidates"], st("models.action_probs")[0]
        )
        out["models.save_s"] = st("models.save")[1]
        out["models.load_s"] = st("models.load")[1]

        for role, kinds in (("propose", ("trained", "perfect-say")),
                            ("can", ("trained", "oracle")),
                            ("pay", ("trained", "oracle"))):
            for kind in kinds:
                calls, total_s, _ = st(f"backends.{role}.{kind}")
                out[f"backends.{role}_calls.{kind}"] = calls
                out[f"backends.{role}_s.{kind}"] = total_s

        durations = sorted(self.expand_durations)
        out["decoding.expand_calls"] = st("decoding.expand")[0]
        out["decoding.expand_p50_s"] = percentile(durations, 50)
        out["decoding.expand_p95_s"] = percentile(durations, 95)
        out["decoding.candidates_scored"] = int(v["decoding.candidates_scored"])
        out["decoding.kept_share"] = _ratio(v["decoding.plan_actions"], v["decoding.candidates_scored"])
        for strategy in ("greedy-action", "beam-action"):
            out[f"decoding.run_strategy_s.{strategy}"] = st(f"decoding.run_strategy.{strategy}")[1]

        busy = sum(sum(c["episode_wall_s"]) for c in self.cells)
        capacity = sum(c["jobs"] * c["wall_s"] for c in self.cells)
        out["evaluate.episodes"] = st("evaluate.plan_episode")[0]
        out["evaluate.cell_s"] = st("evaluate.cell")[1]
        out["evaluate.execute_plan_s"] = st("evaluate.execute_plan")[1]
        out["evaluate.fanout_busy_share"] = _ratio(busy, capacity)
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.span_id, self.parent = t._new_id(), t._open[-1]
        t._open.append(self.span_id)
        t._times.append(0.0)
        self.t0 = _perf()
        return self

    def __exit__(self, *exc):
        self.duration = self.tracer._finish(self.name, self.t0, self.span_id, self.parent)
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0
