"""Losses, gradients, the optimizer, scorer persistence, and proposal helpers."""

import json
import math
import socket
import threading
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saycanpay import models
from saycanpay.backends import UniformSay
from saycanpay.core import (
    ActionInstance,
    AdapterError,
    ContractError,
    GoalSpec,
    History,
    ModelFileError,
)
from saycanpay.envs import ENV_IDS, get_env, reset
from saycanpay.features import DIM, PROFILES, SCALES, bucket, featurize
from saycanpay.models import (
    MAX_REPLY_BYTES,
    AdamW,
    LinearScorer,
    SayPolicy,
    TrainConfig,
    external_say,
    infonce_loss,
    mse_loss,
    perfect_say,
    say_top_m,
    sigmoid,
    softmax,
    train,
)
from saycanpay.oracle import ReplayCache
from saycanpay.trie import TokenTrie

from conftest import (
    random_reachable_history,
    reference_featurize,
    reference_infonce_logits,
    reference_mse_logits,
    reference_softmax_xent_logits,
    reference_train,
)


class TestLosses:
    def test_infonce_uniform_three_way(self):
        loss, _ = infonce_loss(0.5, [0.5, 0.5])
        assert loss == pytest.approx(math.log(3))

    def test_infonce_worked_example(self):
        loss, _ = infonce_loss(0.8, [0.1, 0.1])
        assert loss == pytest.approx(0.2231, abs=1e-4)

    def test_infonce_rejects_nonpositive_scores(self):
        with pytest.raises(ContractError):
            infonce_loss(0.0, [0.5])
        with pytest.raises(ContractError):
            infonce_loss(0.5, [0.5, -0.1])

    def test_infonce_gradient_signs(self):
        _, (d_pos, d_negs) = infonce_loss(0.6, [0.3, 0.2])
        assert d_pos < 0
        assert all(d > 0 for d in d_negs)

    def test_mse_worked_examples(self):
        assert mse_loss(0.5, 1.0) == (0.25, -1.0)
        assert mse_loss(0.9, 0.6)[0] == pytest.approx(0.09)
        assert mse_loss(0.3, 0.3) == (0.0, 0.0)


class TestHeads:
    def test_sigmoid_symmetry_and_range(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(5.0) + sigmoid(-5.0) == pytest.approx(1.0)
        assert sigmoid(-800.0) >= 0.0  # no overflow

    def test_softmax_normalizes_and_shifts(self):
        z = np.array([1.0, 2.0, 3.0])
        p = softmax(z)
        assert p.sum() == pytest.approx(1.0)
        assert np.allclose(p, softmax(z + 100.0))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12))
def test_batched_loss_heads_match_the_per_sample_forms(data, sizes):
    """Each loss head scores a whole minibatch (flat raw scores cut into
    samples) and returns bit for bit the losses and raw-score gradients of the
    per-sample forms, segments of 8 and more included (`e.sum()` then sums
    pairwise).  The bias gradient `np.cumsum(dz)[-1]` is the sequential sum
    from 0.0 that bincount took over the bias bucket."""
    cuts = [0, *accumulate(sizes)]
    n = len(sizes)

    def floats(low, high, size):
        return data.draw(st.lists(st.floats(low, high), min_size=size, max_size=size))

    cases = [  # Can logits stay where every sigmoid score is positive
        (models._infonce_logits, reference_infonce_logits, floats(-40, 40, cuts[-1]),
         cuts, [None] * n),
        (models._softmax_xent_logits, reference_softmax_xent_logits,
         floats(-1000, 1000, cuts[-1]), cuts,
         [data.draw(st.integers(0, size - 1)) for size in sizes]),
        (models._mse_logits, reference_mse_logits, floats(-1000, 1000, n),
         list(range(n + 1)), floats(0, 1, n)),
    ]
    for head, reference, z, head_cuts, targets in cases:
        losses, dz = head(z, head_cuts, targets)
        expected = [reference(z[a:b], t) for a, b, t in zip(head_cuts, head_cuts[1:], targets)]
        assert _bits(losses) == _bits([loss for loss, _ in expected])
        assert _bits(dz) == _bits(np.concatenate([d for _, d in expected]))
        total = 0.0
        for d in dz.tolist():
            total += d
        assert np.cumsum(dz)[-1] == total


def _random_sparse_feature(rng):
    n = rng.integers(5, 30)
    idx = np.sort(rng.choice(DIM, size=n, replace=False))
    vals = rng.integers(1, 4, size=n).astype(float)
    return np.asarray(idx, dtype=np.intp), vals


def _raw(params, feat):
    idx, vals = feat
    return float(params[idx] @ vals) + params[-1]


def _check_grad(analytic, params, touched, f, tol=1e-4):
    h = 1e-6
    for j in touched:
        params[j] += h
        up = f()
        params[j] -= 2 * h
        down = f()
        params[j] += h
        numeric = (up - down) / (2 * h)
        scale = max(1.0, abs(numeric), abs(analytic[j]))
        assert abs(analytic[j] - numeric) / scale < tol


class TestGradientChecks:
    """Central finite differences against the analytic gradients (tol 1e-4)."""

    def test_infonce_through_sigmoid(self):
        rng = np.random.default_rng(0)
        params = rng.normal(scale=0.01, size=DIM + 1)
        for _ in range(40):
            feats = [_random_sparse_feature(rng) for _ in range(3)]

            def value():
                scores = [sigmoid(_raw(params, f)) for f in feats]
                return infonce_loss(scores[0], scores[1:])[0]

            scores = [sigmoid(_raw(params, f)) for f in feats]
            _, (d_pos, d_negs) = infonce_loss(scores[0], scores[1:])
            grad = np.zeros(DIM + 1)
            for f, s, ds in zip(feats, scores, [d_pos] + d_negs):
                idx, vals = f
                np.add.at(grad, idx, ds * s * (1.0 - s) * vals)
                grad[-1] += ds * s * (1.0 - s)
            touched = sorted({int(i) for f in feats for i in f[0]})[:5] + [DIM]
            _check_grad(grad, params, touched, value)

    def test_mse_through_sigmoid(self):
        rng = np.random.default_rng(1)
        params = rng.normal(scale=0.01, size=DIM + 1)
        for _ in range(40):
            feat = _random_sparse_feature(rng)
            target = float(rng.uniform(0, 1))

            def value():
                return mse_loss(sigmoid(_raw(params, feat)), target)[0]

            s = sigmoid(_raw(params, feat))
            _, d_pred = mse_loss(s, target)
            grad = np.zeros(DIM + 1)
            idx, vals = feat
            np.add.at(grad, idx, d_pred * s * (1.0 - s) * vals)
            grad[-1] += d_pred * s * (1.0 - s)
            touched = sorted(int(i) for i in idx)[:5] + [DIM]
            _check_grad(grad, params, touched, value)

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(2)
        params = rng.normal(scale=0.01, size=DIM + 1)
        for _ in range(20):
            feats = [_random_sparse_feature(rng) for _ in range(4)]
            target = int(rng.integers(4))

            def value():
                z = np.array([_raw(params, f) for f in feats])
                return -math.log(softmax(z)[target])

            z = np.array([_raw(params, f) for f in feats])
            p = softmax(z)
            dz = p.copy()
            dz[target] -= 1.0
            grad = np.zeros(DIM + 1)
            for f, d in zip(feats, dz):
                idx, vals = f
                np.add.at(grad, idx, d * vals)
                grad[-1] += d
            touched = sorted({int(i) for f in feats for i in f[0]})[:5] + [DIM]
            _check_grad(grad, params, touched, value)


class TestAdamW:
    def test_minimizes_a_quadratic(self):
        params = np.array([5.0, -3.0])
        opt = AdamW(2, lr=0.1, weight_decay=0.0)
        for _ in range(500):
            opt.step(params, 2 * params)
        assert np.abs(params).max() < 1e-2

    def test_decay_mask_spares_masked_entries(self):
        params = np.array([1.0, 1.0])
        mask = np.array([1.0, 0.0])
        opt = AdamW(2, lr=0.0, weight_decay=0.5, decay_mask=mask)
        # lr=0 isolates the decoupled decay term
        opt.step(params, np.zeros(2))
        assert params[0] == 1.0 and params[1] == 1.0  # decay scaled by lr
        opt2 = AdamW(2, lr=0.1, weight_decay=0.5, decay_mask=mask)
        params = np.array([1.0, 1.0])
        opt2.step(params, np.zeros(2))
        assert params[0] < 1.0
        assert params[1] == 1.0

    def test_in_place_step_is_bit_identical_to_the_textbook_expression(self):
        """The in-place update keeps each element's order of operations, so
        its params, m and v match the textbook update bit for bit."""
        rng = np.random.default_rng(7)
        n = 1000
        mask = (rng.random(n) < 0.9).astype(float)
        lr, wd, b1, b2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8
        opt = AdamW(n, lr, wd, beta1=b1, beta2=b2, eps=eps, decay_mask=mask)
        params = rng.normal(size=n)
        ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 201):
            grad = np.zeros(n)
            hit = rng.choice(n, 60, replace=False)
            grad[hit] = rng.normal(size=60) * 10.0 ** rng.integers(-4, 3, 60)
            opt.step(params, grad)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * mask * ref)
        assert np.array_equal(params, ref)
        assert np.array_equal(opt.m, m)
        assert np.array_equal(opt.v, v)


class TestLinearScorer:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            LinearScorer("pray", "hanoi", head="sigmoid")

    def test_default_profiles_per_kind(self):
        assert LinearScorer("say", "hanoi", head="softmax").profile == "plain"
        assert LinearScorer("can", "hanoi", head="sigmoid").profile == "full"
        assert LinearScorer("pay", "hanoi", head="sigmoid").profile == "full"

    def test_save_load_roundtrip(self, tmp_path):
        scorer = LinearScorer("can", "blocks", head="sigmoid",
                              config={"lr": 1e-4})
        rng = np.random.default_rng(0)
        scorer.weights = rng.normal(size=DIM)
        scorer.bias = 0.25
        scorer.val_metric = 0.97
        path = tmp_path / "model.json"
        scorer.save(path)
        loaded = LinearScorer.load(path)
        assert loaded.kind == "can"
        assert loaded.env == "blocks"
        assert loaded.profile == "full"
        assert loaded.bias == 0.25
        assert loaded.val_metric == 0.97
        assert np.array_equal(loaded.weights, scorer.weights)
        goal = GoalSpec(text="g x", predicate=("p",))
        history = History("an observation.")
        action = ActionInstance.from_text("do thing", op=("x",))
        assert loaded.score(goal, history, [action]) == scorer.score(
            goal, history, [action]
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"dim": 10},
            {"weights": [0.0] * 10},
            {"weights": [math.nan] * DIM},
            {"bias": math.inf},
            {"profile": "fancy"},
            {"kind": "pray"},
            {"hash_seed": 1},
            {"config": {"head": "softmax"}},  # a can model needs a sigmoid head
            {"bias": True},  # float() would read it as 1.0
            {"bias": "0.5"},
            {"val_metric": "x"},
            {"val_metric": True},
        ],
    )
    def test_load_rejects_a_bad_file(self, tmp_path, change):
        path = tmp_path / "model.json"
        LinearScorer("can", "blocks", head="sigmoid").save(path)
        payload = json.loads(path.read_text())
        payload.update(change)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match="model.json"):
            LinearScorer.load(path)

    def test_check_env_mismatch(self):
        scorer = LinearScorer("can", "blocks", head="sigmoid")
        with pytest.raises(ContractError):
            scorer.check_env("hanoi")

    def test_score_uses_the_stored_profile(self):
        goal = GoalSpec(text="g", predicate=("p",))
        history = History("obs words here.")
        action = ActionInstance.from_text("do thing", op=("x",))
        say = LinearScorer("say", "hanoi", head="softmax")
        rng = np.random.default_rng(3)
        weights = rng.normal(scale=1e-4, size=DIM)
        say.weights = weights
        full = LinearScorer("say", "hanoi", head="softmax", profile="full")
        full.weights = weights.copy()
        plain_rows = featurize(goal, history, [action], profile="plain")
        plain = say.score(goal, history, [action])
        assert plain == [sigmoid(say.logits(plain_rows)[0])]
        assert full.score(goal, history, [action]) != plain


@settings(max_examples=60, deadline=None)
@given(
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 300),
    walk=st.lists(st.integers(0, 50), max_size=8),
    picks=st.lists(st.integers(0, 50), min_size=1, max_size=8),
    profile=st.sampled_from(PROFILES),
    weight_seed=st.integers(0, 2**32 - 1),
)
def test_list_score_is_bit_identical_to_one_candidate_scores(
    env_id, seed, walk, picks, profile, weight_seed
):
    """Scoring a candidate list equals scoring each candidate alone, bit for
    bit: every row keeps its own dot product.  The list always repeats its
    first candidate."""
    goal, history, vocab = random_reachable_history(env_id, seed, "train", walk)
    actions = [vocab[p % len(vocab)] for p in picks + picks[:1]]
    scorer = LinearScorer("can", env_id, head="sigmoid", profile=profile)
    rng = np.random.default_rng(weight_seed)
    scorer.weights = rng.normal(scale=1e-3, size=DIM)
    scorer.bias = float(rng.normal())
    assert scorer.score(goal, history, actions) == [
        scorer.score(goal, history, [a])[0] for a in actions
    ]


class TestSayProposals:
    def _uniform_policy(self, env_id="hanoi"):
        return SayPolicy(LinearScorer("say", env_id, head="softmax"))

    def test_policy_requires_softmax_head(self):
        with pytest.raises(ContractError):
            SayPolicy(LinearScorer("say", "hanoi", head="sigmoid"))

    def test_zero_weights_give_uniform_lexicographic_top_m(self):
        spec = reset("hanoi", 0, "train")
        vocab = get_env("hanoi").admissible_actions(spec)
        probs = self._uniform_policy().action_probs(History(spec.init_obs), spec.goal, vocab)
        top = say_top_m(probs, vocab, 3)
        assert [a.text for a, _ in top] == [a.text for a in vocab[:3]]
        for _, p in top:
            assert p == pytest.approx(1.0 / len(vocab))
        # the uniform backend proposes through the same top-m rule
        uniform = UniformSay(ReplayCache(spec))
        for m in (1, 3, len(vocab), len(vocab) + 1):
            assert uniform.propose(History(spec.init_obs), m) == [
                (a, 1.0 / len(vocab)) for a in vocab[:m]
            ]

    def test_top_m_clamps_with_warning(self):
        # the clamp is silent, as in every other proposer
        spec = reset("hanoi", 0, "train")
        vocab = get_env("hanoi").admissible_actions(spec)
        policy = self._uniform_policy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = policy.action_probs(History(spec.init_obs), spec.goal, vocab)
            top = say_top_m(probs, vocab, 99)
        assert len(top) == len(vocab)
        assert sum(p for _, p in top) == pytest.approx(1.0)

    def test_top_m_validates_arguments(self):
        spec = reset("hanoi", 0, "train")
        vocab = get_env("hanoi").admissible_actions(spec)
        probs = self._uniform_policy().action_probs(History(spec.init_obs), spec.goal, vocab)
        with pytest.raises(ContractError):
            say_top_m(probs, vocab, 0)
        with pytest.raises(ContractError):
            say_top_m(np.array([]), [], 1)
        uniform = UniformSay(ReplayCache(spec))
        with pytest.raises(ContractError):
            uniform.propose(History(spec.init_obs), 0)


class TestPerfectSay:
    def test_includes_expert_with_uniform_mass(self):
        spec = reset("hanoi", 0, "train")
        vocab = get_env("hanoi").admissible_actions(spec)
        expert = vocab[0]
        out = perfect_say(expert, vocab, 3, seed=7)
        assert len(out) == 3
        assert expert.text in {a.text for a, _ in out}
        for _, p in out:
            assert p == pytest.approx(1.0 / 3)

    def test_m_one_returns_only_the_expert(self):
        spec = reset("hanoi", 0, "train")
        vocab = get_env("hanoi").admissible_actions(spec)
        assert perfect_say(vocab[2], vocab, 1, seed=0) == [(vocab[2], 1.0)]

    def test_deterministic_per_seed(self):
        spec = reset("hanoi", 0, "train")
        vocab = get_env("hanoi").admissible_actions(spec)
        a = perfect_say(vocab[0], vocab, 4, seed=3)
        b = perfect_say(vocab[0], vocab, 4, seed=3)
        assert a == b


class TestTraining:
    @pytest.mark.parametrize("env_id, kind, batch_size", [
        pytest.param(env_id, kind, size, id=f"{kind}-{env_id}{suffix}")
        for size, suffix in [(7, ""), (1, "-batch-1"), (10_000, "-batch-above-dataset")]
        for kind in ("can", "pay", "say") for env_id in ENV_IDS
    ])
    def test_batched_training_matches_the_per_row_loop(self, env_id, kind, batch_size):
        from saycanpay.data import generate_split, make_can_samples, make_pay_samples

        env = get_env(env_id)
        trajectories = generate_split(env, "train", 12, 0)
        dataset = {
            "can": lambda: make_can_samples(trajectories, seed=1),
            "pay": lambda: make_pay_samples(trajectories, seed=1),
            "say": lambda: trajectories,
        }[kind]()
        # several epochs of full and partial minibatches, of one sample each,
        # and of one minibatch holding the whole training split
        config = TrainConfig(epochs=4, batch_size=batch_size, seed=1)
        n_samples = sum(len(t.actions) for t in dataset) if kind == "say" else len(dataset)
        assert (batch_size > n_samples) == (batch_size == 10_000)
        model = train(kind, dataset, config, env_id, env=env)
        scorer = model.scorer if kind == "say" else model
        weights, bias, epoch_losses, val_metric = reference_train(
            kind, dataset, config, env
        )
        assert scorer.weights.tobytes() == weights.tobytes()  # -0.0 is not +0.0
        assert scorer.bias == bias
        assert scorer.epoch_losses == epoch_losses
        assert scorer.val_metric == val_metric

    def test_weights_no_training_sample_reaches_stay_positive_zero(self):
        """A hand-built Pay set: its samples share one goal and history (one
        `featurize` call) and act on distinct words, so every validation
        sample holds buckets no training sample does, and words hashing to
        buckets 0 and DIM - 1 sit in a training and a validation sample.
        Training over the held buckets gives the dense reference's bytes, and
        every weight no training sample reaches is +0.0, not -0.0."""
        from saycanpay.data import PaySample

        edge_words = {0: "w10821", DIM - 1: "w4216"}
        assert {b: bucket(f"a:{w}") for b, w in edge_words.items()} == {0: 0, DIM - 1: DIM - 1}
        config = TrainConfig(epochs=3, batch_size=4, seed=5)
        n = 12
        rng = np.random.default_rng(config.seed)
        train_idx, val_idx = models._split_train_val(n, config.val_fraction, rng)
        words = [f"v{i}" for i in range(n)]
        words[train_idx[0]], words[val_idx[0]] = edge_words[0], edge_words[DIM - 1]
        goal = GoalSpec(text="reach the far room", predicate=("at", "far"))
        history = History("agent in near room.")
        dataset = [PaySample(history, goal, ActionInstance.from_text(w, op=(w,)), i / n)
                   for i, w in enumerate(words)]
        scorer = train("pay", dataset, config, "gridworld")
        weights, bias, epoch_losses, val_metric = reference_train("pay", dataset, config)
        assert scorer.weights.tobytes() == weights.tobytes()
        assert (scorer.bias, scorer.epoch_losses, scorer.val_metric) == (
            bias, epoch_losses, val_metric)

        def held(indices):
            return {int(b) for i in indices
                    for b in featurize(goal, history, [dataset[i].action])[1]}

        trained = held(train_idx)
        assert 0 in trained and DIM - 1 in held(val_idx) - trained
        unreached = scorer.weights[np.setdiff1d(np.arange(DIM), sorted(trained))]
        assert not unreached.any() and not np.signbit(unreached).any()
        assert scorer.weights[sorted(trained)].all()

    @pytest.mark.parametrize("env_id", ["blocks", "gridworld"])
    @pytest.mark.parametrize("kind", ["can", "pay", "say"])
    def test_training_on_featurize_rows_matches_counter_rows(self, env_id, kind, monkeypatch):
        """The same model, bit for bit, whether its rows come from `featurize`
        or are rebuilt from feature_grams, bucket and a Counter.  Both sides
        train on this machine's BLAS, so the check holds on any ddot kernel."""
        from saycanpay.data import generate_split, make_can_samples, make_pay_samples

        env = get_env(env_id)
        trajectories = generate_split(env, "train", 20, 0)
        dataset = {
            "can": lambda: make_can_samples(trajectories, seed=2),
            "pay": lambda: make_pay_samples(trajectories, seed=2),
            "say": lambda: trajectories,
        }[kind]()
        config = TrainConfig(epochs=2, seed=2)

        def trained():
            model = train(kind, dataset, config, env_id, env=env)
            return model.scorer if kind == "say" else model

        fast = trained()
        monkeypatch.setattr(models, "featurize", reference_featurize)
        slow = trained()
        assert np.array_equal(fast.weights, slow.weights)
        assert fast.bias == slow.bias

    @pytest.mark.parametrize(
        "indices, values",
        [([3, 2**15], [64.0, 64.0]), ([3, 5], [64.0, 0.1]), ([3, 5], [64.0, 256 * 64.0])],
        ids=["bucket-2^15", "value-not-a-count", "count-256"],
    )
    def test_a_row_that_does_not_narrow_is_refused(self, indices, values):
        rows = (np.array([0, 2]), np.array(indices), np.array(values))
        with pytest.raises(ContractError, match="int16 buckets and counts of at most 255"):
            models._compact(rows, SCALES["full"])

    def test_say_samples_store_three_bytes_per_nonzero(self):
        """Training keeps each sample's rows as int16 buckets and uint8
        counts, and the counts times the plain scale are `featurize`'s values
        exactly."""
        from saycanpay.data import generate_split

        env = get_env("blocks")
        trajectories = generate_split(env, "train", 3, 0)
        samples = list(models._say_samples(trajectories, env, "plain"))
        assert len(samples) == sum(len(t.actions) for t in trajectories)
        nnz = sum(len(buckets) for (_, buckets, _), _ in samples)
        stored = sum(b.nbytes + c.nbytes for (_, b, c), _ in samples)
        assert nnz > 0 and stored == 3 * nnz
        traj = trajectories[0]
        vocab = env.admissible_actions(traj.episode)
        indptr, indices, values = featurize(
            traj.episode.goal, History(traj.episode.init_obs), vocab, "plain"
        )
        (lengths, buckets, counts), _ = samples[0]
        assert buckets.dtype == np.int16 and counts.dtype == np.uint8
        assert np.array_equal(np.concatenate([[0], np.cumsum(lengths)]), indptr)
        assert np.array_equal(buckets.astype(np.intp), indices)
        assert (counts * SCALES["plain"]).tobytes() == values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), scale=st.sampled_from(sorted(SCALES.values())))
    def test_compact_rows_widen_back_exactly(self, data, scale):
        """Rows of distinct buckets below DIM and counts 1-255, narrowed by
        `_compact` and widened as a training minibatch widens them (buckets
        to intp, counts into a float64 buffer times the scale), are the rows
        given, byte for byte."""
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, DIM - 1), st.integers(1, 255), max_size=40),
            min_size=1, max_size=5,
        ))
        indices = np.array([b for row in rows for b in sorted(row)], dtype=np.intp)
        values = np.array([scale * row[b] for row in rows for b in sorted(row)])
        indptr = np.array([0, *accumulate(len(row) for row in rows)])
        lengths, buckets, counts = models._compact((indptr, indices, values), scale)
        widened, wide = np.empty(len(indices), np.intp), np.empty(len(indices))
        np.concatenate([buckets], out=widened)
        np.concatenate([counts], out=wide)
        wide *= scale
        assert np.array_equal(np.concatenate([[0], np.cumsum(lengths)]), indptr)
        assert widened.tobytes() == indices.tobytes()
        assert wide.tobytes() == values.tobytes()

    def test_empty_datasets_rejected(self):
        config = TrainConfig(epochs=1)
        for kind in ("can", "pay", "say"):
            with pytest.raises(ContractError):
                train(kind, [], config, "hanoi", env=get_env("hanoi"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            train("value", [], TrainConfig(), "hanoi")

    def test_trained_models_have_metrics_and_losses(self, tiny_model_dir):
        for kind in ("can", "pay", "say"):
            scorer = LinearScorer.load(
                tiny_model_dir / f"gridworld_{kind}_seed0.json"
            )
            assert scorer.val_metric is not None
            assert scorer.kind == kind

    def test_can_training_separates_positives(self, tiny_data_dir):
        from saycanpay.data import make_can_samples, read_trajectories, split_path

        env = get_env("hanoi")
        trajectories = read_trajectories(
            env, split_path(tiny_data_dir, "hanoi", "train")
        )
        samples = make_can_samples(trajectories, seed=0)
        scorer = train("can", samples, TrainConfig(), "hanoi")
        wins = 0
        for s in samples:
            pos, neg = scorer.score(s.goal, s.history, [s.positive, s.neg_cross])
            wins += pos > neg
        assert wins / len(samples) > 0.7


class TestTokenTrie:
    def _vocab(self):
        return [
            ActionInstance.from_text("pick up ball", op=("a",)),
            ActionInstance.from_text("pick up key", op=("b",)),
            ActionInstance.from_text("done picking up", op=("done",), is_done=True),
        ]

    def test_token_distribution_marginalizes(self):
        trie = TokenTrie(self._vocab())
        dist = trie.token_distribution([0.5, 0.3, 0.2], [])
        assert dist["pick"] == pytest.approx(0.8)
        assert dist["done"] == pytest.approx(0.2)
        deeper = trie.token_distribution([0.5, 0.3, 0.2], ["pick", "up"])
        assert deeper["ball"] == pytest.approx(0.5 / 0.8)
        assert deeper["key"] == pytest.approx(0.3 / 0.8)

    def test_bad_prefix_and_zero_mass_rejected(self):
        trie = TokenTrie(self._vocab())
        with pytest.raises(ContractError):
            trie.token_distribution([0.5, 0.3, 0.2], ["jump"])
        with pytest.raises(ContractError):
            trie.token_distribution([0.0, 0.0, 1.0], ["pick"])

    def test_greedy_follows_argmax_tokens(self):
        trie = TokenTrie(self._vocab())
        assert trie.greedy_action([0.5, 0.3, 0.2]).text == "pick up ball"
        assert trie.greedy_action([0.1, 0.2, 0.7]).text == "done picking up"
        # a shared prefix can beat the individually most likely action
        assert trie.greedy_action([0.34, 0.33, 0.33]).text == "pick up ball"

    def test_greedy_ties_break_lexicographically(self):
        trie = TokenTrie(self._vocab())
        assert trie.greedy_action([0.25, 0.25, 0.5]).text == "done picking up"
        assert trie.greedy_action([0.25, 0.25, 0.0]).text == "pick up ball"

    def test_empty_vocab_rejected(self):
        with pytest.raises(ContractError):
            TokenTrie([])


class _FakeProposerServer:
    def __init__(self, response: dict):
        self.response = response
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.sock.accept()
        buf = b""
        while b"\n" not in buf:
            buf += conn.recv(65536)
        self.request = json.loads(buf.split(b"\n", 1)[0])
        try:
            conn.sendall((json.dumps(self.response) + "\n").encode())
        except OSError:  # the client hangs up on an oversized reply
            pass
        conn.close()

    def close(self):
        self.sock.close()


class TestExternalSay:
    def test_roundtrip_with_fake_server(self):
        server = _FakeProposerServer(
            {
                "candidates": [
                    {
                        "text": "pick up red ball",
                        "logprob": math.log(0.6),
                        "token_logprobs": [math.log(0.9)] * 4,
                    },
                    {
                        "text": "done picking up",
                        "logprob": math.log(0.2),
                        "token_logprobs": [math.log(0.8)] * 3,
                    },
                ]
            }
        )
        goal = GoalSpec(text="pick up the red ball", predicate=("p",))
        history = History("room 1 has red ball, agent.")
        out = external_say(f"127.0.0.1:{server.port}", history, goal, m=2)
        server.thread.join(timeout=5)
        server.close()
        assert server.request == {
            "goal": goal.text,
            "init_obs": history.init_obs,
            "history": [],
            "m": 2,
        }
        assert [text for text, _ in out] == ["pick up red ball", "done picking up"]
        assert [prob for _, prob in out] == pytest.approx([0.6, 0.2])

    def test_unreachable_endpoint_raises_adapter_error(self):
        goal = GoalSpec(text="g", predicate=("p",))
        with pytest.raises(AdapterError):
            external_say("127.0.0.1:1", History("obs"), goal, m=2, timeout=0.5)

    def test_malformed_payload_raises_adapter_error(self):
        goal = GoalSpec(text="g", predicate=("p",))
        for payload in (
            {"unexpected": []},
            {"candidates": [{"text": "go", "logprob": math.nan,
                             "token_logprobs": [0.0]}]},
            {"candidates": [{"text": "go", "logprob": 0.0,
                             "token_logprobs": [-math.inf]}]},
            {"candidates": [{"text": "go", "logprob": 0.0,
                             "token_logprobs": [0.0]}] * 2},
            {"candidates": [], "padding": "x" * MAX_REPLY_BYTES},
            # a log-probability above 0, which exp would overflow at 1000
            {"candidates": [{"text": "go", "logprob": 1000.0,
                             "token_logprobs": [0.0]}]},
            {"candidates": [{"text": "go", "logprob": -1.0,
                             "token_logprobs": [0.5]}]},
            {"candidates": [{"text": 7, "logprob": 0.0,
                             "token_logprobs": [0.0]}]},
        ):
            server = _FakeProposerServer(payload)
            with pytest.raises(AdapterError):
                external_say(f"127.0.0.1:{server.port}", History("obs"), goal, m=1)
            server.close()
