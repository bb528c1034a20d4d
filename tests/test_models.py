"""Classifier contracts: closed-form checks, invariants, determinism, round-trips."""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from courtcast.adjust import AveragingScheme, Seeding, run_seasons
from courtcast.features import (
    SITE_ORDER,
    FeatureScheme,
    Label,
    MatchInstance,
    build_dataset,
    encode_runs,
    feature_names,
    split_runs,
)
from courtcast.models import (
    ModelError,
    ModelKind,
    gradient_check,
    load_model,
    p_win,
    predict,
    resolve_label,
    save_model,
    train,
    train_group,
)
from courtcast.models import forest as forest_mod
from courtcast.models import mlp as mlp_mod
from courtcast.models import naive_bayes as nb_mod
from courtcast.models import tree as tree_mod
from courtcast.stats import Site
from courtcast.synthetic import SyntheticLeagueSpec, generate_league
from courtcast.models.base import TrainedModel, resolve_hyper
from courtcast.models.base import save_model as save_with
from tests.oracles import grow_forest, grow_tree, mlp_encode, mlp_fit, naive_bayes_p_win

DATE = dt.date(2011, 2, 1)
ALL_KINDS = list(ModelKind)


def make_instance(features, label=Label.WIN, location=Site.NEUTRAL,
                  scheme=FeatureScheme.ADJ_EFF, team="aaa") -> MatchInstance:
    vec = np.asarray(features, dtype=float)
    assert len(vec) == len(feature_names(scheme))
    return MatchInstance(scheme=scheme, location=location, features=vec,
                         label=label, date=DATE, season=2011,
                         team_first=team, team_second="zzz")


def check_gradients(model, inst: MatchInstance, epsilon: float = 1e-5) -> float:
    """``gradient_check`` at an instance's features, site and label."""
    return gradient_check(model, inst.features, SITE_ORDER.index(inst.location),
                          int(inst.label is Label.WIN), epsilon=epsilon)


def separable_arrays(n: int, seed: int,
                     gap: float = 8.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, site, y)`` of ``n`` adj_eff rows whose labels follow net
    adjusted efficiency with a hard margin: separable."""
    rng = np.random.default_rng(seed)
    rows, sites, labels = [], [], []
    while len(rows) < n:
        a_oe, b_oe = rng.uniform(90, 120, size=2)
        a_de, b_de = rng.uniform(90, 120, size=2)
        margin = (a_oe - a_de) - (b_oe - b_de)
        if abs(margin) < gap:
            continue
        rows.append([a_oe, a_de, b_oe, b_de])
        labels.append(int(margin > 0))
        sites.append(int(rng.integers(0, 3)))
    return np.array(rows), np.array(sites), np.array(labels)


def separable_instances(n: int, seed: int, gap: float = 8.0) -> list[MatchInstance]:
    """The rows of :func:`separable_arrays` as instances."""
    X, site, y = separable_arrays(n, seed, gap)
    return [make_instance(x, label=Label.WIN if won else Label.LOSS, location=SITE_ORDER[s])
            for x, s, won in zip(X, site.tolist(), y.tolist())]


def internal_node_sizes(tree: tree_mod.Tree) -> list[int]:
    """Row counts of every internal (non-leaf) node, for prune auditing."""
    return tree.n[tree.feature != tree_mod.LEAF].tolist()


def accuracy(model, instances) -> float:
    hits = sum(predict(model, inst)[0] is inst.label for inst in instances)
    return hits / len(instances)


class TestTieRule:
    def test_resolve_label(self):
        assert resolve_label(0.7, Site.AWAY) is Label.WIN
        assert resolve_label(0.3, Site.HOME) is Label.LOSS
        # exactly 0.5: the home side wins; neutral goes to the first team
        assert resolve_label(0.5, Site.HOME) is Label.WIN
        assert resolve_label(0.5, Site.NEUTRAL) is Label.WIN
        assert resolve_label(0.5, Site.AWAY) is Label.LOSS


class TestTrainingValidation:
    def test_single_class_rejected(self):
        insts = [make_instance([1, 2, 3, 4], Label.WIN) for _ in range(10)]
        for kind in ALL_KINDS:
            with pytest.raises(ModelError, match="both classes"):
                train(insts, kind)

    def test_nan_rejected(self):
        insts = separable_instances(10, seed=0)
        bad = make_instance([float("nan"), 1, 2, 3], Label.LOSS)
        for kind in ALL_KINDS:
            with pytest.raises(ModelError, match="non-finite"):
                train(insts + [bad], kind)

    def test_empty_rejected(self):
        with pytest.raises(ModelError, match="no training"):
            train([], ModelKind.NAIVE_BAYES_KDE)

    def test_mixed_schemes_rejected(self):
        a = make_instance([1, 2, 3, 4], Label.WIN)
        b = make_instance([0.0] * 8, Label.LOSS, scheme=FeatureScheme.DIFF_LIKE_VS_LIKE)
        with pytest.raises(ModelError, match="mixed"):
            train([a, b], ModelKind.DECISION_TREE)

    def test_unlabeled_rejected(self):
        insts = separable_instances(10, seed=0) + [make_instance([1, 2, 3, 4], None)]
        with pytest.raises(ModelError, match="unlabeled instance in training data"):
            train(insts, ModelKind.DECISION_TREE)

    def test_unknown_hyper_rejected(self):
        insts = separable_instances(10, seed=0)
        with pytest.raises(ModelError, match="unknown hyper"):
            train(insts, ModelKind.MLP, hyper={"learning_rte": 0.3})

    def test_unknown_kind_is_a_model_error(self):
        X, site, y = separable_arrays(10, seed=0)
        valid = "'naive_bayes_kde', 'mlp', 'decision_tree', 'random_forest'"
        with pytest.raises(ModelError, match=f"kind must be one of \\[{valid}\\], got 'bogus'"):
            train_group({FeatureScheme.ADJ_EFF: X}, site, y, "bogus")
        with pytest.raises(ModelError, match=valid):
            train(separable_instances(10, seed=0), "bogus")
        schemes = [s.value for s in FeatureScheme]
        with pytest.raises(ModelError) as refused:
            train_group({"adj_eff": X, "elo": X}, site, y, ModelKind.DECISION_TREE)
        assert str(refused.value) == f"scheme must be one of {schemes}, got 'elo'"

    def test_predict_scheme_mismatch_rejected(self):
        model = train(separable_instances(10, seed=0), ModelKind.NAIVE_BAYES_KDE)
        probe = make_instance([0.0] * 8, None, scheme=FeatureScheme.DIFF_LIKE_VS_LIKE)
        with pytest.raises(ModelError, match="feature names"):
            predict(model, probe)


class TestNaiveBayesClosedForm:
    """Fixture with one training point per class and a forced unit bandwidth.

    Three of the four features are identical across classes and cancel; the
    first carries -1 (loss) vs +1 (win).  The posterior is then the textbook
    two-Gaussian formula, evaluated by hand.
    """

    @pytest.fixture
    def model(self):
        insts = [make_instance([-1, 5, 5, 5], Label.LOSS),
                 make_instance([+1, 5, 5, 5], Label.WIN)]
        return train(insts, ModelKind.NAIVE_BAYES_KDE, hyper={"bandwidth": 1.0})

    def test_midpoint_is_half(self, model):
        p = predict(model, make_instance([0, 5, 5, 5], None))[1]
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_at_class_mean(self, model):
        # e^0 / (e^0 + e^-2) = 0.8807970779778823
        p = predict(model, make_instance([1, 5, 5, 5], None))[1]
        assert p == pytest.approx(0.8807970779778823, abs=1e-9)
        p = predict(model, make_instance([-1, 5, 5, 5], None))[1]
        assert p == pytest.approx(1 - 0.8807970779778823, abs=1e-9)

    def test_constant_feature_has_no_discriminative_effect(self):
        base = [make_instance([-1, 5, 5, 5], Label.LOSS),
                make_instance([+1, 5, 5, 5], Label.WIN)]
        other = [make_instance([-1, 9, 9, 9], Label.LOSS),
                 make_instance([+1, 9, 9, 9], Label.WIN)]
        m1 = train(base, ModelKind.NAIVE_BAYES_KDE, hyper={"bandwidth": 1.0})
        m2 = train(other, ModelKind.NAIVE_BAYES_KDE, hyper={"bandwidth": 1.0})
        p1 = predict(m1, make_instance([0.4, 5, 5, 5], None))[1]
        p2 = predict(m2, make_instance([0.4, 9, 9, 9], None))[1]
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_auto_bandwidth_formula(self):
        insts = separable_instances(40, seed=3)
        model = train(insts, ModelKind.NAIVE_BAYES_KDE)
        for cls in (0, 1):
            pts = model.params.points[cls]
            expected = np.maximum(np.std(pts, axis=0, ddof=1) * len(pts) ** (-0.2), 1e-6)
            assert np.allclose(model.params.bandwidths[cls], expected)

    def test_bandwidth_floor(self):
        # constant feature within a class -> sigma 0 -> floor applies
        insts = [make_instance([0, 1, 1, 1], Label.LOSS),
                 make_instance([0, 1, 1, 1], Label.LOSS),
                 make_instance([1, 2, 2, 2], Label.WIN),
                 make_instance([1, 2, 2, 2], Label.WIN)]
        model = train(insts, ModelKind.NAIVE_BAYES_KDE)
        assert np.all(model.params.bandwidths[0] == 1e-6)


class TestMlp:
    def test_zero_weight_network_outputs_half(self):
        model = train(separable_instances(20, seed=1), ModelKind.MLP,
                      hyper={"epochs": 0})
        model.params.theta[:] = 0.0   # W1, b1, w2 and b2
        prob = predict(model, make_instance([100, 100, 100, 100], None))[1]
        assert prob == 0.5

    def test_huge_learning_rate_saturates_without_overflow(self):
        # exp(-z) overflows to inf inside the logistic, which reads 0.0
        insts = separable_instances(40, seed=4)
        model = train(insts, ModelKind.MLP,
                      hyper={"epochs": 5, "learning_rate": 1e10}, seed=1)
        X, site, _ = separable_arrays(40, seed=4)
        probs = p_win(model, X, site)
        assert np.all((0.0 <= probs) & (probs <= 1.0))

    def test_diverging_weights_are_refused(self):
        # the weights overflow to inf and then turn NaN, with no warning
        X, site, y = separable_arrays(40, seed=4)
        hyper = {"learning_rate": 1e308, "momentum": 1.0, "epochs": 200}
        with pytest.raises(ModelError, match=r"learning_rate 1e\+308 and momentum 1\.0"):
            train_group({FeatureScheme.ADJ_EFF: X}, site, y, ModelKind.MLP, hyper)

    def test_a_non_finite_weight_is_never_written(self, tmp_path):
        model = train(separable_instances(20, seed=1), ModelKind.MLP, hyper={"epochs": 0})
        model.params.theta[0] = np.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(model, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    def test_hidden_width_default(self):
        # 4 numeric features + 1 site attribute + 2 classes -> ceil(7/2) = 4
        model = train(separable_instances(20, seed=1), ModelKind.MLP,
                      hyper={"epochs": 1})
        p = model.params
        assert p.W1.shape[0] == 4
        # theta holds W1 (4 x (4 + 3)), b1, w2 and b2, and W1, b1, w2 view it
        assert p.theta.shape == (4 * 7 + 4 + 4 + 1,)
        assert all(np.shares_memory(v, p.theta) for v in (p.W1, p.b1, p.w2))

    def test_gradient_check_random_networks(self):
        insts = separable_instances(30, seed=2)
        for seed in range(5):
            model = train(insts, ModelKind.MLP, hyper={"epochs": 0}, seed=seed)
            err = check_gradients(model, insts[seed], epsilon=1e-5)
            assert err <= 1e-4

    def test_gradient_check_zero_network_exact(self):
        model = train(separable_instances(10, seed=3), ModelKind.MLP,
                      hyper={"epochs": 0})
        model.params.theta[:] = 0.0   # W1, b1, w2 and b2
        err = check_gradients(model, make_instance([1, 2, 3, 4], Label.WIN))
        assert err <= 1e-9

    def test_gradient_check_catches_corruption(self, monkeypatch):
        insts = separable_instances(10, seed=4)
        model = train(insts, ModelKind.MLP, hyper={"epochs": 0})
        real = mlp_mod._gradients

        def corrupted(p, x, target, grad):
            real(p, x, target, grad)
            grad.W1[:] = grad.W1 * 1.5 + 0.01

        monkeypatch.setattr(mlp_mod, "_gradients", corrupted)
        assert check_gradients(model, insts[0]) > 1e-4

    def test_training_runs_the_backprop_that_is_checked(self, monkeypatch):
        # fit and gradient_check share one _gradients: corrupting it changes
        # what fit learns, so a second copy of backprop could not pass both
        insts = separable_instances(10, seed=4)
        clean = train(insts, ModelKind.MLP, hyper={"epochs": 2}).params.theta
        real = mlp_mod._gradients

        def corrupted(p, x, target, grad):
            real(p, x, target, grad)
            grad.W1[:] = grad.W1 * 1.5 + 0.01

        monkeypatch.setattr(mlp_mod, "_gradients", corrupted)
        model = train(insts, ModelKind.MLP, hyper={"epochs": 2})
        assert model.params.theta.tobytes() != clean.tobytes()
        assert check_gradients(model, insts[0]) > 1e-4

    def test_gradient_check_rejects_bad_input(self):
        model = train(separable_instances(10, seed=5), ModelKind.MLP, hyper={"epochs": 0})
        for features in ([1.0, 2.0, float("nan"), 4.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ModelError, match="4 finite feature values"):
                gradient_check(model, np.array(features), 0, 1)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        for site in (-1, 3, 0.5, None, "home", [0]):
            with pytest.raises(ModelError, match="needs site 0-2 and label 0 or 1"):
                gradient_check(model, x, site, 1)
        for label in (-1, 2, 0.5, None, "win", [1]):
            with pytest.raises(ModelError, match="needs site 0-2 and label 0 or 1"):
                gradient_check(model, x, 2, label)
        assert gradient_check(model, x, np.int64(2), np.int64(0)) <= 1e-4

    def test_epsilon_validation(self):
        model = train(separable_instances(10, seed=5), ModelKind.MLP,
                      hyper={"epochs": 0})
        for eps in (0.0, -1e-5, 1e-2):
            with pytest.raises(ModelError, match="epsilon"):
                check_gradients(model, separable_instances(1, seed=0)[0], epsilon=eps)

    def test_deterministic_given_seed(self):
        insts = separable_instances(60, seed=6)
        probes = separable_instances(20, seed=7)
        m1 = train(insts, ModelKind.MLP, hyper={"epochs": 20}, seed=11)
        m2 = train(insts, ModelKind.MLP, hyper={"epochs": 20}, seed=11)
        assert all(predict(m1, p) == predict(m2, p) for p in probes)


class TestTree:
    def test_prepruning_floor(self):
        insts = separable_instances(300, seed=8)
        model = train(insts, ModelKind.DECISION_TREE)
        floor = math.ceil(0.01 * len(insts))
        sizes = internal_node_sizes(model.params)
        assert sizes, "tree should have split at least once"
        assert min(sizes) >= floor

    def test_site_multiway_split(self):
        # Labels depend only on the site -> the tree must use the site split.
        rng = np.random.default_rng(9)
        insts = []
        for _ in range(120):
            site = (Site.HOME, Site.AWAY, Site.NEUTRAL)[int(rng.integers(0, 3))]
            label = Label.WIN if site is Site.HOME else Label.LOSS
            insts.append(make_instance(rng.uniform(90, 110, 4), label, location=site))
        model = train(insts, ModelKind.DECISION_TREE)
        assert accuracy(model, insts) == 1.0

    def test_constant_features_yield_single_leaf(self):
        insts = ([make_instance([1, 1, 1, 1], Label.WIN) for _ in range(6)]
                 + [make_instance([1, 1, 1, 1], Label.LOSS) for _ in range(4)])
        model = train(insts, ModelKind.DECISION_TREE)
        assert internal_node_sizes(model.params) == []
        label, p = predict(model, make_instance([1, 1, 1, 1], None))
        assert p == pytest.approx(0.6)
        assert label is Label.WIN

    def test_a_cut_between_adjacent_doubles_separates_them(self):
        # the midpoint of these two doubles rounds onto the upper one
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        assert (low + high) / 2.0 == high
        X = np.array([[low], [low], [high], [high]])
        site, y = np.zeros(4, dtype=int), np.array([0, 0, 1, 1])
        t = tree_mod.fit(X, site, y, {"min_node_fraction": 0.0}, seed=0)
        assert t.feature.tolist() == [0, tree_mod.LEAF, tree_mod.LEAF]
        assert t.threshold[0] == low
        assert tree_mod.p_win(t, X, site).tolist() == [0.0, 0.0, 1.0, 1.0]
        for t in forest_mod.fit(X, site, y, {"n_trees": 5, "candidate_features": None}, 0):
            assert t.n[t.feature == tree_mod.LEAF].min() >= 1

    def test_single_leaf_round_trips(self, tmp_path):
        insts = ([make_instance([1, 1, 1, 1], Label.WIN) for _ in range(6)]
                 + [make_instance([1, 1, 1, 1], Label.LOSS) for _ in range(4)])
        for kind in (ModelKind.DECISION_TREE, ModelKind.RANDOM_FOREST):
            model = train(insts, kind)
            save_model(model, tmp_path / "leaf.json")
            back = load_model(tmp_path / "leaf.json")
            probe = make_instance([1, 1, 1, 1], None)
            assert predict(back, probe) == predict(model, probe)


class TestForest:
    def test_default_twenty_trees(self):
        model = train(separable_instances(100, seed=10), ModelKind.RANDOM_FOREST)
        assert len(model.params) == 20

    def test_probability_is_vote_fraction_and_majority_consistent(self):
        model = train(separable_instances(150, seed=11), ModelKind.RANDOM_FOREST)
        for inst in separable_instances(30, seed=12):
            X, site = inst.features[None], np.array([SITE_ORDER.index(inst.location)])
            votes = [resolve_label(float(tree_mod.p_win(t, X, site)[0]), inst.location)
                     for t in model.params]
            label, p = predict(model, inst)
            wins = sum(v is Label.WIN for v in votes)
            assert p == wins / len(votes)
            if wins != len(votes) - wins:
                mode = Label.WIN if wins > len(votes) - wins else Label.LOSS
                assert label is mode

    def test_deterministic_given_seed(self):
        insts = separable_instances(80, seed=13)
        probes = separable_instances(25, seed=14)
        m1 = train(insts, ModelKind.RANDOM_FOREST, seed=21)
        m2 = train(insts, ModelKind.RANDOM_FOREST, seed=21)
        assert all(predict(m1, p) == predict(m2, p) for p in probes)


def league_runs():
    """A generated league, its runs and its test season."""
    spec = SyntheticLeagueSpec(n_teams=10, games_per_team=12, n_seasons=2, seed=4)
    store, _ = generate_league(spec)
    test_season = store.seasons[-1]
    return store, run_seasons(store, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                              through=test_season), test_season


def generated_league():
    """A generated league's test-season run and its (train, test) instances."""
    store, runs, test_season = league_runs()
    train_set, test_set = build_dataset(store, runs, FeatureScheme.ADJ_FOUR_FACTORS,
                                        test_season)
    return runs[test_season], train_set, test_set


@pytest.fixture(scope="module")
def league_instances():
    """(train, test) instances of a generated league, and the test games'
    features and site codes from ``encode_runs``; every third test game is
    moved to a neutral site, so the test rows hold all three sites."""
    run, train_set, test_set = generated_league()
    test_set = [dataclasses.replace(inst, location=Site.NEUTRAL) if k % 3 == 0 else inst
                for k, inst in enumerate(test_set)]
    Xs, site, _ = encode_runs([run], [FeatureScheme.ADJ_FOUR_FACTORS])
    site[::3] = SITE_ORDER.index(Site.NEUTRAL)
    return train_set, test_set, Xs[FeatureScheme.ADJ_FOUR_FACTORS], site


def walk(tree: tree_mod.Tree, x: np.ndarray, site_code: int) -> float:
    """Reference walk of one row down a node table, in Python scalars."""
    node = 0
    while tree.feature[node] != tree_mod.LEAF:
        f = tree.feature[node]
        branch = site_code if f == tree_mod.SITE_FEATURE else int(not x[f] <= tree.threshold[node])
        node = tree.children[node, branch]
    return int(tree.wins[node]) / int(tree.n[node])


class TestBatchPrediction:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_batch_equals_one_instance_at_a_time(self, league_instances, kind):
        train_set, test_set, X, site = league_instances
        hyper = {"epochs": 20} if kind is ModelKind.MLP else None
        model = train(train_set, kind, hyper=hyper, seed=3)
        assert set(site.tolist()) == {0, 1, 2}
        batch = p_win(model, X, site)
        one = np.array([predict(model, inst)[1] for inst in test_set])
        assert batch.tobytes() == one.tobytes()

    def test_tree_walk_matches_a_scalar_reference(self, league_instances):
        train_set, _, X, site = league_instances
        model = train(train_set, ModelKind.DECISION_TREE, hyper={"min_node_fraction": 0.0})
        want = [walk(model.params, x, code) for x, code in zip(X, site)]
        assert tree_mod.p_win(model.params, X, site).tolist() == want

    def test_checks_rows(self):
        model = train(separable_instances(20, seed=1), ModelKind.DECISION_TREE)
        with pytest.raises(ModelError, match="does not fit 4 features"):
            p_win(model, np.zeros((2, 3)), [0, 1])
        with pytest.raises(ModelError, match="does not fit 4 features"):
            p_win(model, np.zeros((2, 4)), [0])
        with pytest.raises(ModelError, match="site codes"):
            p_win(model, np.zeros((2, 4)), [0, 3])
        with pytest.raises(ModelError, match="non-finite"):
            p_win(model, [[1.0, 2.0, np.inf, 4.0]], [2])


# A few repeated values, so batches share column values, beside arbitrary ones.
NB_VALUES = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.25]) | st.floats(-40.0, 40.0)


@st.composite
def nb_cases(draw):
    """A fitted naive Bayes model and a batch to score: the batch may repeat
    rows, copy training rows, hold one row, and hit all three site codes."""
    d = draw(st.integers(1, 5))
    row = st.lists(NB_VALUES, min_size=d, max_size=d)
    X = np.array(draw(st.lists(row, min_size=2, max_size=10)))
    if draw(st.booleans()):
        X[:, 0] = 7.0   # a constant column: the bandwidth floor
    y = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=len(X) - 2,
                                        max_size=len(X) - 2)))
    site = np.array(draw(st.lists(st.integers(0, 2), min_size=len(X), max_size=len(X))))
    hp = {"bandwidth": draw(st.none() | st.floats(0.05, 5.0)), "bandwidth_floor": 1e-6}
    params = nb_mod.fit(X, site, y, hp, seed=0)
    rows = draw(st.lists(row | st.sampled_from(X.tolist()), min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))   # duplicate rows
    Q = np.array(rows, dtype=float)
    Q_site = np.array(draw(st.lists(st.integers(0, 2), min_size=len(Q), max_size=len(Q))))
    return params, Q, Q_site


class TestNaiveBayesBatch:
    @settings(max_examples=150, deadline=None)
    @given(case=nb_cases())
    def test_equals_the_row_loop_bit_for_bit(self, case):
        params, X, site = case
        got = nb_mod.p_win(params, X, site)
        assert got.tobytes() == naive_bayes_p_win(params, X, site).tobytes()

    def test_a_row_scores_the_same_in_any_batch(self, league_instances):
        train_set, _, X, site = league_instances
        model = train(train_set, ModelKind.NAIVE_BAYES_KDE)
        full = nb_mod.p_win(model.params, X, site)
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(X))
        assert nb_mod.p_win(model.params, X[perm], site[perm]).tobytes() == full[perm].tobytes()
        for size in (1, 2, 5, len(X) // 2):
            idx = rng.choice(len(X), size=size, replace=size == 5)
            assert nb_mod.p_win(model.params, X[idx], site[idx]).tobytes() == full[idx].tobytes()
        for i in range(len(X)):
            assert nb_mod.p_win(model.params, X[i:i + 1], site[i:i + 1])[0] == full[i]


ORACLE_SEEDS = (4, 9)
TREE_FIELDS = ("feature", "threshold", "children", "n", "wins")


@pytest.fixture(scope="module")
def scheme_arrays():
    """(X, site, y) of a generated league's training rows, per (seed, scheme)."""
    out = {}
    for seed in ORACLE_SEEDS:
        spec = SyntheticLeagueSpec(n_teams=12, games_per_team=14, n_seasons=2, seed=seed)
        store, _ = generate_league(spec)
        test_season = store.seasons[-1]
        runs = run_seasons(store, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                           through=test_season)
        train_runs, _ = split_runs(store, runs, test_season)
        Xs, site, y = encode_runs(train_runs, list(FeatureScheme))
        for scheme in FeatureScheme:
            out[seed, scheme] = Xs[scheme], site, y
    return out


def assert_same_trees(got: list[tree_mod.Tree], want: list[tree_mod.Tree]):
    """Node for node, bit for bit."""
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        for field in TREE_FIELDS:
            u, v = getattr(a, field), getattr(b, field)
            assert np.array_equal(u, v) and u.tobytes() == v.tobytes(), (k, field)


def default_candidates(X: np.ndarray) -> int:
    return math.ceil(math.sqrt(X.shape[1] + 1))


class TestGrowerMatchesOracle:
    """The lockstep grower against the recursive one it replaced."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("scheme", list(FeatureScheme))
    def test_tree(self, scheme_arrays, scheme, seed):
        X, site, y = scheme_arrays[seed, scheme]
        for fraction in (0.0, 0.01, 0.05):
            got = tree_mod.fit(X, site, y, {"min_node_fraction": fraction}, seed=seed)
            want = grow_tree(X, site, y, min_rows=math.ceil(fraction * len(y)))
            assert_same_trees([got], [want])

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("scheme", list(FeatureScheme))
    def test_forest(self, scheme_arrays, scheme, seed):
        X, site, y = scheme_arrays[seed, scheme]
        d = X.shape[1] + 1
        for k in (1, None, d + 1):
            got = forest_mod.fit(X, site, y, {"n_trees": 4, "candidate_features": k}, seed)
            want = grow_forest(X, site, y, 4, k or default_candidates(X), seed)
            assert_same_trees(got, want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_many_ties(self, data):
        """Integer-valued columns (with both signed zeros, and two adjacent
        doubles whose midpoint rounds up), duplicate rows, all sites."""
        d = data.draw(st.integers(1, 4))
        low = np.nextafter(1.0, 2.0)
        values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, low, np.nextafter(low, 2.0), 3.0])
        base = data.draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                  min_size=1, max_size=12))
        pick = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=40))
        X = np.array([base[i] for i in pick])
        n = len(X)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        site = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        min_rows = data.draw(st.integers(0, 6))
        got = tree_mod.grow_trees(X, site, y, [np.arange(n)], min_rows=min_rows,
                                  min_branch=max(2, min_rows))
        assert_same_trees(got, [grow_tree(X, site, y, min_rows=min_rows)])
        n_trees, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, d + 2))
        seed = data.draw(st.integers(0, 2**16))
        got = forest_mod.fit(X, site, y, {"n_trees": n_trees, "candidate_features": k}, seed)
        assert_same_trees(got, grow_forest(X, site, y, n_trees, k, seed))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("min_rows, min_branch", [(0, 3), (2, 10), (5, 25), (30, 30)])
    def test_nodes_too_small_for_an_admissible_split(self, scheme_arrays, seed,
                                                     min_rows, min_branch):
        """Nodes of ``min_rows`` to ``2 * min_branch`` rows leave the grower
        as leaves before any search; the oracle searches them and finds no
        admissible split."""
        X, site, y = scheme_arrays[seed, FeatureScheme.ADJ_FOUR_FACTORS]
        got = tree_mod.grow_trees(X, site, y, [np.arange(len(y))], min_rows=min_rows,
                                  min_branch=min_branch)
        assert_same_trees(got, [grow_tree(X, site, y, min_rows=min_rows,
                                          min_branch=min_branch)])
        t = got[0]
        impure = (t.feature == tree_mod.LEAF) & (t.wins > 0) & (t.wins < t.n)
        assert np.any(impure & (t.n >= max(2, min_rows)) & (t.n < 2 * min_branch))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_all_feature_forest_on_duplicated_signed_zeros(self, data):
        """Every feature at every node, on bootstrap samples that repeat rows
        whose values are signed zeros and their neighbouring doubles."""
        d = data.draw(st.integers(1, 3))
        tiny = np.nextafter(0.0, 1.0)
        values = st.sampled_from([-0.0, 0.0, tiny, -tiny, 1.0])
        n = data.draw(st.integers(2, 24))
        X = np.array(data.draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        site = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        seed = data.draw(st.integers(0, 2**16))
        got = forest_mod.fit(X, site, y, {"n_trees": 3, "candidate_features": d + 1}, seed)
        assert_same_trees(got, grow_forest(X, site, y, 3, d + 1, seed))

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_each_nodes_lists_are_sorted_and_hold_its_rows(self, scheme_arrays,
                                                           monkeypatch, kind):
        X, site, y = scheme_arrays[9, FeatureScheme.ADJ_EFF]
        seen = []
        score = tree_mod._score

        def recording(X, site, y, visits, min_branch):
            seen.extend((v.growth, v.lists.copy(), v.parent, v.slot) for v in visits)
            return score(X, site, y, visits, min_branch)

        monkeypatch.setattr(tree_mod, "_score", recording)
        if kind == "tree":
            tree_mod.fit(X, site, y, {"min_node_fraction": 0.0}, 0)
        else:
            forest_mod.fit(X, site, y, {"n_trees": 3, "candidate_features": None}, 5)
        assert len(X) < 128
        roots = {id(g): lists[0] for g, lists, parent, _ in seen if parent < 0}
        assert len(roots) == (1 if kind == "tree" else 3)
        for growth, lists, parent, slot in seen:
            assert lists.shape[0] == X.shape[1]
            assert lists.dtype == np.int8      # the narrowest that holds len(X) < 128
            for f, rows in enumerate(lists):
                values = X[rows, f]
                assert np.all(values[1:] >= values[:-1]), f
                if kind == "tree":      # ties keep sample order, here row order
                    assert np.all((values[1:] > values[:-1]) | (rows[1:] > rows[:-1])), f
            node = growth.children[3 * parent + slot] if parent >= 0 else 0
            reach = rows_reaching(growth.tree(), X, site, roots[id(growth)])[node]
            for rows in lists:
                assert np.array_equal(np.sort(rows), reach)


def rows_reaching(t: tree_mod.Tree, X: np.ndarray, site: np.ndarray,
                  sample: np.ndarray) -> dict[int, np.ndarray]:
    """Each node's rows of ``sample`` (repeats kept), sorted, walked one row
    at a time down ``t``."""
    out: dict[int, list[int]] = {}
    for row in sample.tolist():
        node = 0
        while True:
            out.setdefault(node, []).append(row)
            f = t.feature[node]
            if f == tree_mod.LEAF:
                break
            right = not X[row, f] <= t.threshold[node]
            node = t.children[node, site[row] if f == tree_mod.SITE_FEATURE else int(right)]
    return {node: np.sort(rows) for node, rows in out.items()}


class TestForestStreams:
    def test_a_tree_does_not_depend_on_the_forest_size(self, scheme_arrays):
        X, site, y = scheme_arrays[4, FeatureScheme.ADJ_FOUR_FACTORS]
        three = forest_mod.fit(X, site, y, {"n_trees": 3, "candidate_features": None}, 5)
        twenty = forest_mod.fit(X, site, y, {"n_trees": 20, "candidate_features": None}, 5)
        assert_same_trees(three, twenty[:3])

    def test_a_forest_of_several_groups_equals_the_oracle(self, scheme_arrays):
        X, site, y = scheme_arrays[9, FeatureScheme.ADJ_EFF]
        n_trees = 2 * forest_mod._GROUP + 3
        got = forest_mod.fit(X, site, y, {"n_trees": n_trees, "candidate_features": None}, 3)
        assert_same_trees(got, grow_forest(X, site, y, n_trees, default_candidates(X), 3))


GRID_SCHEMES = (FeatureScheme.ADJ_EFF, FeatureScheme.ADJ_FOUR_FACTORS, FeatureScheme.RAW)


class TestMlpMatchesOracle:
    """The flat parameter vector against four separately updated arrays.

    The default case runs all 500 epochs; the others override one setting
    and run 60 epochs to keep the test quick."""

    @pytest.mark.parametrize("hyper", [
        {}, {"hidden": 1, "epochs": 60}, {"momentum": 0.0, "epochs": 60},
        {"learning_rate": 1e10, "epochs": 60}, {"epochs": 0},
    ], ids=["defaults", "hidden_1", "no_momentum", "saturating", "untrained"])
    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_weights_and_model_file(self, scheme_arrays, scheme, hyper, tmp_path):
        X, site, y = (a[:24] for a in scheme_arrays[4, scheme])
        hp = resolve_hyper(mlp_mod.HYPER, hyper, ModelKind.MLP)
        got = mlp_mod.fit(X, site, y, hp, seed=3)
        want = mlp_fit(X, site, y, hp, seed=3)
        assert got.theta.tobytes() == np.concatenate(
            [want.W1.ravel(), want.b1, want.w2, [want.b2]]).tobytes()

        model = TrainedModel(kind=ModelKind.MLP, scheme=scheme,
                             feature_names=feature_names(scheme), class_counts={},
                             hyper=hp, params=got)
        save_model(model, tmp_path / "flat.json")
        save_with(dataclasses.replace(model, params=want), tmp_path / "four.json", mlp_encode)
        assert (tmp_path / "flat.json").read_bytes() == (tmp_path / "four.json").read_bytes()


MLP_GROUP_CASES = {
    "defaults": {}, "hidden_1": {"hidden": 1, "epochs": 60},
    "no_momentum": {"momentum": 0.0, "epochs": 60},
    "saturating": {"learning_rate": 1e10, "epochs": 60}, "untrained": {"epochs": 0},
}


class TestMlpGroup:
    """Networks trained in lockstep against separate fits of each one."""

    @pytest.mark.parametrize("hyper", MLP_GROUP_CASES.values(), ids=MLP_GROUP_CASES)
    def test_each_network_equals_the_oracle(self, scheme_arrays, hyper):
        sets = [[a[:24] for a in scheme_arrays[4, scheme]] for scheme in GRID_SCHEMES]
        _, site, y = sets[0]
        assert all(np.array_equal(s, site) and np.array_equal(labels, y)
                   for _, s, labels in sets)
        Xs = [X for X, _, _ in sets]
        assert [X.shape[1] for X in Xs] == [4, 16, 24]
        hp = resolve_hyper(mlp_mod.HYPER, hyper, ModelKind.MLP)
        got = mlp_mod.fit_group(Xs, site, y, hp, seed=3)
        assert len(got) == 3
        for X, p in zip(Xs, got):
            want = mlp_fit(X, site, y, hp, seed=3)
            assert p.theta.tobytes() == np.concatenate(
                [want.W1.ravel(), want.b1, want.w2, [want.b2]]).tobytes()
            assert p.mins.tobytes() == want.mins.tobytes()
            assert p.ranges.tobytes() == want.ranges.tobytes()
            # fit, the group of one
            assert mlp_mod.fit(X, site, y, hp, seed=3).theta.tobytes() == p.theta.tobytes()

    def test_train_group_equals_train_for_every_kind(self, tmp_path):
        # one matrix per scheme, one site and one y, against train on each
        # scheme's instances, model.json byte for byte; a group keyed by the
        # schemes' names, and a dataset of a scheme's name, give the same bytes
        store, runs, test_season = league_runs()
        past, _ = split_runs(store, runs, test_season)
        Xs, site, y = encode_runs(past, GRID_SCHEMES)
        by_name = {scheme.value: X for scheme, X in Xs.items()}
        hyper = {ModelKind.MLP: {"epochs": 3}, ModelKind.RANDOM_FOREST: {"n_trees": 3}}
        for kind in ModelKind:
            group = train_group(Xs, site, y, kind, hyper=hyper.get(kind), seed=2)
            named = train_group(by_name, site, y, kind.value, hyper=hyper.get(kind), seed=2)
            assert [model.scheme for model in group] == list(GRID_SCHEMES)
            assert [model.scheme for model in named] == list(GRID_SCHEMES)
            for model, model_by_name in zip(group, named):
                train_set, _ = build_dataset(store, runs, model.scheme.value, test_season)
                assert train_set[0].scheme is model.scheme
                alone = train(train_set, kind, hyper=hyper.get(kind), seed=2)
                for name, trained in (("group", model), ("named", model_by_name),
                                      ("alone", alone)):
                    save_model(trained, tmp_path / f"{name}.json")
                want = (tmp_path / "group.json").read_bytes()
                assert (tmp_path / "named.json").read_bytes() == want
                assert (tmp_path / "alone.json").read_bytes() == want

    def test_arrays_that_do_not_fit_are_refused(self):
        X, site, y = separable_arrays(20, seed=1)
        nan = X.copy()
        nan[3, 2] = float("nan")
        scheme = FeatureScheme.ADJ_EFF
        cases = [
            ({scheme: X[1:]}, site, y, r"shape \(19, 4\) does not fit 20 labels"),
            ({scheme: X[:, :3]}, site, y, r"shape \(20, 3\) does not fit 20 labels and 4 "),
            ({scheme: X, FeatureScheme.RAW: X}, site, y, r"raw training matrix"),
            ({scheme: nan}, site, y, "non-finite feature value in training data"),
            ({scheme: X}, site, np.ones_like(y),
             "training data must contain both classes, got only wins"),
            ({scheme: X}, site, np.zeros_like(y),
             "training data must contain both classes, got only losses"),
            ({scheme: X}, site[1:], y, "sites do not fit"),
            ({scheme: X}, np.full_like(site, 3), y, "site codes must be 0, 1 or 2"),
            ({scheme: X}, site, 2 * y, "labels 0 or 1"),
            ({}, site, y, "no training sets"),
        ]
        for Xs, sites, labels, message in cases:
            for kind in (ModelKind.MLP, ModelKind.NAIVE_BAYES_KDE):
                with pytest.raises(ModelError, match=message):
                    train_group(Xs, sites, labels, kind)


class TestAllKindsContract:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_probabilities_valid_and_complementary(self, kind):
        hyper = {"epochs": 30} if kind is ModelKind.MLP else None
        model = train(separable_instances(80, seed=15), kind, hyper=hyper, seed=3)
        for inst in separable_instances(20, seed=16):
            label, p_win = predict(model, inst)
            assert 0.0 <= p_win <= 1.0
            p_loss = 1.0 - p_win
            assert abs(p_win + p_loss - 1.0) <= 1e-9
            assert label in (Label.WIN, Label.LOSS)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_separable_training_accuracy(self, kind):
        hyper = {"epochs": 150} if kind is ModelKind.MLP else None
        insts = separable_instances(200, seed=17)
        model = train(insts, kind, hyper=hyper, seed=5)
        assert accuracy(model, insts) >= 0.95

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_save_load_round_trip(self, kind, tmp_path):
        hyper = {"epochs": 10} if kind is ModelKind.MLP else None
        insts = separable_instances(60, seed=18)
        model = train(insts, kind, hyper=hyper, seed=9)
        path = tmp_path / f"{kind.value}.model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == model.kind
        assert back.feature_names == model.feature_names
        probes = separable_instances(15, seed=19)
        assert all(predict(model, p) == predict(back, p) for p in probes)
        # save(load(save(x))) is byte-identical
        path2 = tmp_path / "again.model.json"
        save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_run_config_is_saved_and_loaded_with_the_model(self, tmp_path):
        model = train(separable_instances(60, seed=18), ModelKind.DECISION_TREE, seed=9)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert model.run_config is None
        assert "run_config" not in json.loads(path.read_text())
        echo = {"kind": "decision_tree", "alpha": 0.2, "seed": 9}
        save_model(dataclasses.replace(model, run_config=echo), path)
        back = load_model(path)
        assert back.run_config == echo
        save_model(back, tmp_path / "again.json")
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_load_rejects_foreign_files(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ModelError, match="not a"):
            load_model(p)
