import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsos.episodes
from fsos import protonet
from fsos.backbone import init_backbone
from fsos.episodes import (
    DIVERGENCE_FACTOR,
    DRAW_AHEAD,
    MAX_TRAIN_EPISODES,
    METHODS,
    EpisodeConfig,
    EpisodeError,
    MetaBceGate,
    MetaSplit,
    OcmlGate,
    RowTable,
    SplitError,
    ThresholdGate,
    TrainSchedule,
    calibrate_threshold_baseline,
    confidence_interval,
    default_schedule,
    draw_block,
    draw_episode,
    evaluate_oneclass,
    evaluate_openset,
    run_meta_training,
    sample_episode,
    train_gates,
    _episode_rng,
    _training_states,
)
from fsos.metabce import init_head
from fsos.ocml import make_transfer_module
from fsos.protonet import ThresholdBaseline


def test_meta_split_validation():
    with pytest.raises(SplitError):
        MetaSplit((), (1,), (2,))
    with pytest.raises(SplitError):
        MetaSplit((0, 1), (1,), (2,))
    with pytest.raises(SplitError):
        MetaSplit((0, 0), (1,), (2,))


def test_episode_config_defaults_and_validation():
    cfg = EpisodeConfig(n=5, k=1, q=15)
    assert cfg.n_unknown == 5  # default: as many unknown classes as known
    with pytest.raises(EpisodeError):
        EpisodeConfig(n=0, k=1, q=1)
    with pytest.raises(EpisodeError):
        EpisodeConfig(n=1, k=1, q=1, n_unknown=-2)


def test_sample_episode_counts_protocol_shape(small_dataset):
    # the 5-way 1-shot open-set protocol needs 5+5 classes; meta_train has 7,
    # so sample from the full class list for the shape check
    cfg = EpisodeConfig(n=5, k=1, q=15, n_unknown=5)
    ep = sample_episode(small_dataset, small_dataset.classes(), cfg,
                        np.random.default_rng(0))
    assert ep.support.shape == (5, 16)
    assert ep.queries.shape == (150, 16)
    assert (ep.n, ep.q) == (5, 15)


def test_sample_episode_oneclass_shape(small_dataset):
    cfg = EpisodeConfig(n=1, k=1, q=15, n_unknown=1)
    ep = sample_episode(small_dataset, small_dataset.classes(), cfg,
                        np.random.default_rng(1))
    assert ep.support.shape == (1, 16)
    assert ep.queries.shape == (30, 16)
    assert (ep.n, ep.q) == (1, 15)


def test_sample_episode_deterministic(small_dataset):
    cfg = EpisodeConfig(n=2, k=3, q=4, n_unknown=1)
    a = sample_episode(small_dataset, small_dataset.classes(), cfg, np.random.default_rng(9))
    b = sample_episode(small_dataset, small_dataset.classes(), cfg, np.random.default_rng(9))
    assert a.class_ids == b.class_ids
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.queries, b.queries)


def test_sample_episode_support_query_disjoint(small_dataset):
    cfg = EpisodeConfig(n=2, k=4, q=6, n_unknown=0)
    for i in range(20):
        ep = sample_episode(small_dataset, small_dataset.classes(), cfg,
                            _episode_rng(5, 0, i))
        for ci in range(ep.n):
            sup_rows = {tuple(r) for r in ep.support[ci * cfg.k : (ci + 1) * cfg.k]}
            q_rows = {tuple(r) for r in ep.queries[ci * cfg.q : (ci + 1) * cfg.q]}
            assert not sup_rows & q_rows


def test_sample_episode_insufficiency_errors(small_dataset):
    with pytest.raises(EpisodeError) as exc:
        sample_episode(small_dataset, small_dataset.split.meta_val,
                       EpisodeConfig(n=2, k=3, q=4, n_unknown=5), np.random.default_rng(0))
    assert "classes" in str(exc.value)
    with pytest.raises(EpisodeError) as exc:
        sample_episode(small_dataset, small_dataset.split.meta_val,
                       EpisodeConfig(n=1, k=20, q=20, n_unknown=0), np.random.default_rng(0))
    assert "examples" in str(exc.value)


def _reference_sample_episode(dataset, classes, cfg, rng):
    """Episode sampling as it was before the draw/gather split: per-class
    permutations applied to each class's own example matrix."""
    chosen = rng.choice(np.array(sorted(classes)), size=cfg.n + cfg.n_unknown, replace=False)
    support, known, unknown = [], [], []
    for cid in chosen[: cfg.n]:
        ex = dataset.examples(cid)
        idx = rng.permutation(ex.shape[0])
        support.append(ex[idx[: cfg.k]])
        known.append(ex[idx[cfg.k : cfg.k + cfg.q]])
    for cid in chosen[cfg.n :]:
        ex = dataset.examples(cid)
        unknown.append(ex[rng.permutation(ex.shape[0])[: cfg.q]])
    return tuple(int(c) for c in chosen), np.concatenate(support), np.concatenate(known + unknown)


@given(n=st.integers(1, 6), k=st.integers(1, 10), q=st.integers(1, 15),
       n_unknown=st.integers(0, 6), index=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_draw_gathers_the_sampled_episode(small_dataset, n, k, q, n_unknown, index):
    cfg = EpisodeConfig(n=n, k=k, q=q, n_unknown=n_unknown)
    classes = small_dataset.classes()
    table = small_dataset.row_table(classes)
    draw = draw_episode(table, cfg, _episode_rng(7, 0, index))
    ep = sample_episode(small_dataset, classes, cfg, _episode_rng(7, 0, index))
    ids, support, queries = _reference_sample_episode(
        small_dataset, classes, cfg, _episode_rng(7, 0, index))
    assert draw.class_ids == ep.class_ids == ids[:n]
    assert draw.support.shape == (n * k,) and draw.queries.shape == ((n + n_unknown) * q,)
    assert np.array_equal(ep.support, support)
    assert np.array_equal(ep.queries, queries)


def _table(sizes, first_id=3):
    """A RowTable of len(sizes) classes (ids first_id, first_id + 2, ...)
    whose rows hold their own row index."""
    ids = [first_id + 2 * i for i in range(len(sizes))]
    starts = np.cumsum([0] + list(sizes))
    blocks = [np.arange(s, s + c, dtype=np.float64)[:, None] for s, c in zip(starts, sizes)]
    return RowTable.stack(ids, blocks, 1)


_shapes = dict(n=st.integers(1, 3), k=st.integers(1, 4), q=st.integers(1, 4),
               n_unknown=st.integers(0, 3), count=st.integers(1, 6), seed=st.integers(0, 2**32))


@given(extra=st.lists(st.integers(0, 9), min_size=1, max_size=8), **_shapes)
@settings(max_examples=80, deadline=None)
def test_draw_block_episodes_are_valid_and_blocks_compose(extra, n, k, q, n_unknown, count, seed):
    """Uneven classes that each hold k + q rows: classes are distinct, known
    and unknown disjoint, rows lie in their class's span, support and query
    rows disjoint, and a block of B equals B blocks of 1."""
    table = _table([k + q + e for e in extra])
    cfg = EpisodeConfig(n=n, k=k, q=q, n_unknown=n_unknown)
    if len(extra) < n + n_unknown:
        with pytest.raises(EpisodeError, match="classes, episode needs"):
            draw_block(table, cfg, np.random.default_rng(seed), count)
        return
    class_ids, support, query = draw_block(table, cfg, np.random.default_rng(seed), count)
    assert class_ids.shape == (count, n) and support.shape == (count, n * k)
    assert query.shape == (count, (n + n_unknown) * q)
    owner = np.repeat(table.class_ids, [table.spans[int(c)][1] for c in table.class_ids])
    for b in range(count):
        unknown = set(owner[query[b, n * q :]])
        assert len(set(class_ids[b])) == n and not unknown & set(class_ids[b])
        assert len(unknown) == n_unknown
        for j, cid in enumerate(class_ids[b]):
            sup, qry = support[b, j * k : (j + 1) * k], query[b, j * q : (j + 1) * q]
            assert set(owner[sup]) == set(owner[qry]) == {cid}
            assert len(set(sup) | set(qry)) == k + q
        for j in range(n_unknown):
            rows = query[b, (n + j) * q : (n + j + 1) * q]
            assert len(set(owner[rows])) == 1 and len(set(rows)) == q
    rng = np.random.default_rng(seed)
    ones = [draw_block(table, cfg, rng, 1) for _ in range(count)]
    for whole, pieces in zip((class_ids, support, query), zip(*ones)):
        assert np.array_equal(whole, np.concatenate(pieces))


@given(extra=st.lists(st.integers(0, 9), min_size=6, max_size=8), n=st.integers(1, 3),
       k=st.integers(1, 4), q=st.integers(1, 4), n_unknown=st.integers(0, 3),
       seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_draw_episode_rows_belong_to_their_classes(extra, n, k, q, n_unknown, seed):
    """By the table's row-to-class map: the support and known queries belong
    to class_ids, k and q rows per class in episode order; the unknown
    queries come from n_unknown other distinct classes, q rows each; and no
    row is drawn twice."""
    table = _table([k + q + e for e in extra])
    cfg = EpisodeConfig(n=n, k=k, q=q, n_unknown=n_unknown)
    ep = draw_episode(table, cfg, np.random.default_rng(seed))
    owner = np.repeat(table.class_ids, [table.spans[int(c)][1] for c in table.class_ids])
    assert ep.q == q and ep.n == len(set(ep.class_ids)) == n
    assert owner[ep.support].tolist() == np.repeat(ep.class_ids, k).tolist()
    assert owner[ep.queries[: n * q]].tolist() == np.repeat(ep.class_ids, q).tolist()
    unknown = owner[ep.queries[n * q :]].reshape(n_unknown, q)
    assert np.all(unknown == unknown[:, :1])
    assert len(set(unknown[:, 0])) == n_unknown and not set(unknown[:, 0]) & set(ep.class_ids)
    assert len(set(ep.support) | set(ep.queries)) == n * k + (n + n_unknown) * q


def _normalized(message):
    return re.sub(r"^class \d+ ", "class C ", message)


def _error(draw):
    with pytest.raises(EpisodeError) as exc:
        draw()
    return str(exc.value)


@given(size=st.integers(1, 8), classes=st.integers(1, 6), **_shapes)
@settings(max_examples=80, deadline=None)
def test_draw_block_shortfalls_raise_draw_episodes_errors(size, classes, n, k, q, n_unknown,
                                                         count, seed):
    """With equal class sizes a shortfall does not depend on the draw:
    draw_block fails exactly when draw_episode does, with its message."""
    table = _table([size] * classes)
    cfg = EpisodeConfig(n=n, k=k, q=q, n_unknown=n_unknown)
    if classes >= n + n_unknown and size >= k + q:
        draw_block(table, cfg, np.random.default_rng(seed), count)
        return
    expected = _error(lambda: draw_episode(table, cfg, np.random.default_rng(seed)))
    got = _error(lambda: draw_block(table, cfg, np.random.default_rng(seed), count))
    assert _normalized(got) == _normalized(expected)


@given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=8), **_shapes)
@settings(max_examples=80, deadline=None)
def test_draw_block_uneven_shortfall_is_the_first_short_episodes(sizes, n, k, q, n_unknown,
                                                                 count, seed):
    """On uneven classes a block raises when one of its episodes draws a
    class too small for its role, with the error of the first such episode
    drawn alone."""
    table = _table(sizes)
    cfg = EpisodeConfig(n=n, k=k, q=q, n_unknown=n_unknown)
    rng = np.random.default_rng(seed)
    first = None
    for _ in range(count):
        try:
            draw_block(table, cfg, rng, 1)
        except EpisodeError as exc:
            first = str(exc)
            break
    if first is None:
        draw_block(table, cfg, np.random.default_rng(seed), count)
        return
    assert _error(lambda: draw_block(table, cfg, np.random.default_rng(seed), count)) == first
    found = re.fullmatch(r"class (\d+) has (\d+) examples, needs (k\+q|q)=(\d+)", first)
    if found:
        cid, have, what, needed = found.groups()
        assert table.spans[int(cid)][1] == int(have) < int(needed)
        assert int(needed) == (k + q if what == "k+q" else q)


def _oracle_draw_episode(table, cfg, rng):
    """draw_episode as one rng.permutation per class, in a loop: the
    stream draw_episode keeps."""
    ids = rng.choice(table.class_ids, size=cfg.n + cfg.n_unknown, replace=False).tolist()
    n, k, q = cfg.n, cfg.k, cfg.q
    rows = np.empty(n * k + len(ids) * q, dtype=np.intp)
    for j, cid in enumerate(ids):
        want, what = (k + q, "k+q") if j < n else (q, "q")
        start, count = table.spans[cid]
        if count < want:
            raise EpisodeError(f"class {cid} has {count} examples, needs {what}={want}")
        drawn = rng.permutation(count)[:want] + start
        if j < n:
            rows[j * k : (j + 1) * k] = drawn[:k]
        rows[n * k + j * q : n * k + (j + 1) * q] = drawn[-q:]
    return tuple(ids[:n]), rows[: n * k], rows[n * k :]


@given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=8), equal=st.booleans(),
       n=st.integers(1, 3), k=st.integers(1, 3), q=st.integers(1, 3),
       n_unknown=st.integers(0, 3), seed=st.integers(0, 2**32), buffered=st.booleans())
@settings(max_examples=200, deadline=None)
def test_draw_episode_equals_one_permutation_per_class(sizes, equal, n, k, q, n_unknown, seed,
                                                       buffered):
    """On tables of equal and of unequal class sizes, draw_episode draws the
    oracle's class ids, support and queries, leaves its generator in the
    oracle's state, so later draws do not move, and raises its shortfall
    error. buffered starts both generators with half a 64-bit draw held."""
    table = _table([sizes[0]] * len(sizes) if equal else sizes)
    cfg = EpisodeConfig(n=n, k=k, q=q, n_unknown=n_unknown)
    if len(sizes) < n + n_unknown:
        with pytest.raises(EpisodeError, match="classes, episode needs"):
            draw_episode(table, cfg, np.random.default_rng(seed))
        return
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    if buffered:
        for rng in rngs:
            rng.random(dtype=np.float32)
    try:
        want = _oracle_draw_episode(table, cfg, rngs[0])
    except EpisodeError as exc:
        assert _error(lambda: draw_episode(table, cfg, rngs[1])) == str(exc)
        return
    got = draw_episode(table, cfg, rngs[1])
    assert got.class_ids == want[0] and got.q == q
    assert np.array_equal(got.support, want[1]) and np.array_equal(got.queries, want[2])
    assert rngs[1].bit_generator.state == rngs[0].bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 + 3, 2**64 + 5])
def test_training_states_are_the_seeded_generators_states(seed):
    """The derived states of two blocks, across a DRAW_AHEAD boundary, and
    of the last block a run may draw, are those default_rng([seed, 0, i])
    starts in."""
    for start in (0, DRAW_AHEAD, MAX_TRAIN_EPISODES - 5):
        stop = min(start + DRAW_AHEAD, MAX_TRAIN_EPISODES)
        got = _training_states(seed, start, stop)
        assert len(got) == stop - start
        for i, state in zip(range(start, stop), got):
            assert state == np.random.default_rng([seed, 0, i]).bit_generator.state, i


def test_training_refuses_more_episodes_than_it_can_seed(small_dataset, small_spec):
    """An episode index of 2**32 or more would take a second entropy word:
    such a budget is refused before its first episode is drawn."""
    schedule = TrainSchedule(episodes=MAX_TRAIN_EPISODES + 1)
    with pytest.raises(EpisodeError, match=f"at most {MAX_TRAIN_EPISODES} episodes"):
        run_meta_training("protonet", small_dataset, EpisodeConfig(n=2, k=2, q=3, n_unknown=0),
                          schedule, seed=3, spec=small_spec)


def test_draw_block_samples_classes_and_rows_uniformly():
    """20 000 episodes of an uneven 6-class table: each class is drawn with
    rate (n + n_U) / 6 and known with rate n / 6, each within 0.02, and a
    known class's rows each land in the support with rate k / rows, within
    0.03 (more than 5 standard deviations at every rate)."""
    sizes = [5, 8, 12, 7, 20, 9]
    table = _table(sizes)
    cfg = EpisodeConfig(n=2, k=2, q=3, n_unknown=1)
    draws = 20_000
    class_ids, support, query = draw_block(table, cfg, np.random.default_rng(2024), draws)
    owner = np.repeat(table.class_ids, sizes)
    unknown = owner[query[:, cfg.n * cfg.q :: cfg.q]]
    for cid, size in zip(table.class_ids, sizes):
        known_rate = np.mean(np.any(class_ids == cid, axis=1))
        drawn_rate = known_rate + np.mean(np.any(unknown == cid, axis=1))
        assert abs(known_rate - 2 / 6) < 0.02, cid
        assert abs(drawn_rate - 3 / 6) < 0.02, cid
        start = table.spans[int(cid)][0]
        times_known = np.sum(class_ids == cid)
        hits = np.bincount(support[owner[support] == cid] - start, minlength=size)
        assert np.all(np.abs(hits / times_known - cfg.k / size) < 0.03), cid


def test_evaluation_reports_are_prefix_stable(small_dataset, small_spec):
    """The first episodes of a longer evaluation are the episodes of a
    shorter one."""
    params = init_backbone(small_spec, seed=18)
    cfg = EpisodeConfig(n=2, k=2, q=4, n_unknown=1)
    gate = MetaBceGate(init_head())
    five = evaluate_openset(params, gate, small_dataset, cfg, 5, seed=19)
    three = evaluate_openset(params, gate, small_dataset, cfg, 3, seed=19)
    assert sorted(five.per_episode) == sorted(three.per_episode)
    for name, values in three.per_episode.items():
        assert np.array_equal(five.per_episode[name][:3], values), name


def test_confidence_interval_values():
    mean, half, degenerate = confidence_interval([0.7, 0.7, 0.7])
    assert mean == pytest.approx(0.7)
    assert (half, degenerate) == (0.0, False)
    mean, half, degenerate = confidence_interval([0.0, 1.0])
    assert mean == 0.5
    assert abs(half - 0.98) < 1e-12
    mean, half, degenerate = confidence_interval([0.3])
    assert (mean, half, degenerate) == (0.3, 0.0, True)
    with pytest.raises(EpisodeError):
        confidence_interval([])


def test_schedule_validation_and_defaults():
    with pytest.raises(EpisodeError):
        TrainSchedule(episodes=0)
    sched = default_schedule("mbce")
    assert sched.optimizer == "sgd"
    assert sched.offset_learning_rate is not None
    with pytest.raises(EpisodeError):
        default_schedule("fancy_new_method")


def test_schedule_rejects_negative_val_interval():
    # 0 asks for the default cadence; a negative interval is not a cadence
    with pytest.raises(EpisodeError, match="val_interval"):
        TrainSchedule(episodes=10, val_interval=-3)
    assert TrainSchedule(episodes=10, val_interval=0).effective_val_interval == 2


def test_run_meta_training_unknown_method(small_dataset):
    with pytest.raises(EpisodeError):
        run_meta_training("boosting", small_dataset, EpisodeConfig(n=2, k=2, q=2),
                          TrainSchedule(episodes=2), seed=0)


@pytest.mark.parametrize("method", ["protonet", "ocml_joint"])
def test_run_meta_training_needs_base_params_or_spec(small_dataset, monkeypatch, method):
    """With neither, the run names both arguments before it builds anything."""
    monkeypatch.setattr(fsos.episodes, "init_backbone", lambda *a: pytest.fail("built"))
    with pytest.raises(EpisodeError, match="needs base_params or spec, got neither"):
        run_meta_training(method, small_dataset, EpisodeConfig(n=2, k=2, q=2),
                          TrainSchedule(episodes=2), seed=0)


def test_method_table_names_each_frozen_head_space():
    assert METHODS == {"protonet": None, "mbce": "branch", "mbce_projected": "projected",
                       "ocml_frozen": "main", "ocml_joint": None}
    assert default_schedule("mbce_projected") == default_schedule("mbce")


@pytest.mark.parametrize("method", [m for m, space in METHODS.items() if space])
def test_frozen_head_training_needs_base_params(small_dataset, small_spec, method):
    """A spec alone does not do: the head augments a pretrained extractor."""
    with pytest.raises(EpisodeError, match=f"{method} training augments a pretrained backbone"):
        run_meta_training(method, small_dataset, EpisodeConfig(n=2, k=2, q=2),
                          TrainSchedule(episodes=2), seed=0, spec=small_spec)


@pytest.mark.parametrize("method", [m for m, space in METHODS.items() if not space])
def test_extractor_training_needs_no_base_params(small_dataset, small_spec, method):
    result = run_meta_training(method, small_dataset, EpisodeConfig(n=2, k=2, q=2),
                               TrainSchedule(episodes=2, val_episodes=1), seed=0, spec=small_spec)
    assert len(result.loss_curve) == 2


def test_loss_curve_length_matches_schedule(small_dataset, small_spec):
    result = run_meta_training(
        "protonet", small_dataset, EpisodeConfig(n=2, k=2, q=3),
        TrainSchedule(episodes=17, val_interval=10, val_episodes=2),
        seed=1, spec=small_spec,
    )
    assert len(result.loss_curve) == 17
    assert result.val_history[-1][0] == 17
    assert result.gate is None  # protonet trains no head


def test_schedule_patience_defaults_and_bounds():
    with pytest.raises(EpisodeError, match="patience"):
        TrainSchedule(episodes=10, patience=-1)
    assert TrainSchedule(episodes=10).patience == 0
    assert default_schedule("mbce").patience == 8
    for method in ("protonet", "ocml_frozen", "ocml_joint"):
        assert default_schedule(method).patience == 0


def _scripted_mbce(dataset, spec, scores, patience, monkeypatch):
    """An mbce run validated every 2 episodes, whose validation points read
    the given scores in order."""
    script = iter(scores)
    monkeypatch.setattr(fsos.episodes, "_gate_val_na", lambda gate, chunks: next(script))
    return run_meta_training(
        "mbce", dataset, EpisodeConfig(n=3, k=2, q=3),
        TrainSchedule(episodes=2 * len(scores), learning_rate=0.01, val_interval=2,
                      val_episodes=2, patience=patience),
        seed=2, base_params=init_backbone(spec, seed=2),
    )


def test_patience_stops_after_that_many_points_without_a_new_best(small_dataset, small_spec,
                                                                   monkeypatch):
    # best at point 2; a tie (point 4) is no new best, so points 3 to 5 are
    # three points without one
    scores = [0.5, 0.7, 0.6, 0.7, 0.65, 0.9, 0.1, 0.2]
    stopped = _scripted_mbce(small_dataset, small_spec, scores, 3, monkeypatch)
    assert [p for p, _ in stopped.val_history] == [2, 4, 6, 8, 10]
    assert len(stopped.loss_curve) == 10
    assert stopped.best_val == 0.7
    # one more point of patience reaches the later peak
    later = _scripted_mbce(small_dataset, small_spec, scores, 4, monkeypatch)
    assert len(later.val_history) == 8 and later.best_val == 0.9


def test_patience_keeps_the_unstopped_best_when_the_peak_comes_early(small_dataset, small_spec,
                                                                     monkeypatch):
    scores = [0.5, 0.8, 0.6, 0.7, 0.75, 0.7, 0.6, 0.5]
    full = _scripted_mbce(small_dataset, small_spec, scores, 0, monkeypatch)
    stopped = _scripted_mbce(small_dataset, small_spec, scores, 3, monkeypatch)
    assert len(full.loss_curve) == 16 and len(stopped.loss_curve) == 10
    assert stopped.loss_curve == full.loss_curve[:10]
    assert stopped.best_val == full.best_val == 0.8
    assert np.array_equal(stopped.head.t.data, full.head.t.data)
    # the returned gate reads the best snapshot's head
    assert isinstance(stopped.gate, MetaBceGate) and stopped.gate.head is stopped.head
    for (group, items), (_, want) in zip(stopped.params.named_groups(),
                                         full.params.named_groups()):
        for (name, tensor), (_, other) in zip(items, want):
            assert np.array_equal(tensor.data, other.data), (group, name)


@pytest.mark.parametrize("factor,diverges", [(1.0, False), (2.0, True), (np.inf, True),
                                             (np.nan, True)])
def test_divergent_loss_raises_naming_the_episode(factor, diverges, small_dataset, small_spec,
                                                  monkeypatch):
    episode_loss, losses = protonet.episode_loss, []

    def third_loss_scaled(params, episode):
        # the third loss becomes factor x the divergence limit
        loss = episode_loss(params, episode)
        losses.append(float(loss.data))
        if len(losses) == 3:
            loss.data = np.array(factor * DIVERGENCE_FACTOR * max(1.0, losses[0]))
        return loss

    monkeypatch.setattr(protonet, "episode_loss", third_loss_scaled)
    train = lambda: run_meta_training(
        "protonet", small_dataset, EpisodeConfig(n=2, k=2, q=3),
        TrainSchedule(episodes=5, val_interval=5, val_episodes=2), seed=1, spec=small_spec,
    )
    if diverges:
        with pytest.raises(EpisodeError, match="protonet training diverged at episode 2:"):
            train()
    else:
        assert len(train().loss_curve) == 5


class ConstantGate:
    """Accepts everything with probability one; for protocol tests."""

    name = "constant"
    spaces = ()

    def judge(self, chunk):
        shape = chunk.query_rows.shape
        return np.ones(shape), np.ones(shape, dtype=bool)


class RejectGate:
    name = "reject"
    spaces = ()

    def judge(self, chunk):
        shape = chunk.query_rows.shape
        return np.zeros(shape), np.zeros(shape, dtype=bool)


def test_evaluate_oneclass_all_positive_gate(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=2)
    cfg = EpisodeConfig(n=1, k=1, q=15, n_unknown=1)
    rep = evaluate_oneclass(params, ConstantGate(), small_dataset, cfg, 20, seed=3)
    assert rep.metrics["accuracy"].mean == pytest.approx(0.5)
    assert rep.metrics["f1"].mean == pytest.approx(2 / 3)
    assert rep.metrics["auroc"].mean == pytest.approx(0.5)


def test_evaluate_oneclass_requires_n_one(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=2)
    with pytest.raises(EpisodeError):
        evaluate_oneclass(params, ConstantGate(), small_dataset,
                          EpisodeConfig(n=2, k=1, q=5), 3, seed=0)


def test_evaluate_refuses_meta_train(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=2)
    with pytest.raises(EpisodeError):
        evaluate_oneclass(params, ConstantGate(), small_dataset,
                          EpisodeConfig(n=1, k=1, q=5, n_unknown=1), 3, seed=0,
                          partition="meta_train")


def test_evaluate_openset_gate_extremes(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=4)
    cfg = EpisodeConfig(n=2, k=2, q=5, n_unknown=1)
    accept = evaluate_openset(params, ConstantGate(), small_dataset, cfg, 10, seed=5)
    assert accept.metrics["aus"].mean == 0.0
    assert accept.metrics["aks"].mean == accept.metrics["accuracy"].mean
    reject = evaluate_openset(params, RejectGate(), small_dataset, cfg, 10, seed=5)
    assert reject.metrics["aks"].mean == 0.0
    assert reject.metrics["aus"].mean == 1.0
    assert reject.metrics["na"].mean == pytest.approx(0.5)
    assert reject.metrics["f1_open"].mean == 0.0


def test_evaluate_openset_needs_unknowns(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=4)
    with pytest.raises(EpisodeError):
        evaluate_openset(params, ConstantGate(), small_dataset,
                         EpisodeConfig(n=2, k=2, q=5, n_unknown=0), 3, seed=0)


def test_closed_accuracy_identical_across_gates(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=6)
    head = init_head()
    transfer = make_transfer_module(small_spec.embed_dim, seed=6)
    baseline = ThresholdBaseline(5.0)
    cfg = EpisodeConfig(n=2, k=2, q=5, n_unknown=1)
    reports = [
        evaluate_openset(params, gate, small_dataset, cfg, 8, seed=7)
        for gate in (MetaBceGate(head), OcmlGate(transfer), ThresholdGate(baseline))
    ]
    accs = [tuple(rep.per_episode["accuracy"].tolist()) for rep in reports]
    assert accs[0] == accs[1] == accs[2]


def test_aks_never_exceeds_closed_accuracy(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=8)
    head = init_head()
    cfg = EpisodeConfig(n=2, k=2, q=5, n_unknown=1)
    rep = evaluate_openset(params, MetaBceGate(head), small_dataset, cfg, 25, seed=9)
    assert np.all(rep.per_episode["aks"] <= rep.per_episode["accuracy"] + 1e-12)


def test_report_reproducible_bitwise(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=12)
    cfg = EpisodeConfig(n=1, k=2, q=5, n_unknown=1)
    a = evaluate_oneclass(params, ConstantGate(), small_dataset, cfg, 10, seed=13)
    b = evaluate_oneclass(params, ConstantGate(), small_dataset, cfg, 10, seed=13)
    assert a.as_dict() == b.as_dict()


@pytest.mark.parametrize("evaluate,n", [(evaluate_oneclass, 1), (evaluate_openset, 2)])
def test_report_config_holds_the_seed_it_drew_with(evaluate, n, small_dataset, small_spec):
    params = init_backbone(small_spec, seed=12)
    cfg = EpisodeConfig(n=n, k=2, q=5, n_unknown=1)
    report = evaluate(params, ConstantGate(), small_dataset, cfg, 3, seed=7)
    assert report.config["seed"] == report.seed == 7


def test_report_serialization(tmp_path, small_dataset, small_spec):
    params = init_backbone(small_spec, seed=14)
    cfg = EpisodeConfig(n=2, k=2, q=4, n_unknown=1)
    rep = evaluate_openset(params, ConstantGate(), small_dataset, cfg, 5, seed=15,
                           collect_records=True)
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    rpath = tmp_path / "records.csv"
    rep.write_json(jpath)
    rep.write_episode_csv(cpath)
    rep.write_records_csv(rpath)
    import json

    doc = json.loads(jpath.read_text())
    assert doc["m_episodes"] == 5
    assert set(doc["metrics"]) == {"accuracy", "aks", "aus", "na", "f1_open", "auroc"}
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 episodes
    from fsos.metrics import read_records_csv

    truth, _, _ = read_records_csv(rpath)
    assert truth.size == 5 * (2 * 4 + 1 * 4)


def test_threshold_calibration_clamps_to_partition(small_dataset, small_spec):
    params = init_backbone(small_spec, seed=16)
    cfg = EpisodeConfig(n=5, k=2, q=4, n_unknown=5)
    baseline = calibrate_threshold_baseline(params, small_dataset, cfg, 6, seed=17)
    assert baseline.tau >= 0.0


def test_train_gates_equal_the_gates_built_by_hand(small_dataset, small_spec):
    backbone, cfg = init_backbone(small_spec, seed=18), EpisodeConfig(n=2, k=2, q=4)
    gates = train_gates(small_dataset, backbone, cfg, seed=19, episodes=12)
    assert [name for name, _, _ in gates] == ["mbce", "ocml", "threshold"]
    assert gates[0][2] is not backbone and gates[1][2] is not backbone
    mb, oc = (run_meta_training(m, small_dataset, EpisodeConfig(2, 2, 10), default_schedule(m, 12),
                                seed=19, base_params=backbone) for m in ("mbce", "ocml_frozen"))
    baseline = calibrate_threshold_baseline(backbone, small_dataset, cfg, 200, 19)
    assert gates[2][1].baseline.tau == baseline.tau
    by_hand = [("mbce", MetaBceGate(mb.head), mb.params), ("ocml", OcmlGate(oc.head), oc.params),
               ("threshold", ThresholdGate(baseline), backbone)]
    for evaluate, n in ((evaluate_openset, 2), (evaluate_oneclass, 1)):
        eval_cfg = EpisodeConfig(n=n, k=2, q=4, n_unknown=1)
        for (_, gate, params), (_, want_gate, want_params) in zip(gates, by_hand):
            got = evaluate(params, gate, small_dataset, eval_cfg, 30, seed=20).per_episode
            want = evaluate(want_params, want_gate, small_dataset, eval_cfg, 30, seed=20).per_episode
            assert got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)
