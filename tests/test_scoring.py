"""The shared chunk scorer, on one episode, against a direct recomputation
per gate: each gate embeds the episode itself and builds its own prototypes,
and closed predictions come from per-class prototypes in class-id order.
Every output must match bit for bit."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fsos import episodes, metabce, ocml, protonet
from fsos.autodiff import Tensor, row_block_mean
from fsos.backbone import DEFAULT_IMAGE_SPEC, add_projection, embed, init_backbone
from fsos.episodes import (
    Episode,
    EpisodeConfig,
    MetaBceGate,
    OcmlGate,
    ThresholdGate,
    TrainSchedule,
    _episode_rng,
    _gated,
    calibrate_threshold_baseline,
    evaluate_oneclass,
    evaluate_openset,
    run_meta_training,
    sample_episode,
)
from fsos.protonet import RowEmbeddings, ThresholdBaseline

from conftest import scored_episode


def _moved_params(spec):
    """Branch and projection moved off their initial copies of the head."""
    p = add_projection(init_backbone(spec, seed=21))
    rng = np.random.default_rng(21)
    for block in (p.branch, p.projection):
        for name, t in block.items():
            block[name] = Tensor(t.data + 0.1 * rng.normal(size=t.data.shape))
    return p


@pytest.fixture(scope="module")
def params(small_spec):
    return _moved_params(small_spec)


def _episode(dataset, n):
    cfg = EpisodeConfig(n=n, k=3, q=4, n_unknown=2 if n > 1 else 1)
    return sample_episode(dataset, dataset.classes(), cfg, _episode_rng(22, 2, n))


def _sq_distances(q, p):
    """The distance kernel's Gram formula, (|q|^2 + |p|^2) - 2 q.p clamped at 0."""
    norms = np.einsum("md,md->m", q, q)[:, None] + np.einsum("nd,nd->n", p, p)[None, :]
    return np.maximum(norms - 2.0 * np.einsum("md,nd->mn", q, p), 0.0)


def _recipe_protos(emb_s, ep):
    return row_block_mean(emb_s, ep.n)


def _recipe_closed(params, ep):
    """Closed predictions as the evaluators made them: one prototype per
    class, in class-id order, and argmax of the negated distances."""
    emb_s = embed(params, ep.support).data
    order = np.argsort(ep.class_ids)
    k = len(ep.support) // ep.n
    protos = np.stack([row_block_mean(emb_s[j * k : (j + 1) * k])[0] for j in order])
    logits = -_sq_distances(embed(params, ep.queries).data, protos)
    return np.array(ep.class_ids)[order][np.argmax(logits, axis=1)]


def _recipe_judge(gate, params, ep):
    support, queries = ep.support, ep.queries
    if isinstance(gate, MetaBceGate):
        space = gate.head.variant
        protos = _recipe_protos(embed(params, support, space).data, ep)
        probs = np.atleast_2d(metabce.prob_known(gate.head, embed(params, queries, space).data,
                                                 protos))
    elif isinstance(gate, OcmlGate):
        protos = _recipe_protos(embed(params, support).data, ep)
        weights = ocml.generate_weight(gate.transfer, protos).data
        probs = np.atleast_2d(ocml.prob_known(weights, embed(params, queries).data))
    else:
        protos = _recipe_protos(embed(params, support).data, ep)
        dmin = _sq_distances(embed(params, queries).data, protos).min(axis=1)
        return -dmin, dmin <= gate.baseline.tau
    score = probs.max(axis=1)
    return score, score >= 0.5


def _gates(params, ep):
    branch, projected = metabce.init_head("branch"), metabce.init_head("projected")
    branch.t.data = np.asarray(-1.5)
    projected.t.data = np.asarray(-1.5)
    transfer = ocml.make_transfer_module(params.embed_dim, seed=2)
    transfer.layers[0][0].data *= 100.0  # full-scale weights spread probabilities from 0.5
    protos = _recipe_protos(embed(params, ep.support).data, ep)
    tau = float(np.median(_sq_distances(embed(params, ep.queries).data, protos).min(axis=1)))
    return [MetaBceGate(branch), MetaBceGate(projected), OcmlGate(transfer),
            ThresholdGate(ThresholdBaseline(tau))]


@pytest.mark.parametrize("n", [3, 1], ids=["openset", "oneclass"])
def test_gates_match_per_gate_recipe(small_dataset, params, n):
    ep = _episode(small_dataset, n)
    for gate in _gates(params, ep):
        scored = scored_episode(params, ep, ("main",) + gate.spaces)
        score, is_known = gate.judge(scored)
        want_score, want_known = _recipe_judge(gate, params, ep)
        assert np.array_equal(score[0], want_score), gate.name
        assert np.array_equal(is_known[0], want_known), gate.name
        assert 0 < is_known.sum() < is_known.size, gate.name  # both decisions occur
        assert np.array_equal(scored.closed_predictions[0], _recipe_closed(params, ep))


def test_distance_tie_resolves_to_lowest_class_id(small_dataset, params):
    ep = _episode(small_dataset, 3)
    # classes 9 and 4 share one support set, so every query ties between them
    k = len(ep.support) // ep.n
    tied = Episode((9, 4), np.tile(ep.support[:k], (2, 1)), ep.queries[: 2 * ep.q], ep.q)
    scored = scored_episode(params, tied)
    assert np.array_equal(scored.distances[0, :, 0], scored.distances[0, :, 1])
    assert scored.closed_predictions.tolist() == [[4] * (2 * ep.q)]


@pytest.mark.parametrize("task", ["openset", "oneclass"])
def test_chunk_boundaries_match_one_episode_chunks(small_dataset, params, monkeypatch, task):
    """Per-episode metric columns, records and tau from chunks of 3 episodes,
    scored in one slice or in slices of one episode, equal those from chunks
    of one episode, for 1, 3 and 4 episodes."""
    n = 2 if task == "openset" else 1
    cfg = EpisodeConfig(n=n, k=2, q=3, n_unknown=1)
    evaluate = evaluate_openset if task == "openset" else evaluate_oneclass
    chunk = 3
    m = (n + 1) * cfg.q
    three = chunk * m * params.embed_dim  # CHUNK_VALUES for 3 episodes

    def scored(values, queries, m_episodes, gate):
        monkeypatch.setattr(episodes, "CHUNK_VALUES", values)
        monkeypatch.setattr(episodes, "CHUNK_QUERIES", queries)
        rep = evaluate(params, gate, small_dataset, cfg, m_episodes, seed=5, collect_records=True)
        tau = calibrate_threshold_baseline(params, small_dataset, cfg, m_episodes, seed=5).tau
        names = sorted(rep.per_episode)
        return names, [rep.per_episode[n] for n in names] + list(rep.records), tau

    for values in (three, 1):  # slices of 3 episodes, then of 1
        for m_episodes in (1, chunk, chunk + 1):
            for gate in _gates(params, _episode(small_dataset, 3)):
                names, arrays, tau = scored(values, chunk * m, m_episodes, gate)
                assert all(len(a) == m_episodes for a in arrays)
                one_names, one_arrays, one_tau = scored(1, 1, m_episodes, gate)
                assert (names, tau) == (one_names, one_tau), (m_episodes, gate.name)
                for got, want in zip(arrays, one_arrays, strict=True):
                    assert np.array_equal(got, want), (m_episodes, gate.name)
                    assert got.dtype == want.dtype, (m_episodes, gate.name)


def test_row_embeddings_do_not_depend_on_the_slice(small_dataset, params):
    """A row embedded alone gets the same bits as inside a slice of rows
    (numpy would multiply a lone row by gemv)."""
    rows = small_dataset.row_table(small_dataset.split.meta_test).rows[:7]
    spaces = ("main", "branch", "projected")
    together = RowEmbeddings(params, rows, spaces)
    together.fill(np.arange(7))
    one_by_one = RowEmbeddings(params, rows, spaces)
    for i in range(7):
        one_by_one.fill(np.array([i, i]))
    for space in spaces:
        assert np.array_equal(together.embed(space, np.arange(7)),
                              one_by_one.embed(space, np.arange(7))), space


def test_image_row_embeddings_do_not_depend_on_the_slice(monkeypatch):
    """On an image extractor, a row gets the same bits in slices capped by
    SLICE_VALUES, partial tail included, and alone, as in one slice of all
    rows, in every space: a slice of fewer than 4 rows is embedded from 4,
    so the 512-wide projection never takes the BLAS's small-matrix kernel."""
    p = _moved_params(DEFAULT_IMAGE_SPEC)
    rows = np.random.default_rng(23).normal(size=(53, 256))
    n, spaces = rows.shape[0], ("main", "branch", "projected")
    sliced = RowEmbeddings(p, rows, spaces)
    assert 1 < sliced.slice_rows < n and n % sliced.slice_rows
    sliced.fill(np.arange(n))
    one_by_one = RowEmbeddings(p, rows, spaces)
    for i in range(n):
        one_by_one.fill(np.array([i, i]))
    monkeypatch.setattr(protonet, "SLICE_VALUES", n * protonet._values_per_row(p.spec))
    together = RowEmbeddings(p, rows, spaces)
    assert together.slice_rows == n
    together.fill(np.arange(n))
    for space in spaces:
        want = together.embed(space, np.arange(n))
        assert np.array_equal(sliced.embed(space, np.arange(n)), want), space
        assert np.array_equal(one_by_one.embed(space, np.arange(n)), want), space


@pytest.mark.parametrize("kind", ["dense", "image"])
def test_fill_order_and_growth_never_move_a_bit(kind, small_dataset, small_spec):
    """A cache filled by many calls (out-of-order blocks, repeated rows, a
    fill that crosses a capacity doubling and, on the image extractor, fills
    past one slice) holds the same bits in every space as a cache filled
    with the whole table at once, and so it does after both refresh the
    trained spaces."""
    if kind == "dense":
        p = _moved_params(small_spec)
        rows = small_dataset.row_table(small_dataset.split.meta_train).rows[:53]
    else:
        p = _moved_params(DEFAULT_IMAGE_SPEC)
        rows = np.random.default_rng(24).normal(size=(53, 256))
    n, spaces = rows.shape[0], protonet.SPACES
    whole = RowEmbeddings(p, rows, spaces)
    whole.fill(np.arange(n))
    assert (whole.size, whole.capacity) == (n, n)
    many = RowEmbeddings(p, rows, spaces)
    fills = ([9, 7, 8], [1, 1, 1], [8, 2, 2, 9, 3], [14, 13, 12, 11, 10],
             np.arange(40, 15, -1), np.arange(n)[::-1])
    capacities = []
    for indices in fills:
        many.fill(np.asarray(indices))
        capacities.append(many.capacity)
    # doubled from 6 to 12, grown to the 36 rows needed, capped at the table's 53
    assert capacities == [3, 6, 6, 12, 36, 53] and many.size == n

    def assert_same():
        for space in spaces:
            want = whole.embed(space, np.arange(n))
            assert np.array_equal(many.embed(space, np.arange(n)), want), space

    assert_same()
    before = whole.embed("branch", np.arange(n))
    for block in (p.branch, p.projection):
        for name, t in block.items():
            block[name] = Tensor(t.data + 0.05)
    for space in ("branch", "projected"):
        whole.refresh(space)
        many.refresh(space)
    assert not np.array_equal(whole.embed("branch", np.arange(n)), before)
    assert_same()


def test_row_cache_holds_only_the_rows_it_embeds():
    """A cache over a 2000-row image table that embeds 10 of them holds
    memory for about those 10 rows, not the table's 2000 (tracemalloc counts
    numpy's buffers)."""
    p = init_backbone(DEFAULT_IMAGE_SPEC, seed=24)
    rows = np.random.default_rng(24).normal(size=(2000, 256))
    table_bytes = rows.shape[0] * (np.prod(DEFAULT_IMAGE_SPEC.trunk_shape) + p.embed_dim) * 8
    gc.collect()
    tracemalloc.start()
    try:
        cache = RowEmbeddings(p, rows, ("trunk", "main"))
        cache.fill(np.arange(0, rows.shape[0], 200))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cache.size, cache.capacity) == (10, 10)
    assert held < table_bytes / 10, (held, table_bytes)


def test_slice_budget_never_moves_a_dense_artifact(small_dataset, small_spec, monkeypatch):
    """Training runs (protonet, then mbce validating three times, so refresh
    runs, and ocml_frozen), tau, and the open-set and one-class reports of
    all three gates are the same bits in slices of 2 or 3 rows as in the
    default slices, which hold whole tables of the small dense dataset. A
    cache that runs main and branch as one wide block counts twice the
    values a row, so it takes 2 and 3 rows at the budgets of 4 and 6."""
    cfg = EpisodeConfig(n=3, k=2, q=3)

    def run():
        def train(method, episodes, base=None):
            schedule = TrainSchedule(episodes=episodes, val_interval=3, val_episodes=4)
            return run_meta_training(method, small_dataset, cfg, schedule, seed=6,
                                     base_params=base, spec=small_spec)

        pn = train("protonet", 6)
        mb, oc = train("mbce", 9, pn.params), train("ocml_frozen", 6, pn.params)
        assert len(mb.val_history) == 3
        baseline = calibrate_threshold_baseline(pn.params, small_dataset,
                                                replace(cfg, n_unknown=2), 6, seed=6)
        out = [baseline.tau]
        for r in (pn, mb, oc):
            out += [r.loss_curve, r.val_history]
            out += [t.data for _, group in r.params.named_groups() for _, t in group]
        out += [mb.head.t.data] + [t.data for t in oc.head.tensors()]
        gates = ((MetaBceGate(mb.head), mb.params), (OcmlGate(oc.head), oc.params),
                 (ThresholdGate(baseline), pn.params))
        for evaluate, n in ((evaluate_openset, 2), (evaluate_oneclass, 1)):
            for gate, params in gates:
                rep = evaluate(params, gate, small_dataset, EpisodeConfig(n=n, k=2, q=3,
                               n_unknown=3 - n), 7, seed=6, collect_records=True)
                out += [rep.as_dict()] + [rep.per_episode[k] for k in sorted(rep.per_episode)]
                out += list(rep.records)
        return out

    per_row = protonet._values_per_row(small_spec)
    largest = small_dataset.row_table(small_dataset.split.meta_train).rows.shape[0]
    assert protonet.SLICE_VALUES // per_row >= largest
    default = run()
    for slice_rows in (2, 3, 4, 6):
        monkeypatch.setattr(protonet, "SLICE_VALUES", slice_rows * per_row)
        for got, want in zip(run(), default, strict=True):
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), slice_rows
            else:
                assert got == want, slice_rows


def _chunks(params, dataset, cfg, spaces, count, own_caches=False):
    """The scored chunks of count evaluation episodes, all from one cache as
    an evaluation call scores them, or each from a cache of its own."""
    table = dataset.row_table(dataset.classes())
    if not own_caches:
        return [chunk for _, chunk in episodes._scored_chunks(
            params, table, cfg, count, 5, episodes._EVAL_STREAM, spaces)]
    return [protonet.ScoredChunk(RowEmbeddings(params, table.rows, spaces), *block)
            for _, block in episodes._drawn_blocks(table, cfg, count, 5, episodes._EVAL_STREAM,
                                                   params.embed_dim)]


@pytest.fixture
def two_episode_chunks(monkeypatch, params):
    """An episode shape, and chunks of 2 episodes of it in slices of one."""
    cfg = EpisodeConfig(n=3, k=2, q=3, n_unknown=2)
    monkeypatch.setattr(episodes, "CHUNK_VALUES", 5 * cfg.q * params.embed_dim)
    monkeypatch.setattr(episodes, "CHUNK_QUERIES", 2 * 5 * cfg.q)
    return cfg


def test_chunks_of_one_cache_read_alternately_equal_chunks_of_their_own(
        small_dataset, params, two_episode_chunks):
    """Chunks of one cache share it; reading them in turns gives what each
    chunk gives from a cache of its own, bit for bit."""
    cfg = two_episode_chunks
    for gate in _gates(params, _episode(small_dataset, 3)):
        spaces = ("main",) + gate.spaces
        shared = _chunks(params, small_dataset, cfg, spaces, 4)
        own = _chunks(params, small_dataset, cfg, spaces, 4, own_caches=True)
        assert len(shared) == len(own) == 2
        for _ in range(2):
            for got, want in zip(shared, own):
                for space in spaces:
                    got_d, want_d = (c.query_products(space, protonet.pairwise_sq_distances)
                                     for c in (got, want))
                    assert np.array_equal(got_d, want_d), gate.name
                    assert np.array_equal(got.prototypes(space), want.prototypes(space))
                for a, b in zip(_gated(gate, got), _gated(gate, want), strict=True):
                    assert np.array_equal(a, b), gate.name


def test_query_products_hands_fn_stacks_it_may_keep(small_dataset, params, two_episode_chunks):
    """Each slice's query stack is an array of fn's own: a stack kept from an
    earlier slice of the same shape still holds that slice's embeddings."""
    spaces = ("main", "branch", "projected")
    chunk = _chunks(params, small_dataset, two_episode_chunks, spaces, 2)[0]
    slices = [slice(0, 1), slice(1, 2)]
    for space in spaces:
        kept = []

        def keep(queries, protos):
            kept.append(queries)
            return np.zeros(queries.shape[:-1] + protos.shape[-2:-1])

        chunk.query_products(space, keep)
        assert len(kept) == len(slices), space
        for s, stack in zip(slices, kept):
            assert np.array_equal(stack, chunk.cache.embed(space, chunk.query_rows[s])), space


def test_holding_every_chunk_of_a_call_gives_the_streamed_triples(
        small_dataset, params, two_episode_chunks):
    """Chunks of 2, 2 and 1 episodes, all held at once and read twice (in
    order, then in reverse), give the triples of the chunks scored one at a
    time as the evaluators stream them."""
    cfg = two_episode_chunks
    table = small_dataset.row_table(small_dataset.classes())
    for gate in _gates(params, _episode(small_dataset, 3)):
        spaces = ("main",) + gate.spaces
        streamed = [_gated(gate, chunk) for _, chunk in episodes._scored_chunks(
            params, table, cfg, 5, 5, episodes._EVAL_STREAM, spaces)]
        held = _chunks(params, small_dataset, cfg, spaces, 5)
        assert [chunk.class_ids.shape[0] for chunk in held] == [2, 2, 1]
        for order in (range(3), reversed(range(3))):
            for i in order:
                for a, b in zip(_gated(gate, held[i]), streamed[i], strict=True):
                    assert np.array_equal(a, b), (gate.name, i)


def test_a_dropped_chunk_is_freed_without_the_cycle_collector(small_dataset, params):
    """The cache refers to no chunk, so a chunk its caller drops dies at
    once, after its gate has gathered query embeddings."""
    cfg = EpisodeConfig(n=3, k=2, q=3, n_unknown=2)
    gate = _gates(params, _episode(small_dataset, 3))[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        chunk = _chunks(params, small_dataset, cfg, ("main",) + gate.spaces, 1)[0]
        _gated(gate, chunk)  # gathers the main and branch queries
        dropped = weakref.ref(chunk)
        del chunk
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()
