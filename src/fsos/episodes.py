"""Episode sampling, meta-training drivers, and the evaluation procedures.

Episodes draw n support classes and n_U unknown classes (disjoint, without
replacement) from one meta-split partition; examples are drawn without
replacement within each class. Training episode i draws from the state a
generator seeded with (seed, stream, i) starts in; evaluation, threshold
calibration and validation draw with one generator from (seed, stream) per
call or per training run, in blocks (draw_block) whose episodes each take a
fixed number of uniforms, so a call's first M episodes do not depend on
its length or chunking. Training runs, evaluations, and reports are
reproducible bit for bit.

Every stream shares one episode layout: an Episode is one row of a
draw_block block, its n known class ids, class-ordered support rows
[n * k] and query rows [m], the n * q known ones, then the unknown ones.

Training draws row indices for every method: draw_episode picks classes
and returns an Episode of row indices into the partition's RowTable, and
each step embeds them into its loss's inputs. Training draws its episodes
DRAW_AHEAD at a time with one reused generator: a block derives its
episodes' seeded states at once (_training_states), the generator takes
each one before that episode's draw, and the block's rows are laid out in
one pass, so the stream does not depend on the block size. The methods
that train the extractor (protonet, ocml_joint) embed an episode's rows on
the tape. The heads trained on a frozen extractor (mbce, mbce_projected,
ocml_frozen; METHODS) read them from a per-run RowEmbeddings cache of the
meta_train table, filled once per drawn block with the rows its episodes
hold; ocml_frozen's prototypes are computed once per block as well.

Evaluation, threshold calibration and validation score their episodes in
chunks (protonet.ScoredChunk) from a per-call cache, so each drawn row is
embedded once per call, and the gates read the same embeddings as the
closed-set classifier. A chunk holds about CHUNK_QUERIES queries: its draw,
truth, gate decisions, closed predictions and metrics run once, on [B, m]
arrays. The cache embeds a chunk's rows in one fill, in slices it sizes
itself; the rest of the work that grows with the embedding width e
(gathers, prototypes, distances, the gates' query products) runs in slices
of at most CHUNK_VALUES embedding values. Every slice computes what a
chunk of its own episodes would, and the rest works row by row, so results
do not depend on either size (but see protonet.RowEmbeddings._slices).

Validation scores the same episodes at every point of a run, so a run draws
them once (_ValidationSet). On a frozen extractor it also keeps their cache
and chunks, so each point re-embeds only the space the run trains: mbce's
branch or projected space, none for ocml_frozen. A run stops after
schedule.patience points without a new best, and raises EpisodeError when
its loss diverges (DIVERGENCE_FACTOR).
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import metabce, metrics, ocml, protonet
from .autodiff import Tape, backward
from .backbone import SOURCE, add_projection, embed, init_backbone
from .metrics import UNKNOWN
from .optim import make_optimizer

# rng stream tags, namespacing derived seeds per purpose
_TRAIN_STREAM = 0
_VAL_STREAM = 1
_EVAL_STREAM = 2
_CALIB_STREAM = 3


class EpisodeError(ValueError):
    pass


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class MetaSplit:
    meta_train: tuple
    meta_val: tuple
    meta_test: tuple

    def __post_init__(self):
        for name in ("meta_train", "meta_val", "meta_test"):
            ids = tuple(int(c) for c in getattr(self, name))
            if not ids:
                raise SplitError(f"{name} partition is empty")
            if len(set(ids)) != len(ids):
                raise SplitError(f"{name} partition repeats class ids")
            object.__setattr__(self, name, ids)
        tr, va, te = set(self.meta_train), set(self.meta_val), set(self.meta_test)
        if tr & va or tr & te or va & te:
            raise SplitError("meta-split partitions overlap")

    def partition(self, name):
        if name not in ("meta_train", "meta_val", "meta_test"):
            raise SplitError(f"unknown partition {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class EpisodeConfig:
    n: int
    k: int
    q: int
    n_unknown: int = -1  # -1 means "as many unknown classes as known"

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.q < 1:
            raise EpisodeError(f"n, k, q must be >= 1, got {self.n}, {self.k}, {self.q}")
        if self.n_unknown == -1:
            object.__setattr__(self, "n_unknown", self.n)
        if self.n_unknown < 0:
            raise EpisodeError(f"n_unknown must be >= 0, got {self.n_unknown}")


class Episode(NamedTuple):
    """One row of a draw_block block: the n known class ids in episode
    order, support [n * k, ...] and queries [m, ...], and q, the queries per
    class. draw_episode's entries are row indices into a RowTable;
    sample_episode gathers the rows, one [dim] row per index."""

    class_ids: tuple
    support: np.ndarray
    queries: np.ndarray
    q: int

    @property
    def n(self):
        return len(self.class_ids)


def _stacked(blocks, dim):
    """[count, dim] float64 row blocks as one [N, dim] array: a view when
    they lie back to back in one buffer, as the classes of a loaded dataset
    do, so the table costs no copy; a copy otherwise."""
    if not blocks:
        return np.zeros((0, dim))
    base, at = blocks[0].base, blocks[0].ctypes.data
    for b in blocks:
        if b.base is not base or b.ctypes.data != at or not b.flags.c_contiguous:
            return np.concatenate(blocks)
        at += b.nbytes
    if not (isinstance(base, np.ndarray) and base.flags.c_contiguous):
        return np.concatenate(blocks)
    rows = sum(b.shape[0] for b in blocks)
    return np.ndarray((rows, dim), np.float64, base, blocks[0].ctypes.data - base.ctypes.data)


@dataclass(frozen=True)
class RowTable:
    """The examples of a set of classes as one row array [N, dim]: classes
    in id order, each a contiguous block of rows; class_ids[j]'s block
    starts at row starts[j] and holds counts[j] rows."""

    class_ids: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    rows: np.ndarray

    @staticmethod
    def stack(class_ids, blocks, dim):
        """Table of the given classes (id order) and their [count, dim]
        example blocks."""
        counts = np.array([b.shape[0] for b in blocks], dtype=np.intp)
        return RowTable(np.array(class_ids, dtype=np.int64), np.cumsum(counts) - counts, counts,
                        _stacked(blocks, dim))

    @property
    def spans(self):
        """Class id -> (first row, row count)."""
        extents = zip(self.starts.tolist(), self.counts.tolist())
        return dict(zip(self.class_ids.tolist(), extents))


def _check_counts(table, cfg, chosen):
    """Raise for the first class of the class positions chosen [B, n + n_U],
    in row-major order, that has fewer rows than its role needs: k + q for
    a known class, q for an unknown one."""
    wanted = np.repeat([cfg.k + cfg.q, cfg.q], [cfg.n, cfg.n_unknown])
    short = np.argwhere(table.counts[chosen] < wanted)
    if short.size:
        b, j = short[0]
        c, what = chosen[b, j], "k+q" if j < cfg.n else "q"
        raise EpisodeError(
            f"class {table.class_ids[c]} has {table.counts[c]} examples, needs {what}={wanted[j]}"
        )


def _class_count(table, cfg):
    """n + n_U, the classes an episode draws; the table must hold them."""
    needed = cfg.n + cfg.n_unknown
    if len(table.class_ids) < needed:
        raise EpisodeError(
            f"partition has {len(table.class_ids)} classes, episode needs {needed} "
            f"(n={cfg.n} known + n_unknown={cfg.n_unknown})"
        )
    return needed


def _aranges(table, cfg, count):
    """The grids count episodes permute in place (_draw_permutations):
    [count, n + n_U, W] row offsets, arange(W) in every row, W the table's
    largest class."""
    grids = np.empty((count, _class_count(table, cfg), int(table.counts.max())), np.intp)
    grids[...] = np.arange(grids.shape[2])
    return grids


def _draw_permutations(table, cfg, rng, grids, states=None):
    """Draw one episode per grid of grids [B, n + n_U, W] (_aranges'),
    which hold arange(W) in every row: choose n + n_U class positions in
    table without replacement, then permute each chosen class's row offsets
    once, in place: class j's permutation lands in grid[j, :count_j]. With
    states, the generator takes states[b] before it draws episode b.
    Returns the positions [B, n + n_U]; a short class raises once all B are
    drawn, the first in draw order (_check_counts).

    Each run of successive classes with equal row counts is permuted by one
    rng.permuted call, which takes the stream as one rng.permutation(count)
    per class does."""
    count, needed = grids.shape[:2]
    classes, counts = len(table.class_ids), table.counts
    chosen = np.empty((count, needed), np.intp)
    for b, grid in enumerate(grids):
        if states is not None:
            rng.bit_generator.state = states[b]
        chosen[b] = picked = rng.choice(classes, size=needed, replace=False)
        sizes = counts[picked].tolist()
        lo = 0
        for hi in range(1, needed + 1):
            if hi == needed or sizes[hi] != sizes[lo]:
                run = grid[lo:hi, : sizes[lo]]
                rng.permuted(run, axis=1, out=run)
                lo = hi
    _check_counts(table, cfg, chosen)
    return chosen


def _episode_rows(table, cfg, chosen, offsets):
    """class_ids [B, n], support rows [B, n * k] (class-ordered) and query
    rows [B, m] (known, then unknown) of B episodes, from the class
    positions chosen [B, n + n_U] and the row offsets [B, n + n_U, >= k + q]
    each class drew: a known class's first k offsets are support, its next
    q queries; an unknown class's first q are queries."""
    count, (n, k, q) = len(chosen), (cfg.n, cfg.k, cfg.q)
    rows = table.starts[chosen][..., None] + offsets[..., : k + q]
    known, unknown = rows[:, :n], rows[:, n:, :q].reshape(count, -1)
    queries = np.concatenate([known[..., k:].reshape(count, -1), unknown], axis=1)
    return table.class_ids[chosen[:, :n]], known[..., :k].reshape(count, -1), queries


def draw_episode(table, cfg, rng):
    """Draw one episode's classes and row indices from a RowTable,
    deterministically for a given rng.

    n + n_U classes are chosen without replacement (rng.choice), then each
    known class permutes its rows once for k support and q query rows, and
    each unknown class once for q query rows, in draw order (as
    rng.permutation would). The first short class raises.
    """
    grids = _aranges(table, cfg, 1)
    chosen = _draw_permutations(table, cfg, rng, grids)
    ids, support, queries = _episode_rows(table, cfg, chosen, grids)
    return Episode(tuple(ids[0].tolist()), support[0], queries[0], cfg.q)


def draw_block(table, cfg, rng, count):
    """Draw count episodes from a RowTable: class_ids [B, n], support rows
    [B, n * k] (class-ordered) and query rows [B, m] (known, then unknown).

    Each episode takes C + (n + n_U) * W uniforms (C classes, W rows in the
    largest): the first C rank the classes, the first n + n_U ranked are
    drawn, and the rest rank each drawn class's rows, keying slots past its
    row count last. So a block of B equals B blocks of 1 from the same rng.
    """
    needed = _class_count(table, cfg)
    counts = table.counts
    width = int(counts.max())
    keys = rng.random((count, len(counts) + needed * width))
    chosen = np.argsort(keys[:, : len(counts)], axis=1)[:, :needed]
    _check_counts(table, cfg, chosen)
    keys = keys[:, len(counts) :].reshape(count, needed, width)
    keys[np.arange(width) >= counts[chosen][..., None]] = 2.0
    return _episode_rows(table, cfg, chosen, np.argsort(keys, axis=2))


def sample_episode(dataset, classes, cfg, rng):
    """Draw one episode from the given class partition and gather its rows,
    deterministically for a given rng."""
    table = dataset.row_table(classes)
    draw = draw_episode(table, cfg, rng)
    return draw._replace(support=table.rows[draw.support], queries=table.rows[draw.queries])


def _episode_rng(seed, stream, index):
    return np.random.default_rng([int(seed), int(stream), int(index)])


# numpy's SeedSequence pool hash (bit_generator.pyx) and PCG64 seeding
# (pcg64.h), which _training_states replays
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# a training run's episode indices each fill one uint32 entropy word
MAX_TRAIN_EPISODES = 2**32


def _hashmix(const, mult):
    """SeedSequence's hashmix over uint32 arrays, its running constant
    starting at const and stepping by mult at each call."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _training_states(seed, start, stop):
    """bit_generator.state of _episode_rng(seed, _TRAIN_STREAM, i) for each
    i in start .. stop - 1 (stop <= MAX_TRAIN_EPISODES), derived at once:
    SeedSequence's pool hash on uint32 columns, one row per episode, then
    PCG64's 128-bit seeding in Python ints."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # SeedSequence's uint32 words of an int, low first
    words = [seed >> 32 * j & _MASK32 for j in range(max(1, -(-seed.bit_length() // 32)))]
    count = stop - start
    entropy = [np.full(count, w, np.uint32) for w in words + [_TRAIN_STREAM]]
    entropy.append(np.arange(start, stop).astype(np.uint32))
    entropy += [np.zeros(count, np.uint32)] * (4 - len(entropy))  # a 4-word pool

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hashmix = _hashmix(_INIT_B, _MULT_B)  # generate_state(4, np.uint64)
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# Training episodes drawn ahead per block: the smallest block size on the
# plateau of a measured sweep (CHANGES.md). Each episode's generator state
# is derived from its own index, so the stream does not depend on it.
DRAW_AHEAD = 64


def _training_episodes(table, cfg, episodes, seed, cache, space=None):
    """(episode, its prototypes [n, e] in space or None) for training
    episodes 0 .. episodes - 1 of seed, in order, as row indices into table:
    episode i is draw_episode(table, cfg, _episode_rng(seed, _TRAIN_STREAM,
    i)). One generator draws them all, DRAW_AHEAD at a time: it takes each
    episode's derived state (_training_states) before drawing it, and a
    block's rows are laid out at once. With a RowEmbeddings cache, a block
    is a protonet.ScoredChunk, whose one fill embeds its rows before its
    first episode is yielded and which computes its prototypes in a cached
    space once, in slices of at most CHUNK_VALUES support values."""
    if episodes > MAX_TRAIN_EPISODES:
        raise EpisodeError(
            f"a training run takes at most {MAX_TRAIN_EPISODES} episodes, got {episodes}"
        )
    rng = np.random.Generator(np.random.PCG64(0))
    for start in range(0, episodes, DRAW_AHEAD):
        states = _training_states(seed, start, min(start + DRAW_AHEAD, episodes))
        grids = _aranges(table, cfg, len(states))
        chosen = _draw_permutations(table, cfg, rng, grids, states)
        ids, support, queries = _episode_rows(table, cfg, chosen, grids)
        protos = [None] * len(ids)
        if cache is not None:
            # outside the tape: the frozen extractor is never differentiated
            step = max(1, CHUNK_VALUES // (support.shape[1] * cache.params.embed_dim))
            block = protonet.ScoredChunk(cache, ids, support, queries, cfg.q, step)
            if space is not None:
                protos = block.prototypes(space)
        for b, class_ids in enumerate(ids.tolist()):
            yield Episode(tuple(class_ids), support[b], queries[b], cfg.q), protos[b]


def _eval_classes(dataset, partition):
    if partition == "meta_train":
        raise EpisodeError("evaluation on meta_train classes is refused")
    classes = dataset.split.partition(partition)
    leaked = set(classes) & set(dataset.split.meta_train)
    if leaked:
        raise EpisodeError(f"evaluation classes {sorted(leaked)} appear in meta_train")
    return classes


# ---------------------------------------------------------------------------
# known/unknown gates


def max_prob_decision(probs):
    """Decision rule of both one-class heads over [..., m, n] per-class known
    probabilities: score = max_c p_c, and a query is known when score >= 0.5
    (p_unknown = 1 - score, so a tie at 0.5 resolves to known). The score is
    a protonet.fold_columns, exact on sigmoid outputs clipped into (0, 1)."""
    score = protonet.fold_columns(np.maximum, probs)
    return score, score >= 0.5


# A gate has a name, the embedding spaces it reads, and judge(chunk), which
# maps a protonet.ScoredChunk to (score [B, m], is_known [B, m]); the heads
# compute their per-class probabilities slice by slice (query_products).


class MetaBceGate:
    """Scores queries with the Meta-BCE head in its one-class space."""

    name = "mbce"

    def __init__(self, head):
        self.head = head
        self.spaces = (head.variant,)

    def judge(self, chunk):
        probs = partial(metabce.prob_known, self.head)
        return max_prob_decision(chunk.query_products(self.head.variant, probs))


class OcmlGate:
    """Scores queries with generated one-class weights in the main space."""

    name = "ocml"
    spaces = ("main",)

    def __init__(self, transfer):
        self.transfer = transfer

    def judge(self, chunk):
        def probs(queries, prototypes):
            weights = ocml.generate_weight(self.transfer, prototypes).data
            return ocml.prob_known(weights, queries)

        return max_prob_decision(chunk.query_products("main", probs))


class ThresholdGate:
    """Min-distance baseline: known when the nearest prototype is within tau.
    Scores rank by negative distance so higher still means more known."""

    name = "threshold"
    spaces = ("main",)

    def __init__(self, baseline):
        self.baseline = baseline

    def judge(self, chunk):
        dmin = chunk.nearest_distance
        return -dmin, dmin <= self.baseline.tau


# ---------------------------------------------------------------------------
# meta-training


@dataclass(frozen=True)
class TrainSchedule:
    """Episode count, optimizer settings, the validation cadence, and early
    stopping.

    offset_learning_rate, when set, gives the Meta-BCE scalar offset its own
    rate: the offset has to travel across the whole distance scale while the
    branch weights only fine-tune, so one shared rate serves both poorly.
    patience, when > 0, stops a run after that many validation points in a
    row without a new best; the best snapshot is what the run returns.
    """

    episodes: int
    learning_rate: float = 5e-3
    optimizer: str = "adam"
    val_interval: int = 0  # 0 -> episodes // 5
    val_episodes: int = 40
    offset_learning_rate: float = None
    patience: int = 0  # 0 -> train every episode

    def __post_init__(self):
        if self.episodes < 1:
            raise EpisodeError(f"schedule needs >= 1 episodes, got {self.episodes}")
        if self.val_episodes < 1:
            raise EpisodeError("schedule needs >= 1 validation episodes")
        if self.val_interval < 0:
            raise EpisodeError(
                f"val_interval must be >= 0 (0 -> episodes // 5), got {self.val_interval}"
            )
        if self.patience < 0:
            raise EpisodeError(f"patience must be >= 0 (0 -> no early stop), got {self.patience}")

    @property
    def effective_val_interval(self):
        return self.val_interval if self.val_interval > 0 else max(1, self.episodes // 5)

    def as_dict(self):
        return {**asdict(self), "val_interval": self.effective_val_interval}


# training method -> the embedding space its gate reads, for the heads on a
# frozen extractor (which need base_params); None where the extractor trains
METHODS = {"protonet": None, "mbce": "branch", "mbce_projected": "projected",
           "ocml_frozen": "main", "ocml_joint": None}


def default_schedule(method, episodes=None):
    """Training settings that reach the benchmark floors on the default
    synthetic benchmark; see the acceptance suite. Only mbce stops early: its
    validation NA peaks early and then falls, while the protonet and ocml
    curves are flat within noise, so patience would move their snapshots."""
    if method == "protonet":
        return TrainSchedule(
            episodes or 3000, learning_rate=2e-3, optimizer="adam",
            val_interval=100, val_episodes=40,
        )
    if method in ("mbce", "mbce_projected"):
        return TrainSchedule(
            episodes or 8000, learning_rate=1e-4, optimizer="sgd",
            val_interval=125, val_episodes=50, offset_learning_rate=0.05, patience=8,
        )
    if method in ("ocml_frozen", "ocml_joint"):
        return TrainSchedule(
            episodes or 8000, learning_rate=3e-3, optimizer="adam",
            val_interval=250, val_episodes=40,
        )
    raise EpisodeError(f"unknown method {method!r}, expected one of {tuple(METHODS)}")


@dataclass
class TrainResult:
    method: str
    params: object  # best-on-validation BackboneParams
    head: object  # MetaBceHead | TransferModule | None
    loss_curve: list
    val_history: list  # (episode_index, metric value)
    best_val: float
    gate: object = None  # MetaBceGate | OcmlGate over head | None


# Scored chunks hold about this many queries (6000: 40 episodes of the
# 5-way, 150-query shape, 200 of the one-class 30-query one), from a
# measured sweep (CHANGES.md): doubling it again gained little and doubled
# the chunk's [B, m, n] arrays. Within a chunk, gathers and products run in
# slices of episodes whose [b, m, e] query stack holds at most CHUNK_VALUES
# values (750 KiB): 10 episodes of the 5-way shape at e = 64, which
# measured fastest. The distance kernel's [b, m, n] result is e / n times
# smaller than the query stack.
CHUNK_QUERIES = 6000
CHUNK_VALUES = 10 * 150 * 64


def _drawn_blocks(table, cfg, episodes, seed, stream, embed_dim):
    """Episodes 0 .. episodes - 1 of (seed, stream), drawn from table in
    blocks of one scored chunk; yields (index of the block's first episode,
    the ScoredChunk arguments after the cache: the drawn rows, q and the
    episodes per slice). A chunk is a whole number of slices, at least one."""
    m = (cfg.n + cfg.n_unknown) * cfg.q
    step = max(1, CHUNK_VALUES // (m * embed_dim))
    size = step * max(1, CHUNK_QUERIES // (m * step))
    rng = np.random.default_rng([int(seed), int(stream)])
    for start in range(0, episodes, size):
        yield start, (*draw_block(table, cfg, rng, min(size, episodes - start)), cfg.q, step)


def _scored_chunks(params, table, cfg, episodes, seed, stream, spaces):
    """Episodes 0 .. episodes - 1 of (seed, stream), drawn from table and
    scored in chunks; yields (index of the chunk's first episode, chunk).
    Every row is embedded at most once per call, in the given spaces."""
    cache = protonet.RowEmbeddings(params, table.rows, spaces)
    for start, block in _drawn_blocks(table, cfg, episodes, seed, stream, params.embed_dim):
        yield start, protonet.ScoredChunk(cache, *block)


class _ValidationSet:
    """The validation episodes of one training run, drawn once: the stream
    re-seeds from (seed, _VAL_STREAM), so every point scores the same
    episodes. Each iteration yields them as scored chunks of the run's
    parameters as they are then.

    trained is None when each iteration embeds into a fresh cache, as when
    the extractor trains. Otherwise it names the spaces training changes,
    and one cache and its chunks live for the run: the frozen spaces
    of the drawn rows and the chunks' main-space distances, closed
    predictions and truth are computed once, and each later iteration
    re-embeds only the trained spaces from the frozen ones (RowEmbeddings.
    refresh). A chunk forgets its prototypes in the trained spaces after
    each point, so the next point takes them from the refreshed embeddings;
    those of the frozen spaces are computed once.
    """

    def __init__(self, params, table, cfg, episodes, seed, spaces, trained):
        drawn = _drawn_blocks(table, cfg, episodes, seed, _VAL_STREAM, params.embed_dim)
        self.blocks = [block for _, block in drawn]
        self.new_cache = partial(protonet.RowEmbeddings, params, table.rows, spaces)
        self.trained = trained
        self.kept = None

    def __iter__(self):
        if self.trained is None:
            cache = self.new_cache()
            for block in self.blocks:
                yield protonet.ScoredChunk(cache, *block)
            return
        if self.kept is None:
            self.cache = self.new_cache()
            self.kept = [protonet.ScoredChunk(self.cache, *b) for b in self.blocks]
        else:
            for space in self.trained:
                self.cache.refresh(space)
        for chunk in self.kept:
            yield chunk
            chunk.forget(self.trained)


def _gated(gate, chunk):
    """(truth, final label, score) [B, m] of the stacked queries: the gate
    decides known or unknown, the closed-set classifier labels the known
    ones."""
    score, is_known = gate.judge(chunk)
    final = np.where(is_known, chunk.closed_predictions, UNKNOWN)
    return chunk.truth, final, score


def _closed_accuracy(chunks):
    """Closed-set accuracy over the known queries of scored chunks."""
    correct, total = 0, 0
    for chunk in chunks:
        known = slice(0, chunk.n_known)
        hits = chunk.closed_predictions[:, known] == chunk.truth[:, known]
        correct += int(np.sum(hits))
        total += hits.size
    return correct / total


def _gate_val_config(classes, k):
    """Episode shape of gate validation on a partition: up to 5 known and as
    many unknown classes, 10 queries each, clamped to the partition size."""
    n = max(1, min(5, len(classes) - 1))
    n_u = max(1, min(n, len(classes) - n))
    return EpisodeConfig(n=n, k=k, q=10, n_unknown=n_u)


def _gate_val_na(gate, chunks):
    """Mean open-set normalized accuracy of a gate on scored validation
    chunks.

    Selecting head snapshots by NA (not AUROC) matters: ranking quality alone
    says nothing about whether the fixed 0.5 decision threshold is calibrated
    for unseen classes.
    """
    nas = []
    for chunk in chunks:
        triple = _gated(gate, chunk)
        nas.append(metrics.normalized_accuracy(metrics.aks(triple), metrics.aus(triple)))
    return float(np.mean(np.concatenate(nas)))


# A training loss that is not finite, or above this multiple of max(1, the
# first episode's loss), ends the run as diverged.
DIVERGENCE_FACTOR = 1e6


def run_meta_training(method, dataset, episode_cfg, schedule, seed, base_params=None, spec=None,
                      transfer_middle=None):
    """Episodic training of one method; returns best-on-validation parameters,
    with the head's gate over them (none for protonet).

    Every method trains on drawn episodes of row indices, one step
    loss_fn(inputs, episode) each, inputs the episode's (prototypes,
    known-query embeddings) from protonet.embed_episode on the tape; methods
    differ in their loss, embed function and trained tensors. protonet
    trains the extractor (trunk + head) from scratch or from base_params.
    The heads on a frozen extractor (mbce, mbce_projected, ocml_frozen)
    require base_params and never touch trunk or head: they read the
    extractor's output for each drawn row from a per-run cache, which embeds
    each row once, when the first block that draws it is drawn; ocml_frozen,
    which reads the cached main space itself, takes its prototypes from its
    block (_training_episodes) and gathers its known queries at each step.
    ocml_joint trains the transfer module together with the extractor.
    Every method needs n >= 2: a one-way episode has no negatives to learn from.
    A run stops after schedule.patience validation points without a new
    best, and a diverged loss (DIVERGENCE_FACTOR) raises EpisodeError.
    """
    if method not in METHODS:
        raise EpisodeError(f"unknown method {method!r}, expected one of {tuple(METHODS)}")
    if episode_cfg.n < 2:
        raise EpisodeError(
            f"{method} training needs n >= 2 classes per episode, got {episode_cfg.n}"
        )
    space = METHODS[method]  # the frozen-extractor head's space, if any
    if space is not None and base_params is None:
        raise EpisodeError(
            f"{method} training augments a pretrained backbone: base_params required"
        )
    if base_params is None and spec is None:
        raise EpisodeError(f"{method} training needs base_params or spec, got neither")
    params = base_params.copy() if base_params is not None else init_backbone(spec, seed)
    # no background categories: training and closed-set validation episodes
    # draw known classes only, negatives come from within the episode
    episode_cfg = replace(episode_cfg, n_unknown=0)
    table = dataset.row_table(dataset.split.meta_train)

    head = gate = None
    meta_bce = space in metabce.VARIANTS  # the head trains the space it reads
    if method == "protonet":
        loss_fn = protonet.episode_loss
        trainable = params.trunk_tensors() + params.head_tensors()
    elif meta_bce:
        if space == "projected" and params.projection is None:
            add_projection(params)
        head = metabce.init_head(space)
        gate = MetaBceGate(head)
        loss_fn = partial(metabce.episode_loss, head)
        trainable = metabce.trainable_tensors(head, params)
    else:
        head = ocml.make_transfer_module(params.embed_dim, transfer_middle, seed)
        gate = OcmlGate(head)
        loss_fn = partial(ocml.episode_loss, head)
        trainable = head.tensors()
        if space is None:
            trainable = trainable + params.trunk_tensors() + params.head_tensors()

    cached = None if meta_bce else space  # a frozen space the head reads from the cache
    if space is None:  # the extractor trains: its rows are embedded on the tape
        cache = None
        embed_fn = lambda rows: embed(params, table.rows[rows])
    else:
        # the frozen space: main, or what mbce's trained branch or projection reads
        cache = protonet.RowEmbeddings(params, table.rows, (SOURCE[space] if meta_bce else space,))
        embed_fn = partial(cache.embed, space)

    groups = [(trainable, schedule.learning_rate)]
    if meta_bce and schedule.offset_learning_rate is not None:
        rest = [p for p in trainable if p is not head.t]
        groups = [([head.t], schedule.offset_learning_rate), (rest, schedule.learning_rate)]
    optimizers = [make_optimizer(schedule.optimizer, tensors, rate) for tensors, rate in groups]
    interval = schedule.effective_val_interval

    val_classes = dataset.split.meta_val
    if gate is None:
        # the val partition may be smaller than the training way count
        val_cfg = replace(episode_cfg, n=min(episode_cfg.n, len(val_classes)))
        spaces, validate = ("main",), _closed_accuracy
    else:
        val_cfg = _gate_val_config(val_classes, episode_cfg.k)
        spaces, validate = ("main",) + gate.spaces, partial(_gate_val_na, gate)
    trained = None
    if cache is not None and schedule.episodes > interval:
        # a frozen extractor's embeddings are kept for the next point, if
        # any: only the gate's spaces beyond the cached ones train
        spaces += cache.spaces
        trained = tuple(s for s in gate.spaces if s not in cache.spaces)
    validation = _ValidationSet(params, dataset.row_table(val_classes), val_cfg,
                                schedule.val_episodes, seed, spaces, trained)

    def snapshot():
        return params.copy(), None if head is None else head.copy()

    loss_curve = []
    val_history = []
    best_val = -np.inf
    best = snapshot()
    stale = 0  # validation points since the last new best
    episodes = _training_episodes(table, episode_cfg, schedule.episodes, seed, cache, cached)
    # a diverging step overflows before its loss is checked: the guard below
    # is its one report, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (ep, protos) in enumerate(episodes):
            with Tape() as tape:
                inputs = (protonet.embed_episode(embed_fn, ep) if protos is None
                          else (protos, embed_fn(ep.queries[: ep.n * ep.q])))
                loss = loss_fn(inputs, ep)
            loss_curve.append(float(loss.data))
            if not math.isfinite(loss_curve[-1]) or (
                loss_curve[-1] > DIVERGENCE_FACTOR * max(1.0, loss_curve[0])
            ):
                raise EpisodeError(
                    f"{method} training diverged at episode {i}: loss {loss_curve[-1]!r} is "
                    f"not finite or above {DIVERGENCE_FACTOR:g} x max(1, first loss "
                    f"{loss_curve[0]!r})"
                )
            backward(tape, loss)
            for opt in optimizers:
                opt.step()
            if (i + 1) % interval == 0 or (i + 1) == schedule.episodes:
                metric = validate(validation)
                val_history.append((i + 1, metric))
                stale += 1
                if metric > best_val:
                    best_val, best, stale = metric, snapshot(), 0
                elif stale == schedule.patience:
                    break
    best_gate = None if gate is None else type(gate)(best[1])
    return TrainResult(method, *best, loss_curve, val_history, float(best_val), best_gate)


def calibrate_threshold_baseline(params, dataset, cfg, episodes, seed):
    """Calibrate the distance threshold on meta_val episodes.

    The unknown-class count is clamped so the episode shape fits the
    validation partition (it is usually smaller than meta-test).
    """
    classes = dataset.split.meta_val
    if cfg.n_unknown < 1:
        raise EpisodeError("threshold calibration needs episodes with unknown queries")
    if len(classes) < 2:
        raise EpisodeError(
            f"partition meta_val has {len(classes)} classes, calibration needs >= 2"
        )
    n = min(cfg.n, len(classes) - 1)
    n_unknown = min(cfg.n_unknown, len(classes) - n)
    cal_cfg = EpisodeConfig(n=n, k=cfg.k, q=cfg.q, n_unknown=n_unknown)
    chunks = _scored_chunks(params, dataset.row_table(classes), cal_cfg, episodes, seed,
                            _CALIB_STREAM, ("main",))
    return protonet.calibrate_threshold(chunk for _, chunk in chunks)


def train_heads(dataset, backbone, cfg, seed, episodes, heads):
    """(label, gate, params) per (label, method, transfer_middle) of heads, each
    head trained on one frozen backbone on cfg with q = 10, under the method's
    default schedule at episodes (None: its default budget)."""
    gates = []
    for label, method, middle in heads:
        result = run_meta_training(method, dataset, replace(cfg, q=10),
                                   default_schedule(method, episodes), seed=seed,
                                   base_params=backbone, transfer_middle=middle)
        gates.append((label, result.gate, result.params))
    return gates


def train_gates(dataset, backbone, cfg, seed, episodes=None):
    """(name, gate, params) of the compared gates on one frozen backbone: mbce and
    ocml_frozen trained by train_heads, the threshold calibrated on 200 episodes."""
    gates = train_heads(dataset, backbone, cfg, seed, episodes,
                        [("mbce", "mbce", None), ("ocml", "ocml_frozen", None)])
    baseline = calibrate_threshold_baseline(backbone, dataset, cfg, 200, seed)
    return gates + [("threshold", ThresholdGate(baseline), backbone)]


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    ci: float


@dataclass
class EvaluationReport:
    """Summaries of M evaluation episodes, with their per-episode metric
    columns [M] and, when collected, the (truth, pred, score) [M, m] triple
    of their queries; row e of each is episode e."""

    task: str
    config: dict
    seed: int
    m_episodes: int
    metrics: dict  # name -> MetricSummary
    per_episode: dict  # name -> [M] values
    degenerate_ci: bool
    records: tuple = None

    def as_dict(self):
        return {
            "task": self.task,
            "config": self.config,
            "seed": self.seed,
            "m_episodes": self.m_episodes,
            "degenerate_ci": self.degenerate_ci,
            "metrics": {
                name: {"mean": s.mean, "ci": s.ci} for name, s in sorted(self.metrics.items())
            },
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_episode_csv(self, path):
        names = sorted(self.metrics)
        table = np.column_stack([self.per_episode[n] for n in names])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode_id"] + names)
            for e, row in enumerate(table):
                writer.writerow([e] + [repr(v) for v in row.tolist()])

    def write_records_csv(self, path):
        if self.records is None:
            raise EpisodeError("report was built without per-query records")
        metrics.write_records_csv(path, self.records)


def confidence_interval(samples):
    """(mean, 1.96 * unbiased std / sqrt(M), degenerate flag). A single
    sample reports half-width 0 and flags itself as degenerate."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise EpisodeError("confidence interval of an empty sample set")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0, True
    if np.all(arr == arr[0]):
        return mean, 0.0, False
    half = float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size))
    return mean, half, False


def _evaluate(task, params, gate, dataset, cfg, m_episodes, seed, partition,
              collect_records, score_rows, spaces):
    """Score m_episodes evaluation episodes in index order, chunk by chunk,
    and summarize each metric column.

    score_rows maps a ScoredChunk to ({metric name: [B] values}, (truth,
    pred, score) [B, m]); spaces are the embedding spaces it reads.
    """
    if m_episodes < 1:
        raise EpisodeError("m_episodes must be >= 1")
    table = dataset.row_table(_eval_classes(dataset, partition))
    columns, records = [], None
    for start, chunk in _scored_chunks(params, table, cfg, m_episodes, seed, _EVAL_STREAM,
                                       spaces):
        chunk_columns, triple = score_rows(chunk)
        columns.append(chunk_columns)
        if collect_records:
            if records is None:
                records = tuple(np.empty((m_episodes,) + a.shape[1:], a.dtype) for a in triple)
            for whole, part in zip(records, triple):
                whole[start : start + len(part)] = part
    per_episode = {name: np.concatenate([c[name] for c in columns]) for name in columns[0]}
    summaries, degenerate = {}, False
    for name, values in per_episode.items():
        mean, half, dg = confidence_interval(values)
        degenerate = degenerate or dg
        summaries[name] = MetricSummary(mean, half)
    config = {
        "task": task,
        "partition": partition,
        "gate": gate.name,
        **asdict(cfg),
        "seed": seed,
        "m_episodes": m_episodes,
    }
    return EvaluationReport(task, config, seed, m_episodes, summaries, per_episode, degenerate,
                            records)


def evaluate_oneclass(
    params,
    gate,
    dataset,
    cfg,
    m_episodes,
    seed,
    partition="meta_test",
    collect_records=False,
):
    """One-class protocol: 1-way k-shot support, q known + q-per-unknown-class
    queries; accuracy, binary F1 (known positive), AUROC per episode."""
    if cfg.n != 1:
        raise EpisodeError(f"one-class evaluation requires n=1, got n={cfg.n}")
    if cfg.n_unknown < 1:
        raise EpisodeError("one-class evaluation needs at least one unknown class")

    def score_rows(chunk):
        score, is_known = gate.judge(chunk)
        truth = chunk.truth
        pred = np.where(is_known, chunk.class_ids, UNKNOWN)
        triple = (truth, pred, score)
        columns = {
            "accuracy": np.mean((truth != UNKNOWN) == is_known, axis=1),
            "f1": metrics.binary_f1(triple),
            "auroc": metrics.auroc(triple),
        }
        return columns, triple

    return _evaluate("oneclass", params, gate, dataset, cfg, m_episodes, seed, partition,
                     collect_records, score_rows, gate.spaces)


def evaluate_openset(
    params,
    gate,
    dataset,
    cfg,
    m_episodes,
    seed,
    partition="meta_test",
    collect_records=False,
):
    """Open-set protocol: ungated closed-set accuracy, gated AKS/AUS/NA,
    F1-open, and known-vs-unknown AUROC per episode.

    The final label of a query gated known comes from the closed-set
    classifier; the gate never alters closed-set logits.
    """
    if cfg.n_unknown < 1:
        raise EpisodeError("open-set evaluation needs n_unknown >= 1")

    def score_rows(chunk):
        triple = _gated(gate, chunk)
        known = slice(0, chunk.n_known)
        closed = chunk.closed_predictions[:, known] == triple[0][:, known]
        aks_v = metrics.aks(triple)
        aus_v = metrics.aus(triple)
        columns = {
            "accuracy": np.mean(closed, axis=1),
            "aks": aks_v,
            "aus": aus_v,
            "na": metrics.normalized_accuracy(aks_v, aus_v),
            "f1_open": metrics.f1_open(triple),
            "auroc": metrics.auroc(triple),
        }
        return columns, triple

    return _evaluate("openset", params, gate, dataset, cfg, m_episodes, seed, partition,
                     collect_records, score_rows, ("main",) + gate.spaces)
