"""Prototypical-network closed-set classifier, the min-distance threshold
baseline used as the open-set comparison point, and the chunk scorer every
evaluator, validator, calibration and gate reads.

Embeddings, prototypes and distances are row stacks, batched over episodes
by leading axes. All three episode losses (ProtoNet, Meta-BCE, OCML) take
an episode's embedded inputs, its support prototypes and known-query
embeddings, and the training episode of row indices. Training makes the
inputs with the taped step embed_episode, whose embed function runs the
extractor on the rows when it trains, or reads or computes them from cached
rows when it is frozen; a head that reads a frozen cached space itself takes
its prototypes from the training block's ScoredChunk instead.

RowEmbeddings embeds each row of a row table at most once per cache, untaped,
in the spaces asked for, in slices it sizes itself: the trunk runs once per
row, and each space is computed from its backbone.SOURCE space on the way.
It holds only the rows it has embedded, in fill order, in slots that grow
by doubling up to the table's row count, so its memory follows the rows
drawn, not the table. A slice of fewer than 4 rows is padded to 4, so the
BLAS multiplies every slice on one kernel (_slices).
A cache lives for one evaluation or calibration call, one validation point of a run that trains
its extractor, one training run of a head on a frozen extractor, which
embeds its trained space from the cached source on the tape (embed), or the
whole validation of such a run, where refresh re-embeds the trained branch
or projected space from its cached source. A ScoredChunk stacks B
episodes of one shape from a cache, fills it with their rows in one call,
and derives their prototypes [B, n, e], main-space distances [B, m, n],
nearest distances, closed predictions and true labels as batched arrays.
The rest of the work on embeddings, whose size grows with e, runs in slices
of a few episodes: each slice gathers its support rows for its prototypes
and its query rows (RowEmbeddings.embed, the cache's one reader), and
writes its prototypes, distances and gate products into the chunk's
arrays, so a chunk can hold many slices' worth of episodes.
Closed-set logits are negative squared Euclidean distances to per-class
prototypes, from autodiff's Gram-form kernel, which clamps at +0.0; ties
for the nearest prototype, exact zeros included, go to the lowest class id.
The threshold baseline scores a query by its distance to the nearest
prototype and accepts it as known when that distance is at most tau.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .autodiff import Tensor, mean_rows, row_block_mean, scale_shift, softmax_xent
from .autodiff import sq_distances, squared_distance
from .backbone import SOURCE, embed_from, embed_main_and_branch, fits_wide_block
from .backbone import trunk_features
from .metrics import UNKNOWN

SPACES = ("trunk",) + tuple(SOURCE)  # each after its source
# the losses' constant scale_shift operands: never given a gradient, never written
MINUS_ONE, ZERO = Tensor(-1.0), Tensor(0.0)


class ProtonetError(ValueError):
    pass


def prototypes(support_embeddings, n):
    """Per-class means [..., n, e] of class-ordered [..., n * k, e] support
    stacks."""
    emb = np.asarray(support_embeddings, dtype=np.float64)
    if emb.ndim < 2 or emb.shape[-2] == 0 or n < 1 or emb.shape[-2] % n:
        raise ProtonetError(f"cannot split support embeddings {emb.shape} into {n} classes")
    lead, e = emb.shape[:-2], emb.shape[-1]
    groups = n * int(np.prod(lead))
    return row_block_mean(emb.reshape(-1, e), groups).reshape(lead + (n, e))


def pairwise_sq_distances(queries, protos_matrix):
    """Squared Euclidean distances [..., m, n] between query rows [..., m, e]
    and prototype rows [..., n, e] with the same leading axes, by sq_distances."""
    q = np.asarray(queries, dtype=np.float64)
    p = protos_matrix
    if q.ndim < 2 or p.ndim != q.ndim or q.shape[:-2] != p.shape[:-2] or q.shape[-1] != p.shape[-1]:
        raise ProtonetError(
            f"need query rows [..., m, e] and prototype rows [..., n, e], got {q.shape} and "
            f"{p.shape}"
        )
    return sq_distances(q, p)


def fold_columns(ufunc, values):
    """np.minimum or np.maximum folded over the n columns of [..., n] values:
    values.min/max(axis=-1), exactly, on inputs without -0.0 and NaN (there
    the two may pick another sign or payload), in about 20 against 300 us at
    [40, 150, 5], where numpy 2.4.6 reduces the short last axis row by row."""
    out = values[..., 0].copy()
    for j in range(1, values.shape[-1]):
        ufunc(out, values[..., j], out=out)
    return out


def predict_closed(distances, class_ids):
    """Class id of the nearest prototype per query row; the columns of the
    [..., m, n] distances (never NaN) follow the [..., n] integer class_ids;
    ties go to the lowest class id, the least one of the columns equal to the
    nearest distance: about 160 us at [40, 150, 5] with the nearest fold,
    against 590 us for an argmin over columns sorted into id order."""
    ids = np.asarray(class_ids)
    nearest = fold_columns(np.minimum, distances)[..., None]
    none = np.iinfo(ids.dtype).max
    return fold_columns(np.minimum, np.where(distances == nearest, ids[..., None, :], none))


# fill and refresh embed rows in slices whose largest per-row buffer holds
# at most this many values in all: 24 rows of DEFAULT_IMAGE_SPEC (a block-2
# im2col of 18 432 values a row), where the cost per row measured lowest.
SLICE_VALUES = 24 * 18432


def _values_per_row(spec, wide=False):
    """Values of the largest buffer one input row makes: for a dense spec
    the widest of the input and block widths, for a conv spec, per block,
    the [h*w, 9*c] im2col or the [h*w, oc] pre-pool activation; wide counts
    the last block at double width, as embed_main_and_branch runs it."""
    widths = [d for _, d in spec.blocks]
    widths[-1] *= 2 if wide else 1
    if spec.input_kind == "vector":
        return max(spec.input_shape + tuple(widths))
    (c, h, w), most = spec.input_shape, 0
    for oc in widths:
        most = max(most, h * w * max(9 * c, oc))
        c, h, w = oc, h // 2, w // 2
    return most


class RowEmbeddings:
    """Embeddings of a row table's rows in the given spaces, each row
    embedded at most once: a cache for one evaluation or calibration call
    or one validation point, filled once per scored chunk, or for one
    training run of a head on a frozen extractor, filled once per block of
    drawn episodes, which draw the same rows again and again, or for that
    run's validation, refreshed at each point in the space the run trains.

    The "trunk" space holds trunk features in their own shape, the others
    embed_dim values per row. Only embedded rows are held, size of them in
    fill order in capacity slots per space (_slot maps a table row to its
    slot, -1 until embedded); a fill that needs more slots grows them to
    min(table rows, max(needed, 2 x capacity)). fill and refresh embed rows
    in slices of slice_rows rows, as many as keep the largest per-row
    buffer within SLICE_VALUES values (_values_per_row); they write the
    cache, and embed is its one reader. A fill that needs main and branch,
    as the branch Meta-BCE gate's do, computes both as one block of doubled
    width where the last block is 8k wide (backbone.embed_main_and_branch,
    bit for bit), and its slices count that width; refresh runs one block.
    """

    def __init__(self, params, rows, spaces):
        self.params = params
        self.rows = rows
        self.spaces = tuple(s for s in SPACES if s in spaces)
        shape = {"trunk": params.spec.trunk_shape}
        self._values = {s: np.empty((0,) + shape.get(s, (params.embed_dim,)))
                        for s in self.spaces}
        # the spaces a fill computes after the trunk: those asked for and their sources
        needed = set(self.spaces)
        for s in reversed(SPACES[1:]):
            if s in needed:
                needed.add(SOURCE[s])
        self._walk = [s for s in SPACES[1:] if s in needed]
        self._wide = {"main", "branch"} <= needed and fits_wide_block(params.spec)
        self.slice_rows = max(1, SLICE_VALUES // _values_per_row(params.spec, self._wide))
        self._slot = np.full(rows.shape[0], -1)
        self.size = self.capacity = 0

    def _slices(self, indices):
        """(slice, the row indices to embed it from) per slice_rows of
        indices. numpy multiplies a single row by gemv, and scipy-openblas
        0.3.31 multiplies 2 or 3 rows by a 512 x 512 projection with a
        small-matrix kernel; both round differently from the blocked gemm, so
        a slice of fewer than 4 rows is embedded from 4, its rows repeated.
        A row's embedding is then independent of its slice wherever the BLAS
        runs every product of 4 or more rows on one kernel, as that build's
        SkylakeX and SandyBridge kernels do for the dense specs' 32- and
        64-wide weights and for DEFAULT_IMAGE_SPEC (tests/test_scoring.py);
        on its Haswell kernels an odd row count moves a product's last row."""
        for start in range(0, indices.size, self.slice_rows):
            part = indices[start : start + self.slice_rows]
            yield part, np.resize(part, 4) if part.size < 4 else part

    def fill(self, indices):
        """Embed the rows among indices that are not embedded yet into the
        next slots, growing every space first if they lack room."""
        todo = np.unique(indices[self._slot[indices] < 0])
        if self.size + todo.size > self.capacity:
            self.capacity = min(self._slot.size, max(self.size + todo.size, 2 * self.capacity))
            for space, values in self._values.items():
                self._values[space] = np.empty((self.capacity,) + values.shape[1:])
                self._values[space][: self.size] = values[: self.size]
        for part, rows in self._slices(todo):
            fresh = {"trunk": trunk_features(self.params, self.rows[rows]).data}
            if self._wide:
                fresh["main"], fresh["branch"] = embed_main_and_branch(self.params,
                                                                       fresh["trunk"])
            for space in self._walk:
                if space not in fresh:
                    fresh[space] = embed_from(self.params, space, fresh[SOURCE[space]]).data
            slots = np.arange(self.size, self.size + part.size)
            for space, values in self._values.items():
                values[slots] = fresh[space][: part.size]
            self._slot[part] = slots
            self.size += part.size

    def refresh(self, space):
        """Re-embed every embedded row in space (the trained "branch" or
        "projected" one) from its cached SOURCE space, in slices of the
        embedded rows in row order; the cache must hold both spaces."""
        values, source = self._space(space), self._space(SOURCE[space])
        for part, rows in self._slices(np.flatnonzero(self._slot >= 0)):
            fresh = embed_from(self.params, space, source[self._slot[rows]])
            values[self._slot[part]] = fresh.data[: part.size]

    def embed(self, space, indices):
        """Embeddings [*indices.shape, e] of embedded rows in space, which
        the caller owns: a copy of the cached rows when the cache holds
        space, else computed from the cached SOURCE space by
        backbone.embed_from, on the tape when one is active."""
        slots = self._slot[indices]
        if space in self._values:
            return self._values[space][slots]
        return embed_from(self.params, space, self._space(SOURCE.get(space), space)[slots])

    def _space(self, space, asked=None):
        if space not in self._values:
            raise ProtonetError(f"embedding {asked or space!r} was not requested ({self.spaces})")
        return self._values[space]


class ScoredChunk:
    """B episodes of one shape scored as stacked arrays.

    class_ids [B, n] are each episode's known classes in episode order;
    support_rows [B, n * k] (class-ordered) and query_rows [B, m] (the n * q
    known queries, then the unknown ones) index the rows of cache, a
    RowEmbeddings. Every derived quantity is computed on first use and
    shared by the closed-set classifier and the gates.

    One cache.fill embeds the rows the cache lacks; the rest of the work
    on embeddings runs in slices of at most step episodes: the support
    gather and prototype mean (prototypes), and the query gather with the
    products over it (query_products, distances), both through cache.embed.
    Each slice is computed as a chunk of its own episodes would compute it
    and written into the [B, ...] result; the slices' query embeddings are
    dropped after the call that gathers them, so the chunk keeps none.
    """

    def __init__(self, cache, class_ids, support_rows, query_rows, q, step):
        cache.fill(np.concatenate([support_rows.ravel(), query_rows.ravel()]))
        self._slices = [slice(s, s + step) for s in range(0, class_ids.shape[0], step)]
        self.cache = cache
        self.class_ids = class_ids
        self.support_rows = support_rows
        self.query_rows = query_rows
        self.n = class_ids.shape[1]
        self.q = q
        self.n_known = self.n * q
        self._prototypes = {}

    def forget(self, spaces):
        """Drop the prototypes in spaces, as when their embeddings change;
        they are computed again when asked for."""
        self._prototypes = {s: p for s, p in self._prototypes.items() if s not in spaces}

    def prototypes(self, space="main"):
        """Per-class prototypes [B, n, e] in the given space, episode class order."""
        if space not in self._prototypes:
            self._prototypes[space] = np.concatenate([
                prototypes(self.cache.embed(space, self.support_rows[s]), self.n)
                for s in self._slices])
        return self._prototypes[space]

    def query_products(self, space, fn):
        """fn(queries [b, m, e], prototypes [b, n, e]) -> [b, m, n] applied to
        each slice's query embeddings and prototypes in space, as one
        [B, m, n] array. Each query stack is a fresh array fn may keep."""
        protos = self.prototypes(space)
        out = np.empty(self.query_rows.shape + (self.n,))
        for s in self._slices:
            out[s] = fn(self.cache.embed(space, self.query_rows[s]), protos[s])
        return out

    @cached_property
    def truth(self):
        """True label per query [B, m]: known, then UNKNOWN."""
        known = np.repeat(self.class_ids, self.q, axis=1)
        unknown = np.full((known.shape[0], self.query_rows.shape[1] - self.n_known), UNKNOWN)
        return np.concatenate([known, unknown], axis=1)

    @cached_property
    def distances(self):
        """Main-space squared distances [B, m, n]; closed logits are their negation."""
        return self.query_products("main", pairwise_sq_distances)

    @cached_property
    def nearest_distance(self):
        """Threshold-baseline score per query [B, m]: distance to the nearest
        prototype, by fold_columns: distances are never -0.0."""
        return fold_columns(np.minimum, self.distances)

    @cached_property
    def closed_predictions(self):
        """Closed-set label per query [B, m]."""
        return predict_closed(self.distances, self.class_ids)


def embed_episode(embed_fn, episode):
    """The taped step that makes an episode loss's inputs: support
    prototypes [n, e] and known-query embeddings [n * q, e].

    episode is an episodes.Episode, of row indices when training draws it;
    embed_fn maps its class-ordered support or known queries to embeddings
    [N, e]. Records the support embedding, then the prototypes, then the
    query embedding."""
    support = embed_fn(episode.support)
    protos = mean_rows(support, groups=episode.n)
    queries = embed_fn(episode.queries[: episode.n * episode.q])
    return protos, queries


@lru_cache(maxsize=None)
def episode_labels(n, q):
    """Read-only labels [n * q] of class-ordered known queries, one per shape."""
    labels = Tensor(np.arange(n, dtype=np.float64).repeat(q))
    labels.data.flags.writeable = False
    return labels


@lru_cache(maxsize=None)
def bce_targets(n, q):
    """Read-only BCE targets [n * q, n], one array per episode shape: 1
    where the known query belongs to the class."""
    targets = np.eye(n).repeat(q, axis=0)
    targets.flags.writeable = False
    return targets


def episode_loss(inputs, episode):
    """Mean softmax cross-entropy of closed logits over the known queries.
    inputs are the episode's main-space (prototypes, known-query
    embeddings), as embed_episode makes them."""
    n, q = episode.n, episode.q
    if n < 2:
        raise ProtonetError(f"closed-set episode loss needs n >= 2 classes, got {n}")
    protos, emb_q = inputs
    d = squared_distance(emb_q, protos)
    return softmax_xent(scale_shift(d, MINUS_ONE, ZERO), episode_labels(n, q))


@dataclass(frozen=True)
class ThresholdBaseline:
    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ProtonetError(f"tau must be finite and >= 0, got {self.tau}")


def scan_threshold(known_scores, unknown_scores):
    """Pick tau maximizing balanced accuracy over pooled validation scores.

    Candidates are the midpoints of consecutive sorted unique scores; the
    smallest maximizing tau wins. A query counts known when score <= tau.
    """
    ks = np.asarray(known_scores, dtype=np.float64)
    us = np.asarray(unknown_scores, dtype=np.float64)
    if ks.size == 0:
        raise ProtonetError("threshold calibration needs known-query scores")
    if us.size == 0:
        raise ProtonetError("threshold calibration needs unknown-query scores")
    uniq = np.unique(np.concatenate([ks, us]))
    if uniq.size == 1:
        return ThresholdBaseline(float(uniq[0]))
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    # sorted counts: known scores <= tau, and unknown scores > tau, per midpoint
    known_in = np.searchsorted(np.sort(ks), mids, side="right") / ks.size
    unknown_out = (us.size - np.searchsorted(np.sort(us), mids, side="right")) / us.size
    balanced = 0.5 * known_in + 0.5 * unknown_out
    return ThresholdBaseline(float(mids[np.argmax(balanced)]))


def calibrate_threshold(chunks):
    """Calibrate tau on scored validation chunks in the main embedding space."""
    known_scores, unknown_scores = [], []
    for chunk in chunks:
        known_scores.append(chunk.nearest_distance[:, : chunk.n_known].ravel())
        unknown_scores.append(chunk.nearest_distance[:, chunk.n_known :].ravel())
    if not known_scores:
        raise ProtonetError("threshold calibration needs at least one episode")
    unknown = np.concatenate(unknown_scores)
    if unknown.size == 0:
        raise ProtonetError("threshold calibration needs episodes with unknown queries")
    return scan_threshold(np.concatenate(known_scores), unknown)
