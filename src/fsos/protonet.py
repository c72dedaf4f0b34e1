"""Prototypical-network closed-set classifier, the min-distance threshold
baseline used as the open-set comparison point, and the chunk scorer every
evaluator, validator, calibration and gate reads.

Embeddings, prototypes and distances are row stacks, batched over episodes
by leading axes. All three episode losses (ProtoNet, Meta-BCE, OCML) take
an embed function and a training episode of row indices, and start with the
taped step embed_episode: the embed function runs the extractor on the rows
when it trains, or reads cached rows when it is frozen.

RowEmbeddings embeds each row of a row table at most once per cache, untaped,
in the spaces asked for: the trunk runs once per row, and each space is
computed from its backbone.SOURCE space on the way. A cache lives for one
evaluation or calibration call, one validation point of a run that trains
its extractor, one training run of a head on a frozen extractor, which
embeds its trained space from the cached source on the tape (embed), or the
whole validation of such a run, where refresh re-embeds the trained branch
or projected space from its cached source. A ScoredChunk
stacks B episodes of one shape from a cache and derives their prototypes
[B, n, e], main-space distances [B, m, n], nearest distances, closed
predictions and true labels as batched arrays. Work on embeddings, whose
size grows with e, runs in slices of a few episodes: each slice embeds the
rows it lacks, gathers its support rows for its prototypes and its query
rows (RowEmbeddings.embed, the cache's one reader), and writes its
prototypes, distances and gate products into the chunk's arrays, so a
chunk can hold many slices' worth of episodes.
Closed-set logits are negative squared Euclidean distances to per-class
prototypes, from autodiff's Gram-form kernel, which clamps at 0; argmin
ties, exact zeros included, break toward the lowest class id. The threshold
baseline scores a query by its distance to the nearest prototype and
accepts it as known when that distance is at most tau.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import Tensor, mean_rows, row_block_mean, scale_shift, softmax_xent
from .autodiff import sq_distances, squared_distance
from .backbone import SOURCE, embed_from, trunk_features
from .metrics import UNKNOWN

SPACES = ("trunk",) + tuple(SOURCE)  # each after its source


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


def predict_closed(distances, class_ids):
    """Class id of the nearest prototype per query row; the columns of the
    [..., m, n] distances follow the [..., n] class_ids, and ties go to the
    lowest class id."""
    ids = np.asarray(class_ids)
    order = np.argsort(ids, axis=-1, kind="stable")
    nearest = np.argmin(np.take_along_axis(distances, order[..., None, :], axis=-1), axis=-1)
    return np.take_along_axis(np.take_along_axis(ids, order, axis=-1), nearest, axis=-1)


# Image rows are filled in slices whose largest conv buffer holds at most
# this many values: 24 rows of DEFAULT_IMAGE_SPEC (a block-2 im2col of 18 432
# values a row), where the cost per row measured lowest (CHANGES.md).
IMAGE_SLICE_VALUES = 24 * 18432


def _conv_values_per_row(spec):
    """Values of the largest conv buffer one input row makes: per block, the
    [h*w, 9*c] im2col or the [h*w, oc] pre-pool activation."""
    (c, h, w), most = spec.input_shape, 0
    for _, oc in spec.blocks:
        most = max(most, h * w * max(9 * c, oc))
        c, h, w = oc, h // 2, w // 2
    return most


class RowEmbeddings:
    """Embeddings of a row table's rows in the given spaces, each row
    embedded at most once: a cache for one evaluation or calibration call
    or one validation point, filled once per scored slice, or for one
    training run of a head on a frozen extractor, filled once per block of
    drawn episodes, which draw the same rows again and again, or for that
    run's validation, refreshed at each point in the space the run trains.

    The "trunk" space holds trunk features in their own shape, the others
    embed_dim values per row. Missing rows are embedded in slices of at
    most slice_rows rows; for an image extractor, also of at most as many
    rows as keep each conv buffer within IMAGE_SLICE_VALUES values. fill and
    refresh write the cache; embed is its one reader.
    """

    def __init__(self, params, rows, spaces, slice_rows):
        self.params = params
        self.rows = rows
        self.spaces = tuple(s for s in SPACES if s in spaces)
        if params.spec.input_kind == "image":
            slice_rows = min(slice_rows,
                             max(1, IMAGE_SLICE_VALUES // _conv_values_per_row(params.spec)))
        self.slice_rows = slice_rows
        shape = {"trunk": params.spec.trunk_shape}
        self._values = {s: np.empty((rows.shape[0],) + shape.get(s, (params.embed_dim,)))
                        for s in self.spaces}
        # the spaces a fill computes after the trunk: those asked for and their sources
        needed = set(self.spaces)
        for s in reversed(SPACES[1:]):
            if s in needed:
                needed.add(SOURCE[s])
        self._walk = [s for s in SPACES[1:] if s in needed]
        self._done = np.zeros(rows.shape[0], dtype=bool)

    def _slices(self, indices):
        """(slice, the row indices to embed it from) per slice_rows of
        indices. numpy multiplies a single row by gemv, which rounds
        differently from gemm: a slice of one row is embedded as two copies
        of it, so that a row's embedding never depends on its slice."""
        for start in range(0, indices.size, self.slice_rows):
            part = indices[start : start + self.slice_rows]
            yield part, np.repeat(part, 2) if part.size == 1 else part

    def fill(self, indices):
        """Embed the rows among indices that are not embedded yet."""
        todo = np.unique(indices[~self._done[indices]])
        for part, rows in self._slices(todo):
            fresh = {"trunk": trunk_features(self.params, self.rows[rows])}
            for space in self._walk:
                fresh[space] = embed_from(self.params, space, fresh[SOURCE[space]])
            for space, values in self._values.items():
                values[part] = fresh[space].data[: part.size]
        self._done[todo] = True

    def refresh(self, space):
        """Re-embed every embedded row in space (the trained "branch" or
        "projected" one) from its cached SOURCE space; the cache must hold
        both."""
        values, source = self._space(space), self._space(SOURCE[space])
        for part, rows in self._slices(np.flatnonzero(self._done)):
            values[part] = embed_from(self.params, space, source[rows]).data[: part.size]

    def embed(self, space, indices):
        """Embeddings [*indices.shape, e] of embedded rows in space, which
        the caller owns: a copy of the cached rows when the cache holds
        space, else computed from the cached SOURCE space by
        backbone.embed_from, on the tape when one is active."""
        if space in self._values:
            return self._values[space][indices]
        return embed_from(self.params, space, self._space(SOURCE.get(space), space)[indices])

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

    Work on embeddings runs in slices of at most step episodes: embedding
    the rows the cache lacks (fill), the support gather and prototype mean
    (prototypes), and the query gather with the products over it
    (query_products, distances), both through cache.embed. Each slice is
    computed as a chunk of its own episodes would compute it and written
    into the [B, ...] result; the slices' query embeddings are dropped
    after the call that gathers them, so the chunk keeps none.
    """

    def __init__(self, cache, class_ids, support_rows, query_rows, q, step):
        self._slices = [slice(s, s + step) for s in range(0, class_ids.shape[0], step)]
        for s in self._slices:
            cache.fill(np.concatenate([support_rows[s].ravel(), query_rows[s].ravel()]))
        self.cache = cache
        self.class_ids = class_ids
        self.support_rows = support_rows
        self.query_rows = query_rows
        self.n = class_ids.shape[1]
        self.q = q
        self.n_known = self.n * q
        self._prototypes = {}

    def forget(self):
        """Drop the prototypes, as when the embeddings of a space change;
        they are computed again when asked for."""
        self._prototypes.clear()

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
        prototype."""
        return self.distances.min(axis=-1)

    @cached_property
    def closed_predictions(self):
        """Closed-set label per query [B, m]."""
        return predict_closed(self.distances, self.class_ids)


def embed_episode(embed_fn, episode):
    """The taped step every episode loss starts with: support prototypes
    [n, e] and known-query embeddings [n * q, e].

    episode is an episodes.Episode, of row indices when training draws it;
    embed_fn maps its class-ordered support or known queries to embeddings
    [N, e]. Records the support embedding, then the prototypes, then the
    query embedding."""
    support = embed_fn(episode.support)
    protos = mean_rows(support, groups=episode.n)
    queries = embed_fn(episode.queries[: episode.n * episode.q])
    return protos, queries


def episode_loss(embed_fn, episode):
    """Mean softmax cross-entropy of closed logits over the known queries.
    embed_fn maps the episode's entries to main embeddings (embed_episode);
    in training it embeds the table rows that the row indices name through
    the extractor, on the tape."""
    n, q = episode.n, episode.q
    if n < 2:
        raise ProtonetError(f"closed-set episode loss needs n >= 2 classes, got {n}")
    protos, emb_q = embed_episode(embed_fn, episode)
    d = squared_distance(emb_q, protos)
    logits = scale_shift(d, Tensor(-1.0), Tensor(0.0))
    labels = Tensor(np.arange(n, dtype=np.float64).repeat(q))
    return softmax_xent(logits, labels)


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
