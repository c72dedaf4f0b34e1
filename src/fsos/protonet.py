"""Prototypical-network closed-set classifier, the min-distance threshold
baseline used as the open-set comparison point, and the chunk scorer every
evaluator, validator, calibration and gate reads.

Embeddings, prototypes and distances are row stacks, batched over episodes
by leading axes. All three episode losses (ProtoNet, Meta-BCE, OCML) take
an embed function and a training episode of row indices, and start with the
taped step embed_episode: the embed function runs the extractor on the rows
when it trains, or reads cached rows when it is frozen.

RowEmbeddings embeds each row of a row table at most once per cache, untaped,
in the spaces asked for: the trunk runs once per row for the main and branch
blocks, and the projection is applied on top of main. A cache lives for one
evaluation or calibration call, one validation point of a run that trains
its extractor, one training run of a head on a frozen extractor, or the
whole validation of such a run, where refresh re-embeds the trained branch
or projected space from the cached trunk or main space. A ScoredChunk
stacks B episodes of one shape from a cache and derives their prototypes
[B, n, e], main-space distances [B, m, n], nearest distances, closed
predictions and true labels as batched arrays. A chunk gathers its query
embeddings into one buffer per space and query shape that the chunks of its
cache share, so a scoring call reuses the same memory chunk after chunk: an
array that queries() returns stays valid only until the next chunk of the
same cache takes that space, so ask the chunk again rather than keep it.
Closed-set logits are negative squared Euclidean distances to per-class
prototypes, from autodiff's Gram-form kernel, which clamps at 0; argmin
ties, exact zeros included, break toward the lowest class id. The threshold
baseline scores a query by its distance to the nearest prototype and
accepts it as known when that distance is at most tau.
"""

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import Tensor, mean_rows, row_block_mean, scale_shift, softmax_xent
from .autodiff import sq_distances, squared_distance
from .backbone import last_block, project, trunk_features, trunk_from_rows
from .metrics import UNKNOWN

SPACES = ("trunk", "main", "branch", "projected")


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


class RowEmbeddings:
    """Embeddings of a row table's rows in the given spaces, each row
    embedded at most once: a cache for one evaluation or calibration call
    or one validation point, filled once per scored chunk, or for one
    training run of a head on a frozen extractor, filled once per block of
    drawn episodes, which draw the same rows again and again, or for that
    run's validation, refreshed at each point in the space the run trains.

    The "trunk" space holds trunk features as flat rows (backbone.
    trunk_from_rows restores their shape), the others embed_dim values per
    row. Missing rows are embedded in slices of at most slice_rows rows.

    lend gathers into one buffer per space and index shape, shared by the
    chunks of this cache: what it returns stays valid until another chunk
    takes that buffer, which first makes the chunk holding it forget. The
    cache refers to that chunk only weakly, so a chunk its caller drops is
    freed at once, not by the cyclic garbage collector.
    """

    def __init__(self, params, rows, spaces, slice_rows):
        self.params = params
        self.rows = rows
        self.spaces = tuple(s for s in SPACES if s in spaces)
        self.slice_rows = slice_rows
        trunk_dim = math.prod(params.spec.trunk_shape)
        self._values = {
            s: np.empty((rows.shape[0], trunk_dim if s == "trunk" else params.embed_dim))
            for s in self.spaces
        }
        self._done = np.zeros(rows.shape[0], dtype=bool)
        self._lent = {}  # (space, index shape) -> (buffer, weakref to its holder)

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
        params = self.params
        for part, rows in self._slices(todo):
            h = trunk_features(params, self.rows[rows])
            fresh = {"trunk": h}
            if "branch" in self.spaces:
                fresh["branch"] = last_block(params, h, params.branch)
            if "main" in self.spaces or "projected" in self.spaces:
                fresh["main"] = last_block(params, h, params.head)
            if "projected" in self.spaces:
                fresh["projected"] = project(params, fresh["main"])
            for space, values in self._values.items():
                values[part] = fresh[space].data[: part.size].reshape(part.size, -1)
        self._done[todo] = True

    def refresh(self, space):
        """Re-embed every embedded row in the "branch" or "projected" space
        after its block has trained, from the cached trunk features or main
        embeddings it is computed from; the cache must hold that space."""
        params, values = self.params, self._values
        for part, rows in self._slices(np.flatnonzero(self._done)):
            if space == "branch":
                fresh = last_block(params, trunk_from_rows(params, values["trunk"][rows]),
                                   params.branch)
            else:
                fresh = project(params, values["main"][rows])
            values[space][part] = fresh.data[: part.size]

    def _space(self, space):
        if space not in self._values:
            raise ProtonetError(f"embedding space {space!r} was not requested ({self.spaces})")
        return self._values[space]

    def take(self, space, indices):
        """Embeddings [*indices.shape, e] of embedded rows in one space."""
        return self._space(space)[indices]

    def lend(self, space, indices, holder):
        """take of filled rows, into this cache's buffer for space and
        indices.shape; the chunk that held that buffer before, if not
        holder, forgets first."""
        values = self._space(space)
        key = (space, indices.shape)
        if key in self._lent:
            buffer, previous = self._lent[key]
            previous = previous()
            if previous is not None and previous is not holder:
                previous.forget()
        else:
            buffer = np.empty(indices.shape + values.shape[1:])
        self._lent[key] = buffer, weakref.ref(holder)
        # fill has indexed every row, so "wrap" never wraps; "raise" would
        # copy through a temporary
        return np.take(values, indices, axis=0, out=buffer, mode="wrap")


class ScoredChunk:
    """B episodes of one shape scored as stacked arrays.

    class_ids [B, n] are each episode's known classes in episode order;
    support_rows [B, n * k] (class-ordered) and query_rows [B, m] (the n * q
    known queries, then the unknown ones) index the rows of cache, a
    RowEmbeddings. Every derived quantity is computed on first use and
    shared by the closed-set classifier and the gates.

    Query embeddings live in the cache's shared buffer (RowEmbeddings.lend):
    an array that queries() returns stays valid only until the next chunk
    of the same cache takes that space, which makes this chunk forget it.
    Ask the chunk again rather than keep the array.
    """

    def __init__(self, cache, class_ids, support_rows, query_rows, q):
        cache.fill(np.concatenate([support_rows.ravel(), query_rows.ravel()]))
        self.cache = cache
        self.class_ids = class_ids
        self.support_rows = support_rows
        self.query_rows = query_rows
        self.n = class_ids.shape[1]
        self.q = q
        self.n_known = self.n * q
        self._queries = {}
        self._prototypes = {}

    def forget(self):
        """Drop the query embeddings and prototypes taken from the cache, as
        when another chunk takes a buffer this one held; what derives from
        them (distances, closed predictions) stays, and they are taken again
        when asked for."""
        self._queries.clear()
        self._prototypes.clear()

    def queries(self, space="main"):
        """Query embeddings [B, m, e] in the "main", "branch" or "projected"
        space, valid until another chunk of the cache takes that space."""
        if space not in self._queries:
            self._queries[space] = self.cache.lend(space, self.query_rows, self)
        return self._queries[space]

    def prototypes(self, space="main"):
        """Per-class prototypes [B, n, e] in the given space, episode class order."""
        if space not in self._prototypes:
            self._prototypes[space] = prototypes(self.cache.take(space, self.support_rows), self.n)
        return self._prototypes[space]

    @cached_property
    def truth(self):
        """True label per query [B, m]: known, then UNKNOWN."""
        known = np.repeat(self.class_ids, self.q, axis=1)
        unknown = np.full((known.shape[0], self.query_rows.shape[1] - self.n_known), UNKNOWN)
        return np.concatenate([known, unknown], axis=1)

    @cached_property
    def distances(self):
        """Main-space squared distances [B, m, n]; closed logits are their negation."""
        return pairwise_sq_distances(self.queries(), self.prototypes())

    @cached_property
    def nearest_distance(self):
        """Threshold-baseline score per query [B, m]: distance to the nearest
        prototype."""
        return self.distances.min(axis=-1)

    @cached_property
    def closed_predictions(self):
        """Closed-set label per query [B, m]."""
        return predict_closed(self.distances, self.class_ids)


def _stack(entries):
    """[n, k, ...] class blocks of rows or row indices as one [n * k, ...] stack."""
    return entries.reshape((-1,) + entries.shape[2:])


def embed_episode(embed_fn, episode):
    """The taped step every episode loss starts with: support prototypes
    [n, e] and known-query embeddings [n * q, e].

    episode is an episodes.Episode, of row indices when training draws it;
    embed_fn maps a class-ordered stack of its entries to embeddings [N, e].
    Records the support embedding, then the prototypes, then the query
    embedding."""
    support = embed_fn(_stack(episode.support))
    protos = mean_rows(support, groups=episode.n)
    queries = embed_fn(_stack(episode.query_known))
    return protos, queries


def episode_loss(embed_fn, episode):
    """Mean softmax cross-entropy of closed logits over the known queries.
    embed_fn maps the episode's stacked entries to main embeddings
    (embed_episode); in training it embeds the table rows that the row
    indices name through the extractor, on the tape."""
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
