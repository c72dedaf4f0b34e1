"""Meta-BCE one-class head.

The head scores a query against a single class as sigmoid(-(d + t)), where d
is the squared Euclidean distance between the query and the class prototype
in a dedicated one-class feature space, and t is a learnable offset. The
one-class space is either the branch copy of the extractor's last block
("branch", the main method) or a learned dense projection of the main
embedding ("projected", the ablation variant that keeps the main branch).

Meta-training minimizes binary cross-entropy over every (query, episode
class) pair; negatives are the episode's other classes, so no background
categories are needed. The extractor stays frozen: training reads its
output from a per-run cache (FROZEN_SPACE) and tapes only the trained block.
For n classes, a query is unknown when even its best-matching class rejects
it (episodes.max_prob_decision).
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, bce, scale_shift, sigmoid, squared_distance
from .backbone import embed_branch, embed_projected, last_block, project, trunk_from_rows
from .protonet import embed_episode, pairwise_sq_distances

VARIANTS = ("branch", "projected")
# the frozen extractor's output each variant trains on, as a RowEmbeddings space
FROZEN_SPACE = {"branch": "trunk", "projected": "main"}


class MetaBceError(ValueError):
    pass


@dataclass
class MetaBceHead:
    t: Tensor
    variant: str = "branch"

    def copy(self):
        return MetaBceHead(Tensor(self.t.data.copy(), requires_grad=True), self.variant)


def init_head(variant="branch"):
    if variant not in VARIANTS:
        raise MetaBceError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return MetaBceHead(Tensor(0.0, requires_grad=True), variant)


def oneclass_embed(head, params, x):
    """Embed input rows into the head's one-class feature space."""
    if head.variant == "branch":
        return embed_branch(params, x)
    return embed_projected(params, x)


def cached_oneclass_embed(head, params, cache, rows):
    """One-class embeddings [N, e] of row indices [N] into a RowEmbeddings
    cache of the head's FROZEN_SPACE: the branch block on cached trunk
    features, or the projection of cached main embeddings. Only that block
    reaches the tape."""
    if head.variant == "branch":
        trunk = trunk_from_rows(params, cache.take("trunk", rows))
        return last_block(params, trunk, params.branch)
    return project(params, cache.take("main", rows))


def prob_known(head, queries, prototypes):
    """sigmoid(-(d + t)) [..., m, n] for query rows [..., m, e] against
    prototype rows [..., n, e], both in the head's one-class space."""
    d = pairwise_sq_distances(queries, prototypes)
    return sigmoid(Tensor(-(d + float(head.t.data)))).data


def episode_loss(head, embed_fn, episode):
    """Mean BCE over all (known query, episode class) pairs, with target 1
    exactly when the query belongs to the class. embed_fn maps the episode's
    stacked entries into the one-class space (protonet.embed_episode):
    training passes row indices to partial(cached_oneclass_embed, head,
    params, cache); partial(oneclass_embed, head, params) embeds input rows."""
    if episode.query_known.size == 0:
        raise MetaBceError("episode has no known queries")
    protos, emb_q = embed_episode(embed_fn, episode)
    d = squared_distance(emb_q, protos)
    neg_t = scale_shift(head.t, Tensor(-1.0), Tensor(0.0))
    logits = scale_shift(d, Tensor(-1.0), neg_t)
    targets = np.eye(episode.n).repeat(episode.q, axis=0)
    return bce(logits, Tensor(targets))


def trainable_tensors(head, params):
    """Parameters updated when training this head: the offset plus the branch
    block (branch variant) or the projection map (projected variant)."""
    if head.variant == "branch":
        return [head.t] + params.branch_tensors()
    return [head.t] + params.projection_tensors()


def head_to_group(head):
    """Checkpoint group ("mbce", params) plus head metadata."""
    return ("mbce", [("t", head.t.data)]), {"variant": head.variant}


def head_from_group(group_params, meta):
    params = dict(group_params)
    if "t" not in params:
        raise MetaBceError("mbce checkpoint group is missing parameter t")
    head = init_head(meta.get("variant", "branch"))
    head.t = Tensor(np.array(params["t"], dtype=np.float64), requires_grad=True)
    return head
