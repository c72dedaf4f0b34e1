"""OCML: a transfer module that turns a class prototype into the weight
vector of a one-class classifier.

The transfer module is a small fully connected map on the main embedding
space: w_c = g(prototype_c), and the query probability is sigmoid(w_c . f(x)).
Prototypes are fed directly (the per-class mean of main-space support
embeddings), so any shot count works. Training minimizes BCE over (query,
episode class) pairs either jointly with the extractor or with the extractor
frozen; frozen mode is what augments an existing closed-set model without
touching its predictions.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, as_tensor, bce, dot, sigmoid
from .protonet import bce_targets


class OcmlError(ValueError):
    pass


@dataclass
class TransferModule:
    """Dense layers (W, b); ReLU between layers, final layer bias-free."""

    layers: list
    architecture: str = "1layer"

    def tensors(self):
        out = []
        for w, b in self.layers:
            out.append(w)
            if b is not None:
                out.append(b)
        return out

    def copy(self):
        layers = [
            (
                Tensor(w.data.copy(), requires_grad=True),
                None if b is None else Tensor(b.data.copy(), requires_grad=True),
            )
            for w, b in self.layers
        ]
        return TransferModule(layers, self.architecture)


# shrinks the fan-in uniform init so freshly generated weights give
# probabilities near 0.5; large random weights saturate the sigmoid on the
# first episodes and wreck early training
INIT_SCALE = 0.01


def make_transfer_module(embed_dim, middle_dim=None, seed=0):
    """Single dense layer embed_dim -> embed_dim, or two layers through
    middle_dim with a ReLU between them, initialized uniform within
    INIT_SCALE / sqrt(fan-in)."""
    rng = np.random.default_rng(seed)
    if embed_dim < 1:
        raise OcmlError(f"bad embedding dim {embed_dim}")
    if middle_dim is None:
        bound = INIT_SCALE / np.sqrt(embed_dim)
        w = Tensor(rng.uniform(-bound, bound, (embed_dim, embed_dim)), requires_grad=True)
        return TransferModule([(w, None)], "1layer")
    if middle_dim < 1:
        raise OcmlError(f"bad middle dim {middle_dim}")
    b1 = INIT_SCALE / np.sqrt(embed_dim)
    w1 = Tensor(rng.uniform(-b1, b1, (embed_dim, middle_dim)), requires_grad=True)
    bias1 = Tensor(rng.uniform(-b1, b1, (middle_dim,)), requires_grad=True)
    b2 = INIT_SCALE / np.sqrt(middle_dim)
    w2 = Tensor(rng.uniform(-b2, b2, (middle_dim, embed_dim)), requires_grad=True)
    return TransferModule([(w1, bias1), (w2, None)], f"2layers_mid{middle_dim}")


def architecture_menu(embed_dim):
    """The four transfer-module architectures of the ablation grid: one
    linear layer, plus two-layer variants whose middle widths {100, 500,
    1000} are quoted at a nominal 1600-dim embedding and rescaled."""
    scale = embed_dim / 1600.0
    menu = [("1layer", None)]
    for ref in (100, 500, 1000):
        mid = max(1, round(ref * scale))
        menu.append((f"2layers_mid{mid}", mid))
    return menu


def transfer_to_group(transfer):
    """Checkpoint group ("ocml", params) plus module metadata."""
    params = []
    for i, (w, b) in enumerate(transfer.layers):
        params.append((f"w{i}", w.data))
        if b is not None:
            params.append((f"b{i}", b.data))
    return ("ocml", params), {"architecture": transfer.architecture}


def transfer_from_group(group_params, meta):
    by_name = dict(group_params)
    layers = []
    i = 0
    while f"w{i}" in by_name:
        w = Tensor(np.array(by_name[f"w{i}"], dtype=np.float64), requires_grad=True)
        b = None
        if f"b{i}" in by_name:
            b = Tensor(np.array(by_name[f"b{i}"], dtype=np.float64), requires_grad=True)
        layers.append((w, b))
        i += 1
    if not layers:
        raise OcmlError("ocml checkpoint group holds no layers")
    return TransferModule(layers, meta.get("architecture", "1layer"))


def generate_weight(transfer, prototypes):
    """w_c = g(prototype_c) [..., n, e] for prototype stacks [..., n, e]."""
    h = as_tensor(prototypes)
    if h.data.ndim < 2:
        raise OcmlError(f"need prototype rows [..., n, e], got {h.data.shape}")
    if h.data.shape[-1] != transfer.layers[0][0].data.shape[0]:
        raise OcmlError(
            f"prototype dim {h.data.shape[-1]} != transfer input dim "
            f"{transfer.layers[0][0].data.shape[0]}"
        )
    last = len(transfer.layers) - 1
    for i, (w, b) in enumerate(transfer.layers):
        h = affine(h, w, b, relu=i < last)
    return h


def prob_known(weights, queries):
    """sigmoid(w_c . f) [..., m, n] for generated weight rows [..., n, e] and
    main-space query rows [..., m, e] with the same leading axes."""
    if (weights.ndim < 2 or queries.ndim != weights.ndim
            or weights.shape[:-2] != queries.shape[:-2] or weights.shape[-1] != queries.shape[-1]):
        raise OcmlError(
            f"need weight rows [..., n, e] and query rows [..., m, e], got {weights.shape} and "
            f"{queries.shape}"
        )
    return sigmoid(Tensor(queries @ np.swapaxes(weights, -1, -2))).data


def episode_loss(transfer, inputs, episode):
    """Mean BCE over all (known query, episode class) pairs using
    sigmoid(w_c . f(x)) probabilities, with w_c generated from the support
    prototypes. inputs are the episode's main-space (prototypes, known-query
    embeddings): from protonet.embed_episode on the tape when the extractor
    trains too, from cached main embeddings when it is frozen."""
    if not episode.q:
        raise OcmlError("episode has no known queries")
    protos, emb_q = inputs
    weights = generate_weight(transfer, protos)
    logits = dot(emb_q, weights)
    return bce(logits, Tensor(bce_targets(episode.n, episode.q)))
