"""Embedding networks: shared trunk, closed-set head block, one-class branch.

The extractor is a stack of blocks (dense or conv). Its last block is the
"head"; a shape-identical "branch" copy of that block provides the separate
one-class feature space, and an optional dense projection maps main
embeddings into a one-class space without a branch. SOURCE names the space
embed_from computes each embedding space from: main and branch from the
trunk (all blocks before the last, shared by every space), projected from
main; embed_main_and_branch computes main and branch as one wide block, bit
for bit, where fits_wide_block allows. Inputs are rows [n, prod(input_shape)],
as datasets store them; embeddings are [n, embed_dim].
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, as_tensor, conv3x3_pool, reshape, scale_shift


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class BackboneSpec:
    """input_kind: "vector" (input_shape (d,)) or "image" ((c, h, w));
    blocks: tuple of ("dense", out_dim) or ("conv", out_channels)."""

    input_kind: str
    input_shape: tuple
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(
            self, "blocks", tuple((str(k), int(d)) for k, d in self.blocks)
        )
        if self.input_kind not in ("vector", "image"):
            raise SpecError(f"unknown input kind {self.input_kind!r}")
        if len(self.blocks) < 2:
            raise SpecError("backbone needs at least 2 blocks (the branch copies the last)")
        want = "dense" if self.input_kind == "vector" else "conv"
        for kind, dim in self.blocks:
            if kind != want:
                raise SpecError(f"{self.input_kind} input requires {want} blocks, got {kind}")
            if dim < 1:
                raise SpecError(f"non-positive block dim {dim}")
        if self.input_kind == "vector":
            if len(self.input_shape) != 1 or self.input_shape[0] < 1:
                raise SpecError(f"vector input_shape must be (d,), got {self.input_shape}")
        else:
            if len(self.input_shape) != 3:
                raise SpecError(f"image input_shape must be (c, h, w), got {self.input_shape}")
            c, h, w = self.input_shape
            if min(c, h, w) < 1:
                raise SpecError(f"non-positive image dims {self.input_shape}")
            for _ in self.blocks:
                if h < 2 or w < 2 or h % 2 or w % 2:
                    raise SpecError("image dims must stay even and >= 2 through every pool")
                h, w = h // 2, w // 2

    def _shape_after(self, blocks):
        if self.input_kind == "vector":
            return (blocks[-1][1],)
        c, h, w = self.input_shape
        for _, oc in blocks:
            c, h, w = oc, h // 2, w // 2
        return (c, h, w)

    @property
    def trunk_shape(self):
        """Shape of one row's trunk features: (d,) or (c, h, w)."""
        return self._shape_after(self.blocks[:-1])

    @property
    def embed_dim(self):
        return math.prod(self._shape_after(self.blocks))

    def to_dict(self):
        return {
            "input_kind": self.input_kind,
            "input_shape": list(self.input_shape),
            "blocks": [[k, d] for k, d in self.blocks],
        }

    @staticmethod
    def from_dict(d):
        missing = sorted({"input_kind", "input_shape", "blocks"} - set(d))
        if missing:
            raise SpecError(f"backbone spec is missing {missing}")
        shape, blocks = d["input_shape"], d["blocks"]
        if not (isinstance(shape, list) and all(_is_int(v) for v in shape)):
            raise SpecError(f"backbone spec input_shape must be a list of integers, got {shape!r}")
        if not (isinstance(blocks, list) and all(
            isinstance(b, list) and len(b) == 2 and _is_int(b[1]) for b in blocks
        )):
            raise SpecError(
                f"backbone spec blocks must be a list of [kind, integer dim], got {blocks!r}"
            )
        return BackboneSpec(d["input_kind"], tuple(shape), tuple(tuple(b) for b in blocks))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


DEFAULT_VECTOR_SPEC = BackboneSpec("vector", (32,), (("dense", 64), ("dense", 64)))
DEFAULT_IMAGE_SPEC = BackboneSpec("image", (1, 16, 16), (("conv", 32), ("conv", 32)))


class BackboneParams:
    """Parameter groups: trunk blocks, head block, branch block (same shapes
    as head), optional projection (W, b) of the main embedding."""

    def __init__(self, spec, trunk, head, branch, projection=None):
        self.spec = spec
        self.trunk = trunk
        self.head = head
        self.branch = branch
        self.projection = projection

    @property
    def embed_dim(self):
        return self.spec.embed_dim

    def copy(self):
        return BackboneParams(
            self.spec,
            [_copy_block(b) for b in self.trunk],
            _copy_block(self.head),
            _copy_block(self.branch),
            None if self.projection is None else _copy_block(self.projection),
        )

    def named_groups(self):
        """Flat (group_name, [(param_name, Tensor), ...]) pairs, fixed order."""
        groups = []
        for i, block in enumerate(self.trunk):
            groups.append((f"trunk{i}", sorted(block.items())))
        groups.append(("head", sorted(self.head.items())))
        groups.append(("branch", sorted(self.branch.items())))
        if self.projection is not None:
            groups.append(("projection", sorted(self.projection.items())))
        return groups

    def trunk_tensors(self):
        return [t for block in self.trunk for _, t in sorted(block.items())]

    def head_tensors(self):
        return [t for _, t in sorted(self.head.items())]

    def branch_tensors(self):
        return [t for _, t in sorted(self.branch.items())]

    def projection_tensors(self):
        if self.projection is None:
            raise SpecError("projection parameters are not initialized")
        return [t for _, t in sorted(self.projection.items())]


def _copy_block(block):
    return {k: Tensor(v.data.copy(), requires_grad=v.requires_grad) for k, v in block.items()}


def _init_dense(rng, in_dim, out_dim):
    bound = 1.0 / np.sqrt(in_dim)
    return {
        "W": Tensor(rng.uniform(-bound, bound, (in_dim, out_dim)), requires_grad=True),
        "b": Tensor(rng.uniform(-bound, bound, (out_dim,)), requires_grad=True),
    }


def _init_conv(rng, in_c, out_c):
    bound = 1.0 / np.sqrt(in_c * 9)
    return {
        "K": Tensor(rng.uniform(-bound, bound, (out_c, in_c, 3, 3)), requires_grad=True),
        "b": Tensor(rng.uniform(-bound, bound, (out_c,)), requires_grad=True),
        # scale/shift start as the identity map, like a freshly initialized norm layer
        "gamma": Tensor(np.ones(out_c), requires_grad=True),
        "beta": Tensor(np.zeros(out_c), requires_grad=True),
    }


def init_backbone(spec, seed, with_projection=False):
    """Deterministic parameters; the branch starts as a bit-identical copy of
    the head block, and the optional projection starts as the identity map."""
    rng = np.random.default_rng(seed)
    blocks = []
    if spec.input_kind == "vector":
        dims = [spec.input_shape[0]] + [d for _, d in spec.blocks]
        for i in range(len(spec.blocks)):
            blocks.append(_init_dense(rng, dims[i], dims[i + 1]))
    else:
        chans = [spec.input_shape[0]] + [d for _, d in spec.blocks]
        for i in range(len(spec.blocks)):
            blocks.append(_init_conv(rng, chans[i], chans[i + 1]))
    head = blocks[-1]
    params = BackboneParams(spec, blocks[:-1], head, _copy_block(head))
    if with_projection:
        add_projection(params)
    return params


def add_projection(params):
    """Attach an identity-initialized dense projection of the main embedding."""
    e = params.embed_dim
    params.projection = {
        "W": Tensor(np.eye(e), requires_grad=True),
        "b": Tensor(np.zeros(e), requires_grad=True),
    }
    return params


def _coerce_input(spec, x):
    """Input rows [n, prod(input_shape)], as datasets store them; image rows
    are reshaped to [n, c, h, w]."""
    x = as_tensor(x)
    d = x.data
    flat = math.prod(spec.input_shape)
    if d.ndim != 2 or d.shape[1] != flat:
        raise SpecError(f"input must be rows [n, {flat}] for {spec.input_shape}, got {d.shape}")
    if spec.input_kind == "vector":
        return x
    return Tensor(d.reshape((-1,) + spec.input_shape), requires_grad=x.requires_grad)


def _run_block(kind, block, h):
    if kind == "dense":
        return affine(h, block["W"], block["b"], relu=True)
    pooled = conv3x3_pool(h, block["K"], block["b"])
    return scale_shift(pooled, block["gamma"], block["beta"])


# embedding space -> the space it is computed from (embed_from)
SOURCE = {"main": "trunk", "branch": "trunk", "projected": "main"}


def trunk_features(params, x):
    """Trunk features [n, *trunk_shape] of input rows x: main's and branch's source."""
    spec = params.spec
    h = _coerce_input(spec, x)
    for (kind, _), block in zip(spec.blocks[:-1], params.trunk):
        h = _run_block(kind, block, h)
    return h


def to_param_groups(params):
    """Checkpoint groups: [(group_name, [(param_name, ndarray), ...]), ...]."""
    return [
        (gname, [(pname, t.data) for pname, t in items])
        for gname, items in params.named_groups()
    ]


def from_param_groups(spec, groups):
    """Rebuild BackboneParams from checkpoint groups (inverse of
    to_param_groups). Group names, parameter names and shapes must be the
    ones init_backbone gives the spec."""
    by_name = {g: dict(items) for g, items in groups}
    params = init_backbone(spec, 0, with_projection="projection" in by_name)
    expected = params.named_groups()
    unknown = sorted(set(by_name) - {g for g, _ in expected})
    if unknown:
        raise SpecError(f"checkpoint holds unknown parameter groups {unknown}")
    for gname, items in expected:
        if gname not in by_name:
            raise SpecError(f"checkpoint is missing parameter group {gname!r}")
        found, names = by_name[gname], [p for p, _ in items]
        if sorted(found) != names:
            raise SpecError(f"parameter group {gname!r} holds {sorted(found)}, expected {names}")
        for p, t in items:
            if np.shape(found[p]) != t.shape:
                raise SpecError(
                    f"parameter {gname}.{p} has shape {np.shape(found[p])}, expected {t.shape}"
                )
            t.data = np.array(found[p], dtype=np.float64, order="C")
    return params


def embed_from(params, space, source):
    """Embeddings [n, embed_dim] in space from its SOURCE space's values:
    the head or branch block on trunk features, or the projection of main
    embeddings."""
    if space == "projected":
        return affine(source, *params.projection_tensors())  # W, b
    h = _run_block(params.spec.blocks[-1][0], params.head if space == "main" else params.branch,
                   source)
    return reshape(h, (-1, params.embed_dim)) if params.spec.input_kind == "image" else h


def fits_wide_block(spec):
    """Whether the last block is 8k wide, as embed_main_and_branch needs."""
    return spec.blocks[-1][1] % 8 == 0


def embed_main_and_branch(params, source):
    """Main and branch embeddings [n, embed_dim] of trunk features, untaped,
    from one block of doubled width: the head and branch parameters joined
    along the output axis (conv K [2*oc, c, 3, 3], b, gamma and beta [2*oc];
    dense W [d, 2*m], b [2*m]), its output split by channel or column.

    Bias, ReLU, pool, scale_shift and flatten act per channel, so only the
    GEMM could round differently from embed_from's two blocks. For a
    multiple of 8 channels or columns (fits_wide_block) the bits were equal
    at every shape scanned with numpy 2.4.6 and scipy-openblas 0.3.31 on a
    SkylakeX core, at 1, 2 and 4 BLAS threads: dense widths 8 to 128 on 4 to
    6912 rows, conv widths 8 to 64 on 3 or 32 input channels. Widths of 1 to
    6 mod 8 moved the last bit of some values, so they run embed_from twice.
    On the Haswell kernels at 2+ threads it fails from 65 rows at width 64."""
    kind, width = params.spec.blocks[-1]
    # the output axis: W's last, the first of every other parameter
    wide = {name: np.concatenate([params.head[name].data, params.branch[name].data],
                                 axis=1 if name == "W" else 0) for name in params.head}
    h = _run_block(kind, wide, source).data
    n = h.shape[0]
    return h[:, :width].reshape(n, -1), h[:, width:].reshape(n, -1)


def embed(params, x, space="main"):
    """Embeddings of input rows x in space: the trunk, then each space on
    the way to it (SOURCE)."""
    source = SOURCE[space]
    h = trunk_features(params, x) if source == "trunk" else embed(params, x, source)
    return embed_from(params, space, h)


def embed_branch(params, x):
    """One-class branch embedding: shared trunk, branch copy of the last block."""
    return embed(params, x, "branch")
