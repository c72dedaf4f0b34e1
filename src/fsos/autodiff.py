"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-based engine: primitives compute forward values eagerly with
numpy and, when a Tape is active, record a backward closure. One backward
pass over the tape populates ``grad`` on every ``requires_grad`` tensor the
loss depends on. Everything is float64 and deterministic.

Primitive kinds: affine, relu, sigmoid, softmax_xent, bce, squared_distance,
mean_rows, conv3x3_pool, dot, scale_shift. Each takes the one operand form
the model feeds it, and any other form raises PrimitiveError: affine maps
rows [..., d]; squared_distance and dot are row-pairwise, [m, d] x [n, d]
-> [m, n]; softmax_xent takes [m, n] logits; mean_rows returns [g, d] means
of g row blocks; conv3x3_pool takes batched [n, c, h, w] images; and
scale_shift takes a scalar gamma/beta on any input or a per-channel one on
[n, c, h, w] images. These batched forms, and affine's ReLU form, one entry
per dense layer, keep episode graphs to a handful of tape entries; relu is
kept for the benchmark's by-name wrap and for tests. sq_distances, the one
squared-distance kernel, is untaped: squared_distance and protonet's chunk
scorer both call it.

Tape entries: a primitive returns its output after appending one entry to
the innermost active tape. Tape.entries is that list in execution order;
each entry holds the primitive's kind, its input tensors, its output and a
backward_fn, which callers may replace with a wrapper (the benchmark times
backward passes that way). backward(tape, loss) walks it in reverse.

Gradient ownership: a backward_fn may return views of its upstream gradient
(reshape does), so it must not write into that gradient, and backward never
writes into an array a backward_fn returned. The loss's own upstream
gradient is one read-only 1.0 (_SEED), so there a write raises. A produced tensor keeps its
first gradient as returned and adds each further one out of place
(acc + g); a leaf's first gradient is copied into a fresh grad buffer of
the leaf's shape, and later ones are added into that buffer in place.

Operand layouts: the bits of a GEMM can follow its operands' memory
layout. A GEMV (a product one column wide) sums in a layout-dependent
order, and so does OpenBLAS at an output width that leaves an edge tile:
with 1 BLAS thread at a width of 1 mod 8, with 2 or 4 threads at most
widths that are not a multiple of 8. conv3x3_pool picks a layout for speed
only where the bits were measured equal to the row-major product's, and
only on numpy 2.4.6 with OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH)
and its SkylakeX kernels, at 1, 2 and 4 BLAS threads. The conv3x3_pool tests
check those choices against a row-major oracle on the build they run on.
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class PrimitiveError(ValueError):
    """Bad shapes passed to a primitive."""

    def __init__(self, primitive, detail):
        self.primitive = primitive
        self.detail = detail
        super().__init__(f"{primitive}: {detail}")


class TapeError(RuntimeError):
    """Backward called on a consumed tape or with an off-tape loss."""


# Sigmoid outputs are clipped into the open interval (0, 1) so downstream
# logs and complements stay finite even at saturating inputs.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


class Tensor:
    """Dense float64 array with an optional gradient buffer.

    ``data`` is always a C-contiguous float64 ndarray. ``grad`` is None until
    a backward pass (or manual write) populates it; gradients accumulate
    until an optimizer step clears them.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def accumulate_grad(self, g):
        if self.grad is None:
            # zeros + g in one pass: the same bits, -0.0 becoming +0.0 included
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class _TapeEntry:
    __slots__ = ("kind", "inputs", "output", "backward_fn")

    def __init__(self, kind, inputs, output, backward_fn):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_tapes = []  # the entered tapes, innermost last


def active_tape():
    return _tapes[-1] if _tapes else None


class Tape:
    """Ordered record of primitive applications, in execution order.

    Execution order is a topological order by construction: every operand of
    an entry was produced by an earlier entry or is a leaf. A tape is
    single-threaded and consumed by its one backward pass.
    """

    def __init__(self):
        self.entries = []
        self.consumed = False

    def produced(self, tensor):
        return any(entry.output is tensor for entry in self.entries)

    def __enter__(self):
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tapes.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.entries)


def _finish(kind, inputs, out_data, backward_fn):
    """The output tensor of a primitive, appended to the innermost tape as
    one entry when a tape is active."""
    requires_grad = False
    for t in inputs:
        if t.requires_grad:
            requires_grad = True
            break
    out = Tensor(out_data, requires_grad)
    if _tapes:
        _tapes[-1].entries.append(_TapeEntry(kind, inputs, out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# primitives


def affine(x, w, b=None, relu=False):
    """x @ w + b for rows x of shape [..., d], w [d, m], b [m]; its ReLU too
    with relu=True, as one tape entry with the bits of relu(affine(x, w, b)).

    b may be omitted for bias-free layers. Leading axes of x are batch axes:
    each [n, d] slice is multiplied on its own, as a lone [n, d] x would be.
    The backward pass skips the input-gradient GEMM when x needs no gradient
    (data rows, cached embeddings), and relu=True masks the upstream gradient
    by y > 0, true exactly where the pre-activation is > 0, -0.0 and NaN too.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = as_tensor(b) if b is not None else None
    xd, wd = x.data, w.data
    if wd.ndim != 2:
        raise PrimitiveError("affine", f"weight must be 2-d, got shape {wd.shape}")
    if xd.ndim < 2 or xd.shape[-1] != wd.shape[0]:
        raise PrimitiveError(
            "affine", f"input must be rows [..., {wd.shape[0]}], got {xd.shape}"
        )
    if b is not None and b.data.shape != (wd.shape[1],):
        raise PrimitiveError(
            "affine", f"bias shape {b.data.shape} does not match output dim {wd.shape[1]}"
        )
    y = xd @ wd
    if b is not None:
        y += b.data
    if relu:
        np.maximum(y, 0.0, out=y)

    def backward_fn(g):
        if relu:
            g = g * (y > 0.0)
        gx = g @ wd.T if x.requires_grad else None
        gflat = g.reshape(-1, g.shape[-1])
        gw = xd.reshape(-1, xd.shape[-1]).T @ gflat
        gb = np.add.reduce(gflat, axis=0) if b is not None else None
        return (gx, gw, gb) if b is not None else (gx, gw)

    inputs = (x, w, b) if b is not None else (x, w)
    return _finish("affine", inputs, y, backward_fn)


def relu(x):
    x = as_tensor(x)
    xd = x.data
    y = np.maximum(xd, 0.0)

    def backward_fn(g):
        return (g * (xd > 0.0),)

    return _finish("relu", (x,), y, backward_fn)


def sigmoid(x):
    x = as_tensor(x)
    z = x.data
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) below: it never overflows
    e = np.exp(-np.abs(z))
    y = np.clip(np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), _SIG_LO, _SIG_HI)

    def backward_fn(g):
        return (g * y * (1.0 - y),)

    return _finish("sigmoid", (x,), y, backward_fn)


def softmax_xent(logits, labels):
    """Mean cross-entropy of row-wise softmax against integer labels.

    logits: [m, n]; labels: [m] class indices.
    Labels are data, not a differentiable input.
    """
    logits, labels = as_tensor(logits), as_tensor(labels)
    z = logits.data
    if z.ndim != 2:
        raise PrimitiveError("softmax_xent", f"logits must be [m, n], got {z.shape}")
    idx = labels.data.reshape(-1)
    if idx.shape[0] != z.shape[0]:
        raise PrimitiveError(
            "softmax_xent", f"{idx.shape[0]} labels for {z.shape[0]} logit rows"
        )
    m = z.shape[0]
    if m == 0:
        raise PrimitiveError("softmax_xent", "empty operands")
    ints = idx.astype(np.int64)
    # ndarray's .any, .min, .max, .sum and .mean as the ufunc reductions they
    # run, without their Python wrappers
    if (np.logical_or.reduce(ints != idx) or np.minimum.reduce(ints) < 0
            or np.maximum.reduce(ints) >= z.shape[1]):
        raise PrimitiveError("softmax_xent", "labels must be integers in [0, n_classes)")
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    total = np.add.reduce(ez, axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + zmax[:, 0]
    rows = np.arange(m)
    picked = z[rows, ints]
    loss = np.float64(np.add.reduce(lse - picked) / m)

    def backward_fn(g):
        soft = ez / total
        soft[rows, ints] -= 1.0
        return ((float(g) / m) * soft, None)

    return _finish("softmax_xent", (logits, labels), loss, backward_fn)


def bce(logits, targets):
    """Mean binary cross-entropy from logits, computed in log space.

    Elementwise on any matching shapes; targets in [0, 1] are data, not a
    differentiable input. Uses max(z,0) - z*y + log1p(exp(-|z|)), which never
    overflows.
    """
    logits, targets = as_tensor(logits), as_tensor(targets)
    z, y = logits.data, targets.data
    if z.shape != y.shape:
        raise PrimitiveError("bce", f"logits shape {z.shape} != targets shape {y.shape}")
    if z.size == 0:
        raise PrimitiveError("bce", "empty operands")
    e = np.exp(-np.abs(z))
    # ndarray.mean's ufunc reduction, without its Python wrapper
    loss = np.float64(np.add.reduce(np.maximum(z, 0.0) - z * y + np.log1p(e), axis=None) / z.size)

    def backward_fn(g):
        # sigmoid(z) from e = exp(-|z|), which never overflows: 1 / (1 + e)
        # where z >= 0 and e / (1 + e) below
        p = np.where(z >= 0, 1.0, e)
        p /= 1.0 + e
        p -= y
        p *= float(g) / z.size
        return (p, None)

    return _finish("bce", (logits, targets), loss, backward_fn)


def _row_pair(kind, a, b):
    """The operands of a row-pairwise primitive: rows a [m, d] and b [n, d]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise PrimitiveError(
            kind, f"need rows [m, d] and [n, d], got {a.data.shape} and {b.data.shape}"
        )
    return a, b


def sq_distances(a, b):
    """Squared distances [..., m, n] of rows a [..., m, d] and b [..., n, d]:
    (|a|^2 + |b|^2) - 2 a.b clamped at +0.0, C-contiguous, each dot an einsum
    sum in one order, so d(a, b) is d(b, a).T bit for bit, 0 on equal rows and
    equal per slice. The cross term is einsum'd as [..., n, m] and viewed as
    [..., m, n]: the same dots, about 240 against 300 us for [..., m, n] order
    at [10, 150, 64] x [10, 5, 64] (numpy 2.4.6)."""
    na, nb = (np.einsum("...id,...id->...i", x, x) for x in (a, b))
    cross = np.einsum("...md,...nd->...nm", a, b).swapaxes(-1, -2)
    out = (na[..., :, None] + nb[..., None, :]) - 2.0 * cross
    return np.maximum(out, 0.0, out=out)


def squared_distance(a, b):
    """Squared Euclidean distances [m, n] between every row pair of a [m, d]
    and b [n, d], by sq_distances; the backward pass is GEMMs only."""
    a, b = _row_pair("squared_distance", a, b)
    ad, bd = a.data, b.data

    def backward_fn(g):
        return (_distance_grad(np.add.reduce(g, 1), ad, g @ bd) if a.requires_grad else None,
                _distance_grad(np.add.reduce(g, 0), bd, g.T @ ad) if b.requires_grad else None)

    return _finish("squared_distance", (a, b), sq_distances(ad, bd), backward_fn)


def _distance_grad(sums, rows, cross):
    """2 * (sums[:, None] * rows - cross), built in one buffer."""
    grad = np.multiply(sums[:, None], rows)
    grad -= cross
    grad *= 2.0
    return grad


@lru_cache(maxsize=None)
def _sorting_network(k):
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort of k
    values: after each one, slot i holds the smaller value and slot j the
    larger."""
    pairs, p = [], 1
    while p < k:
        step = p
        while step >= 1:
            for j in range(step % p, k - step, 2 * step):
                for i in range(min(step, k - j - step)):
                    if (i + j) // (2 * p) == (i + j + step) // (2 * p):
                        pairs.append((i + j, i + j + step))
            step //= 2
        p *= 2
    return tuple(pairs)


def row_block_mean(values, groups=1):
    """Column means over consecutive row blocks, order-independent.

    Each block's k rows are sorted per column before they are summed, so the
    result depends only on the multiset of rows: permuting examples leaves a
    prototype bit-identical. Shared by the mean_rows primitive and every
    prototype computation. The result is np.sort(blocks, axis=1).mean(axis=1)
    bit for bit, ties and -0.0 included, for any values but NaN.

    _network_mean sorts the rows with a comparator network, two whole-array
    numpy passes per comparator, and sums them in sorted order from +0.0, as
    numpy's mean does for d > 1; numpy sums a single column pairwise, so
    d == 1 keeps np.sort.
    """
    n, d = values.shape
    blocks = values.reshape(groups, n // groups, d)
    if d == 1:
        return np.sort(blocks, axis=1).mean(axis=1)
    return _network_mean(blocks)


def _network_mean(blocks):
    """Means [g, d] over axis 1 of blocks [g, k, d]: the k rows sorted by
    _sorting_network, then summed in order from +0.0 and divided by k."""
    g, k, d = blocks.shape
    rows = list(blocks.transpose(1, 0, 2).copy())
    spare = np.empty((g, d))
    for i, j in _sorting_network(k):
        np.minimum(rows[i], rows[j], out=spare)
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i], spare = spare, rows[i]
    total = rows[0] + 0.0
    for row in rows[1:]:
        total += row
    total /= k
    return total


def mean_rows(x, groups=1):
    """Means of consecutive row blocks: x[n, d] with n divisible by g ->
    [g, d], each row the mean of its block of n/g rows. The per-class
    prototypes of a class-ordered stack of embeddings; groups=1 gives [1, d].
    """
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 2 or xd.shape[0] == 0:
        raise PrimitiveError("mean_rows", f"need a non-empty [n, d] matrix, got {xd.shape}")
    n, d = xd.shape
    if groups < 1 or n % groups != 0:
        raise PrimitiveError("mean_rows", f"{n} rows not divisible into {groups} groups")
    block = n // groups
    out = row_block_mean(xd, groups)

    def backward_fn(g):
        gm = g.reshape(groups, 1, d) / block
        return (gm.repeat(block, axis=1).reshape(n, d),)

    return _finish("mean_rows", (x,), out, backward_fn)


def _padded(img):
    """A channels-last [n, h, w, c] image zero padded by one pixel on both
    sides of its two spatial axes: [n, h+2, w+2, c]. One np.empty takes the
    interior and only the four border strips are zeroed. np.pad costs more,
    and np.zeros would hand back fresh calloc'd pages on every call at this
    size."""
    nb, h, w, c = img.shape
    xp = np.empty((nb, h + 2, w + 2, c))
    xp[:, 1:-1, 1:-1] = img
    xp[:, :: h + 1] = 0.0  # the top and bottom rows
    xp[:, 1:-1, :: w + 1] = 0.0  # the left and right columns
    return xp


def _im2col(xp, h2, w2, column_major=False):
    """3x3 patch rows of a zero-padded channels-last [n, 2*h2+2, 2*w2+2, c]
    image: [4*n*h2*w2, 9*c], columns in (ki, kj, c) order. Rows run in
    (di, dj, n, y, x) order for output pixel (2y+di, 2x+dj), so each
    position of the 2x2 pool window is one contiguous block of rows.

    column_major gives the same matrix as the transpose of a C-contiguous
    [9*c, 4*n*h2*w2] array: for one channel, a copy along rows of x where
    the row-major one moves one value at a time."""
    nb, c = xp.shape[0], xp.shape[3]
    taps = sliding_window_view(xp, (3, 3), axis=(1, 2))  # [n, h, w, c, 3, 3]
    taps = taps.reshape(nb, h2, 2, w2, 2, c, 3, 3)
    if column_major:
        return taps.transpose(6, 7, 5, 2, 4, 0, 1, 3).reshape(9 * c, 4 * nb * h2 * w2).T
    return taps.transpose(2, 4, 0, 1, 3, 6, 7, 5).reshape(4 * nb * h2 * w2, 9 * c)


def _unwindow(rows, nb, h2, w2):
    """Rows in _im2col order, [4*n*h2*w2, k], as a channels-last
    [n, 2*h2, 2*w2, k] image."""
    k = rows.shape[1]
    rows = rows.reshape(2, 2, nb, h2, w2, k).transpose(2, 3, 0, 4, 1, 5)
    return rows.reshape(nb, 2 * h2, 2 * w2, k)


def conv3x3_pool(x, kernel, bias):
    """One conv block: 3x3 conv (stride 1, zero pad 1), ReLU, 2x2 max-pool.

    x: [n, c, h, w] with h, w even and >= 2; kernel: [oc, c, 3, 3];
    bias: [oc]. Returns [n, oc, h/2, w/2]. A pool tie goes to the first
    window position in row-major order, as argmax does.

    The pool runs before the ReLU, and without a tape before the bias too,
    so both touch only the pooled [n*h/2*w/2, oc] block. The bits are those
    of bias, ReLU, then pool: rounding x + b and the ReLU are monotone, so
    they commute with max. With a tape the bias is added first, because the
    winner is read on post-bias values; a window whose maximum is <= 0 gets
    no gradient, so its winner does not matter. One corner differs: a bias
    entry of exactly -0.0 can change the sign of a zero output.

    The conv is one channels-last im2col GEMM; the backward pass is one
    GEMM for the kernel gradient and, when x needs a gradient, one more
    im2col GEMM that correlates the output gradient with the flipped
    kernel. The tape keeps the padded input, not the im2col matrix: the
    backward pass rebuilds it, and no name holds one past its GEMM. Copies
    and operand layouts are picked for speed, with the bits of row-major
    im2col products (module docstring): a one-channel input's forward
    im2col is column-major, unless one output channel makes its GEMM a
    GEMV. The kernel gradient is (gconv.T @ cols).T when the channel count
    is a multiple of 8, so the 9 * c wide product has no edge tile; OpenBLAS
    runs it faster than cols.T @ gconv (about 3.5 against 6.3 ms for 32
    channels at 75 8x8 images). Other channel counts keep cols.T @ gconv on
    the row-major im2col: at c = 33, for one, the transposed form moved the
    last bit of edge rows even with 1 BLAS thread. Without a tape the pool
    is one max reduction.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    xd, kd, bd = x.data, kernel.data, bias.data
    if xd.ndim != 4:
        raise PrimitiveError("conv3x3_pool", f"input must be [n,c,h,w], got {xd.shape}")
    if kd.ndim != 4 or kd.shape[2:] != (3, 3) or kd.shape[1] != xd.shape[1]:
        raise PrimitiveError(
            "conv3x3_pool", f"kernel shape {kd.shape} does not fit input {xd.shape}"
        )
    if bd.shape != (kd.shape[0],):
        raise PrimitiveError("conv3x3_pool", f"bias shape {bd.shape} != ({kd.shape[0]},)")
    nb, c, h, w = xd.shape
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise PrimitiveError("conv3x3_pool", f"spatial dims must be even and >= 2, got {h}x{w}")
    oc = kd.shape[0]
    h2, w2 = h // 2, w // 2
    m = nb * h2 * w2
    xp = _padded(xd.transpose(0, 2, 3, 1))
    act = _im2col(xp, h2, w2, c == 1 and oc > 1) @ kd.transpose(2, 3, 1, 0).reshape(9 * c, oc)
    act = act.reshape(4, m, oc)  # one [m, oc] block per pool window position
    # the winner index is read only by the backward pass, so it is kept only
    # while a tape records, and it is read on post-bias values
    if active_tape() is None:
        arg = None
        pooled = act.max(axis=0)
        pooled += bd
    else:
        act += bd
        arg = np.zeros((m, oc), dtype=np.int8)
        pooled = act[0].copy()
        for i in range(1, 4):
            # strict >: a tie keeps the earlier position; i exceeds every
            # earlier position, so max() records the latest strict winner
            np.maximum(arg, (act[i] > pooled) * np.int8(i), out=arg)
            np.maximum(pooled, act[i], out=pooled)
    np.maximum(pooled, 0.0, out=pooled)

    def backward_fn(g):
        # only each window's winner gets gradient, through the ReLU mask of
        # the pooled value
        gpool = g.transpose(0, 2, 3, 1).reshape(m, oc) * (pooled > 0.0)
        gbias = gpool.sum(axis=0)
        winner = arg == np.arange(4, dtype=np.int8)[:, None, None]
        gconv = (gpool * winner).reshape(4 * m, oc)
        if c % 8:
            gk = _im2col(xp, h2, w2).T @ gconv
        else:
            gk = (gconv.T @ _im2col(xp, h2, w2)).T
        gk = gk.reshape(3, 3, c, oc).transpose(3, 2, 0, 1)
        if not x.requires_grad:
            return (None, gk, gbias)
        gimg = _padded(_unwindow(gconv, nb, h2, w2))
        kflip = kd[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * oc, c)
        gx = _unwindow(_im2col(gimg, h2, w2) @ kflip, nb, h2, w2)
        return (gx.transpose(0, 3, 1, 2), gk, gbias)

    out = pooled.reshape(nb, h2, w2, oc).transpose(0, 3, 1, 2)
    return _finish("conv3x3_pool", (x, kernel, bias), out, backward_fn)


def dot(a, b):
    """Row dot products [m, n] of every row pair of a [m, d] and b [n, d].
    The backward pass computes the gradient of an operand only when it
    needs one."""
    a, b = _row_pair("dot", a, b)
    ad, bd = a.data, b.data

    def backward_fn(g):
        return (g @ bd if a.requires_grad else None, g.T @ ad if b.requires_grad else None)

    return _finish("dot", (a, b), ad @ bd.T, backward_fn)


def scale_shift(x, gamma, beta):
    """Affine gamma * x + beta: gamma/beta of size 1 broadcast over any x as
    0-d operands; per-channel ones of shape [c] scale the channels of batched
    [n, c, h, w] images. The backward pass sums with np.add.reduce, the
    reduction ndarray.sum runs, and reshapes each sum to its parameter's
    shape."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd, gd, bd = x.data, gamma.data, beta.data
    if gd.shape != bd.shape:
        raise PrimitiveError("scale_shift", f"gamma shape {gd.shape} != beta shape {bd.shape}")
    if gd.size == 1:
        shape, axes = (), None
    elif xd.ndim == 4 and gd.shape == (xd.shape[1],):
        shape, axes = (1, gd.shape[0], 1, 1), (0, 2, 3)
    else:
        raise PrimitiveError(
            "scale_shift",
            f"gamma shape {gd.shape} is neither scalar nor the channels of an [n, c, h, w] "
            f"input, got input {xd.shape}",
        )
    gb, bb = gd.reshape(shape), bd.reshape(shape)
    out = gb * xd + bb

    def backward_fn(g):
        gx = g * gb if x.requires_grad else None
        ggamma = np.add.reduce(g * xd, axes).reshape(gd.shape) if gamma.requires_grad else None
        gbeta = np.add.reduce(g, axes).reshape(bd.shape) if beta.requires_grad else None
        return (gx, ggamma, gbeta)

    return _finish("scale_shift", (x, gamma, beta), out, backward_fn)


def reshape(x, shape):
    """Row-major reshape; structural plumbing (flattening conv features)."""
    x = as_tensor(x)
    xd = x.data
    try:
        out = xd.reshape(shape).copy()
    except ValueError:
        raise PrimitiveError("reshape", f"cannot reshape {xd.shape} into {shape}")

    def backward_fn(g):
        return (g.reshape(xd.shape),)

    return _finish("reshape", (x,), out, backward_fn)


# ---------------------------------------------------------------------------
# backward & gradient checking


# the loss's upstream gradient, shared by every backward pass
_SEED = np.ones(())
_SEED.flags.writeable = False


def backward(tape, loss):
    """Populate grad on every requires_grad ancestor of a scalar loss.

    The tape is consumed: a second backward on it raises. Gradients
    accumulate into existing grad buffers (optimizers clear them).
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise TapeError("loss must be a scalar tensor")
    entries = tape.entries
    produced = {id(entry.output) for entry in entries}
    if id(loss) not in produced:
        raise TapeError("loss was not produced on this tape")
    tape.consumed = True
    if not loss.requires_grad:
        return
    # only a requires_grad input is given a gradient, so an entry whose
    # output no gradient reaches is skipped
    grads = {id(loss): _SEED.reshape(loss.data.shape)}
    for entry in reversed(entries):
        g_out = grads.pop(id(entry.output), None)
        if g_out is None:
            continue
        for tensor, g in zip(entry.inputs, entry.backward_fn(g_out)):
            if g is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in produced:
                # out of place: a backward function may return a view of
                # its upstream gradient, or the same array twice
                acc = grads.get(key)
                grads[key] = g if acc is None else acc + g
            else:
                tensor.accumulate_grad(g)


class GradientCheckReport:
    """Per-parameter max relative error of backward() vs central differences."""

    def __init__(self, errors, tolerance):
        self.errors = list(errors)
        self.tolerance = tolerance
        self.passed = all(e <= tolerance for e in self.errors)

    @property
    def max_error(self):
        return max(self.errors) if self.errors else 0.0

    def __repr__(self):
        return f"GradientCheckReport(max_error={self.max_error:.3e}, passed={self.passed})"


def gradient_check(builder, point, tolerance=1e-4, step=1e-5):
    """Compare backward() gradients with central finite differences.

    builder maps a list of parameter Tensors to a scalar loss Tensor and must
    be deterministic; point is the list of parameter arrays to check at.
    Relative error uses a 1e-6 floor so exact zeros compare as zero.
    """
    params = [Tensor(np.array(p, dtype=np.float64), requires_grad=True) for p in point]
    with Tape() as tape:
        loss = builder(params)
    if loss.data.size != 1:
        raise TapeError("gradient_check builder must return a scalar loss")
    if tape.produced(loss):
        backward(tape, loss)

    def eval_loss():
        out = builder(params)
        return float(out.data.reshape(-1)[0])

    errors = []
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = eval_loss()
            flat[j] = orig - step
            f_minus = eval_loss()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic.reshape(-1)[j])
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
        errors.append(worst)
    return GradientCheckReport(errors, tolerance)
