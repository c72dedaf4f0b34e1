"""A row cache that needs main and branch embeddings runs the head and
branch blocks as one block of doubled width (backbone.embed_main_and_branch)
when the last block's width is a multiple of 8 channels or columns; the
embeddings must carry the bits of the two separate blocks (embed_from) on
the same trunk features. Other widths keep the two separate blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsos import backbone, protonet
from fsos.backbone import DEFAULT_IMAGE_SPEC, BackboneSpec, embed_from, init_backbone
from fsos.backbone import trunk_features
from fsos.protonet import RowEmbeddings

WIDE_WIDTHS = [8, 16, 32, 64]
# widths of 1 to 6 mod 8 (and 12 and 20 on the conv path) moved bits when
# run wide, so they must keep the separate blocks
OTHER_WIDTHS = [1, 5, 6, 12, 20, 33]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def _cases(draw, kind):
    """A backbone at extractor shapes whose last block is 8k wide or not, its
    branch moved away from the head, and rows with exact zeros: 4 to 6912
    rows of 32 values into a 64-wide dense trunk, or 1 to 75 (1, 16, 16)
    images into a conv trunk of 3 or 32 channels (8x8 trunk features)."""
    width = draw(st.sampled_from(WIDE_WIDTHS + OTHER_WIDTHS))
    if kind == "dense":
        spec = BackboneSpec("vector", (32,), (("dense", 64), ("dense", width)))
        n = draw(st.one_of(st.integers(4, 64), st.integers(4, 6912)))
    else:
        trunk = draw(st.sampled_from([3, 32]))
        spec = BackboneSpec("image", (1, 16, 16), (("conv", trunk), ("conv", width)))
        n = draw(st.integers(1, 75))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_backbone(spec, seed=int(rng.integers(2**31)))
    for t in params.branch.values():
        t.data += 0.1 * rng.normal(size=t.shape)
    rows = rng.normal(size=(n, int(np.prod(spec.input_shape))))
    rows *= rng.random(rows.shape) >= draw(st.sampled_from([0.0, 0.3, 1.0]))
    return params, rows


def _check_fill(params, rows):
    """fill's main and branch against embed_from of each space on the same
    trunk features, in one slice; returns the output widths of the blocks the
    fill ran after the trunk."""
    n = rows.shape[0]
    # one slice of all rows, at the wide block's width or the separate one's
    slice_values = n * protonet._values_per_row(params.spec, wide=True)
    trunk = trunk_features(params, rows[np.resize(np.arange(n), max(n, 4))])
    want = {space: embed_from(params, space, trunk).data[:n] for space in ("main", "branch")}
    widths = []
    run_block = backbone._run_block

    def spy(kind, block, h):
        widths.append(block["b"].shape[0])
        return run_block(kind, block, h)

    with mock.patch.object(protonet, "SLICE_VALUES", slice_values), \
            mock.patch.object(backbone, "_run_block", spy):
        cache = RowEmbeddings(params, rows, ("main", "branch"))
        assert cache.slice_rows >= n
        cache.fill(np.arange(n))
    for space in ("main", "branch"):
        got = cache.embed(space, np.arange(n))
        assert np.array_equal(_bits(got), _bits(want[space])), space
    return widths[len(params.trunk):]


@pytest.mark.parametrize("kind", ["dense", "conv"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_wide_block_equals_the_two_separate_blocks_bit_for_bit(kind, data):
    params, rows = data.draw(_cases(kind))
    width = params.spec.blocks[-1][1]
    ran = _check_fill(params, rows)
    assert ran == ([2 * width] if width % 8 == 0 else [width, width])


@pytest.mark.parametrize("spaces,wide", [
    (("main", "branch"), True), (("branch", "projected"), True),
    (("trunk", "main", "branch"), True), (("main",), False), (("branch",), False),
    (("main", "projected"), False),
])
def test_the_wide_block_runs_where_a_fill_needs_main_and_branch(spaces, wide):
    params = backbone.add_projection(init_backbone(DEFAULT_IMAGE_SPEC, seed=1))
    rows = np.zeros((5, 256))
    cache = RowEmbeddings(params, rows, spaces)
    assert cache._wide == wide


@pytest.mark.parametrize("spec,wide_rows", [
    # the wide pre-pool activation, 8 * 8 * 64 values a row, stays under
    # block 2's 18 432-value im2col
    (DEFAULT_IMAGE_SPEC, 24),
    # 64 dense columns become 128 values a row
    (BackboneSpec("vector", (32,), (("dense", 64), ("dense", 64))), protonet.SLICE_VALUES // 128),
])
def test_the_slice_budget_counts_the_wide_block(spec, wide_rows):
    rows = np.zeros((5, int(np.prod(spec.input_shape))))
    params = init_backbone(spec, seed=1)
    assert RowEmbeddings(params, rows, ("main", "branch")).slice_rows == wide_rows
    separate = RowEmbeddings(params, rows, ("main",)).slice_rows
    assert separate == protonet.SLICE_VALUES // protonet._values_per_row(spec)
