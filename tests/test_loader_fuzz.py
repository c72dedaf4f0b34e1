"""Flipped, truncated or inserted bytes in a checkpoint or a dataset manifest
reach `fsos eval` in-process: every outcome leaves through the CLI's
contract, exit 0, or exit 1 or 2 with one error line on stderr, and no
exception escapes main."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsos.cli import main

FILES = {"checkpoint": "mbce.ckpt", "manifest": "ds.json"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small dataset and an mbce checkpoint on a briefly trained protonet."""
    root = tmp_path_factory.mktemp("fuzz")
    common = [f"--dataset={root}/ds.json", "--n=3", "--k=2", "--q=3", "--seed=4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", f"--out={root}/ds.json", "--num_classes=12",
                     "--examples_per_class=16", "--dim=8", "--seed=4"]) == 0
        assert main(["train", "--method=protonet", f"--out={root}/pn.ckpt", "--episodes=20",
                     *common]) == 0
        assert main(["train", "--method=mbce", f"--backbone={root}/pn.ckpt",
                     f"--out={root}/mbce.ckpt", "--episodes=10", *common]) == 0
    (root / "mutated").mkdir()
    return root


@st.composite
def mutations(draw, data):
    at = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]


@pytest.mark.parametrize("target", sorted(FILES))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_file_leaves_eval_through_the_contract(workdir, target, data):
    out = workdir / "mutated"
    for name in ("mbce.ckpt", "ds.json", "ds.bin"):
        (out / name).write_bytes((workdir / name).read_bytes())
    original = (workdir / FILES[target]).read_bytes()
    (out / FILES[target]).write_bytes(data.draw(mutations(original)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([
            "eval", "--task=openset", "--head=mbce", f"--checkpoint={out}/mbce.ckpt",
            f"--dataset={out}/ds.json", f"--out={out}/report.json", "--n=2", "--n_unknown=1",
            "--k=2", "--q=3", "--episodes=2",
        ])
    assert code in (0, 1, 2)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ["), stderr.getvalue()
