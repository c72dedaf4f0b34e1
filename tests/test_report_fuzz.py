"""Arbitrary JSON documents, arbitrary bytes, and report skeletons with
fuzzed cells reach `fsos report` in-process: every outcome leaves through
the CLI's contract, exit 0, or exit 1 or 2 with one error line on stderr,
and no exception escapes main."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsos.cli import main

NUMBERS = (st.integers() | st.integers(-(10**400), 10**400) | st.floats() | st.booleans())
JSON = st.recursive(
    st.none() | NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=16,
)
CELLS = st.fixed_dictionaries({"mean": NUMBERS | JSON, "ci": NUMBERS | JSON}) | JSON
SHAPE = st.fixed_dictionaries({}, optional={
    key: st.integers(0, 3) | JSON for key in ("task", "n", "k", "gate", "m_episodes")
})
SKELETONS = st.fixed_dictionaries({
    "config": SHAPE,
    "metrics": st.dictionaries(st.sampled_from(["na", "aks", "auroc"]), CELLS, max_size=3),
})
DOCUMENTS = (JSON.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=64)
             | SKELETONS.map(lambda doc: json.dumps(doc).encode()))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("report_fuzz")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents=st.lists(DOCUMENTS, min_size=1, max_size=3), write_csv=st.booleans())
def test_fuzzed_reports_leave_through_the_contract(workdir, documents, write_csv):
    paths = []
    for i, data in enumerate(documents):
        paths.append(workdir / f"r{i}.json")
        paths[-1].write_bytes(data)
    argv = ["report", "--inputs=" + ",".join(map(str, paths))]
    if write_csv:
        argv.append(f"--out_csv={workdir}/table.csv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ["), stderr.getvalue()
    else:
        assert stderr.getvalue() == ""
