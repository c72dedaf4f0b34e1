"""Golden digests: a small CLI pipeline writes the same bytes as recorded.

The pipeline runs in process through fsos.cli.main: generate; protonet; the
four head methods with their loss curves; an open-set and a one-class eval
of each of the five gate/checkpoint pairs with both CSVs; and the k-shot
ablation, which builds its gates with episodes.train_gates. Every artifact's
sha256 must equal the one recorded in golden_digests.json.

Bits depend on the kernels numpy and its BLAS pick, so digests are kept per
runtime key: the numpy version, the SIMD extensions np.show_runtime()
reports as found, and the BLAS build. On a key with no record the test
skips, naming the key.

To record the digests of the current tree for this machine's key:

    PYTHONPATH=src python tests/test_golden_digests.py

Regenerate only in a change that means to move bits, and name every
artifact that moved and why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fsos.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden_digests.json")
HEADS = (("mbce", "mbce"), ("mbce", "mbce_projected"), ("ocml", "ocml_frozen"),
         ("ocml", "ocml_joint"), ("threshold", "protonet"))


def runtime_key():
    """numpy version, found SIMD extensions and BLAS build, as one line."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; simd {found}; blas {blas['name']} {blas.get('version')}"


def run_pipeline(root):
    """Run the pipeline in root; {artifact path relative to root: sha256}."""
    def run(*argv):
        assert cli_main(list(argv)) == 0, argv

    data = f"--dataset={root}/ds.json"
    run("generate", f"--out={root}/ds.json", "--seed=3")
    for method in ("protonet", "mbce", "mbce_projected", "ocml_frozen", "ocml_joint"):
        base = [] if method == "protonet" else [f"--backbone={root}/protonet.ckpt"]
        run("train", f"--method={method}", data, *base, f"--out={root}/{method}.ckpt",
            "--episodes=200", f"--loss_csv={root}/{method}-loss.csv")
    for task, n in (("openset", 5), ("oneclass", 1)):
        for head, ckpt in HEADS:
            stem = f"{root}/{task}-{head}-{ckpt}"
            run("eval", f"--task={task}", f"--head={head}", f"--checkpoint={root}/{ckpt}.ckpt",
                data, f"--n={n}", "--episodes=100", f"--out={stem}.json",
                f"--episode_csv={stem}.csv", f"--records_csv={stem}-records.csv")
    (root / "ablate").mkdir()
    run("ablate", "--grid=kshot", data, f"--backbone={root}/protonet.ckpt",
        f"--out_dir={root}/ablate", "--train_episodes=100", "--eval_episodes=20",
        "--k_values=1,5,20")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_cli_artifacts_match_golden_digests(tmp_path):
    key = runtime_key()
    recorded = json.loads(GOLDEN.read_text())["digests"].get(key)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for runtime key {key!r}")
    got = run_pipeline(tmp_path)
    assert sorted(got) == sorted(recorded)
    moved = [name for name in recorded if got[name] != recorded[name]]
    assert not moved, f"artifacts whose bytes moved: {moved}"


if __name__ == "__main__":
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}
    doc["regenerate"] = "PYTHONPATH=src python tests/test_golden_digests.py"
    with tempfile.TemporaryDirectory() as tmp:
        doc["digests"][runtime_key()] = run_pipeline(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
