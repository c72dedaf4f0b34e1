"""Golden digests: a small CLI pipeline writes the same bytes as recorded,
and so does a small image pipeline run through the library.

The CLI pipeline runs in process through fsos.cli.main: generate; protonet;
the four head methods with their loss curves; an open-set and a one-class
eval of each of the five gate/checkpoint pairs with both CSVs; and the
k-shot ablation, which builds its gates with episodes.train_gates. Every
artifact's sha256 must equal the one recorded in golden_digests.json.

The CLI cannot reach a conv extractor, so the image pipeline calls the
library: it generates a (1, 16, 16) dataset, trains protonet on
DEFAULT_IMAGE_SPEC and then mbce and ocml_frozen on it for a few episodes
each, calibrates the threshold, and runs an open-set and a one-class eval
of each gate. The dataset, each run's parameters and loss curve, tau and
each report's JSON are digested per stage.

Bits depend on the kernels numpy and its BLAS pick, so digests are kept per
runtime key: the numpy version, the SIMD extensions np.show_runtime()
reports as found, and the BLAS build. On a key with no record the test
skips, naming the key.

To record the digests of the current tree for this machine's key:

    PYTHONPATH=src python tests/test_golden_digests.py

To run the image pipeline once and print each stage's wall time and the
process's peak RSS, recording nothing:

    PYTHONPATH=src python tests/test_golden_digests.py --image-stages

Regenerate only in a change that means to move bits, and name every
artifact that moved and why.
"""

import hashlib
import json
import resource
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsos import episodes as ep
from fsos.backbone import DEFAULT_IMAGE_SPEC
from fsos.cli import main as cli_main
from fsos.data import SyntheticSpec, generate_synthetic

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


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _run_digest(result):
    """Parameter bytes and loss curve of a training result."""
    tensors = [t for _, items in result.params.named_groups() for _, t in items]
    if result.head is not None:
        tensors += [result.head.t] if result.method == "mbce" else result.head.tensors()
    return _sha(*(t.data.tobytes() for t in tensors), np.asarray(result.loss_curve).tobytes())


def run_image_pipeline(stage_seconds=None):
    """Run the image pipeline; {stage: sha256 of its output}. stage_seconds,
    when given, receives each stage's wall time."""
    seed = 3
    train_cfg, eval_cfg = ep.EpisodeConfig(n=5, k=5, q=10), ep.EpisodeConfig(n=5, k=5, q=15)
    digests = {}

    def stage(name, fn, digest):
        start = time.perf_counter()
        out = fn()
        if stage_seconds is not None:
            stage_seconds[name] = time.perf_counter() - start
        digests[name] = digest(out)
        return out

    def train(method, budget, base=None):
        schedule = replace(ep.default_schedule(method, budget), val_interval=budget,
                           val_episodes=2)
        return stage(f"train.{method}", lambda: ep.run_meta_training(
            method, dataset, train_cfg, schedule, seed=seed, base_params=base,
            spec=DEFAULT_IMAGE_SPEC), _run_digest)

    spec = SyntheticSpec(seed=seed, dim=256, separation=16.0)
    dataset = stage("generate", lambda: generate_synthetic(spec, input_shape=(1, 16, 16)),
                    lambda d: _sha(*(d.examples(c).tobytes() for c in d.classes())))
    pn = train("protonet", 12)
    mb, oc = train("mbce", 4, pn.params), train("ocml_frozen", 4, pn.params)
    baseline = stage("calibrate", lambda: ep.calibrate_threshold_baseline(
        pn.params, dataset, eval_cfg, 5, seed), lambda b: _sha(repr(b.tau).encode()))
    gates = ((ep.MetaBceGate(mb.head), mb.params), (ep.OcmlGate(oc.head), oc.params),
             (ep.ThresholdGate(baseline), pn.params))
    for task, evaluate, n in (("openset", ep.evaluate_openset, 5),
                              ("oneclass", ep.evaluate_oneclass, 1)):
        for gate, params in gates:
            stage(f"eval.{task}.{gate.name}",
                  lambda: evaluate(params, gate, dataset, replace(eval_cfg, n=n), 2, seed),
                  lambda r: _sha(json.dumps(r.as_dict(), sort_keys=True).encode()))
    return digests


def _recorded(section):
    key = runtime_key()
    recorded = json.loads(GOLDEN.read_text()).get(section, {}).get(key)
    if recorded is None:
        pytest.skip(f"no golden {section} recorded for runtime key {key!r}")
    return recorded


def _assert_same(got, recorded):
    assert sorted(got) == sorted(recorded)
    moved = [name for name in recorded if got[name] != recorded[name]]
    assert not moved, f"outputs whose bytes moved: {moved}"


def test_cli_artifacts_match_golden_digests(tmp_path):
    recorded = _recorded("digests")
    _assert_same(run_pipeline(tmp_path), recorded)


def test_image_pipeline_matches_golden_digests():
    recorded = _recorded("image_digests")
    _assert_same(run_image_pipeline(), recorded)


if __name__ == "__main__":
    if sys.argv[1:] == ["--image-stages"]:
        seconds = {}
        run_image_pipeline(seconds)
        for name, s in seconds.items():
            print(f"{name}: {s:.3f} s")
        # ru_maxrss is in KiB on Linux
        print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
        sys.exit(0)
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}
    doc["regenerate"] = "PYTHONPATH=src python tests/test_golden_digests.py"
    key = runtime_key()
    with tempfile.TemporaryDirectory() as tmp:
        doc["digests"][key] = run_pipeline(Path(tmp))
    doc.setdefault("image_digests", {})[key] = run_image_pipeline()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
