"""Golden digests: a small CLI pipeline writes the same bytes as recorded,
and so does a small image pipeline run through the library.

The CLI pipeline runs in process through fsos.cli.main: generate; protonet;
the four head methods with their loss curves; an open-set and a one-class
eval of each of the five gate/checkpoint pairs with both CSVs; and each
ablation grid (kshot, gtheta, nway, mbce_variant) at a small budget. Every
artifact's sha256 must equal the one recorded in golden_digests.json.

The CLI cannot reach a conv extractor, so the image pipeline calls the
library: it generates a (1, 16, 16) dataset, trains protonet on
DEFAULT_IMAGE_SPEC and then mbce and ocml_frozen on it for a few episodes
each, calibrates the threshold, and runs an open-set and a one-class eval
of each gate. The dataset, each run's parameters and loss curve, tau and
each report's JSON are digested per stage.

Bits depend on the kernels numpy and its BLAS pick, so digests are kept per
runtime key: the numpy version, the SIMD extensions np.show_runtime()
reports as found, the BLAS build, and the core OpenBLAS picked its kernels
for at run time. On a key with no record the test skips, naming the key.

The draw streams use no BLAS, so their digests are checked on every
machine: the row indices of the first DRAW_STREAM_EPISODES episodes of each
stream (training per method, validation, threshold calibration, open-set
and one-class evaluation) at the CLI defaults' episode shapes, on the CLI
pipeline's dataset, at seeds DRAW_STREAM_SEEDS.

To record the digests of the current tree for this machine's key, and the
draw streams:

    PYTHONPATH=src python tests/test_golden_digests.py

To run the image pipeline once and print each stage's wall time, minor
page faults and system time, and the process's peak RSS after it,
recording nothing:

    PYTHONPATH=src python tests/test_golden_digests.py --image-stages

Regenerate only in a change that means to move bits, and name every
artifact that moved and why.
"""

import ctypes
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
from fsos.cli import SCHEMAS
from fsos.cli import main as cli_main
from fsos.data import SyntheticSpec, generate_synthetic, load_dataset

GOLDEN = Path(__file__).with_name("golden_digests.json")
HEADS = (("mbce", "mbce"), ("mbce", "mbce_projected"), ("ocml", "ocml_frozen"),
         ("ocml", "ocml_joint"), ("threshold", "protonet"))
DRAW_STREAM_EPISODES = 200
DRAW_STREAM_SEEDS = (0, 1)


def openblas_core():
    """The core type OpenBLAS picked its kernels for at run time, as numpy's
    bundled scipy-openblas reports it ("SkylakeX"), or "unknown" where that
    library or its scipy_openblas_get_corename64_ is missing. The build
    target np.show_config() names is only the build's baseline."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def runtime_key():
    """numpy version, found SIMD extensions, BLAS build and OpenBLAS core, as
    one line."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}; simd {found}; blas {blas['name']} {blas.get('version')}; "
            f"core {openblas_core()}")


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
    for grid, values in (("kshot", "--k_values=1,5,20"), ("gtheta", "--k_values=1,5"),
                         ("nway", "--n_values=2,5"), ("mbce_variant", "--n=3")):
        run("ablate", f"--grid={grid}", data, f"--backbone={root}/protonet.ckpt",
            f"--out_dir={root}/ablate", "--train_episodes=100", "--eval_episodes=20", values)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _cli_dataset(root):
    """The CLI pipeline's dataset, generated in root."""
    assert cli_main(["generate", f"--out={root}/ds.json", "--seed=3"]) == 0
    return load_dataset(f"{root}/ds.json")


def _rows_digest(drawn):
    """sha256 of the row indices of (support [..., n * k], queries [..., m])
    pairs of episodes or blocks of them, as int64: each episode's support
    rows, then its query rows."""
    return _sha(*(np.concatenate([s, q], axis=-1).astype("<i8").tobytes() for s, q in drawn))


def draw_streams(dataset):
    """{seed: {stream: digest of the row indices of its first
    DRAW_STREAM_EPISODES episodes}} at the CLI defaults' episode shapes:
    training and validation per train method (validation draws the closed-set
    shape for protonet, the gate one for a head; every method draws the same
    training stream today), the threshold calibration of an open-set eval,
    and open-set and one-class evaluation."""
    count, split = DRAW_STREAM_EPISODES, dataset.split
    train, evaluate = SCHEMAS["train"], SCHEMAS["eval"]
    k = train["k"].default
    train_cfg = ep.EpisodeConfig(n=train["n"].default, k=k, q=train["q"].default, n_unknown=0)
    # eval's n of 0 means 5 for openset and 1 for oneclass; its n_unknown of -1 matches n
    openset, oneclass = (ep.EpisodeConfig(n=n, k=evaluate["k"].default, q=evaluate["q"].default)
                         for n in (5, 1))
    # calibrate_threshold_baseline fits the open-set shape to meta_val
    cal_n = min(openset.n, len(split.meta_val) - 1)
    calibrate = replace(openset, n=cal_n, n_unknown=min(openset.n_unknown,
                                                        len(split.meta_val) - cal_n))
    closed_val = replace(train_cfg, n=min(train_cfg.n, len(split.meta_val)))
    gate_val = ep._gate_val_config(split.meta_val, k)
    tables = {name: dataset.row_table(split.partition(name))
              for name in ("meta_train", "meta_val", "meta_test")}

    def blocks(partition, cfg, seed, stream):
        drawn = ep._drawn_blocks(tables[partition], cfg, count, seed, stream, 64)
        return _rows_digest((b[1], b[2]) for _, b in drawn)

    digests = {}
    for seed in DRAW_STREAM_SEEDS:
        streams = digests[f"seed {seed}"] = {}
        episodes = ep._training_episodes(tables["meta_train"], train_cfg, count, seed, None)
        training = _rows_digest((e.support, e.queries) for e, _ in episodes)
        for method in train["method"].choices:
            streams[f"train.{method}"] = training
            val_cfg = closed_val if method == "protonet" else gate_val
            streams[f"val.{method}"] = blocks("meta_val", val_cfg, seed, ep._VAL_STREAM)
        streams["calibrate"] = blocks("meta_val", calibrate, seed, ep._CALIB_STREAM)
        streams["eval.openset"] = blocks("meta_test", openset, seed, ep._EVAL_STREAM)
        streams["eval.oneclass"] = blocks("meta_test", oneclass, seed, ep._EVAL_STREAM)
    return digests


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


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_image_pipeline(stage_stats=None):
    """Run the image pipeline; {stage: sha256 of its output}. stage_stats,
    when given, receives each stage's (wall time in s, minor page faults,
    system time in s, process peak RSS in MB after the stage)."""
    seed = 3
    train_cfg, eval_cfg = ep.EpisodeConfig(n=5, k=5, q=10), ep.EpisodeConfig(n=5, k=5, q=15)
    digests = {}

    def stage(name, fn, digest):
        start, usage = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        out = fn()
        if stage_stats is not None:
            after = resource.getrusage(resource.RUSAGE_SELF)
            stage_stats[name] = (time.perf_counter() - start, after.ru_minflt - usage.ru_minflt,
                                 after.ru_stime - usage.ru_stime, _peak_rss_mb())
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


def test_draw_streams_match_golden_digests_on_every_runtime(tmp_path):
    recorded = json.loads(GOLDEN.read_text())["draw_streams"]
    got = draw_streams(_cli_dataset(tmp_path))
    assert sorted(got) == sorted(recorded)
    for seed, streams in recorded.items():
        _assert_same(got[seed], streams)


if __name__ == "__main__":
    if sys.argv[1:] == ["--image-stages"]:
        stats = {}
        run_image_pipeline(stats)
        for name, (s, faults, sys_s, rss) in stats.items():
            print(f"{name}: {s:.3f} s, {faults} minor faults, {sys_s:.3f} s sys, "
                  f"peak RSS {rss:.1f} MB")
        print(f"peak RSS: {_peak_rss_mb():.1f} MB")
        sys.exit(0)
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}
    doc["regenerate"] = "PYTHONPATH=src python tests/test_golden_digests.py"
    key = runtime_key()
    with tempfile.TemporaryDirectory() as tmp:
        doc["digests"][key] = run_pipeline(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        doc["draw_streams"] = draw_streams(_cli_dataset(tmp))
    doc.setdefault("image_digests", {})[key] = run_image_pipeline()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
