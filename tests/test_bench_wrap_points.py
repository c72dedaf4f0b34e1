"""The traced benchmark wraps fsos functions by name; a rename that drops one
of them fails here instead of in the benchmark run."""

import sys
from pathlib import Path

import fsos
import fsos.cli  # noqa: F401  (imports every fsos module the benchmark wraps)
from fsos.backbone import init_backbone
from fsos.data import save_dataset
from fsos.episodes import EpisodeConfig, MetaBceGate
from fsos.metabce import init_head

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import spans  # noqa: E402


def test_full_patches_apply_and_restore(small_dataset, small_spec):
    original_judge = fsos.episodes.MetaBceGate.__dict__["judge"]
    original_prototypes = fsos.protonet.prototypes
    tracer = spans.Tracer()
    patches = layers.full_patches(tracer, fsos)
    patches.apply()
    try:
        assert fsos.episodes.MetaBceGate.__dict__["judge"] is not original_judge
        # through the module attribute, which is what the wrappers replace
        fsos.episodes.evaluate_openset(
            init_backbone(small_spec, seed=1), MetaBceGate(init_head()), small_dataset,
            EpisodeConfig(n=2, k=2, q=3, n_unknown=1), 1, seed=2,
        )
    finally:
        patches.restore()
    assert fsos.episodes.MetaBceGate.__dict__["judge"] is original_judge
    assert fsos.protonet.prototypes is original_prototypes
    names = {rec[0] for rec in tracer.spans}
    assert {"episodes.evaluate_openset", "episodes.MetaBceGate.judge",
            "protonet.prototypes", "metabce.prob_known", "autodiff.affine"} <= names


def test_stage_patches_time_every_eval_stage(tmp_path, small_dataset, small_spec, capsys):
    """The end-to-end metrics are read from these stage spans; a stage the
    wrappers miss would turn its metric into NaN."""
    save_dataset(small_dataset, tmp_path / "ds.json")
    fsos.cli.save_pipeline_checkpoint(tmp_path / "pn.ckpt", init_backbone(small_spec, seed=1),
                                      {}, {})
    original = fsos.episodes.evaluate_openset
    tracer = spans.Tracer()
    patches = layers.stage_patches(tracer, fsos)
    patches.apply()
    try:
        for task, n in (("openset", 2), ("oneclass", 1)):
            assert fsos.cli.main([
                "eval", f"--task={task}", "--head=threshold", f"--checkpoint={tmp_path}/pn.ckpt",
                f"--dataset={tmp_path}/ds.json", f"--out={tmp_path}/{task}.json", f"--n={n}",
                "--n_unknown=1", "--k=2", "--q=3", "--episodes=3", "--calib_episodes=2",
            ]) == 0, capsys.readouterr().err
    finally:
        patches.restore()
    assert fsos.episodes.evaluate_openset is original
    names = [rec[0] for rec in tracer.spans]
    assert names.count("episodes.calibrate_threshold_baseline") == 2
    assert names.count("episodes.evaluate_openset") == 1
    assert names.count("episodes.evaluate_oneclass") == 1
