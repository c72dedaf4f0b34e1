import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from fsos import cli, metrics
from fsos.checkpoint import load_checkpoint, save_checkpoint
from fsos.cli import SCHEMAS, _resolve_schedule, main, parse_command
from fsos.episodes import METHODS, TrainSchedule, default_schedule
from fsos.metrics import UNKNOWN

TRAIN_METHODS = SCHEMAS["train"]["method"].choices


def run(args):
    return main(list(args))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small dataset plus trained protonet/mbce/ocml checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    assert run([
        "generate", f"--out={root}/ds.json", "--num_classes=12",
        "--examples_per_class=25", "--dim=16", "--seed=3",
    ]) == 0
    assert run([
        "train", "--method=protonet", f"--dataset={root}/ds.json",
        f"--out={root}/pn.ckpt", "--episodes=300", "--n=5", "--k=5", "--q=8", "--seed=3",
    ]) == 0
    assert run([
        "train", "--method=mbce", f"--dataset={root}/ds.json",
        f"--backbone={root}/pn.ckpt", f"--out={root}/mbce.ckpt",
        "--episodes=300", "--n=3", "--k=3", "--q=6", "--seed=3",
    ]) == 0
    assert run([
        "train", "--method=ocml_frozen", f"--dataset={root}/ds.json",
        f"--backbone={root}/pn.ckpt", f"--out={root}/ocml.ckpt",
        "--episodes=300", "--n=3", "--k=3", "--q=6", "--seed=3",
    ]) == 0
    return root


def test_generate_rejects_bad_spec(tmp_path, capsys):
    code = run(["generate", f"--out={tmp_path}/x.json", "--num_classes=2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [runtime]")


@pytest.mark.parametrize("option", ["separation", "spread"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_generate_rejects_non_finite_spec(tmp_path, capsys, option, value):
    code = run(["generate", f"--out={tmp_path}/x.json", f"--{option}={value}"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: [runtime] {option} must be finite")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("split", ["10/10/10/10", "24/16", "40"])
def test_generate_split_needs_three_counts(tmp_path, capsys, split):
    code = run(["generate", f"--out={tmp_path}/x.json", f"--split={split}"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "'split'" in lines[0] and "three" in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_unknown_key_rejected(tmp_path, capsys):
    code = run(["generate", f"--out={tmp_path}/x.json", "--n_classes=9"])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_unknown_command_rejected(capsys):
    assert run(["transmogrify"]) == 1
    assert "unknown command" in capsys.readouterr().err


def test_generate_deterministic_checksums(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert run([
            "generate", f"--out={tmp_path}/{sub}/ds.json", "--num_classes=8",
            "--examples_per_class=10", "--dim=6", "--seed=11",
        ]) == 0
    out = capsys.readouterr().out
    sums = [line.split("=")[1] for line in out.splitlines() if line.startswith("checksum=")]
    assert len(sums) == 2 and sums[0] == sums[1]
    a = (tmp_path / "a" / "ds.bin").read_bytes()
    b = (tmp_path / "b" / "ds.bin").read_bytes()
    assert a == b


def test_train_requires_backbone_for_augmentation(workdir, capsys):
    code = run([
        "train", "--method=mbce", f"--dataset={workdir}/ds.json",
        f"--out={workdir}/x.ckpt", "--episodes=5",
    ])
    assert code == 1
    assert "backbone" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(SCHEMAS))
def test_command_help_lists_every_key(capsys, command):
    assert run([command, "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"usage: fsos {command} ")
    by_key = {line.split()[0].split("=")[0]: line for line in lines[1:]}
    assert list(by_key) == [f"--{key}" for key in SCHEMAS[command]]
    for key, opt in SCHEMAS[command].items():
        line = by_key[f"--{key}"]
        assert opt.help in line and all(choice in line for choice in opt.choices or ()), line
        if opt.required:
            assert "required" in line, line
        elif isinstance(opt.default, (int, float, str)):
            assert line.split()[0] == f"--{key}={opt.default}", line


@pytest.mark.parametrize("method", [m for m, space in METHODS.items() if space])
def test_frozen_head_without_backbone_is_usage_error_before_loading(
        tmp_path, capsys, monkeypatch, method):
    (tmp_path / "ds.json").write_text("{}")
    monkeypatch.setattr(cli, "load_dataset", lambda path: pytest.fail("loaded the dataset"))
    code = run(["train", f"--method={method}", f"--dataset={tmp_path}/ds.json",
                f"--out={tmp_path}/head.ckpt", f"--loss_csv={tmp_path}/loss.csv"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert f"'{method}'" in lines[0] and "--backbone required" in lines[0]
    assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]


@pytest.mark.parametrize("method", [m for m, space in METHODS.items() if not space])
def test_extractor_methods_train_without_backbone(workdir, tmp_path, method):
    assert run(["train", f"--method={method}", f"--dataset={workdir}/ds.json",
                f"--out={tmp_path}/x.ckpt", "--episodes=4", "--n=3", "--k=2", "--q=2",
                "--val_episodes=2"]) == 0
    assert (tmp_path / "x.ckpt").is_file()


def test_train_missing_dataset_is_usage_error(tmp_path, capsys):
    code = run([
        "train", "--method=protonet", f"--dataset={tmp_path}/nope.json",
        f"--out={tmp_path}/x.ckpt", "--episodes=5",
    ])
    assert code == 1


@pytest.mark.parametrize("command,key", [
    ("generate", "out"), ("train", "out"), ("train", "loss_csv"), ("eval", "out"),
    ("eval", "episode_csv"), ("eval", "records_csv")])
def test_output_path_naming_a_directory_is_usage_error_up_front(tmp_path, capsys, monkeypatch,
                                                               command, key):
    """Every file an output path names is checked before any work: a
    directory there is one usage error, with nothing generated, loaded,
    trained, evaluated or written."""
    for name in ("ds.json", "pn.ckpt"):
        (tmp_path / name).write_text("{}")
    (tmp_path / "taken").mkdir()
    for name in ("generate_synthetic", "load_dataset", "load_pipeline_checkpoint",
                 "run_meta_training", "evaluate_openset", "evaluate_oneclass"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"ran {name}"))
    args = {"generate": [], "eval": ["--task=openset", "--head=threshold",
                                     f"--checkpoint={tmp_path}/pn.ckpt"],
            "train": ["--method=protonet"]}[command]
    if command != "generate":
        args.append(f"--dataset={tmp_path}/ds.json")
    if key != "out":
        args.append(f"--out={tmp_path}/result")
    before = sorted(tmp_path.iterdir())
    code = run([command, *args, f"--{key}={tmp_path}/taken"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "is a directory" in lines[0] and str(tmp_path / "taken") in lines[0]
    assert sorted(tmp_path.iterdir()) == before and not any((tmp_path / "taken").iterdir())


def test_train_checkpoints_deterministic(workdir, tmp_path):
    args = [
        "train", "--method=protonet", f"--dataset={workdir}/ds.json",
        "--episodes=60", "--n=3", "--k=2", "--q=4", "--seed=21",
    ]
    assert run(args + [f"--out={tmp_path}/r1.ckpt"]) == 0
    assert run(args + [f"--out={tmp_path}/r2.ckpt"]) == 0
    assert (tmp_path / "r1.ckpt").read_bytes() == (tmp_path / "r2.ckpt").read_bytes()


@pytest.mark.parametrize("method,patience", [("protonet", 0), ("mbce", 8), ("mbce_projected", 8),
                                              ("ocml_frozen", 0)])
def test_train_writes_patience_in_the_header(workdir, tmp_path, method, patience):
    backbone = [] if method == "protonet" else [f"--backbone={workdir}/pn.ckpt"]
    assert run([
        "train", f"--method={method}", f"--dataset={workdir}/ds.json", f"--out={tmp_path}/t.ckpt",
        "--episodes=4", "--n=3", "--k=2", "--q=3", *backbone,
    ]) == 0
    header, _ = load_checkpoint(f"{tmp_path}/t.ckpt")
    assert header["meta"]["schedule"]["patience"] == patience


def _train_settings(method, *overrides):
    return parse_command("train", [f"--method={method}", "--dataset=d.json", "--out=o.ckpt",
                                   *overrides])


@pytest.mark.parametrize("method", TRAIN_METHODS)
def test_schedule_without_overrides_is_the_method_default(method):
    got = _resolve_schedule(_train_settings(method), method)
    want = default_schedule(method)
    for f in dataclasses.fields(TrainSchedule):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@pytest.mark.parametrize("method", TRAIN_METHODS)
def test_schedule_overrides_replace_only_their_fields(method):
    overrides = {"learning_rate": 0.25, "optimizer": "sgd", "val_interval": 7,
                 "val_episodes": 3, "offset_learning_rate": 0.5}
    got = _resolve_schedule(
        _train_settings(method, "--episodes=11", *(f"--{k}={v}" for k, v in overrides.items())),
        method)
    want = default_schedule(method, 11)
    for f in dataclasses.fields(TrainSchedule):
        assert getattr(got, f.name) == overrides.get(f.name, getattr(want, f.name)), f.name


@pytest.mark.parametrize("method", ["protonet", "mbce"])
def test_train_divergence_is_runtime_error_without_checkpoint(workdir, tmp_path, capsys, method):
    backbone = [] if method == "protonet" else [f"--backbone={workdir}/pn.ckpt"]
    code = run([
        "train", f"--method={method}", f"--dataset={workdir}/ds.json", f"--out={tmp_path}/d.ckpt",
        "--episodes=200", "--learning_rate=1e6", *backbone,
    ])
    assert code == 2
    assert f"{method} training diverged at episode" in _one_runtime_error(capsys)
    assert not (tmp_path / "d.ckpt").exists()


@pytest.mark.parametrize("method, rates", [
    ("protonet", ["--learning_rate=1e300"]),
    ("mbce", ["--learning_rate=1e200", "--offset_learning_rate=1e200"]),
    ("mbce_projected", ["--learning_rate=1e200", "--offset_learning_rate=1e200"]),
    ("ocml_frozen", ["--learning_rate=1e300"]),
    ("ocml_joint", ["--learning_rate=1e300"]),
])
def test_train_divergence_prints_no_numpy_warning(workdir, tmp_path, capsys, method, rates):
    """An overflowing step is reported by the divergence guard alone."""
    backbone = [] if method == "protonet" else [f"--backbone={workdir}/pn.ckpt"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([
            "train", f"--method={method}", f"--dataset={workdir}/ds.json",
            f"--out={tmp_path}/d.ckpt", "--episodes=5", *rates, *backbone,
        ])
    assert code == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "training diverged at episode" in _one_runtime_error(capsys)


def test_eval_oneclass_requires_n_one(workdir, capsys):
    code = run([
        "eval", "--task=oneclass", "--head=mbce", f"--checkpoint={workdir}/mbce.ckpt",
        f"--dataset={workdir}/ds.json", "--n=5", "--episodes=5",
        f"--out={workdir}/bad.json",
    ])
    assert code == 1
    assert "n=1" in capsys.readouterr().err


def test_eval_zero_episodes_rejected(workdir, capsys):
    code = run([
        "eval", "--task=oneclass", "--head=mbce", f"--checkpoint={workdir}/mbce.ckpt",
        f"--dataset={workdir}/ds.json", "--episodes=0", f"--out={workdir}/bad.json",
    ])
    assert code == 1


@pytest.mark.parametrize("value", ["0", "-3"])
def test_eval_bad_calib_episodes_is_usage_error(workdir, capsys, value):
    out = workdir / f"calib{value}.json"
    code = run([
        "eval", "--task=openset", "--head=threshold", f"--checkpoint={workdir}/pn.ckpt",
        f"--dataset={workdir}/ds.json", f"--calib_episodes={value}", f"--out={out}",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "calib_episodes" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("option", [
    "episodes=-1", "val_interval=-3", "val_episodes=-2", "learning_rate=-0.5",
    "offset_learning_rate=-1e-3", "learning_rate=nan",
])
def test_train_negative_numbers_are_usage_errors(tmp_path, capsys, option):
    # the dataset and backbone do not exist: the check must come before any work
    code = run([
        "train", "--method=mbce", f"--dataset={tmp_path}/ds.json",
        f"--backbone={tmp_path}/pn.ckpt", f"--out={tmp_path}/mbce.ckpt", f"--{option}",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert option.split("=")[0] in lines[0]


@pytest.mark.parametrize("command,option", [
    ("train", "n=0"), ("train", "k=0"), ("train", "q=0"), ("train", "n=-2"),
    ("eval", "k=0"), ("eval", "q=-1"), ("eval", "n=-1"), ("eval", "n_unknown=-2"),
])
def test_episode_shape_bounds_are_usage_errors_before_loading(tmp_path, capsys, command, option):
    # the dataset and checkpoints do not exist: the check must come before any load
    args = {
        "train": ["--method=protonet", f"--out={tmp_path}/pn.ckpt"],
        "eval": ["--task=openset", "--head=threshold", f"--checkpoint={tmp_path}/pn.ckpt",
                 f"--out={tmp_path}/report.json"],
    }[command]
    code = run([command, *args, f"--dataset={tmp_path}/ds.json", f"--{option}"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert f"'{option.split('=')[0]}'" in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "train", "eval", "ablate"])
def test_negative_seed_is_usage_error_before_loading(tmp_path, capsys, command):
    # no input exists: the check must come before any load, and nothing is written
    args = {
        "generate": [f"--out={tmp_path}/ds.json"],
        "train": ["--method=protonet", f"--dataset={tmp_path}/ds.json",
                  f"--out={tmp_path}/pn.ckpt"],
        "eval": ["--task=openset", "--head=threshold", f"--checkpoint={tmp_path}/pn.ckpt",
                 f"--dataset={tmp_path}/ds.json", f"--out={tmp_path}/report.json"],
        "ablate": ["--grid=kshot", f"--dataset={tmp_path}/ds.json",
                   f"--backbone={tmp_path}/pn.ckpt", f"--out_dir={tmp_path}"],
    }[command]
    code = run([command, *args, "--seed=-1"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: [usage] 'seed' must be >= 0, got '-1'"], lines
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("task,n", [("openset", 5), ("oneclass", 1)])
def test_eval_without_unknown_classes_is_usage_error(workdir, capsys, task, n):
    out = workdir / f"no-unknown-{task}.json"
    code = run([
        "eval", f"--task={task}", "--head=threshold", f"--checkpoint={workdir}/pn.ckpt",
        f"--dataset={workdir}/ds.json", f"--n={n}", "--n_unknown=0", "--episodes=3",
        "--calib_episodes=2", f"--out={out}",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "'n_unknown'" in lines[0]
    assert not out.exists()


def test_protonet_one_way_is_usage_error_before_loading(tmp_path, capsys):
    # closed-set training needs two classes; the dataset does not exist, so
    # the check must come before any load
    code = run(["train", "--method=protonet", f"--dataset={tmp_path}/ds.json",
                f"--out={tmp_path}/pn.ckpt", "--n=1"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "'n'" in lines[0] and "protonet" in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["mbce", "mbce_projected", "ocml_frozen", "ocml_joint"])
def test_every_method_one_way_is_usage_error_before_loading(tmp_path, capsys, method):
    # a one-way episode has no negatives; nothing exists on disk, so the
    # check must come before any load, and nothing may be written
    code = run(["train", f"--method={method}", f"--dataset={tmp_path}/ds.json",
                f"--backbone={tmp_path}/pn.ckpt", f"--out={tmp_path}/head.ckpt",
                f"--loss_csv={tmp_path}/loss.csv", "--n=1"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "'n'" in lines[0] and f"'{method}'" in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid,method", [("gtheta", "ocml_frozen"), ("kshot", "mbce"),
                                         ("nway", "mbce"), ("mbce_variant", "mbce")])
def test_ablate_one_way_training_is_usage_error_before_loading(tmp_path, capsys, grid, method):
    code = run(["ablate", f"--grid={grid}", f"--dataset={tmp_path}/ds.json",
                f"--backbone={tmp_path}/pn.ckpt", f"--out_dir={tmp_path}", "--n=1"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "'n'" in lines[0] and f"'{method}'" in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_eval_reports_deterministic(workdir, tmp_path):
    base = [
        "eval", "--task=openset", "--head=ocml", f"--checkpoint={workdir}/ocml.ckpt",
        f"--dataset={workdir}/ds.json", "--n=2", "--n_unknown=1", "--k=3",
        "--episodes=15", "--seed=5",
    ]
    assert run(base + [f"--out={tmp_path}/r1.json", f"--episode_csv={tmp_path}/r1.csv"]) == 0
    assert run(base + [f"--out={tmp_path}/r2.json", f"--episode_csv={tmp_path}/r2.csv"]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


@pytest.mark.parametrize("task", ["openset", "oneclass"])
def test_records_csv_recomputes_the_episode_csv(workdir, tmp_path, task):
    """Every per-episode metric recomputed from the records CSV with
    fsos.metrics equals the episode CSV's value bit for bit. Open-set
    accuracy is the ungated closed-set accuracy, which the gated records do
    not hold: it bounds the recomputed AKS."""
    n = ["--n=2", "--n_unknown=1"] if task == "openset" else ["--n=1", "--n_unknown=2"]
    assert run([
        "eval", f"--task={task}", "--head=mbce", f"--checkpoint={workdir}/mbce.ckpt",
        f"--dataset={workdir}/ds.json", *n, "--k=3", "--q=4", "--episodes=12", "--seed=6",
        f"--out={tmp_path}/r.json", f"--episode_csv={tmp_path}/ep.csv",
        f"--records_csv={tmp_path}/rec.csv",
    ]) == 0
    triple = metrics.read_records_csv(tmp_path / "rec.csv")
    with open(tmp_path / "ep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == [str(e) for e in range(12)]
    written = {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0]) if i}
    truth, pred, _ = triple
    if task == "openset":
        aks, aus = metrics.aks(triple), metrics.aus(triple)
        recomputed = {"aks": aks, "aus": aus, "na": metrics.normalized_accuracy(aks, aus),
                      "f1_open": metrics.f1_open(triple), "auroc": metrics.auroc(triple)}
        assert np.all(aks <= np.array(written.pop("accuracy"), dtype=float))
    else:
        recomputed = {"accuracy": np.mean((truth != UNKNOWN) == (pred != UNKNOWN), axis=1),
                      "f1": metrics.binary_f1(triple), "auroc": metrics.auroc(triple)}
    assert sorted(written) == sorted(recomputed)
    for name, values in recomputed.items():
        assert [repr(v) for v in values.tolist()] == written[name], name


def _one_runtime_error(capsys):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [runtime] "), err
    return lines[0]


def test_eval_checkpoint_without_backbone_spec_is_runtime_error(workdir, tmp_path, capsys):
    header, groups = load_checkpoint(f"{workdir}/pn.ckpt")
    del header["backbone_spec"]
    save_checkpoint(f"{tmp_path}/bad.ckpt", header, groups)
    code = run([
        "eval", "--task=openset", "--head=threshold", f"--checkpoint={tmp_path}/bad.ckpt",
        f"--dataset={workdir}/ds.json", "--n=2", "--n_unknown=1", "--episodes=2",
        f"--out={tmp_path}/r.json",
    ])
    assert code == 2
    assert "backbone_spec" in _one_runtime_error(capsys)


@pytest.mark.parametrize("key", ["checksum", "split"])
def test_eval_manifest_without_key_is_runtime_error(workdir, tmp_path, capsys, key):
    manifest = json.loads((workdir / "ds.json").read_text())
    del manifest[key]
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    (tmp_path / "ds.bin").write_bytes((workdir / "ds.bin").read_bytes())
    code = run([
        "eval", "--task=openset", "--head=threshold", f"--checkpoint={workdir}/pn.ckpt",
        f"--dataset={tmp_path}/ds.json", "--n=2", "--n_unknown=1", "--episodes=2",
        f"--out={tmp_path}/r.json",
    ])
    assert code == 2
    assert f"manifest is missing '{key}'" in _one_runtime_error(capsys)


def _cut_trunk_rows(header, groups):
    return header, [
        (g, [(p, a[:3] if (g, p) == ("trunk0", "W") else a) for p, a in items])
        for g, items in groups
    ]


def _set_header(keys, value):
    """An alteration that sets header[keys[0]]...[keys[-1]] to value."""
    def alter(header, groups):
        node = header
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return header, groups

    return alter


def _set_param(group, name, value, shape=None):
    """An alteration that sets every value of parameter group.name to value,
    and its shape to shape when given."""
    def filled(a):
        return np.full(a.shape if shape is None else shape, value)

    def alter(header, groups):
        return header, [
            (g, [(p, filled(a) if (g, p) == (group, name) else a) for p, a in items])
            for g, items in groups
        ]

    return alter


@pytest.mark.parametrize("head, alter, reason", [
    ("threshold", _cut_trunk_rows, "trunk0.W has shape (3, 64), expected (16, 64)"),
    ("threshold", lambda header, groups: (header, groups + [("bogus", [("W", [[1.0]])])]),
     "unknown parameter groups"),
    ("threshold", _set_header(["heads"], ["mbce"]), "'heads' must map head names to objects"),
    ("threshold", _set_header(["heads", "mbce"], ["branch"]),
     "'heads' must map head names to objects"),
    ("threshold", _set_header(["backbone_spec", "input_shape"], 5),
     "input_shape must be a list of integers"),
    ("threshold", _set_header(["backbone_spec", "blocks"], 5),
     "blocks must be a list of [kind, integer dim]"),
    ("threshold", _set_header(["backbone_spec", "blocks", 0, 1], [1]),
     "blocks must be a list of [kind, integer dim]"),
    ("threshold", _set_param("head", "b", np.inf), "parameter head.b holds NaN or inf"),
    ("mbce", _set_param("mbce", "t", np.nan), "parameter mbce.t holds NaN or inf"),
    ("mbce", _set_param("mbce", "t", 0.5, (3,)), "parameter t must be a scalar, got shape (3,)"),
    ("mbce", _set_param("mbce", "t", 0.5, (1,)), "parameter t must be a scalar, got shape (1,)"),
    ("mbce", _set_param("mbce", "t", 0.5, (2, 2)),
     "parameter t must be a scalar, got shape (2, 2)"),
], ids=["truncated_trunk_weight", "unknown_group", "heads_list", "heads_entry_list",
        "input_shape_int", "blocks_int", "block_dim_list", "inf_head_bias", "nan_mbce_offset",
        "mbce_offset_vector", "mbce_offset_one_vector", "mbce_offset_matrix"])
def test_eval_checkpoint_with_bad_parameters_is_runtime_error(
    workdir, tmp_path, capsys, head, alter, reason
):
    checkpoint = "mbce" if head == "mbce" else "pn"
    header, groups = load_checkpoint(f"{workdir}/{checkpoint}.ckpt")
    save_checkpoint(f"{tmp_path}/bad.ckpt", *alter(header, groups))
    code = run([
        "eval", "--task=openset", f"--head={head}", f"--checkpoint={tmp_path}/bad.ckpt",
        f"--dataset={workdir}/ds.json", "--n=2", "--n_unknown=1", "--episodes=2",
        f"--out={tmp_path}/r.json",
    ])
    assert code == 2
    assert reason in _one_runtime_error(capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("arch", ["midx", "mid0", "mid", "2layers"])
def test_train_bad_ocml_arch_is_usage_error(workdir, tmp_path, capsys, arch):
    code = run([
        "train", "--method=ocml_frozen", f"--dataset={workdir}/ds.json",
        f"--backbone={workdir}/pn.ckpt", f"--out={tmp_path}/o.ckpt", "--episodes=5",
        f"--ocml_arch={arch}",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] bad value for 'ocml_arch'")
    assert not (tmp_path / "o.ckpt").exists()


_CELL = {"mean": 0.5, "ci": 0.1}


@pytest.mark.parametrize("docs, reason", [
    ([{"config": {"task": "openset"}}], "not an evaluation report"),
    ([[{"config": {}, "metrics": {}}]], "not an evaluation report"),
    ([{"config": {}, "metrics": {"na": _CELL}}, {"config": {}, "metrics": {"auroc": _CELL}}],
     "holds metrics"),
    ([{"config": {}, "metrics": {"na": {"mean": 10**400, "ci": 0.1}}}],
     "not an evaluation report"),
    ([{"config": {}, "metrics": {"na": {"mean": 0.5, "ci": -(10**400)}}}],
     "not an evaluation report"),
], ids=["without_metrics", "json_list", "metric_names_differ", "mean_beyond_float",
        "ci_beyond_float"])
def test_report_rejects_malformed_report_json(tmp_path, capsys, docs, reason):
    paths = []
    for i, doc in enumerate(docs):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(doc))
    assert run(["report", "--inputs=" + ",".join(map(str, paths))]) == 2
    assert reason in _one_runtime_error(capsys)


def test_eval_emits_table_shaped_metrics(workdir, tmp_path, capsys):
    assert run([
        "eval", "--task=openset", "--head=mbce", f"--checkpoint={workdir}/mbce.ckpt",
        f"--dataset={workdir}/ds.json", "--n=2", "--n_unknown=1", "--k=3",
        "--episodes=10", "--seed=7", f"--out={tmp_path}/os.json",
    ]) == 0
    out = capsys.readouterr().out
    for metric in ("accuracy=", "na=", "f1_open=", "auroc="):
        assert metric in out
    doc = json.loads((tmp_path / "os.json").read_text())
    assert doc["config"]["gate"] == "mbce"
    assert doc["config"]["n"] == 2


def test_report_merges_and_refuses_mismatched(workdir, tmp_path, capsys):
    for head, ckpt in (("mbce", "mbce.ckpt"), ("ocml", "ocml.ckpt")):
        assert run([
            "eval", "--task=openset", f"--head={head}", f"--checkpoint={workdir}/{ckpt}",
            f"--dataset={workdir}/ds.json", "--n=2", "--n_unknown=1", "--k=3",
            "--episodes=8", "--seed=8", f"--out={tmp_path}/{head}.json",
        ]) == 0
    assert run([
        "report", f"--inputs={tmp_path}/mbce.json,{tmp_path}/ocml.json",
        f"--out_csv={tmp_path}/cmp.csv",
    ]) == 0
    table = (tmp_path / "cmp.csv").read_text().splitlines()
    assert len(table) == 3
    # single report is fine
    assert run(["report", f"--inputs={tmp_path}/mbce.json"]) == 0
    # mismatched shape is refused, naming the field
    assert run([
        "eval", "--task=openset", "--head=mbce", f"--checkpoint={workdir}/mbce.ckpt",
        f"--dataset={workdir}/ds.json", "--n=2", "--n_unknown=1", "--k=5",
        "--episodes=8", "--seed=8", f"--out={tmp_path}/k5.json",
    ]) == 0
    code = run(["report", f"--inputs={tmp_path}/mbce.json,{tmp_path}/k5.json"])
    assert code == 1
    assert "k" in capsys.readouterr().err


def test_ablate_gtheta_grid(workdir, tmp_path):
    out = tmp_path / "abl"
    out.mkdir()
    assert run([
        "ablate", "--grid=gtheta", f"--dataset={workdir}/ds.json",
        f"--backbone={workdir}/pn.ckpt", f"--out_dir={out}",
        "--k_values=1,3", "--train_episodes=60", "--eval_episodes=6", "--seed=3",
    ]) == 0
    rows = (out / "gtheta_auroc.csv").read_text().splitlines()
    assert rows[0] == "architecture,k,mean,ci"
    archs = {r.split(",")[0] for r in rows[1:]}
    assert archs == {"1layer", "2layers_mid4", "2layers_mid20", "2layers_mid40"}
    assert len(rows) == 1 + 4 * 2  # four architectures x two k values


@pytest.mark.parametrize("grid,axis,values", [("kshot", "k", (1, 3)), ("nway", "n", (1, 2))])
def test_ablate_openset_grids(workdir, tmp_path, grid, axis, values):
    # meta_test holds 3 classes: 2-way episodes keep one unknown class
    out = tmp_path / "abl"
    out.mkdir()
    assert run([
        "ablate", f"--grid={grid}", f"--dataset={workdir}/ds.json",
        f"--backbone={workdir}/pn.ckpt", f"--out_dir={out}", "--n=2", "--q=6",
        f"--{axis}_values={','.join(map(str, values))}", "--train_episodes=40",
        "--eval_episodes=6", "--seed=3",
    ]) == 0
    for metric in ("accuracy", "na", "f1_open", "auroc"):
        rows = (out / f"{grid}_{metric}.csv").read_text().splitlines()
        assert rows[0] == f"method,{axis},mean,ci", metric
        table = [r.split(",") for r in rows[1:]]
        assert len(table) == 3 * len(values), metric
        assert {r[0] for r in table} == {"mbce", "ocml", "threshold"}, metric
        assert sorted(int(r[1]) for r in table) == sorted(values * 3), metric
        assert all(0.0 <= float(r[2]) <= 1.0 for r in table), metric


@pytest.mark.parametrize("grid,option", [("nway", "--n_values=2,3"), ("mbce_variant", "--n=3")])
def test_ablate_unfittable_point_is_usage_error_before_training(
    workdir, tmp_path, capsys, monkeypatch, grid, option
):
    # meta_test holds 3 classes: a 3-way episode leaves none unknown
    def refuse(*args, **kwargs):
        raise AssertionError("trained before every grid point was checked")

    monkeypatch.setattr(cli, "train_heads", refuse)
    monkeypatch.setattr(cli, "train_gates", refuse)
    code = run(["ablate", f"--grid={grid}", f"--dataset={workdir}/ds.json",
                f"--backbone={workdir}/pn.ckpt", f"--out_dir={tmp_path}", option,
                "--train_episodes=20", "--eval_episodes=4"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "meta_test has 3 classes, cannot fit 3-way plus unknowns" in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_ablate_empty_grid_rejected(workdir, tmp_path, capsys):
    out = tmp_path / "abl"
    out.mkdir()
    code = run([
        "ablate", "--grid=kshot", f"--dataset={workdir}/ds.json",
        f"--backbone={workdir}/pn.ckpt", f"--out_dir={out}", "--k_values=",
    ])
    assert code == 1
    assert "non-empty" in capsys.readouterr().err


def test_train_empty_blocks_is_usage_error(workdir, tmp_path, capsys):
    # the dataset exists: the list itself is refused, not the backbone it would build
    out = tmp_path / "pn.ckpt"
    code = run(["train", "--method=protonet", f"--dataset={workdir}/ds.json", f"--out={out}",
                "--blocks="])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "'blocks'" in lines[0] and "non-empty" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("blocks, rule", [
    ("64", "at least 2 widths"), ("0", ">= 1"), ("-3,4", ">= 1"),
])
def test_train_bad_blocks_are_usage_errors_before_loading(workdir, tmp_path, capsys,
                                                          monkeypatch, blocks, rule):
    def refuse(*args):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    code = run(["train", "--method=protonet", f"--dataset={workdir}/ds.json",
                f"--out={tmp_path}/pn.ckpt", f"--blocks={blocks}"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert "'blocks'" in lines[0] and rule in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", [
    "eval_episodes=0", "n=0", "k=0", "q=-1", "k_values=0,5", "n_values=2,0",
    "train_episodes=-5",
])
def test_ablate_bad_numbers_are_usage_errors_before_training(workdir, tmp_path, capsys, option):
    out = tmp_path / "abl"
    out.mkdir()
    code = run([
        "ablate", "--grid=kshot", f"--dataset={workdir}/ds.json",
        f"--backbone={workdir}/pn.ckpt", f"--out_dir={out}", "--train_episodes=20",
        "--eval_episodes=4", f"--{option}",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [usage] "), lines
    assert f"'{option.split('=')[0]}'" in lines[0]
    assert list(out.iterdir()) == []


def test_config_file_with_overrides(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[eval]\ntask=oneclass\nhead=ocml\ncheckpoint={workdir}/ocml.ckpt\n"
        f"dataset={workdir}/ds.json\nepisodes=6\nseed=4\nout={tmp_path}/c.json\n"
    )
    assert run(["eval", f"--config={cfg}", "--episodes=5"]) == 0
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["m_episodes"] == 5  # override wins over the file
