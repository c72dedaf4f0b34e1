"""Command-line entry point: generate | train | eval | ablate | report.

Settings come from an INI-style config file (one section per command) plus
--key=value overrides; unknown keys are rejected and paths are validated
before any work starts. Every command is deterministic given its settings
and seed. Exit codes: 0 success, 1 usage/config error, 2 runtime error;
errors print one machine-parsable line on stderr.
"""

import configparser
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__, metabce, ocml
from .backbone import BackboneSpec, from_param_groups, to_param_groups
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import DatasetError, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .episodes import (
    METHODS,
    EpisodeConfig,
    EpisodeError,
    MetaBceGate,
    OcmlGate,
    ThresholdGate,
    calibrate_threshold_baseline,
    default_schedule,
    evaluate_oneclass,
    evaluate_openset,
    run_meta_training,
    train_gates,
    train_heads,
)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema & parsing


class Option:
    """One setting: parsed from its text, then checked against choices and,
    for numbers and int lists, a lower bound on each value."""

    def __init__(self, default, parse=str, choices=None, required=False, help="", minimum=None):
        self.default = default
        self.parse = parse
        self.choices = choices
        self.required = required
        self.help = help
        self.minimum = minimum


def _parse_int_list(s):
    values = tuple(int(tok) for tok in str(s).split(",") if tok.strip())
    if not values:
        raise ValueError("expected a non-empty comma-separated list of integers")
    return values


def _parse_split(s):
    if s == "auto":
        return None
    counts = tuple(int(tok) for tok in s.split("/"))
    if len(counts) != 3:
        raise ValueError(f"expected three train/val/test counts, got {len(counts)}")
    return counts


def _parse_ocml_arch(text):
    """Transfer-module middle width: None for "1layer", N for "mid<N>"."""
    if text == "1layer":
        return None
    digits = text[3:] if text.startswith("mid") else ""
    if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
        raise ValueError(f"expected '1layer' or 'mid<N>' with N >= 1, got {text!r}")
    return int(digits)


SCHEMAS = {
    "generate": {
        "out": Option(None, str, required=True, help="manifest JSON path to write"),
        "name": Option("synthetic"),
        "num_classes": Option(40, int),
        "examples_per_class": Option(60, int),
        "dim": Option(32, int),
        "separation": Option(8.0, float),
        "spread": Option(1.0, float),
        "seed": Option(0, int, minimum=0),
        "split": Option(None, _parse_split, help="train/val/test counts, e.g. 24/6/10, or auto"),
    },
    "train": {
        "method": Option(None, str, choices=tuple(METHODS), required=True),
        "dataset": Option(None, str, required=True, help="dataset manifest path"),
        "out": Option(None, str, required=True, help="checkpoint path to write"),
        "backbone": Option("", str, help="base checkpoint (required for augmentation methods)"),
        "loss_csv": Option("", str, help="optional per-episode loss curve CSV"),
        "episodes": Option(0, int, help="0 uses the method default", minimum=0),
        "n": Option(5, int, minimum=1),
        "k": Option(5, int, minimum=1),
        "q": Option(10, int, minimum=1),
        "optimizer": Option("auto", str, choices=("auto", "sgd", "adam")),
        "learning_rate": Option(0.0, float, help="0 uses the method default", minimum=0),
        "offset_learning_rate": Option(
            0.0, float, help="0 uses the method default (mbce)", minimum=0
        ),
        "val_interval": Option(0, int, help="0 uses the method default", minimum=0),
        "val_episodes": Option(0, int, help="0 uses the method default", minimum=0),
        "seed": Option(0, int, minimum=0),
        "blocks": Option((), _parse_int_list, minimum=1,
                         help="dense widths for a fresh backbone, at least two; unset uses 64,64"),
        "ocml_arch": Option("", _parse_ocml_arch,
                            help="gtheta arch of ocml_frozen and ocml_joint: 1layer or mid<N>; "
                                 "unset uses 1layer"),
    },
    "eval": {
        "task": Option(None, str, choices=("oneclass", "openset"), required=True),
        "head": Option(None, str, choices=("mbce", "ocml", "threshold"), required=True),
        "checkpoint": Option(None, str, required=True),
        "dataset": Option(None, str, required=True),
        "out": Option(None, str, required=True, help="report JSON path"),
        "episode_csv": Option("", str),
        "records_csv": Option("", str),
        "n": Option(0, int, help="0 -> 1 for oneclass, 5 for openset", minimum=0),
        "k": Option(5, int, minimum=1),
        "q": Option(15, int, minimum=1),
        "n_unknown": Option(-1, int, help="-1 matches n", minimum=-1),
        "episodes": Option(10000, int, help="number of evaluation episodes", minimum=1),
        "seed": Option(0, int, minimum=0),
        "partition": Option("meta_test", str, choices=("meta_val", "meta_test")),
        "calib_episodes": Option(200, int, help="threshold calibration episodes", minimum=1),
    },
    "ablate": {
        "grid": Option(
            None, str, choices=("gtheta", "kshot", "nway", "mbce_variant"), required=True
        ),
        "dataset": Option(None, str, required=True),
        "backbone": Option(None, str, required=True, help="pretrained backbone checkpoint"),
        "out_dir": Option(None, str, required=True),
        "k_values": Option((1, 2, 3, 5, 10, 20), _parse_int_list, minimum=1),
        "n_values": Option((2, 3, 5), _parse_int_list, minimum=1),
        "n": Option(5, int, minimum=1),
        "k": Option(5, int, minimum=1),
        "q": Option(15, int, minimum=1),
        "train_episodes": Option(0, int, help="0 uses the method default", minimum=0),
        "eval_episodes": Option(200, int, minimum=1),
        "seed": Option(0, int, minimum=0),
    },
    "report": {
        "inputs": Option(None, str, required=True, help="comma-separated report JSONs"),
        "out_csv": Option("", str),
    },
}


def command_help(command):
    """The usage of command: one line per key with its default, whether it
    is required, its choices, lower bound and help text."""
    lines = [f"usage: fsos {command} [--config=FILE] [--key=value ...]"]
    for key, opt in SCHEMAS[command].items():
        default = ",".join(map(str, opt.default)) if isinstance(opt.default, tuple) else opt.default
        usage = f"--{key}" if default is None else f"--{key}={default}"
        notes = [opt.required and "required", opt.choices and "one of " + ", ".join(opt.choices),
                 opt.minimum is not None and f">= {opt.minimum}", opt.help]
        lines.append(f"  {usage:<28} {'; '.join(n for n in notes if n)}".rstrip())
    return "\n".join(lines)


def _load_config_file(path, command):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise UsageError(f"config file {path}: {exc}")
    if not parser.has_section(command):
        return {}
    return dict(parser.items(command))


def parse_command(command, argv):
    """Merge config-file section and --key=value overrides, validate types."""
    schema = SCHEMAS[command]
    raw = {}
    config_path = None
    overrides = {}
    for tok in argv:
        if not tok.startswith("--") or "=" not in tok:
            raise UsageError(f"expected --key=value arguments, got {tok!r}")
        key, value = tok[2:].split("=", 1)
        if key == "config":
            config_path = value
        else:
            overrides[key] = value
    if config_path:
        raw.update(_load_config_file(config_path, command))
    raw.update(overrides)

    settings = {}
    for key, value in raw.items():
        opt = schema.get(key)
        if opt is None:
            raise UsageError(f"unknown key {key!r} for command {command!r}")
        try:
            parsed = opt.parse(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {exc}")
        if opt.choices and parsed not in opt.choices:
            raise UsageError(f"{key!r} must be one of {opt.choices}, got {parsed!r}")
        if opt.minimum is not None:
            for v in parsed if isinstance(parsed, tuple) else (parsed,):
                if not v >= opt.minimum:  # also refuses nan
                    raise UsageError(f"{key!r} must be >= {opt.minimum}, got {value!r}")
        settings[key] = parsed
    for key, opt in schema.items():
        if key not in settings:
            if opt.required:
                raise UsageError(f"command {command!r} requires --{key}")
            settings[key] = opt.default
    return settings


def _require_file(path, what):
    if not Path(path).is_file():
        raise UsageError(f"{what} not found: {path}")


def _require_out_dir(path, what):
    if Path(path).is_dir():
        raise UsageError(f"path for {what} is a directory: {path}")
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise UsageError(f"directory for {what} does not exist: {parent}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# checkpoint assembly


# checkpoint group name, which is also its gate's name and --head value ->
# (head -> (group, metadata), (group, metadata) -> head, the gate over a head)
HEAD_GROUPS = {
    "mbce": (metabce.head_to_group, metabce.head_from_group, MetaBceGate),
    "ocml": (ocml.transfer_to_group, ocml.transfer_from_group, OcmlGate),
}


def save_pipeline_checkpoint(path, params, heads, meta):
    """Backbone groups plus optional named head groups in one checkpoint."""
    groups = to_param_groups(params)
    head_meta = {}
    for name, (to_group, _, _) in HEAD_GROUPS.items():
        if name in heads:
            group, head_meta[name] = to_group(heads[name])
            groups.append(group)
    header = {
        "backbone_spec": params.spec.to_dict(),
        "heads": head_meta,
        "meta": meta,
        "fsos_version": __version__,
    }
    save_checkpoint(path, header, groups)


def load_pipeline_checkpoint(path):
    header, groups = load_checkpoint(path)
    if not isinstance(header, dict) or not isinstance(header.get("backbone_spec"), dict):
        raise CheckpointError(f"checkpoint {path} has no backbone_spec object in its header")
    spec = BackboneSpec.from_dict(header["backbone_spec"])
    backbone_groups = [(g, p) for g, p in groups if g not in HEAD_GROUPS]
    params = from_param_groups(spec, backbone_groups)
    heads = {}
    by_name = dict(groups)
    head_meta = header.get("heads", {})
    if not isinstance(head_meta, dict) or not all(isinstance(m, dict) for m in head_meta.values()):
        raise CheckpointError(f"checkpoint {path} header 'heads' must map head names to objects")
    for name, (_, from_group, _) in HEAD_GROUPS.items():
        if name in by_name:
            heads[name] = from_group(by_name[name], head_meta.get(name, {}))
    return params, heads, header


# ---------------------------------------------------------------------------
# commands


def cmd_generate(settings):
    _require_out_dir(settings["out"], "the dataset manifest")
    spec = SyntheticSpec(
        num_classes=settings["num_classes"],
        examples_per_class=settings["examples_per_class"],
        dim=settings["dim"],
        separation=settings["separation"],
        spread=settings["spread"],
        seed=settings["seed"],
    )
    dataset = generate_synthetic(spec, split_counts=settings["split"], name=settings["name"])
    checksum = save_dataset(dataset, settings["out"])
    print(f"manifest={settings['out']}")
    print(f"checksum={checksum}")
    return 0


def _resolve_schedule(settings, method):
    """The method's default schedule with the overrides that are set: a
    non-zero value, or an optimizer other than auto."""
    base = default_schedule(method, settings["episodes"] or None)
    keys = ("learning_rate", "optimizer", "val_interval", "val_episodes", "offset_learning_rate")
    return replace(base, **{k: settings[k] for k in keys if settings[k] not in (0, "auto")})


def _require_two_way(n, method):
    """Training episodes need two classes: a one-way episode has no negatives."""
    if n < 2:
        raise UsageError(f"'n' must be >= 2 for method {method!r}, got {n!r}")


def cmd_train(settings):
    method = settings["method"]
    _require_two_way(settings["n"], method)
    if settings["blocks"] and settings["backbone"]:
        raise UsageError("'blocks' sets the widths of a fresh backbone, but --backbone brings "
                         "its own")
    if settings["blocks"] and len(settings["blocks"]) < 2:
        raise UsageError(f"'blocks' needs at least 2 widths, got {settings['blocks']!r}")
    # "" is unset; a given "1layer" parses to None
    if settings["ocml_arch"] != "" and method not in ("ocml_frozen", "ocml_joint"):
        raise UsageError(f"'ocml_arch' sets a transfer module, which method {method!r} does "
                         "not train")
    _require_file(settings["dataset"], "dataset manifest")
    _require_out_dir(settings["out"], "the checkpoint")
    if settings["loss_csv"]:
        _require_out_dir(settings["loss_csv"], "the loss CSV")
    if METHODS[method] is not None and not settings["backbone"]:
        raise UsageError(f"method {method!r} augments a pretrained backbone: --backbone required")
    if settings["backbone"]:
        _require_file(settings["backbone"], "backbone checkpoint")

    dataset = load_dataset(settings["dataset"])
    base_params = spec = None
    if settings["backbone"]:
        base_params, _, _ = load_pipeline_checkpoint(settings["backbone"])
    else:
        spec = BackboneSpec("vector", (dataset.dim,),
                            tuple(("dense", w) for w in settings["blocks"] or (64, 64)))

    schedule = _resolve_schedule(settings, method)
    cfg = EpisodeConfig(n=settings["n"], k=settings["k"], q=settings["q"], n_unknown=0)

    result = run_meta_training(method, dataset, cfg, schedule, seed=settings["seed"],
                               base_params=base_params, spec=spec,
                               transfer_middle=settings["ocml_arch"] or None)

    heads = {} if result.gate is None else {result.gate.name: result.head}
    meta = {
        "method": method,
        "seed": settings["seed"],
        "episode_config": asdict(cfg),
        "schedule": schedule.as_dict(),
        "dataset": {"name": dataset.name, "meta": dataset.meta},
        "best_validation": result.best_val,
    }
    save_pipeline_checkpoint(settings["out"], result.params, heads, meta)
    if settings["loss_csv"]:
        _write_csv(settings["loss_csv"], ["episode", "loss"],
                   [[i, repr(v)] for i, v in enumerate(result.loss_curve)])
    print(f"checkpoint={settings['out']}")
    print(f"best_validation={result.best_val!r}")
    return 0


def _build_gate(settings, cfg, params, heads, dataset):
    head = settings["head"]
    if head == "threshold":
        baseline = calibrate_threshold_baseline(
            params, dataset, cfg, settings["calib_episodes"], settings["seed"]
        )
        return ThresholdGate(baseline), {"tau": baseline.tau}
    if head not in heads:
        raise UsageError(f"checkpoint holds no {head} head group")
    return HEAD_GROUPS[head][2](heads[head]), {}


def cmd_eval(settings):
    _require_file(settings["dataset"], "dataset manifest")
    _require_file(settings["checkpoint"], "checkpoint")
    _require_out_dir(settings["out"], "the report JSON")
    for key in ("episode_csv", "records_csv"):
        if settings[key]:
            _require_out_dir(settings[key], key)
    if settings["n"] == 0:
        settings["n"] = 1 if settings["task"] == "oneclass" else 5
    if settings["task"] == "oneclass" and settings["n"] != 1:
        raise UsageError(f"oneclass evaluation requires n=1, got n={settings['n']}")
    if settings["n_unknown"] == 0:
        raise UsageError(f"{settings['task']} evaluation needs unknown classes: 'n_unknown' "
                         "must be >= 1, or -1 to match n, got 0")

    dataset = load_dataset(settings["dataset"])
    params, heads, _ = load_pipeline_checkpoint(settings["checkpoint"])
    cfg = EpisodeConfig(
        n=settings["n"], k=settings["k"], q=settings["q"], n_unknown=settings["n_unknown"]
    )
    gate, extra = _build_gate(settings, cfg, params, heads, dataset)
    evaluate = evaluate_oneclass if settings["task"] == "oneclass" else evaluate_openset
    report = evaluate(
        params,
        gate,
        dataset,
        cfg,
        settings["episodes"],
        settings["seed"],
        partition=settings["partition"],
        collect_records=bool(settings["records_csv"]),
    )
    report.config.update(extra)
    report.config["checkpoint"] = Path(settings["checkpoint"]).name
    report.config["fsos_version"] = __version__
    report.write_json(settings["out"])
    if settings["episode_csv"]:
        report.write_episode_csv(settings["episode_csv"])
    if settings["records_csv"]:
        report.write_records_csv(settings["records_csv"])
    for name in sorted(report.metrics):
        s = report.metrics[name]
        print(f"{name}={s.mean:.4f}+-{s.ci:.4f}")
    print(f"report={settings['out']}")
    return 0


_OPENSET_METRICS = ("accuracy", "na", "f1_open", "auroc")
# ablate grid -> (label column, axis column, the metrics written)
_ABLATION_COLUMNS = {
    "gtheta": ("architecture", "k", ("accuracy", "f1", "auroc")),
    "kshot": ("method", "k", _OPENSET_METRICS),
    "nway": ("method", "n", _OPENSET_METRICS),
    "mbce_variant": ("variant", "metric", _OPENSET_METRICS),
}


def cmd_ablate(settings):
    """Ablation curves on one backbone: each grid point's episode shape is
    checked before any training, then every trained gate is evaluated at
    every point. A CSV per metric holds (label, axis value) rows, except
    mbce_variant's one CSV of (variant, metric) rows."""
    grid = settings["grid"]
    _require_two_way(settings["n"], "ocml_frozen" if grid == "gtheta" else "mbce")
    _require_file(settings["dataset"], "dataset manifest")
    _require_file(settings["backbone"], "backbone checkpoint")
    out_dir = Path(settings["out_dir"])
    if not out_dir.is_dir():
        raise UsageError(f"out_dir does not exist: {out_dir}")

    dataset = load_dataset(settings["dataset"])
    base_params, _, _ = load_pipeline_checkpoint(settings["backbone"])
    seed, n, k = settings["seed"], settings["n"], settings["k"]
    test_size = len(dataset.split.meta_test)

    def openset_cfg(n_way, k):
        n_unknown = min(n_way, test_size - n_way)
        if n_unknown < 1:
            raise UsageError(
                f"meta_test has {test_size} classes, cannot fit {n_way}-way plus unknowns"
            )
        return EpisodeConfig(n=n_way, k=k, q=settings["q"], n_unknown=n_unknown)

    if grid == "nway":
        points = [(n_way, openset_cfg(n_way, k)) for n_way in settings["n_values"]]
    elif grid == "mbce_variant":
        points = [(None, openset_cfg(n, k))]
    else:  # gtheta's one-class episodes have one known class
        n_way = 1 if grid == "gtheta" else n
        points = [(shots, openset_cfg(n_way, shots)) for shots in settings["k_values"]]

    budget, gate_cfg = settings["train_episodes"] or None, EpisodeConfig(n, k, settings["q"])
    if grid == "gtheta":
        gates = train_heads(dataset, base_params, gate_cfg, seed, budget,
                            [(arch_name, "ocml_frozen", middle) for arch_name, middle
                             in ocml.architecture_menu(base_params.embed_dim)])
    elif grid == "mbce_variant":  # labelled by the one-class space each reads
        gates = train_heads(dataset, base_params, gate_cfg, seed, budget,
                            [(METHODS[m], m, None) for m in ("mbce", "mbce_projected")])
    else:
        gates = train_gates(dataset, base_params, gate_cfg, seed, budget)

    if grid == "gtheta":  # rows by architecture, then k; the others' by point, then gate
        pairs, evaluate = [(p, g) for g in gates for p in points], evaluate_oneclass
    else:
        pairs, evaluate = [(p, g) for p in points for g in gates], evaluate_openset
    rows = [(label, value, evaluate(params, gate, dataset, cfg, settings["eval_episodes"], seed))
            for (value, cfg), (label, gate, params) in pairs]

    label_column, axis, metric_names = _ABLATION_COLUMNS[grid]
    if grid == "mbce_variant":
        tables = {"openset": [(label, m, rep.metrics[m]) for label, _, rep in rows
                              for m in metric_names]}
    else:
        tables = {m: [(label, value, rep.metrics[m]) for label, value, rep in rows]
                  for m in metric_names}
    for name, table in tables.items():
        path = out_dir / f"{grid}_{name}.csv"
        _write_csv(path, [label_column, axis, "mean", "ci"],
                   [[label, x, repr(s.mean), repr(s.ci)] for label, x, s in table])
        print(f"curve={path}")
    return 0


_SHAPE_KEYS = ("task", "n", "k", "q", "n_unknown", "m_episodes", "partition")


def _is_float(value):
    """A JSON number that converts to a float (an integer may be too large)."""
    if not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _read_report(path):
    """A report JSON as EvaluationReport.write_json writes it: a config object
    and metric cells holding numeric mean and ci."""
    with open(path) as fh:
        doc = json.load(fh)
    ok = (
        isinstance(doc, dict)
        and isinstance(doc.get("config"), dict)
        and isinstance(doc.get("metrics"), dict)
        and all(
            isinstance(cell, dict) and all(_is_float(cell.get(key)) for key in ("mean", "ci"))
            for cell in doc["metrics"].values()
        )
    )
    if not ok:
        raise EpisodeError(
            f"{path} is not an evaluation report: needs 'config' and 'metrics' objects, "
            "each metric with a mean and ci that are float numbers"
        )
    return doc


def cmd_report(settings):
    paths = [p for p in settings["inputs"].split(",") if p]
    if not paths:
        raise UsageError("report needs at least one input JSON")
    for p in paths:
        _require_file(p, "report JSON")
    if settings["out_csv"]:
        _require_out_dir(settings["out_csv"], "the comparison CSV")
    reports = [(Path(p).name, _read_report(p)) for p in paths]
    shape0 = {k: reports[0][1]["config"].get(k) for k in _SHAPE_KEYS}
    for name, rep in reports[1:]:
        shape = {k: rep["config"].get(k) for k in _SHAPE_KEYS}
        mismatched = [k for k in _SHAPE_KEYS if shape[k] != shape0[k]]
        if mismatched:
            raise UsageError(
                f"report {name} does not share the config shape: mismatched {mismatched}"
            )
    metric_names = sorted(reports[0][1]["metrics"])
    header = ["report", "gate"] + [f"{m}" for m in metric_names]
    rows = []
    for name, rep in reports:
        if sorted(rep["metrics"]) != metric_names:
            raise EpisodeError(
                f"report {name} holds metrics {sorted(rep['metrics'])}, expected {metric_names}"
            )
        row = [name, rep["config"].get("gate", "")]
        for m in metric_names:
            cell = rep["metrics"][m]
            row.append(f"{cell['mean']:.4f}+-{cell['ci']:.4f}")
        rows.append(row)
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    if settings["out_csv"]:
        _write_csv(settings["out_csv"], header, rows)
        print(f"table={settings['out_csv']}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if not argv or argv[0] in ("-h", "--help"):
            print(f"usage: fsos {{{'|'.join(COMMANDS)}}} [--help] [--config=FILE] [--key=value ...]")
            return 0
        command = argv[0]
        if command not in COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        if {"-h", "--help"} & set(argv[1:]):
            print(command_help(command))
            return 0
        settings = parse_command(command, argv[1:])
        return COMMANDS[command](settings)
    except UsageError as exc:
        print(f"error: [usage] {exc}", file=sys.stderr)
        return 1
    except (DatasetError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: [runtime] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
