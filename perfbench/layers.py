"""Which fsos functions the benchmark wraps, and the per-layer metrics.

Spans are recorded from outside the program: each wrapped function is
replaced, in every fsos module that holds a reference to it, by a tracing
wrapper. The untraced run wraps only the four stage functions the
end-to-end metrics are timed by (a dozen spans per pass); the traced run
wraps the public functions of every layer.
"""

import os
import statistics
import sys
from pathlib import Path

import numpy as np

from spans import aggregate, has_ancestor, median_and_tail, self_by_module

MODULES = ("autodiff", "optim", "backbone", "protonet", "metabce", "ocml", "episodes",
           "metrics", "data", "checkpoint", "cli")
PRIMITIVES = ("affine", "relu", "sigmoid", "softmax_xent", "bce", "squared_distance",
              "mean_rows", "conv3x3_pool", "dot", "scale_shift")
GATES = ("MetaBceGate", "OcmlGate", "ThresholdGate")
COMMANDS = ("generate", "train", "eval")
STAGES = ("run_meta_training", "calibrate_threshold_baseline", "evaluate_openset",
          "evaluate_oneclass")
CONV = "autodiff.conv3x3_pool"
OPENSET = "episodes.evaluate_openset"


class Patches:
    """Wrappers installed in place of fsos functions; removable."""

    def __init__(self):
        self._items = []  # (owner, attribute, original, wrapper)

    def add(self, owner, attr, original, wrapper):
        self._items.append((owner, attr, original, wrapper))

    def apply(self):
        for owner, attr, _, wrapper in self._items:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, _ in self._items:
            setattr(owner, attr, original)


def _patch_function(patches, original, wrapper):
    for name, module in list(sys.modules.items()):
        if name == "fsos" or name.startswith("fsos."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.add(module, attr, original, wrapper)


def _rows(x):
    shape = getattr(getattr(x, "data", x), "shape", ())
    return shape[0] if len(shape) in (2, 4) else 1


def _size(x):
    return getattr(getattr(x, "data", x), "size", 1)


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def stage_patches(tracer, fsos):
    patches = Patches()
    for fn_name in STAGES:
        original = getattr(fsos.episodes, fn_name)
        _patch_function(patches, original, tracer.wrap(f"episodes.{fn_name}", original))
    return patches


def full_patches(tracer, fsos):
    """Wrap the public functions of every layer."""
    ad = fsos.autodiff
    patches = Patches()

    def fn(module, fn_name, after=None, span=None):
        original = getattr(getattr(fsos, module), fn_name)
        wrapper = tracer.wrap(span or f"{module}.{fn_name}", original, after)
        _patch_function(patches, original, wrapper)

    def method(module, cls_name, meth, span):
        cls = getattr(getattr(fsos, module), cls_name)
        original = cls.__dict__[meth]
        patches.add(cls, meth, original, tracer.wrap(span, original))

    def timed_backward(name, backward_fn, flops, nbytes):
        def traced(g):
            rec = tracer.open(name)
            try:
                return backward_fn(g)
            finally:
                tracer.close(rec)
                if flops:
                    tracer.count(f"{CONV}.flops", flops)
                    tracer.count(f"{CONV}.bytes", nbytes)

        return traced

    def primitive_after(kind):
        def after(args, kwargs, out):
            flops = nbytes = 0
            if kind == "conv3x3_pool":
                x, kernel, bias = args[:3]
                xs = getattr(x, "data", x).shape
                nb, h, w = (1,) + xs[1:] if len(xs) == 3 else (xs[0],) + xs[2:]
                ks = getattr(kernel, "data", kernel).shape
                flops = 2 * nb * ks[0] * ks[1] * 9 * h * w
                operands = _size(x) + _size(kernel) + _size(bias)
                nbytes = 8 * (operands + out.data.size)
                tracer.count(f"{CONV}.flops", flops)
                tracer.count(f"{CONV}.bytes", nbytes)
                # backward: kernel and input gradients are one conv each;
                # reads g, x and the kernel, writes the three gradients
                flops, nbytes = 2 * flops, 8 * (out.data.size + 2 * operands)
            tape = ad.active_tape()
            if tape is not None and tape.entries and tape.entries[-1].output is out:
                entry = tape.entries[-1]
                entry.backward_fn = timed_backward(
                    f"autodiff.{kind}.bwd", entry.backward_fn, flops, nbytes
                )

        return after

    for kind in PRIMITIVES:
        fn("autodiff", kind, primitive_after(kind))
    fn("autodiff", "backward",
       lambda a, k, out: tracer.count("autodiff.tape_entries", len(a[0].entries)))
    method("optim", "OptimizerState", "step", "optim.step")

    def embed_after(counter):
        def after(args, kwargs, out):
            rows = _rows(args[1])
            tracer.count(counter, rows)
            if tracer.inside(OPENSET):
                tracer.count("backbone.openset_rows", rows)

        return after

    fn("backbone", "embed", embed_after("backbone.embed.rows"))
    fn("backbone", "embed_branch", embed_after("backbone.embed_branch.rows"))

    def scan_after(args, kwargs, out):
        known, unknown = np.asarray(args[0]), np.asarray(args[1])
        candidates = max(np.unique(np.concatenate([known, unknown])).size - 1, 0)
        tracer.count("protonet.scan_threshold.comparisons",
                     candidates * (known.size + unknown.size))

    for fn_name in ("episode_loss", "pairwise_sq_distances", "prototypes", "predict_closed",
                    "calibrate_threshold"):
        fn("protonet", fn_name)
    fn("protonet", "scan_threshold", scan_after)
    for fn_name in ("episode_loss", "prob_known"):
        fn("metabce", fn_name)
    for fn_name in ("episode_loss", "prob_known", "generate_weight"):
        fn("ocml", fn_name)

    def sample_after(args, kwargs, out):
        if tracer.inside(OPENSET):
            tracer.count("episodes.openset_episodes")

    fn("episodes", "sample_episode", sample_after)
    for fn_name in STAGES:
        fn("episodes", fn_name)
    fn("episodes", "_closed_accuracy", span="episodes.validation")
    fn("episodes", "_gate_val_na", span="episodes.validation")
    for gate in GATES:
        method("episodes", gate, "judge", f"episodes.{gate}.judge")
    for fn_name in ("aks", "aus", "auroc", "f1_open", "binary_f1", "normalized_accuracy"):
        fn("metrics", fn_name)

    def dataset_after(counter):
        def after(args, kwargs, out):
            manifest = args[1] if counter.endswith("save_dataset.bytes") else args[0]
            tracer.count(counter, _file_bytes(manifest, Path(manifest).with_suffix(".bin")))

        return after

    fn("data", "save_dataset", dataset_after("data.save_dataset.bytes"))
    fn("data", "load_dataset", dataset_after("data.load_dataset.bytes"))
    for fn_name in ("save_checkpoint", "load_checkpoint"):
        counter = f"checkpoint.{fn_name}.bytes"
        fn("checkpoint", fn_name,
           lambda a, k, out, counter=counter: tracer.count(counter, _file_bytes(a[0])))
    fn("cli", "main", span=lambda a, k: f"cli.main.{a[0][0]}")
    return patches


# ---------------------------------------------------------------------------
# metrics

# per-layer metrics that are work counts: they must repeat exactly
COUNT_SUFFIXES = (".calls", ".rows", ".comparisons", ".bytes", ".flops")
COUNT_NAMES = ("autodiff.tape_entries_per_step", "backbone.embed_rows_per_eval_episode",
               "trace.spans_per_pass")
# these cover the traced set-up as well as one timed pass
SETUP_LAYERS = ("data.", "checkpoint.", "cli.")


def is_count(name):
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES


def pass_layer_metrics(spans, counters):
    """Per-layer metrics of one traced phase (spans plus counters)."""
    stats = aggregate(spans)

    def calls(name):
        return stats[name].calls if name in stats else 0

    def total(name):
        return stats[name].total if name in stats else 0.0

    def own(name):
        return stats[name].self_total if name in stats else 0.0

    m = {}
    for kind in PRIMITIVES:
        m[f"autodiff.{kind}.calls"] = calls(f"autodiff.{kind}")
        m[f"autodiff.{kind}.fwd_s"] = total(f"autodiff.{kind}")
        m[f"autodiff.{kind}.bwd_s"] = total(f"autodiff.{kind}.bwd")
    m["autodiff.backward.calls"] = calls("autodiff.backward")
    m["autodiff.backward.self_s"] = own("autodiff.backward")
    m["autodiff.tape_entries_per_step"] = (
        counters.get("autodiff.tape_entries", 0) / max(calls("autodiff.backward"), 1)
    )
    conv_s = total(CONV) + total(f"{CONV}.bwd")
    m[f"{CONV}.flops"] = counters.get(f"{CONV}.flops", 0)
    m[f"{CONV}.bytes"] = counters.get(f"{CONV}.bytes", 0)
    m[f"{CONV}.gflop_per_s"] = m[f"{CONV}.flops"] / conv_s / 1e9 if conv_s else 0.0
    m["optim.step.calls"] = calls("optim.step")
    m["optim.step.s"] = total("optim.step")
    for fn_name in ("embed", "embed_branch"):
        m[f"backbone.{fn_name}.calls"] = calls(f"backbone.{fn_name}")
        m[f"backbone.{fn_name}.rows"] = counters.get(f"backbone.{fn_name}.rows", 0)
        m[f"backbone.{fn_name}.s"] = total(f"backbone.{fn_name}")
    m["backbone.embed_rows_per_eval_episode"] = (
        counters.get("backbone.openset_rows", 0)
        / max(counters.get("episodes.openset_episodes", 0), 1)
    )
    for fn_name in ("episode_loss", "pairwise_sq_distances", "prototypes", "predict_closed",
                    "scan_threshold"):
        m[f"protonet.{fn_name}.calls"] = calls(f"protonet.{fn_name}")
        m[f"protonet.{fn_name}.s"] = total(f"protonet.{fn_name}")
    m["protonet.scan_threshold.comparisons"] = counters.get(
        "protonet.scan_threshold.comparisons", 0
    )
    m["protonet.calibrate_threshold.s"] = total("protonet.calibrate_threshold")
    for module, names in (("metabce", ("episode_loss", "prob_known")),
                          ("ocml", ("episode_loss", "prob_known", "generate_weight"))):
        for fn_name in names:
            m[f"{module}.{fn_name}.calls"] = calls(f"{module}.{fn_name}")
            m[f"{module}.{fn_name}.s"] = total(f"{module}.{fn_name}")
    sample = "episodes.sample_episode"
    m[f"{sample}.calls"] = calls(sample)
    m[f"{sample}.s"] = total(sample)
    med, tail, _ = median_and_tail(stats[sample].durations if sample in stats else [])
    m[f"{sample}.p50_us"] = med * 1e6
    m[f"{sample}.tail_us"] = tail * 1e6
    for fn_name in ("run_meta_training", "evaluate_openset", "evaluate_oneclass"):
        m[f"episodes.{fn_name}.self_s"] = own(f"episodes.{fn_name}")
    m["episodes.calibrate_threshold_baseline.s"] = total("episodes.calibrate_threshold_baseline")
    for gate in GATES:
        m[f"episodes.{gate}.judge.calls"] = calls(f"episodes.{gate}.judge")
        m[f"episodes.{gate}.judge.s"] = total(f"episodes.{gate}.judge")
    training = total("episodes.run_meta_training")
    m["episodes.validation_share"] = total("episodes.validation") / training if training else 0.0
    for fn_name in ("aks", "aus", "auroc", "f1_open", "binary_f1", "normalized_accuracy"):
        m[f"metrics.{fn_name}.calls"] = calls(f"metrics.{fn_name}")
        m[f"metrics.{fn_name}.s"] = total(f"metrics.{fn_name}")
    for module, fn_name in (("data", "save_dataset"), ("data", "load_dataset"),
                            ("checkpoint", "save_checkpoint"),
                            ("checkpoint", "load_checkpoint")):
        m[f"{module}.{fn_name}.s"] = total(f"{module}.{fn_name}")
        m[f"{module}.{fn_name}.bytes"] = counters.get(f"{module}.{fn_name}.bytes", 0)
    for command in COMMANDS:
        m[f"cli.main.{command}.calls"] = calls(f"cli.main.{command}")
        m[f"cli.main.{command}.self_s"] = own(f"cli.main.{command}")
    by_module = self_by_module(spans)
    for module in MODULES:
        m[f"{module}.self_s"] = by_module.get(module, 0.0)
    m["trace.spans_per_pass"] = len(spans)
    return m


def layer_metrics(setup, passes):
    """Per-layer metrics over traced passes.

    ``setup`` and each of ``passes`` are ``(spans, counters)`` pairs. Metrics
    of the data, checkpoint and cli layers add the traced set-up to each
    pass. Times are medians over the passes; counts are taken from the first
    pass, and ``mismatched`` lists the counts that differ between passes.
    """
    setup_m = pass_layer_metrics(*setup)
    per_pass = []
    for spans, counters in passes:
        m = pass_layer_metrics(spans, counters)
        for name, value in setup_m.items():
            if name.startswith(SETUP_LAYERS):
                m[name] += value
        per_pass.append(m)
    out, mismatched = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if is_count(name):
            out[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
        else:
            out[name] = statistics.median(values)
    return out, mismatched


def findings(spans):
    """Where the time of one traced pass went, against the expectations the
    benchmark was defined with. Returns printable lines."""
    stats = aggregate(spans)

    def total(name):
        return stats[name].total if name in stats else 0.0

    lines = []
    by_module = self_by_module(spans)
    conv_s = total(CONV) + total(f"{CONV}.bwd")
    layers = dict(by_module)
    layers["autodiff"] = layers.get("autodiff", 0.0) - conv_s
    layers["autodiff.conv3x3_pool"] = conv_s
    top = max(layers, key=layers.get) if layers else "none"
    lines.append(
        f"largest layer self time: {top} {layers.get(top, 0.0):.3f} s "
        f"(conv3x3_pool fwd+bwd {conv_s:.3f} s)"
    )
    cal = total("episodes.calibrate_threshold_baseline")
    scan = total("protonet.scan_threshold")
    if cal:
        lines.append(f"scan_threshold share of calibration: {scan / cal:.3f} "
                     f"({scan:.3f} of {cal:.3f} s)")
    training = total("episodes.run_meta_training")
    if training:
        in_training = self_by_module(
            spans, keep=lambda i: has_ancestor(spans, i, ("episodes.run_meta_training",))
        )
        in_training["episodes"] = in_training.get("episodes", 0.0) + stats[
            "episodes.run_meta_training"].self_total
        share = (in_training.get("autodiff", 0.0) + in_training.get("optim", 0.0)) / training
        top = max(in_training, key=in_training.get)
        lines.append(f"autodiff+optim self share of training stages: {share:.3f}; "
                     f"largest module in training: {top} "
                     f"{in_training[top] / training:.3f}")
    backward_calls = stats["autodiff.backward"].calls if "autodiff.backward" in stats else 0
    lines.append(f"autodiff.backward calls in the timed pass: {backward_calls}")
    sample = stats.get("episodes.sample_episode")
    if sample is not None:
        med, tail, pct = median_and_tail(sample.durations)
        lines.append(f"episodes.sample_episode per call: median {med * 1e6:.1f} us, "
                     f"p{pct:.2f} {tail * 1e6:.1f} us over {sample.calls} calls")
    return lines
