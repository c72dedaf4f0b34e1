"""The benchmark's workloads and the harness that runs their operations.

An operation is one CLI command or one library stage call. It fails when it
exits non-zero, raises, or fails an output check; an operation that raises
or exits non-zero ends the run, because later stages need its output.

Output checks: every command exits 0, every reported quality value is
finite and within the metric's bound of its recorded value, and every
artifact (dataset, checkpoint, report JSON, trained parameters) is
byte-identical each time its operation repeats with the same seed, within
the run and across runs of the same code.

The traced run's aggregation counts as one more operation; it fails when a
work count differs between traced passes.

Every workload is a closed loop with one client: each stage starts when the
previous one returns.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
import time

# Seeds: quality values below were recorded as medians over seeds 1 to 20.
# REFERENCE_SEED is the one to quote; HELD_BACK_SEED is kept back for
# checking a later claim on a seed not used while the change was written.
REFERENCE_SEED = 1
HELD_BACK_SEED = 2

# Recorded quality values; a run fails its check when a value is further
# from these than the metric's bound in BENCHMARK.json, as a share.
RECORDED = {
    "train-vector": {"best_val.protonet": 0.9873, "na.mbce": 0.8733, "na.ocml": 0.5822,
                     "na.threshold": 0.9072},
    "eval-vector": {"best_val.protonet": 0.9871, "na.mbce": 0.8607, "na.ocml": 0.5555,
                    "na.threshold": 0.9079},
    "train-image": {"best_val.protonet": 1.0, "na.mbce": 0.5, "na.ocml": 0.5,
                    "na.threshold": 0.9333},
}

TRAIN_STAGE = "episodes.run_meta_training"
CALIBRATE_STAGE = "episodes.calibrate_threshold_baseline"
GATES = ("mbce", "ocml", "threshold")


class Aborted(Exception):
    """An operation raised or exited non-zero; the run cannot go on."""


def digest_files(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def digest_arrays(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Op:
    """One operation: its stage spans, its artifact digest, its problems.

    Once the operation has ended, ``wall`` and its spans read in full-speed
    time (see speed.py).
    """

    def __init__(self, run, key, number):
        self.run = run
        self.key = key
        self.number = number
        self.mark = len(run.tracer.spans)
        self.end = None
        self.start = time.perf_counter()
        self.wall = None
        self.digest = None
        self.problems = []

    def fail(self, message):
        self.problems.append(message)

    def seconds(self, span_name):
        spans = self.run.tracer.spans[self.mark : self.end]
        return sum(end - start for name, start, end, _ in spans if name == span_name)


class Run:
    """State of one benchmark run: operation ledger, digests, work dir."""

    def __init__(self, fsos, workload, seed, work, tracer, clock, bounds):
        self.fsos = fsos
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.clock = clock
        self.bounds = bounds
        self.attempted = 0
        self.failures = []  # (operation number, key, message)
        self.digests = {}  # operation key -> digest of its first occurrence
        self.last_number = {}  # operation key -> number of its last occurrence
        self.elapsed = 0.0  # full-speed wall time of the operations run so far

    def path(self, name):
        return str(self.work / name)

    @property
    def failed(self):
        return len({number for number, _, _ in self.failures})

    def record_failure(self, number, key, message):
        self.failures.append((number, key, message))
        print(f"FAILED {key}: {message}", file=sys.stderr)

    @contextlib.contextmanager
    def op(self, key):
        self.attempted += 1
        op = Op(self, key, self.attempted)
        self.last_number[key] = op.number
        try:
            yield op
        except Exception as exc:  # an operation that raises is a recorded failure
            op.fail(f"raised {type(exc).__name__}: {exc}")
            self._finish(op)
            raise Aborted(key) from exc
        self._finish(op)

    def _finish(self, op):
        stop = time.perf_counter()
        op.end = len(self.tracer.spans)
        self.clock.sample()
        virtual = self.clock.to_virtual
        op.wall = virtual(stop) - virtual(op.start)
        self.elapsed += op.wall
        for rec in self.tracer.spans[op.mark : op.end]:
            rec[1], rec[2] = virtual(rec[1]), virtual(rec[2])
        if op.digest is not None:
            first = self.digests.setdefault(op.key, op.digest)
            if first != op.digest:
                op.fail("output bytes differ from an earlier repeat with the same seed")
        for message in op.problems:
            self.record_failure(op.number, op.key, message)

    def cli(self, op, argv, artifacts=()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.fsos.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"fsos {argv[0]} exited {code}: {err.getvalue().strip()}")
        if artifacts:
            op.digest = digest_files(artifacts)
        return out.getvalue()

    def check_quality(self, op, name, value):
        recorded, bound = RECORDED[self.workload][name], self.bounds[name]
        if not math.isfinite(value) or abs(value - recorded) > bound * recorded:
            op.fail(f"{name}={value!r} is not within {bound} of its recorded {recorded}")
        return value

    def check_report(self, op, report):
        """Means of a report's metrics; each mean and CI must be finite."""
        means = {}
        for name, cell in report["metrics"].items():
            if not (math.isfinite(cell["mean"]) and math.isfinite(cell["ci"])):
                op.fail(f"report metric {name} is not finite: {cell}")
            means[name] = cell["mean"]
        return means

    def compare_stored(self, stored):
        """Digests of this run against those a previous run of the same code
        and seed stored; a difference fails the operation again."""
        for key, digest in self.digests.items():
            if key in stored and stored[key] != digest:
                self.record_failure(self.last_number[key], key,
                                    "output bytes differ from a previous run with the same seed")


# ---------------------------------------------------------------------------
# vector workloads, through fsos.cli.main

HEAD_OF = {"protonet": "protonet", "mbce": "mbce", "ocml_frozen": "ocml"}
CHECKPOINT_OF = {"mbce": "mbce.ckpt", "ocml": "ocml_frozen.ckpt", "threshold": "protonet.ckpt"}


def generate_vector(run):
    """The default synthetic dataset: 40 classes x 60 examples, dim 32."""
    with run.op("generate") as op:
        run.cli(op, ["generate", f"--out={run.path('data.json')}", f"--seed={run.seed}"],
                [run.path("data.json"), run.path("data.bin")])


def train_vector(run, episodes):
    """protonet (10-way), then mbce and ocml_frozen on its checkpoint."""
    m = {}
    for method, budget in episodes.items():
        extra = ["--n=10"] if method == "protonet" else [f"--backbone={run.path('protonet.ckpt')}"]
        ckpt = run.path(f"{method}.ckpt")
        with run.op(f"train.{method}") as op:
            out = run.cli(op, ["train", f"--method={method}", f"--dataset={run.path('data.json')}",
                               f"--out={ckpt}", f"--episodes={budget}", f"--seed={run.seed}",
                               *extra], [ckpt])
            if method == "protonet":
                best = float(re.search(r"^best_validation=(.+)$", out, re.M).group(1))
                m["best_val.protonet"] = run.check_quality(op, "best_val.protonet", best)
        m[f"train_ms_per_episode.{HEAD_OF[method]}"] = 1e3 * op.seconds(TRAIN_STAGE) / budget
    return m


def evaluate_vector(run, episodes):
    """fsos eval: open-set, then one-class, for each gate; the threshold gate
    calibrates itself at the CLI default of 200 episodes. ``episodes`` maps
    each task to its episode count."""
    m = {}
    oneclass_s = 0.0
    for task in ("openset", "oneclass"):
        for gate in GATES:
            report = run.path(f"{task}-{gate}.json")
            with run.op(f"eval.{task}.{gate}") as op:
                run.cli(op, ["eval", f"--task={task}", f"--head={gate}",
                             f"--checkpoint={run.path(CHECKPOINT_OF[gate])}",
                             f"--dataset={run.path('data.json')}", f"--out={report}",
                             f"--episodes={episodes[task]}", f"--seed={run.seed}"], [report])
                with open(report) as fh:
                    means = run.check_report(op, json.load(fh))
                if task == "openset":
                    m[f"na.{gate}"] = run.check_quality(op, f"na.{gate}", means["na"])
            if task == "oneclass":
                oneclass_s += op.seconds("episodes.evaluate_oneclass")
                continue
            m[f"openset_episodes_per_s.{gate}"] = (
                episodes[task] / op.seconds("episodes.evaluate_openset")
            )
            if gate == "threshold":
                m["calibrate_s"] = op.seconds(CALIBRATE_STAGE)
    m["oneclass_episodes_per_s"] = len(GATES) * episodes["oneclass"] / oneclass_s
    return m


class TrainVector:
    """Set-up generates the dataset; a pass trains the three methods through
    the CLI, then checks the checkpoints with a short evaluation."""

    episodes = {"protonet": 600, "mbce": 800, "ocml_frozen": 800}
    eval_episodes = {"openset": 200, "oneclass": 300}

    def setup(self, run):
        generate_vector(run)
        return {}

    def run_pass(self, run):
        m = train_vector(run, self.episodes)
        m.update(evaluate_vector(run, self.eval_episodes))
        return m


class EvalVector:
    """Set-up generates the dataset and trains the three checkpoints at a
    short budget; a pass is evaluation only."""

    episodes = {"protonet": 300, "mbce": 400, "ocml_frozen": 400}
    eval_episodes = {"openset": 400, "oneclass": 1000}

    def setup(self, run):
        generate_vector(run)
        return train_vector(run, self.episodes)

    def run_pass(self, run):
        return evaluate_vector(run, self.eval_episodes)


# ---------------------------------------------------------------------------
# image workload, through the library (the CLI cannot reach the conv path)


class TrainImage:
    """Set-up generates a (1, 16, 16) image dataset; a pass trains protonet
    on DEFAULT_IMAGE_SPEC and both heads on it, calibrates the threshold and
    runs a few evaluation episodes per gate and protocol."""

    input_shape = (1, 16, 16)
    separation = 16.0
    episodes = {"protonet": 12, "mbce": 4, "ocml_frozen": 4}
    val_episodes = {"protonet": 4, "mbce": 2, "ocml_frozen": 2}
    calib_episodes = 5
    eval_episodes = 2

    def setup(self, run):
        fsos = run.fsos
        with run.op("generate") as op:
            spec = fsos.data.SyntheticSpec(seed=run.seed, dim=256, separation=self.separation)
            dataset = fsos.data.generate_synthetic(spec, input_shape=self.input_shape)
            fsos.data.save_dataset(dataset, run.path("data.json"))
            op.digest = digest_files([run.path("data.json"), run.path("data.bin")])
        return {}

    def _train(self, run, method, dataset, base=None):
        ep = run.fsos.episodes
        budget = self.episodes[method]
        schedule = dataclasses.replace(
            ep.default_schedule(method, budget), val_interval=budget,
            val_episodes=self.val_episodes[method],
        )
        with run.op(f"train.{method}") as op:
            result = ep.run_meta_training(
                method, dataset, ep.EpisodeConfig(n=5, k=5, q=10), schedule, seed=run.seed,
                base_params=base, spec=run.fsos.backbone.DEFAULT_IMAGE_SPEC,
            )
            arrays = [t.data for t in result.params.trunk_tensors() + result.params.head_tensors()
                      + result.params.branch_tensors()]
            if result.head is not None:
                arrays += [result.head.t.data] if method == "mbce" else [
                    t.data for t in result.head.tensors()]
            op.digest = digest_arrays(arrays)
            if method == "protonet":
                run.check_quality(op, "best_val.protonet", result.best_val)
        return result, 1e3 * op.seconds(TRAIN_STAGE) / budget

    def _evaluate(self, run, task, gate, params, dataset):
        ep = run.fsos.episodes
        n = 5 if task == "openset" else 1
        cfg = ep.EpisodeConfig(n=n, k=5, q=15)
        evaluate = ep.evaluate_openset if task == "openset" else ep.evaluate_oneclass
        with run.op(f"eval.{task}.{gate.name}") as op:
            report = evaluate(params, gate, dataset, cfg, self.eval_episodes, run.seed).as_dict()
            op.digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
            means = run.check_report(op, report)
            if task == "openset":
                run.check_quality(op, f"na.{gate.name}", means["na"])
        return means, op.seconds(f"episodes.evaluate_{task}")

    def run_pass(self, run):
        fsos, ep = run.fsos, run.fsos.episodes
        with run.op("load"):
            dataset = fsos.data.load_dataset(run.path("data.json"))
        m = {}
        pn, m["train_ms_per_episode.protonet"] = self._train(run, "protonet", dataset)
        m["best_val.protonet"] = pn.best_val
        mb, m["train_ms_per_episode.mbce"] = self._train(run, "mbce", dataset, pn.params)
        oc, m["train_ms_per_episode.ocml"] = self._train(run, "ocml_frozen", dataset, pn.params)
        with run.op("calibrate") as op:
            baseline = ep.calibrate_threshold_baseline(
                pn.params, dataset, ep.EpisodeConfig(n=5, k=5, q=15), self.calib_episodes,
                run.seed,
            )
            op.digest = hashlib.sha256(repr(baseline.tau).encode()).hexdigest()
        m["calibrate_s"] = op.seconds(CALIBRATE_STAGE)
        gates = (
            (ep.MetaBceGate(mb.head), mb.params),
            (ep.OcmlGate(oc.head), oc.params),
            (ep.ThresholdGate(baseline), pn.params),
        )
        oneclass_s = 0.0
        for gate, params in gates:
            means, seconds = self._evaluate(run, "openset", gate, params, dataset)
            m[f"openset_episodes_per_s.{gate.name}"] = self.eval_episodes / seconds
            m[f"na.{gate.name}"] = means["na"]
        for gate, params in gates:
            oneclass_s += self._evaluate(run, "oneclass", gate, params, dataset)[1]
        m["oneclass_episodes_per_s"] = len(gates) * self.eval_episodes / oneclass_s
        return m


WORKLOADS = {"train-vector": TrainVector, "eval-vector": EvalVector, "train-image": TrainImage}
