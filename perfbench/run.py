#!/usr/bin/env python3
"""fsos benchmark: one workload per process, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports fsos from ``src/`` next
to this directory and writes only under ``.bench_work/`` there. Workloads
(see BENCHMARK.json for why each one exists):

    train-vector  train protonet, mbce and ocml_frozen through fsos.cli.main
                  on the default synthetic dataset, then a short evaluation
    eval-vector   fsos eval, open-set and one-class, for the mbce, ocml and
                  threshold gates on checkpoints trained during set-up
    train-image   protonet and both heads on DEFAULT_IMAGE_SPEC through the
                  library, then a few evaluation episodes per gate

Every time is read on the full-speed clock of speed.py, which takes out
the slowdowns that other tenants of a shared machine cause.

Set-up (imports, dataset generation, checkpoints a workload needs first) is
untimed; it runs five times and ``setup_s`` is import time plus the median
set-up. The timed phase repeats a fixed pass of the workload until
``--seconds`` have elapsed; each end-to-end metric is the median over the
passes. With ``--trace 0`` only the four stage functions are wrapped, to
time stages; with ``--trace 1`` the public functions of every fsos module
are wrapped, traced and untraced passes alternate, per-layer metrics are
medians over the traced passes, and the spans of the last traced pass are
written to ``.bench_work/<workload>-s<seed>/spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed, 2 on a usage error or
when the fsos sources are missing.
"""

import sys
import time

_START = time.perf_counter()
sys.dont_write_bytecode = True  # keep the checkout free of byte-code caches

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are pinned in this process's environment before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown"}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def source_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fsos" / "__init__.py").is_file():
        print(f"error: fsos sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import fsos
    import fsos.cli  # noqa: F401  (imports every fsos module)
    import layers
    from spans import Tracer
    from speed import NOMINAL_S, SpeedClock, probe_seconds
    from workloads import HELD_BACK_SEED, REFERENCE_SEED, WORKLOADS, Aborted, Run

    import_s = time.perf_counter() - _START
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    import_s *= NOMINAL_S / probe_seconds()
    clock = SpeedClock()
    clock.start()
    run = Run(fsos, args.workload, args.seed, work, tracer, clock, bounds)
    workload = WORKLOADS[args.workload]()
    stage = layers.stage_patches(tracer, fsos)
    full = layers.full_patches(tracer, fsos) if args.trace else None
    record = machine(numpy)
    record.update(reference_seed=REFERENCE_SEED, held_back_seed=HELD_BACK_SEED)
    print("machine " + json.dumps(record, sort_keys=True))

    active = None

    def use(patches):
        nonlocal active
        if active is not patches:
            if active is not None:
                active.restore()
            patches.apply()
            active = patches

    setup_s, setup_values, setup_trace = [], [], None
    walls = {False: [], True: []}
    pass_values, traced_passes, last_spans = [], [], None
    aborted = False
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            use(full if args.trace else stage)
            tracer.reset()
            run.elapsed = 0.0
            setup_values.append(workload.setup(run))
            setup_s.append(run.elapsed)
            setup_trace = tracer.reset()
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(walls[True]) < len(walls[False])
            use(full if traced else stage)
            tracer.reset()
            run.elapsed = 0.0
            values = workload.run_pass(run)
            walls[traced].append(run.elapsed)
            spans, counters = tracer.reset()
            if traced:
                traced_passes.append((spans, counters))
                last_spans = spans
            else:
                pass_values.append(values)
            if time.perf_counter() >= deadline and (not args.trace or walls[True]):
                break
    except Aborted:
        aborted = True
    finally:
        clock.stop()
        if active is not None:
            active.restore()

    digests_path = ROOT / ".bench_work" / "digests.json"
    stored = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    key = f"{args.workload}|{args.seed}|{source_hash()}|{numpy.__version__}|{BLAS_THREADS}"
    run.compare_stored(stored.get(key, {}))
    if not aborted and key not in stored:
        stored[key] = run.digests
        tmp = digests_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, digests_path)

    computed = {}
    if aborted:
        pass
    elif args.trace:
        with run.op("trace.counts") as op:
            computed, mismatched = layers.layer_metrics(setup_trace, traced_passes)
            if mismatched:
                op.fail(f"work counts differ between traced passes: {mismatched}")
        computed["trace.wall_s"] = statistics.median(walls[True])
        computed["trace.untraced_wall_s"] = statistics.median(walls[False])
        computed["trace.overhead_s"] = computed["trace.wall_s"] - computed["trace.untraced_wall_s"]
        for line in layers.findings(last_spans):
            print("finding: " + line)
        (work / "spans.json").write_text(json.dumps(
            {"setup": setup_trace[0], "pass": last_spans}, separators=(",", ":")
        ))
    else:
        for values in (setup_values, pass_values):
            for name in {n for v in values for n in v}:
                computed[name] = statistics.median([v[name] for v in values if name in v])
        computed["setup_s"] = import_s + statistics.median(setup_s)
        computed["wall_s"] = statistics.median(walls[False])
        computed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = computed.get(m["name"], math.nan)
        if isinstance(value, float) and not math.isfinite(value):
            if not aborted:
                print(f"FAILED metric {m['name']} is not finite: {value}", file=sys.stderr)
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value} {m['unit']}")
    error_rate = run.failed / max(run.attempted, 1)
    print(f"passes = {len(walls[False]) + len(walls[True])} "
          f"(untraced {len(walls[False])}, traced {len(walls[True])}); "
          f"error_rate = {error_rate} ({run.failed} of {run.attempted} operations failed)")
    correct = not aborted and run.failed == 0 and all(
        v["value"] is not None for v in metrics.values()
    )
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
