#!/usr/bin/env python3
"""Benchmark of the ccfg contact pipeline, end to end and per layer.

    python3 perfbench/run.py --workload drag_handoff --seed 1 \
        --seconds 15 --trace 0

Run from the root of a source checkout. One closed loop on one thread: a
frame starts when the previous one has finished and been checked. The run
measures whole rounds of episodes until --seconds have passed and at least
MIN_FRAMES frames are done. Frame times are normalized to a reference speed
(REF_S). With --trace 0 the last line of standard output is a JSON object
holding the end-to-end metrics; with --trace 1 the run repeats the same
episodes traced and reports the per-layer metrics instead. See
perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS to one thread before numpy loads; set before anything imports it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_FRAMES = 100
SETUP_REPEATS = 5
# Host speed on a shared machine drifts by up to 2x over minutes. Every
# frame time is scaled by REF_S / (time of a fixed reference kernel run
# next to it), i.e. expressed at the speed at which the kernel takes REF_S,
# its typical time on the 2-vCPU host the bounds were set on.
REF_S = 1.15e-3
REF_WINDOW = 10  # frames on each side of a frame in its rolling median
_REF_A = np.random.default_rng(0).standard_normal((8, 8)) + 8.0 * np.eye(8)
_REF_B = np.ones(8)
_REF_R = np.array([[0.6, -0.8], [0.8, 0.6]])
WORKLOAD_NAMES = ("drag_handoff", "wall_push", "estimate_window")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the first episode, print the "
                         "time that took, then exit (what setup_s times)")
    return ap.parse_args(argv)


def load(workload, seed):
    """Imports, scene construction and input generation of one episode."""
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    api = tracing.Api()
    workloads.WORKLOADS[workload](api, seed, 0)
    return tracing, workloads


def reference_s():
    """Wall time of a fixed kernel owned by the benchmark: small dense
    solves and Python float work, the mix the workloads spend their time
    in, so that it slows down with the host as they do."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        x = np.linalg.solve(_REF_A, _REF_B)
        v = _REF_R @ x[:2]
        acc += float(np.hypot(v[0], v[1])) + float(x.sum())
    return time.perf_counter() - t0


def normalized(times, refs):
    """Each time scaled by REF_S over the rolling median of the reference
    runs around it."""
    out = []
    for i, t in enumerate(times):
        local = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        out.append(t * REF_S / statistics.median(local))
    return out


def time_setup(args):
    """Set-up times of SETUP_REPEATS fresh interpreters, each measured in
    the interpreter from the first line of this file. Not normalized: set-up
    is imports and file reads, which do not track the reference kernel."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                             capture_output=True, text=True).stdout
        samples.append(float(out.split()[-1]))
    return samples


def run_pass(episode_cls, api, seed, seconds=None, episodes=None):
    """Whole rounds of episode_cls.ROUND episodes until `seconds` and
    MIN_FRAMES are reached, or exactly `episodes` episodes. Returns frame
    times, a reference-kernel time after each frame, the failed count and
    the episode digests."""
    tracer = api.tracer
    times, refs, failed, digests = [], [], 0, []
    start = time.perf_counter()
    index = 0
    while (index < episodes if episodes is not None else
           (index % episode_cls.ROUND
            or time.perf_counter() - start < seconds
            or len(times) < MIN_FRAMES)):
        ep = episode_cls(api, seed, index)
        frame = ep.frame if tracer is None else tracer.wrap("frame", ep.frame)
        last_failed = broken = False
        while not ep.done:
            if tracer is not None:
                tracer.frame = len(times)
            t0 = time.perf_counter()
            try:
                frame()
            except Exception:
                times.append(time.perf_counter() - t0)
                refs.append(reference_s())
                traceback.print_exc()
                failed += 1
                broken = True
                break
            times.append(time.perf_counter() - t0)
            refs.append(reference_s())
            errs = ep.check()
            last_failed = bool(errs)
            failed += last_failed
            for e in errs:
                print(f"FAIL {ep.__class__.__name__} episode {index} frame "
                      f"{len(times) - 1}: {e}", file=sys.stderr)
        if not broken:
            errs = ep.finish()
            for e in errs:
                print(f"FAIL {ep.__class__.__name__} episode {index}: {e}",
                      file=sys.stderr)
            failed += bool(errs) and not last_failed
            digests.append(ep.digest())
        index += 1
    return times, refs, failed, digests


def percentile(values, q):
    """Linear-interpolated percentile, as numpy.percentile computes it."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ccfg" / "__init__.py").is_file():
        print(f"error: no ccfg source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        load(args.workload, args.seed)
        print(time.perf_counter() - T_START)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracing, workloads = load(args.workload, args.seed)
    episode_cls = workloads.WORKLOADS[args.workload]
    api = tracing.Api()
    with tracing.rebound(api.rebinds):
        times, refs, failed, digests = run_pass(episode_cls, api, args.seed,
                                                seconds=args.seconds)
    attempted = len(times)
    frames = normalized(times, refs)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "episodes": len(digests),
              "digests": digests}

    if args.trace:
        tracer = tracing.Tracer()
        traced_api = tracing.Api(tracer)
        with tracing.rebound(traced_api.rebinds):
            traced, traced_refs, traced_failed, traced_digests = run_pass(
                episode_cls, traced_api, args.seed, episodes=len(digests))
        if traced_digests != digests:
            print("FAIL traced pass produced other outputs", file=sys.stderr)
            traced_failed += 1
        attempted += len(traced)
        failed += traced_failed
        overhead = (statistics.fmean(normalized(traced, traced_refs))
                    - statistics.fmean(frames))
        stats = tracing.layer_stats(tracer.spans)
        values = tracing.per_layer_metrics(stats, tracer.counts, overhead)
        units = spec["per_layer"]
        RESULTS.mkdir(exist_ok=True)
        span_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(span_file)
        record["trace_file"] = str(span_file.relative_to(ROOT))
        record["self_ms_per_frame"] = dict(tracing.self_time_table(stats))
        record["traced_frame_ms"] = statistics.fmean(traced) * 1e3
    else:
        record["setup_samples_s"] = time_setup(args)
        record["frame_s"], record["reference_s"] = times, refs
        record["raw"] = {"frames_per_s": len(times) / sum(times),
                         "frame_ms_p50": percentile(times, 50) * 1e3,
                         "frame_ms_p90": percentile(times, 90) * 1e3,
                         "reference_ms": statistics.median(refs) * 1e3}
        values = {
            "setup_s": statistics.median(record["setup_samples_s"]),
            "frames_per_s": len(frames) / sum(frames),
            "frame_ms_p50": percentile(frames, 50) * 1e3,
            "frame_ms_p90": percentile(frames, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in units}
    record["metrics"] = metrics

    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {record['episodes']} "
          f"episodes, {attempted} frames attempted, {failed} failed")
    for i, d in enumerate(digests):
        print(f"digest episode {i}: modes {d['modes']} poses {d['poses']}"
              + (f"  ({d['notes']})" if d["notes"] else ""))
    if args.trace:
        print(f"self time per frame (ms), traced frame "
              f"{record['traced_frame_ms']:.4f} ms:")
        total = 0.0
        for name, ms in record["self_ms_per_frame"].items():
            total += ms
            print(f"  {name:<18} {ms:10.4f}")
        print(f"  {'sum':<18} {total:10.4f}")
    for name, m in metrics.items():
        print(f"{name:<20} {m['value']:14.6f} {m['unit']}")
    if "raw" in record:
        print("unnormalized " + json.dumps(record["raw"]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record.update(result)
    out = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     ".json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
