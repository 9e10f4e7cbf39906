"""Benchmark driver for dynnets: three seeded workloads, timed or traced.

    python3 perfbench/run.py --workload trotter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json with tracing off, its jobs spread over worker processes
(``--part``) run one after another; with ``--trace 1`` it runs a fixed
number of jobs untraced and then traced in this process, and reports the
per-layer metrics. Every latency is scaled by a speed probe (see _speed). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. ``--smoke`` runs every workload at tiny sizes in both
modes and checks that every metric of BENCHMARK.json is printed with its unit.
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread for this process and its children, which never exceeds
# nproc. On a 2-core Xeon the first 24 dense jobs took 3.3 s with one thread
# and 5.7-5.9 s with two; geometry jobs took the same time either way.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import GT64, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# A timed run spreads its jobs over this many worker processes, run one
# after another. Each sets up on its own, and setup_s is the median of
# their set-ups. A process also keeps for its whole life a speed of its own
# for jobs on large matrices (see README), which several processes average.
WORKERS = 6
WORKER_TIMEOUT_S = 150
# Fewest jobs in a run, so that at least ten latencies lie beyond the 90th
# percentile.
MIN_JOBS = 100
# Probes timed after set-up (about 0.2 s), whose mean scales setup_s.
SETUP_PROBES = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (smoke mode)")
    parser.add_argument("--part", type=int, choices=range(WORKERS),
                        help="run one worker's share of a timed run; print it as JSON")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_dynnets():
    if not (SRC / "dynnets" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dynnets sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dynnets

    if Path(dynnets.__file__).resolve().parent != (SRC / "dynnets").resolve():
        sys.exit(f"perfbench: imported dynnets from {dynnets.__file__}, not {SRC}")
    return dynnets


def _blas_record() -> list:
    """Loaded OpenBLAS libraries with their reported thread counts."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            entry = {"library": Path(path).name}
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                found.append(entry)
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if fn is not None and "threads" not in entry:
                        fn.restype = ctypes.c_int
                        entry["threads"] = fn()
            found.append(entry)
    return found


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "blas_threads_requested": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _probe(workload, kind: str) -> float:
    """Seconds taken by the workload's speed probe, which calls no dynnets code."""
    start = time.perf_counter()
    workload.probe(kind)
    return time.perf_counter() - start


def _speed(workload, kind: str, probe_times) -> float:
    """Slowdown of the box, from probe times next to a job of this kind.

    The box shares its cores with other load. It flips between a fast and a
    slow state many times a second (the same code takes 1.4-1.7 times
    longer, in CPU time as much as in wall time), and the share of slow time
    drifts over minutes. Each job's latency is divided by the mean of the
    probes just before and just after it, over the probe's time in the
    fast state, so a slow spell of the box reads as the same latency while a
    slower dynnets job does not. Each workload's probe is shaped like its
    jobs' hot loops, because small-matrix numpy calls slow down more in the
    slow state than large BLAS calls. The probe calls no dynnets code, so
    no change to dynnets can move it.
    """
    return float(np.mean(probe_times)) / workload.probe_ref(kind)


class Runner:
    """Runs jobs of one workload and tallies latency, failures and checks."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.probes: list[tuple[float, float]] = []
        self.speeds: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def job(self, i: int, draw: int, check: bool = True) -> float:
        w = self.workload
        kind, inputs = w.kind(i), w.make(i, draw)
        error = None
        before = _probe(w, kind)
        if self.tracer:
            self.tracer.job, self.tracer.active = i, True
        start = time.perf_counter()
        try:
            out = w.run(kind, inputs)
        except Exception as exc:  # a job that raises is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.active = False
        self.latencies.append(elapsed)
        self.probes.append((before, _probe(w, kind)))
        self.speeds.append(_speed(w, kind, self.probes[-1]))
        if check:
            wrong = unsafe = None
            if error is None:
                try:
                    wrong, unsafe = w.check(kind, inputs, out)
                except Exception as exc:  # malformed output fails its check
                    wrong = f"check raised {type(exc).__name__}: {exc}"
            else:
                wrong = error
            if wrong or unsafe:
                self.failed += 1
                self.wrong += bool(wrong)
                # Keep every wrong output and the first few unsafe ones.
                if wrong or self.failed - self.wrong <= 10:
                    self.failures.append(f"job {i} draw {draw} ({kind}): {wrong or unsafe}")
        return elapsed

    def tally(self) -> dict:
        return {"latencies": self.latencies, "probes": self.probes, "speeds": self.speeds,
                "failed": self.failed, "wrong": self.wrong, "failures": self.failures}


def _job_count(workload, seconds: float, tiny: bool) -> int:
    """Jobs in a run: a whole number of cycles of the workload's job mix.

    The count is fixed by ``--seconds``, not by the clock, so that every run
    of a seed does the same jobs, whatever the machine speed.
    """
    cycle = len(workload.kinds)
    count = 1 if tiny else max(MIN_JOBS, round(workload.jobs_per_second * seconds))
    return cycle * math.ceil(count / cycle)


def _run_jobs(workload, count: int, draw: int, tracer=None, check: bool = True) -> Runner:
    """Run jobs 0..count-1 on the random inputs of ``draw``."""
    runner = Runner(workload, tracer)
    for i in range(count):
        runner.job(i, draw, check=check)
    return runner


def _set_up(args, workloads):
    """Build the workload, set it up and warm it; time it from process start."""
    work_dir = OUT_DIR / f"{args.workload}-s{args.seed}{'-tiny' if args.tiny else ''}"
    workload = workloads[args.workload](args.seed, work_dir, args.tiny)
    workload.setup()
    workload.warmup()
    setup_raw_s = time.perf_counter() - _PROCESS_START
    kind = workload.kinds[0]
    setup_s = setup_raw_s / _speed(workload, kind,
                                   [_probe(workload, kind) for _ in range(SETUP_PROBES)])
    return workload, setup_raw_s, setup_s


def _worker(args, workloads, count: int) -> int:
    """Set up, run jobs part*count/WORKERS up to the next part's, print the tally."""
    workload, setup_raw_s, setup_s = _set_up(args, workloads)
    runner = Runner(workload)
    for i in range(args.part * count // WORKERS, (args.part + 1) * count // WORKERS):
        runner.job(i, 0)
    print(json.dumps({
        **runner.tally(), "notes": workload.notes(), "setup_raw_s": setup_raw_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def _run_worker(args, part: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--part", str(part)]
    done = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: worker {part} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _merge(parts: list[dict]) -> dict:
    """One tally from the workers': lists joined, counts summed, other notes maximal."""
    tally = {key: sum((p[key] for p in parts), [] if isinstance(parts[0][key], list) else 0)
             for key in ("latencies", "probes", "speeds", "failed", "wrong", "failures")}
    tally["notes"] = {}
    for key, (_, unit) in parts[0]["notes"].items():
        values = [p["notes"][key][0] for p in parts]
        tally["notes"][key] = (sum(values) if unit == "count" else max(values), unit)
    return tally


def _latency_metrics(lat: np.ndarray, prefix: str = "") -> dict:
    return {
        f"{prefix}jobs_per_s": (len(lat) / float(lat.sum()), "1/s"),
        f"{prefix}job_ms_p50": (1e3 * float(np.percentile(lat, 50)), "ms"),
        f"{prefix}job_ms_p90": (1e3 * float(np.percentile(lat, 90)), "ms"),
    }


def _timed_metrics(tally: dict, parts: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics at the probe's reference speed, and the unscaled figures."""
    raw = np.asarray(tally["latencies"])
    probes = np.ravel(tally["probes"])
    metrics = _latency_metrics(raw / np.asarray(tally["speeds"]))
    metrics["peak_rss_mb"] = (max(p["peak_rss_mb"] for p in parts), "MB")
    metrics["setup_s"] = (statistics.median(p["setup_s"] for p in parts), "s")
    unscaled = _latency_metrics(raw, "raw_")
    unscaled["raw_setup_s"] = (statistics.median(p["setup_raw_s"] for p in parts), "s")
    unscaled["probe_ms_mean"] = (1e3 * float(np.mean(probes)), "ms")
    # Share of probes nearer the slow end of their range.
    slow = np.mean(np.percentile(probes, [5, 95]))
    unscaled["probe_slow_frac"] = (float(np.mean(probes > slow)), "ratio")
    return metrics, unscaled


def _layer_metric(name: str, summary: dict, tracer, overhead: float):
    """Value and unit of one per-layer metric, from the traced run."""
    key, _, stat = name.rpartition(".")
    if name == "trace.overhead_frac":
        return overhead, "ratio"
    if stat in ("calls", "self_s"):
        parts = [key, GT64] if key == "linalg.operator_norm" else [key]
        total = sum(summary.get(p, {}).get(stat, 0) for p in parts)
        return total, ("count" if stat == "calls" else "s")
    sums = tracer.ratio_sums.get(key, [0, 0])
    if stat == "samples_per_s":
        busy = summary.get(key, {}).get("busy_s", 0.0)
        return (sums[0] / busy if busy else 0.0), "1/s"
    if stat == "accept_ratio":
        return (sums[1] / sums[0] if sums[0] else 0.0), "ratio"
    raise ValueError(f"unknown per-layer metric {name}")


def _traced_metrics(untraced: Runner, traced: Runner, tracer, spec: dict) -> dict:
    w = traced.workload
    tracer.write(OUT_DIR / f"spans-{w.name}-s{w.seed}.csv")
    summary = tracer.summary()
    overhead = (float(np.sum(np.divide(traced.latencies, traced.speeds)))
                / float(np.sum(np.divide(untraced.latencies, untraced.speeds))) - 1.0)
    return {m["name"]: _layer_metric(m["name"], summary, tracer, overhead)
            for m in spec["per_layer"]}


def _smoke() -> int:
    spec = _benchmark_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            label = f"{w['name']} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            printed = {k: v.get("unit") for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{label}: outputs incorrect")
            print(f"smoke {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
    for p in problems:
        print("smoke FAIL", p)
    print("smoke", "FAIL" if problems else "OK")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.smoke:
        return _smoke()
    _import_dynnets()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    count = _job_count(WORKLOADS[args.workload], args.seconds, args.tiny)
    if args.part is not None:
        return _worker(args, WORKLOADS, count)
    spec = _benchmark_spec()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.trace:
        # Trace the jobs of a timed run of this seed; the untraced comparison
        # runs the same jobs on draw 1's inputs.
        workload = _set_up(args, WORKLOADS)[0]
        untraced = _run_jobs(workload, count, 1, check=False)
        tracer = Tracer()
        tracer.install()
        runner = _run_jobs(workload, count, 0, tracer)
        metrics = _traced_metrics(untraced, runner, tracer, spec)
        tally = {**runner.tally(), "notes": workload.notes()}
        unscaled, setups, absent = {}, [], tracer.absent
    else:
        parts = [_run_worker(args, part) for part in range(WORKERS)]
        tally = _merge(parts)
        metrics, unscaled = _timed_metrics(tally, parts)
        setups, absent = [p["setup_s"] for p in parts], []
    attempted = len(tally["latencies"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": _environment(),
        "setup_samples_s": setups, "fail_frac": tally["failed"] / attempted,
        "wrong_outputs": tally["wrong"], "failures": tally["failures"],
        "absent_names": absent, "latencies_s": tally["latencies"],
        "probes_s": tally["probes"],
        **{key: value for key, (value, _) in unscaled.items()},
        **{key: value for key, (value, _) in tally["notes"].items()},
    }
    tag = "-tiny" if args.tiny else ""
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}{tag}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1), encoding="utf-8")

    print("environment " + json.dumps(record["environment"]))
    for line in tally["failures"]:
        print("failure " + line)
    if absent:
        print("absent " + " ".join(absent))
    print(f"{'fail_frac':<52} {record['fail_frac']:.6g} ratio")
    for key, (value, unit) in {**tally["notes"], **unscaled}.items():
        print(f"{key:<52} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": attempted,
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
