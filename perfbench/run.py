"""degctrl benchmark: seeded workloads, one closed-loop client, one thread.

    python3 perfbench/run.py --workload steer --seed 1 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one after another

A run measures for ``run_seconds`` from BENCHMARK.json. ``--seconds`` is
accepted for callers that pass the run length explicitly, and must equal it.

One client issues the next op only after the previous one returned and
was checked; correctness checks run outside the timed interval. Every op
counts as attempted, and one that raises, warns or fails a check as
failed. Every time is reported at reference host speed (see hostspeed.py):
raw times on a shared host swing by 1.6x for minutes at a stretch.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer metrics: every input then runs once plain and
once with spans around degctrl's public functions, and the difference
gives the tracing overhead. Set-up time is measured in fresh processes.
Scipy's zero oracle runs after the timed loop and after the peak RSS is
read, so that the checker's memory stays out of ``peak_rss_mb``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is 0 only if
every op passed; it is 1, with no result, when the degctrl sources are
missing.
"""

import os

# pinned before numpy loads: the largest matrix is 17 x 1024
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# the benchmark measures the checkout it sits in, never an installed copy
if not os.path.isfile(os.path.join(SRC, "degctrl", "__init__.py")):
    sys.exit(f"perfbench: degctrl sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5     # before the timed loop, and after it


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _parse(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES, default=None,
                   help="one workload; every workload when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="must equal run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        p.error(f"--seconds must be {spec['run_seconds']}, run_seconds in BENCHMARK.json")
    return args


def setup_samples(workload, seed, count):
    """Seconds of import + one cold op, each in a fresh process, at
    reference speed (the probe also times the reference kernel)."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "cold.py"),
                               workload, str(seed)],
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, kernel = map(float, proc.stdout.split())
        samples.append(elapsed * hostspeed.REFERENCE_S / kernel)
    return samples


def timed(op, inp):
    """(seconds, output, error); a warning raised inside the op is an error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out = op(inp)
        except Exception as err:  # a raising op is a failed op, not a crash
            t1 = time.perf_counter()
            return t1 - t0, None, f"{type(err).__name__}: {err}"
        t1 = time.perf_counter()
    if caught:
        return t1 - t0, out, f"warning: {caught[0].message}"
    return t1 - t0, out, None


class Run:
    """Outcomes, failures and latencies at reference speed of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.kernels = []
        self.scale = 1.0
        self.attempted = 0
        self.outcomes = {}      # op index -> Outcome of every passing op
        self.failures = []
        self.latencies = []

    def attempt(self, inp, tracer=None):
        """Time one op, traced when a tracer is given, then check it untraced.

        Returns the op's time at reference speed; ``self.scale`` keeps the
        factor that converted it, from kernel times right before and after.
        """
        before = hostspeed.time_kernel()
        if tracer is not None:
            tracer.install()
        try:
            dt, out, err = timed(self.workload.op, inp)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.kernels += [before, hostspeed.time_kernel()]
        self.scale = hostspeed.REFERENCE_S / statistics.fmean(self.kernels[-2:])
        if err is None:
            try:
                self.outcomes[self.attempted] = self.workload.check(inp, out)
            except (workloads.CheckFailed, workloads.dc.DegctrlError) as exc:
                err = f"check: {exc}"
        if err is not None:
            self._fail(self.attempted, err)
        self.attempted += 1
        return dt * self.scale

    def check_zeros(self):
        """Scipy's zero oracle on every passing op; an op it rejects fails."""
        for i, outcome in list(self.outcomes.items()):
            if outcome.zeros is None:
                continue
            try:
                workloads.check_zeros(*outcome.zeros)
            except workloads.CheckFailed as exc:
                del self.outcomes[i]
                self._fail(i, f"check: {exc}")

    def _fail(self, i, err):
        self.failures.append(err)
        if len(self.failures) <= 5:
            print(f"perfbench: op {i} failed: {err}", file=sys.stderr)


def measure(workload, seed, seconds):
    run = Run(workload)
    make = workload.inputs(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run.latencies.append(run.attempt(make(run.attempted)))
    return run


def measure_traced(workload, seed, seconds, tracer):
    """Each input runs plain and traced, alternating which goes first."""
    run = Run(workload)
    make = workload.inputs(seed)
    plain, traced, scales = [], {}, {}
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                traced[i] = run.attempt(make(i), tracer)
                scales[i] = run.scale
            else:
                plain.append(run.attempt(make(i)))
        i += 1
    return run, plain, traced, scales


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, setup_s, rss_mb):
    lat_ms = np.array(run.latencies) * 1e3
    ok = list(run.outcomes.values())
    return {
        "setup_s": setup_s,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "ops_per_s": len(lat_ms) / float(np.sum(lat_ms) / 1e3),
        "ok_share": (run.attempted - len(run.failures)) / run.attempted,
        "peak_rss_mb": rss_mb,
        "certified_n_mean": float(np.mean([o.certified_n for o in ok])) if ok else 0.0,
        "bracket_ratio_p50": (float(np.median([b for o in ok for b in o.brackets]))
                              if ok else 0.0),
    }


def per_layer(spans, plain, traced, scales):
    stats = tracer_mod.layer_stats(spans, len(traced), scales)
    covered = tracer_mod.root_time(spans)
    t_traced = sum(traced.values())
    stats["trace.unattributed_share"] = (
        sum(dt - covered.get(op, 0.0) * scales[op] for op, dt in traced.items()) / t_traced)
    stats["trace.overhead_share"] = t_traced / sum(plain) - 1.0
    return stats


def report(name, spec_metrics, values, run):
    n = run.attempted
    print(f"{name}: {n} ops, {len(run.failures)} failed, {n - int(np.ceil(0.9 * n))} "
          f"beyond p90; reference kernel {1e3 * statistics.median(run.kernels):.3f} ms "
          f"(reference speed {1e3 * hostspeed.REFERENCE_S:.3f} ms)")
    metrics = {}
    for m in spec_metrics:
        val = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": val, "unit": m["unit"]}
        print(f"  {m['name']:44s} {val:14.6g} {m['unit']:6s} {m['better']} is better")
    return {"correct": not run.failures, "attempted": n,
            "failed": len(run.failures), "metrics": metrics}


def run_one(args, spec):
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.make_workload(args.workload, workdir)
        if args.trace:
            tracer = tracer_mod.Tracer()
            run, plain, traced, scales = measure_traced(workload, args.seed,
                                                        spec["run_seconds"], tracer)
            run.check_zeros()
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            values = per_layer(tracer.spans, plain, traced, scales)
            result = report(args.workload, spec["per_layer"], values, run)
        else:
            half = SETUP_REPEATS // 2
            setup = setup_samples(args.workload, args.seed, half)
            run = measure(workload, args.seed, spec["run_seconds"])
            setup += setup_samples(args.workload, args.seed, SETUP_REPEATS - half)
            rss_mb = peak_rss_mb()
            run.check_zeros()
            result = report(args.workload, spec["end_to_end"],
                            end_to_end(run, statistics.median(setup), rss_mb), run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec):
    """Each workload in its own process, as a single-workload run."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"] and proc.returncode == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    spec = _spec()
    args = _parse(argv, spec)
    if args.workload is None:
        return run_all(args, spec)
    os.makedirs(OUT, exist_ok=True)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
