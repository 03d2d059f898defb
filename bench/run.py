"""dmkit benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload siso-margins --seed 1 --seconds 15 --trace 0

Run from the root of a dmkit source checkout (the program is imported
from src/, nothing is installed).  One process and one client thread
drive dmkit.cli.main(argv) in-process, closed loop: the next analysis
starts only when the previous one has returned.

--trace 0 measures the end-to-end metrics with tracing off: whole cycles
of the workload's commands are repeated until the busy time is nearest
to --seconds (at least one cycle), so every run measures the same input
mix.  Times are scaled to a reference host speed (bench/hostspeed.py).
--trace 1 runs exactly one cycle untraced and one cycle traced (--seconds
is not used), so every call count repeats exactly; it reports the
per-layer metrics and writes the spans next to the model files.

Every output is checked against independent oracles after the timed
phase (bench/oracles.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before
it are a readable report with the run context.  See bench/README.md.
"""

import argparse
import os
import sys

# single-threaded BLAS: one client thread on a small shared machine, and
# the matrices here are far too small to gain from BLAS threads
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"
# the mu lower bound's restarts are seeded from here; pin the default
os.environ["DMKIT_SEED"] = "0"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join("src", "dmkit")
WORK_ROOT = ".bench_work"
SETUP_REPEATS = 5
SPANS = "spans.csv.gz"
TIMESTAMP = re.compile(r'\n\s*"generated_at": "[^"]*",?')

END_TO_END = {
    "analyses_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lti.eval_freq.calls": "count",
    "lti.eval_freq.self_s": "s",
    "lti.poles.calls": "count",
    "lti.scalar_close.calls": "count",
    "lti.scalar_close.self_s": "s",
    "lti.sensitivity_pair.calls": "count",
    "specnorm.hinf_norm.calls": "count",
    "specnorm.hinf_norm.self_s": "s",
    "specnorm.default_grid.calls": "count",
    "specnorm.default_grid.self_s": "s",
    "classical.classical_margins.calls": "count",
    "classical.classical_margins.self_s": "s",
    "classical.gain_margins.self_s": "s",
    "classical.phase_margin.self_s": "s",
    "scipy.brentq.calls": "count",
    "classical.brentq_per_crossing": "ratio",
    "disk.disk_margin.self_s": "s",
    "disk.freq_margin_trace.self_s": "s",
    "disk.worst_perturbation_lti.self_s": "s",
    "disk.verify_destabilizing.self_s": "s",
    "multiloop.build_m.self_s": "s",
    "multiloop.multiloop_margin.self_s": "s",
    "multiloop.mu_diag.self_s": "s",
    "multiloop.loop_at_a_time.self_s": "s",
    "scipy.minimize_scalar.calls": "count",
    "scipy.minimize_scalar.self_s": "s",
    "scipy.minimize.calls": "count",
    "multiloop.svd_per_grid_point": "ratio",
    "linalg.svd.calls": "count",
    "linalg.svd.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.eigvals.calls": "count",
    "linalg.eigvals.self_s": "s",
    "linalg.eig.calls": "count",
    "cli.main.self_s": "s",
    "setup.import_s": "s",
    "setup.load_model_s": "s",
    "trace.overhead_s": "s",
}


# ---- run context ---------------------------------------------------------------

def nonblank_lines(root):
    n = 0
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    n += sum(1 for line in fh if line.strip())
    return n


def run_context():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "src_dmkit_nonblank_lines": nonblank_lines(SRC),
    }


# ---- set-up --------------------------------------------------------------------

def measure_setup(model_path):
    """Median time of fresh interpreters that import dmkit.cli and load the
    first model, after one start that fills the bytecode cache.  Each wall
    time is scaled by the host-speed probes taken just before and after it."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), model_path]
    walls, scaled, stages = [], [], []
    for i in range(SETUP_REPEATS + 1):
        p0 = hostspeed.probe()
        t0 = time.perf_counter()
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        p1 = hostspeed.probe()
        if i:
            walls.append(wall)
            scaled.append(wall * hostspeed.REFERENCE_S / (0.5 * (p0 + p1)))
            stages.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(scaled),
        "raw_setup_s": statistics.median(walls),
        "import_s": statistics.median(s["import_s"] for s in stages),
        "load_model_s": statistics.median(s["load_model_s"] for s in stages),
    }


# ---- running analyses ----------------------------------------------------------

class Sample:
    """One analysis: its command, wall time, output digest and error, if any."""

    __slots__ = ("cmd", "seconds", "digest", "error")

    def __init__(self, cmd, seconds, digest, error):
        self.cmd, self.seconds, self.digest, self.error = cmd, seconds, digest, error


class Runner:
    """Calls cli.main and keeps one copy of each distinct output for the checks."""

    def __init__(self, cli):
        self.cli = cli
        self.outputs = {}  # (command key, digest) -> (command, text)

    def call(self, cmd):
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(cmd.argv)
        except Exception as e:  # an analysis that raises is a failed analysis
            code, error = None, "{}: {}".format(type(e).__name__, e)
        seconds = time.perf_counter() - t0
        text = out.getvalue()
        if code != 0 and error is None:
            error = "exit code {}: {}".format(code, err.getvalue().strip()[:300])
        digest = hashlib.sha256(TIMESTAMP.sub("", text).encode()).hexdigest()
        self.outputs.setdefault((cmd.key, digest), (cmd, text))
        return Sample(cmd, seconds, digest, error)

    def verify(self, samples):
        """Check each distinct output once; return (command key, problems)
        for every failed sample: an error, or an output that failed a check."""
        ctx = {}
        verdicts = {}
        with np.errstate(all="ignore"):
            for (key, digest), (cmd, text) in self.outputs.items():
                verdicts[(key, digest)] = oracles.check(cmd, text, ctx)
        failures = []
        for s in samples:
            probs = [s.error] if s.error else verdicts.get((s.cmd.key, s.digest), [])
            if probs:
                failures.append((s.cmd.key, probs))
        return failures


def warm_up(runner, cmds):
    """One call of each distinct command shape, so lazy imports and first-call
    costs fall outside the timed phase."""
    seen = set()
    for c in cmds:
        shape = (c.argv[0],) + tuple(a for a in c.argv[2:] if a.startswith("--"))
        if shape not in seen:
            seen.add(shape)
            runner.call(c)


def timed_phase(runner, cmds, seconds):
    """Whole cycles until the busy time is nearest to `seconds`, with a
    host-speed probe before every analysis and one after the last."""
    samples, probes = [], []
    busy = 0.0  # scaled by the probe just before each call, for stopping only
    cycles = 0
    while True:
        for c in cmds:
            probes.append(hostspeed.probe())
            s = runner.call(c)
            samples.append(s)
            busy += s.seconds * hostspeed.REFERENCE_S / probes[-1]
        cycles += 1
        if busy + 0.5 * busy / cycles >= seconds:
            probes.append(hostspeed.probe())
            return samples, probes, cycles


def hd_quantile(x, q):
    """Harrell-Davis estimate of the q-quantile of x: a Beta-weighted mean
    of all order statistics rather than one or two of them, so it moves
    less with the few slowest analyses of a short run."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def latency_metrics(seconds):
    ms = np.asarray(seconds) * 1e3
    return {
        "analyses_per_s": len(ms) / (ms.sum() / 1e3),
        "latency_p50_ms": hd_quantile(ms, 0.5),
        "latency_p90_ms": hd_quantile(ms, 0.9),
    }


def end_to_end(samples, probes, setup):
    """Metrics from wall times scaled to the reference host speed."""
    scale = hostspeed.factors(probes, len(samples))
    out = latency_metrics([s.seconds * f for s, f in zip(samples, scale)])
    out["setup_s"] = setup["setup_s"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out, statistics.median(scale)


def per_layer(tracer, traced_s, untraced_s, setup):
    summ = tracer.summary()
    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        calls, self_s = summ.get(base, (0, 0.0))
        if field == "calls":
            out[name] = calls
        elif field == "self_s":
            out[name] = self_s
    out["classical.brentq_per_crossing"] = (
        summ.get("scipy.brentq", (0, 0.0))[0] / max(1, tracer.counts["classical.crossings"]))
    swept = tracer.count_under("lti.eval_freq", "multiloop.multiloop_margin", direct=True)
    out["multiloop.svd_per_grid_point"] = (
        tracer.count_under("linalg.svd", "multiloop.multiloop_margin") / max(1, swept))
    out["setup.import_s"] = setup["import_s"]
    out["setup.load_model_s"] = setup["load_model_s"]
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


def scaled_cycle(runner, cmds, tracer=None):
    """One cycle with a host-speed probe before every analysis; returns the
    samples and their total time scaled to the reference host speed."""
    samples, probes = [], []
    for i, c in enumerate(cmds):
        probes.append(hostspeed.probe())
        if tracer:
            tracer.analysis = i
        samples.append(runner.call(c))
    probes.append(hostspeed.probe())
    scale = hostspeed.factors(probes, len(samples))
    return samples, sum(s.seconds * f for s, f in zip(samples, scale))


def traced_phase(runner, cmds, workdir):
    """One untraced and one traced cycle; the difference of their scaled
    times is the tracing overhead."""
    from tracer import Tracer

    untraced, untraced_s = scaled_cycle(runner, cmds)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = scaled_cycle(runner, cmds, tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(workdir, SPANS))
    return untraced + traced, tracer, traced_s, untraced_s


# ---- main ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print("error: {} not found; run from the root of a dmkit checkout".format(SRC),
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, "{}-seed{}-pid{}".format(args.workload, args.seed, os.getpid()))
    cmds = workloads.generate(args.workload, args.seed, workdir)
    first_model = next(c.argv[1] for c in cmds if c.bundled is None)
    setup = measure_setup(first_model)

    sys.path.insert(0, "src")
    import dmkit.cli

    runner = Runner(dmkit.cli)
    warm_up(runner, cmds)
    if args.trace:
        samples, tracer, traced_s, untraced_s = traced_phase(runner, cmds, workdir)
        metrics = per_layer(tracer, traced_s, untraced_s, setup)
        units = PER_LAYER
    else:
        samples, probes, cycles = timed_phase(runner, cmds, args.seconds)
        metrics, speed = end_to_end(samples, probes, setup)
        raw = latency_metrics([s.seconds for s in samples])
        raw["setup_s"] = setup["raw_setup_s"]
        units = END_TO_END
    failures = runner.verify(samples)

    print("# dmkit benchmark: workload={} seed={} trace={}".format(
        args.workload, args.seed, args.trace))
    print("context " + json.dumps(run_context(), sort_keys=True))
    if args.trace:
        print("traced one cycle of {} analyses: {:.3f} s traced, {:.3f} s untraced (scaled), "
              "{} spans in {}".format(len(cmds), traced_s, untraced_s, len(tracer.names),
                                      os.path.join(workdir, SPANS)))
    else:
        n = len(samples)
        print("timed {} cycles of {} analyses: {} analyses in {:.3f} s busy".format(
            cycles, len(cmds), n, sum(s.seconds for s in samples)))
        print("note latency_p50_ms and latency_p90_ms are Harrell-Davis estimates over {} "
              "samples; {} lie beyond the 90th percentile{}".format(
                  n, n - int(0.9 * n), "" if n >= 100 else " (fewer than 100 analyses)"))
        print("note setup_s is the median of {} cold starts".format(SETUP_REPEATS))
        print("note times are scaled to the reference host speed (median factor {:.4f}); "
              "unscaled: {}".format(speed, ", ".join(
                  "{} {:.6g}".format(k, v) for k, v in raw.items())))
    for name, value in metrics.items():
        print("metric {} {:.6g} {}".format(name, value, units[name]))
    print("metric failed_share {:.6g} share ({} of {})".format(
        len(failures) / len(samples), len(failures), len(samples)))
    for key, probs in sorted({(k, "; ".join(p)) for k, p in failures})[:20]:
        print("FAILED {}: {}".format(key, probs))
    if not args.trace:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
