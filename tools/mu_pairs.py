"""Compare the mu margins of two dmkit source trees on 3- to 6-channel loops.

    python3 tools/mu_pairs.py PARENT_DIR CHANGE_DIR

The benchmark's commands hold only two analyses with more than two
channels, so this runs a fixed family of wider loops instead: one
numpy.random.default_rng(99) and, for k = 0..55, the pair
_random_pair(rng, 3 + k % 4, 4 + 2 (k % 4)) of the tree's
bench/workloads.py (3 to 6 channels, 4 to 10 states, a static
controller), each analysed by multiloop_margin(build_m(P, K, points))
at the plant inputs and at the plant outputs: 112 analyses.  Pair 55,
6 channels at the inputs, is the slowest.  After them come the
mimo-margins analyses of seed 1 with more than two channels, from the
tree's bench/workloads.mimo_margins: satellite io (4 channels) and the
3-channel mimo_16 slot.  Each of these takes milliseconds, so it runs
REPEATS times in a round and keeps its fastest.  Each tree runs in its own
subprocess, as in tools/compare_outputs.py: the tree as working
directory, its own src/ and bench/ first on the import path, one BLAS
thread.  Nothing under bench/ is written; the mimo-margins model files
go to a temporary directory.  Each tree runs ROUNDS times,
parent and change alternating which goes first, and each analysis's
time is its fastest round: on a shared host one pass of a tree can take
a quarter longer than the next.

The report lists the analyses whose alpha_lower, alpha_upper,
omega_crit or converged differ by repr between a tree's own rounds, then
those that differ between the trees, or whose exception differs; then
each tree's time in build_m and multiloop_margin per channel count and
in total, the analysis slowest in the parent, and on a line of their
own the two mimo-margins analyses.  The exit status is 0
when every tree repeats its answers and no analysis differs, and 1
otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

PAIRS = 56
ROUNDS = 3
REPEATS = 7
POINTS = ("input", "output")
FIELDS = ("alpha_lower", "alpha_upper", "omega_crit", "converged")


def analyse(build_m, multiloop_margin, P, K, points):
    """The repr of each of FIELDS of the margin of P and K at points, or
    the exception raised."""
    try:
        res = multiloop_margin(build_m(P, K, points, 0.0))
        return [repr(getattr(res, f)) for f in FIELDS]
    except Exception as e:  # an analysis that raises is a result to compare
        return "{}: {}".format(type(e).__name__, e)


def run_tree(tree, out_path):
    """Run every analysis in this process, which sits in tree; write a
    JSON list of {name, channels, fields, seconds} to out_path, pairs
    first, fields as analyse gives them."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import numpy as np
    import workloads
    from dmkit.cli import _load_model_file
    from dmkit.lti import ss
    from dmkit.multiloop import build_m, multiloop_margin

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(sys.modules["dmkit"].__file__).startswith(src + os.sep):
        raise SystemExit("dmkit was imported from {}, not {}".format(
            sys.modules["dmkit"].__file__, src))
    rng = np.random.default_rng(99)
    results = []
    for k in range(PAIRS):
        nch = 3 + k % 4
        A, B, C, K = workloads._random_pair(rng, nch, 4 + 2 * (k % 4))
        P = ss(A, B, C, np.zeros((nch, nch)))
        Kss = ss(np.zeros((0, 0)), np.zeros((0, nch)), np.zeros((nch, 0)), K)
        for points in POINTS:
            start = time.perf_counter()
            fields = analyse(build_m, multiloop_margin, P, Kss, points)
            results.append({"name": "pair {} ({} channels) {}".format(k, nch, points),
                            "channels": nch, "fields": fields,
                            "seconds": time.perf_counter() - start})
    with tempfile.TemporaryDirectory() as tmp:
        for i, cmd in enumerate(workloads.mimo_margins(1, tmp)):
            P, K, _, _ = _load_model_file(cmd.argv[1])
            points = cmd.argv[cmd.argv.index("--points") + 1]
            nch = build_m(P, K, points, 0.0).n
            if nch <= 2:
                continue
            seconds = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                fields = analyse(build_m, multiloop_margin, P, K, points)
                seconds.append(time.perf_counter() - start)
            name = os.path.splitext(cmd.bundled)[0] if cmd.bundled else "mimo_{:02d}".format(i)
            results.append({"name": "mimo-margins seed 1 {} {}".format(name, points),
                            "channels": nch, "fields": fields, "seconds": min(seconds)})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def collect(tree, out_path):
    tree = os.path.abspath(tree)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", tree, out_path],
                   cwd=tree, env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    if len(argv) == 3 and argv[0] == "--worker":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rounds = ([], [])  # each tree's results, one list per round
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(ROUNDS):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                rounds[side].append(collect(argv[side], os.path.join(tmp, "{}_{}.json".format(side, k))))
    unstable = []
    for name, runs in zip(("parent", "change"), rounds):
        for rs in zip(*runs):
            if any(r["fields"] != rs[0]["fields"] for r in rs[1:]):
                unstable.append("{} {}: {}".format(name, rs[0]["name"], " / ".join(
                    repr(r["fields"]) for r in rs)))
            rs[0]["seconds"] = min(r["seconds"] for r in rs)
    parent, change = rounds[0][0], rounds[1][0]
    npairs = 2 * PAIRS
    differing = []
    for p, c in zip(parent, change):
        if p["fields"] == c["fields"]:
            continue
        if isinstance(p["fields"], str) or isinstance(c["fields"], str):
            differing.append("{}: {!r} -> {!r}".format(p["name"], p["fields"], c["fields"]))
        else:
            differing.append("{}: {}".format(p["name"], ", ".join(
                "{} {} -> {}".format(f, a, b)
                for f, a, b in zip(FIELDS, p["fields"], c["fields"]) if a != b)))
    print("analyses: {} pairs and {} mimo-margins, {} rounds per tree".format(
        npairs, len(parent) - npairs, ROUNDS))
    print("analyses that differ between a tree's own rounds: {}".format(len(unstable)))
    for line in unstable:
        print("  " + line)
    print("analyses that differ: {}".format(len(differing)))
    for line in differing:
        print("  " + line)
    print("seconds in build_m and multiloop_margin, fastest round, parent -> change:")
    pairs = parent[:npairs], change[:npairs]
    for n in sorted({r["channels"] for r in pairs[0]}):
        ps = [r["seconds"] for r in pairs[0] if r["channels"] == n]
        cs = [r["seconds"] for r in pairs[1] if r["channels"] == n]
        print("  {} channels ({} analyses): {:.3f} -> {:.3f}".format(n, len(ps), sum(ps), sum(cs)))
    print("  total: {:.3f} -> {:.3f}".format(sum(r["seconds"] for r in pairs[0]),
                                            sum(r["seconds"] for r in pairs[1])))
    k = max(range(npairs), key=lambda i: parent[i]["seconds"])
    print("slowest analysis in the parent: {}: {:.3f} -> {:.3f}".format(
        parent[k]["name"], parent[k]["seconds"], change[k]["seconds"]))
    print("mimo-margins ms, fastest of {} x {} rounds, parent -> change: {}".format(
        REPEATS, ROUNDS, "; ".join("{} ({} channels) {:.2f} -> {:.2f}".format(
            p["name"], p["channels"], 1e3 * p["seconds"], 1e3 * c["seconds"])
            for p, c in zip(parent[npairs:], change[npairs:]))))
    return 1 if differing or unstable else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
