"""Compare the mu margins of two dmkit source trees on 3- to 6-channel loops.

    python3 tools/mu_pairs.py PARENT_DIR CHANGE_DIR

The benchmark's commands hold only two analyses with more than two
channels, so this runs a fixed family of wider loops instead: one
numpy.random.default_rng(99) and, for k = 0..55, the pair
_random_pair(rng, 3 + k % 4, 4 + 2 (k % 4)) of the tree's
bench/workloads.py (3 to 6 channels, 4 to 10 states, a static
controller), each analysed by multiloop_margin(build_m(P, K, points))
at the plant inputs and at the plant outputs: 112 analyses.  Pair 55,
6 channels at the inputs, is the slowest.  Each tree runs in its own
subprocess, as in tools/compare_outputs.py: the tree as working
directory, its own src/ and bench/ first on the import path, one BLAS
thread.  Nothing under bench/ is written.

The report lists the analyses whose alpha_lower, alpha_upper,
omega_crit or converged differ by repr, or whose exception differs;
then each tree's time in build_m and multiloop_margin per channel count
and in total, and the analysis slowest in the parent.  The exit status
is 0 when no analysis differs and 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

PAIRS = 56
POINTS = ("input", "output")
FIELDS = ("alpha_lower", "alpha_upper", "omega_crit", "converged")


def run_tree(tree, out_path):
    """Run every analysis in this process, which sits in tree; write a
    JSON list of {pair, channels, points, fields, seconds} to out_path,
    fields being the repr of each of FIELDS or the exception raised."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import numpy as np
    import workloads
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
            try:
                res = multiloop_margin(build_m(P, Kss, points, 0.0))
                fields = [repr(getattr(res, f)) for f in FIELDS]
            except Exception as e:  # an analysis that raises is a result to compare
                fields = "{}: {}".format(type(e).__name__, e)
            results.append({"pair": k, "channels": nch, "points": points, "fields": fields,
                            "seconds": time.perf_counter() - start})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def collect(tree, out_path):
    tree = os.path.abspath(tree)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", tree, out_path],
                   cwd=tree, env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _name(r):
    return "pair {} ({} channels) {}".format(r["pair"], r["channels"], r["points"])


def main(argv):
    if len(argv) == 3 and argv[0] == "--worker":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent = collect(argv[0], os.path.join(tmp, "parent.json"))
        change = collect(argv[1], os.path.join(tmp, "change.json"))
    differing = []
    for p, c in zip(parent, change):
        if p["fields"] == c["fields"]:
            continue
        if isinstance(p["fields"], str) or isinstance(c["fields"], str):
            differing.append("{}: {!r} -> {!r}".format(_name(p), p["fields"], c["fields"]))
        else:
            differing.append("{}: {}".format(_name(p), ", ".join(
                "{} {} -> {}".format(f, a, b)
                for f, a, b in zip(FIELDS, p["fields"], c["fields"]) if a != b)))
    print("analyses: {}".format(len(parent)))
    print("analyses that differ: {}".format(len(differing)))
    for line in differing:
        print("  " + line)
    print("seconds in build_m and multiloop_margin, parent -> change:")
    for n in sorted({r["channels"] for r in parent}):
        ps = [r["seconds"] for r in parent if r["channels"] == n]
        cs = [r["seconds"] for r in change if r["channels"] == n]
        print("  {} channels ({} analyses): {:.3f} -> {:.3f}".format(n, len(ps), sum(ps), sum(cs)))
    print("  total: {:.3f} -> {:.3f}".format(sum(r["seconds"] for r in parent),
                                            sum(r["seconds"] for r in change)))
    k = max(range(len(parent)), key=lambda i: parent[i]["seconds"])
    print("slowest analysis in the parent: {}: {:.3f} -> {:.3f}".format(
        _name(parent[k]), parent[k]["seconds"], change[k]["seconds"]))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
