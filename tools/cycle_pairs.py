"""Time whole benchmark cycles of two dmkit source trees in one process.

    python3 tools/cycle_pairs.py PARENT_DIR CHANGE_DIR [--workload W] [--rounds N]

bench/run.py pairs, one process per tree, do not resolve differences under
about 2% on a small shared host: the host drifts between the runs.  This
runs both trees in one process instead.  Each tree's src/dmkit is loaded
as its own package (dmkit_parent, dmkit_change), and sys.modules["dmkit"]
is the parent's, so that resources.files("dmkit") finds the bundled
examples for both (a change to the examples is not seen).  The parent's
bench/workloads.py generates the seed-1 commands of the workload
(siso-margins by default) into a temporary directory; nothing is written
under either tree.

Every command first runs once in each tree, and their exit codes, stdout
without the "generated_at" timestamp, and stderr must be identical; the
run stops with status 1 otherwise.  Then come ROUNDS rounds (30 by
default): in each, each tree runs the whole cycle of commands once,
through cli.main with stdout captured, as bench/run.py drives it, and the
tree that goes first alternates.  A cycle's time is the sum of its
commands' times, as analyses_per_s counts them.

The report gives each tree's median cycle time and quartiles, the
median and quartiles of the paired ratio change/parent over the rounds,
and the number of rounds the change was faster.  Comparing a tree with
itself (PARENT_DIR twice) calibrates the harness: its ratio should read
1 within its quartiles.  One BLAS thread, as in bench/run.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

SEED = 1
TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')


def load_tree(tree, name):
    """tree/src/dmkit imported as the package name; returns its cli module."""
    pkg = os.path.join(os.path.abspath(tree), "src", "dmkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def generate(tree, workload, workdir):
    """The seed-1 commands of workload from tree's bench/workloads.py,
    which reads the bundled examples relative to the tree."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "bench"))
    import workloads

    cwd = os.getcwd()
    os.chdir(tree)
    try:
        return workloads.generate(workload, SEED, workdir)
    finally:
        os.chdir(cwd)


def call(cli, cmd):
    """(seconds, exit code or exception, stdout without its timestamp, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd.argv)
    except Exception as e:  # an analysis that raises is an output to compare
        code = "{}: {}".format(type(e).__name__, e)
    seconds = time.perf_counter() - start
    return seconds, code, TIMESTAMP.sub("", out.getvalue()), err.getvalue()


def cycle(cli, cmds):
    gc.collect()
    return sum(call(cli, c)[0] for c in cmds)


def spread(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return "{:.4g} [{:.4g}, {:.4g}]".format(q2, q1, q3)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="siso-margins")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    sys.dont_write_bytecode = True
    clis = load_tree(args.parent, "dmkit_parent"), load_tree(args.change, "dmkit_change")
    sys.modules["dmkit"] = sys.modules["dmkit_parent"]
    with tempfile.TemporaryDirectory() as work:
        cmds = generate(args.parent, args.workload, work)
        differ = [c.key for c in cmds if call(clis[0], c)[1:] != call(clis[1], c)[1:]]
        print("workload {}, seed {}: {} commands, {} with outputs that differ".format(
            args.workload, SEED, len(cmds), len(differ)))
        for key in differ:
            print("  " + key.replace(work, "<work>"))
        if differ:
            return 1
        times = ([], [])
        for k in range(args.rounds):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                times[side].append(cycle(clis[side], cmds))
    ratios = [c / p for p, c in zip(*times)]
    print("{} rounds, each tree's whole cycle once per round, the first tree alternating".format(
        args.rounds))
    print("cycle ms, median [quartiles]: parent {}, change {}".format(
        *(spread([1e3 * t for t in ts]) for ts in times)))
    print("cycle-time ratio change/parent, median [quartiles]: {}".format(spread(ratios)))
    print("change faster in {} of {} rounds".format(sum(r < 1.0 for r in ratios), args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
