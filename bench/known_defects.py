"""Reproducers of the known dmkit defects that the workloads keep clear of.

    python3 bench/known_defects.py

Run from the root of a dmkit checkout.  Each case is a SISO loop that
siso-margins drew before those filters existed; it runs one CLI analysis and
checks it with the benchmark's oracles.  The generator's filters
(`_crossings_resolvable` and the COEF_LIMIT test in bench/workloads.py)
reject every one of these loops, so the benchmark's `correct` flag stays
a signal of regressions; this script keeps the defects in sight.  It
prints one line per case, "present" or "fixed", and exits 0 either way.
"""

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(".bench_work", "known-defects-pid{}".format(os.getpid()))

# (name, what goes wrong, CLI arguments after the model path, num, den)
CASES = (
    ("near-double-crossover",
     "classical misses two gain crossovers 0.3% apart on a resonant peak "
     "that grazes |L| = 1 (true PM 44 deg, reported inf)",
     ["classical"],
     [4.4232253772301634e-05, 0.0012931931559487218, 0.009553488533227274,
      0.00671520758453747],
     [1.0, 1.1609672834881273, 2.3281113151536763, 1.3330075916528912,
      1.3439992319928205]),
    ("crossover-below-grid",
     "classical misses the gain crossover of a low-gain integrator loop, "
     "which lies below its frequency grid",
     ["classical"],
     [0.0016495912063889198, 0.09921376223659804, 1.4935835026678173,
      -11.370163144992059, -453.079427024504, -3887.672919107605,
      -13912.478213148748, -19170.265082950486, 1863.9245684843936,
      18221.821034665936],
     [1.0, 24.660163911747077, 483.2781694663471, 5269.108450475484,
      38542.65704869341, 162919.625456283, 584809.4033078025,
      1382330.9443815053, 2731095.475151958, 2920044.86123279,
      2702758.460499364, 0.0]),
    ("hinf-short-1e-5",
     "hinf_norm stops 8e-6 below the peak of |S| (documented accuracy "
     "1e-6); closed-loop coefficients up to 9.5e6",
     ["diskmargin", "--skew", "1"],
     [9524238.747002741],
     [1.0, 34.38042765927143, 1300.3672475318604, 27898.966439771717,
      384232.3316431979, 1404162.3103938361, 0.0]),
    ("hinf-misses-peak",
     "hinf_norm misses a resonant peak of |S| entirely: alpha 0.14 "
     "reported, 0.077 true; closed-loop coefficients up to 7e10",
     ["diskmargin", "--skew", "1"],
     [7981092143.5604315, 11869338118.6599, 3856923210.7540092],
     [1.0, 104.98983713954811, 4999.2253545562735, 142055.37792726152,
      2668932.4999136375, 34909952.17696232, 327218175.7664827,
      2213242515.9045606, 10570562935.472857, 33544213774.16935,
      61915225445.53178, 47322729456.04601]),
)


def main():
    if not os.path.isfile(os.path.join("src", "dmkit", "cli.py")):
        print("error: run from the root of a dmkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import dmkit.cli

    os.makedirs(WORK, exist_ok=True)
    try:
        for name, what, args, num, den in CASES:
            doc = {"model": {"tf": {"num": [float(c) for c in num],
                                    "den": [float(c) for c in den]}},
                   "feedback": "negative"}
            path = os.path.join(WORK, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            cmd = workloads.Command([args[0], path] + args[1:], doc)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = dmkit.cli.main(cmd.argv)
            with np.errstate(all="ignore"):
                probs = (oracles.check(cmd, out.getvalue(), {}) if code == 0
                         else ["exit code {}".format(code)])
            print("{} {}: {}".format("present" if probs else "fixed", name, what))
            for p in probs:
                print("    " + p)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
