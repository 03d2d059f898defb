"""Self-tests of the benchmark itself (not of dmkit).

    python3 bench/selftest.py

Run from the root of a dmkit checkout; takes about ten seconds.  Checks
that the generator is deterministic per seed and rejects the loops of
bench/known_defects.py, that deliberately corrupted outputs fail their
oracle checks while the true outputs pass, that the tracer yields every
per-layer metric, and that BENCHMARK.json, run.py and README.md name the
same metrics, units and workloads.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import known_defects  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = os.path.join(run.WORK_ROOT, "selftest-pid{}".format(os.getpid()))


class Failed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Failed(msg)


def files_of(d):
    out = {}
    for f in sorted(os.listdir(d)):
        with open(os.path.join(d, f), "rb") as fh:
            out[f] = fh.read()
    return out


def test_generator_deterministic():
    for wl in workloads.WORKLOADS:
        a = workloads.generate(wl, 7, os.path.join(WORK, wl + "-a"))
        b = workloads.generate(wl, 7, os.path.join(WORK, wl + "-b"))
        c = workloads.generate(wl, 8, os.path.join(WORK, wl + "-c"))
        fa, fb, fc = (files_of(os.path.join(WORK, wl + s)) for s in ("-a", "-b", "-c"))
        expect(fa == fb, wl + ": same seed gave different model files")
        expect(fa != fc, wl + ": different seeds gave identical model files")
        strip = [[os.path.basename(x) for x in cmd.argv] for cmd in a]
        expect(strip == [[os.path.basename(x) for x in cmd.argv] for cmd in b],
               wl + ": same seed gave different commands")
        expect(len(a) == len(c), wl + ": the cycle length depends on the seed")


def test_generator_rejects_known_defects():
    for name, _what, _args, num, den in known_defects.CASES:
        expect(not workloads._siso_ok(np.array(num), np.array(den), 1.0),
               "the generator would keep the {} loop".format(name))


def cli_output(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    expect(code == 0, "{} exited {}".format(argv, code))
    return buf.getvalue()


def problems(cmd, text):
    return oracles.check(cmd, text, {})


def corrupt_json(text, edit):
    doc = json.loads(text)
    edit(doc["results"])
    return json.dumps(doc)


def test_checks_catch_corruption(cli):
    cmds = workloads.generate("siso-margins", 3, os.path.join(WORK, "corrupt"))
    by = {(c.argv[0], os.path.basename(c.argv[1]), tuple(c.argv[2:])): c for c in cmds}

    cmd = by[("classical", "siso_08.json", ())]
    text = cli_output(cli, cmd.argv)
    expect(problems(cmd, text) == [], "true classical output failed: {}".format(problems(cmd, text)))
    res = json.loads(text)["results"]
    key = "phase_crossover_freqs" if res["phase_crossover_freqs"] else "gain_crossover_freqs"
    expect(res[key], "siso_08 has no crossing to drop")
    bad = corrupt_json(text, lambda r: r[key].pop())
    expect(problems(cmd, bad), "a dropped crossing passed the classical check")
    bad = corrupt_json(text, lambda r: r["phi_upper"].update(
        radians=float(r["phi_upper"]["radians"]) * 1.01))
    expect(problems(cmd, bad), "phi_upper x 1.01 passed the classical check")

    for args in (("--skew", "1"), ("--worst-case",)):
        cmd = by[("diskmargin", "badl_loop.json", args)] if args[0] == "--skew" else \
            by[("diskmargin", "ex1_loop.json", args)]
        text = cli_output(cli, cmd.argv)
        expect(problems(cmd, text) == [], "true diskmargin output failed: {}".format(
            problems(cmd, text)))
        for scale in (1.01, 0.99):
            bad = corrupt_json(text, lambda r: r.update(alpha_max=r["alpha_max"] * scale))
            expect(problems(cmd, bad), "alpha x {} passed the {} check".format(scale, args))
    bad = corrupt_json(text, lambda r: r["worst_case"]["verification"].update(verdict="fail"))
    expect(problems(cmd, bad), "a failed worst-case verdict passed")

    cmd = by[("exclusion", "siso_05.json", ())]
    text = cli_output(cli, cmd.argv)
    expect(problems(cmd, text) == [], "true exclusion output failed")
    bad = corrupt_json(text, lambda r: r.update(alpha_max=r["alpha_max"] * 1.01))
    expect(problems(cmd, bad), "exclusion alpha x 1.01 passed")

    dense = workloads.generate("dense-trace", 3, os.path.join(WORK, "dense"))
    cmd = dense[0]
    text = cli_output(cli, cmd.argv)
    expect(problems(cmd, text) == [], "true trace output failed: {}".format(problems(cmd, text)))
    lines = text.splitlines()
    row = lines[len(lines) // 2].split(",")
    row[1] = repr(float(row[1]) * 1.01)
    lines[len(lines) // 2] = ",".join(row)
    expect(problems(cmd, "\n".join(lines) + "\n"), "a trace row with alpha x 1.01 passed")
    expect(problems(cmd, "\n".join(lines[:-1]) + "\n"), "a trace with a dropped row passed")

    sat = workloads.Command(["mimo", "satellite.json", "--points", "input"],
                            workloads.load_bundled("satellite.json"), "satellite.json")
    text = cli_output(cli, sat.argv)
    expect(problems(sat, text) == [], "true mimo output failed: {}".format(problems(sat, text)))

    def skew_delta(r):
        d = r["delta_worst"][0]["delta"]
        d["re"], d["im"] = d["re"] * 1.01, d["im"] * 1.01

    expect(problems(sat, corrupt_json(text, skew_delta)), "a perturbed delta passed the det check")
    bad = corrupt_json(text, lambda r: r.update(alpha_upper=r["alpha_upper"] * 1.01))
    expect(problems(sat, bad), "satellite alpha_upper x 1.01 passed the mimo check")


def test_tracer_reports_every_layer(cli):
    cmds = workloads.generate("siso-margins", 3, os.path.join(WORK, "trace"))
    picked = [cmds[0], cmds[1]]
    picked.append(workloads.Command(["mimo", "satellite.json", "--points", "input"],
                                    workloads.load_bundled("satellite.json"), "satellite.json"))
    dense = workloads.generate("dense-trace", 3, os.path.join(WORK, "trace-dense"))
    picked.append(dense[0])
    import numpy.linalg

    originals = (numpy.linalg.svd, cli.main, cli.eval_freq)
    runner = run.Runner(cli)
    samples, tracer, traced_s, untraced_s = run.traced_phase(
        runner, picked, os.path.join(WORK, "trace"))
    setup = {"import_s": 0.5, "load_model_s": 0.001}
    metrics = run.per_layer(tracer, traced_s, untraced_s, setup)
    expect(set(metrics) == set(run.PER_LAYER), "per-layer metrics differ from PER_LAYER")
    for name in ("lti.eval_freq.calls", "specnorm.hinf_norm.calls", "linalg.svd.calls",
                 "linalg.solve.calls", "scipy.brentq.calls", "scipy.minimize_scalar.calls",
                 "classical.classical_margins.calls", "multiloop.svd_per_grid_point"):
        expect(metrics[name] > 0, name + " is zero on a cycle that exercises it")
    crossings = tracer.counts["classical.crossings"]
    expect(crossings > 0, "no crossover frequencies counted at classical_margins")
    expect(metrics["classical.brentq_per_crossing"] == metrics["scipy.brentq.calls"] / crossings,
           "brentq_per_crossing is not brentq calls over counted crossings")
    expect(samples and not runner.verify(samples), "traced outputs failed their checks")
    expect(originals == (numpy.linalg.svd, cli.main, cli.eval_freq),
           "a wrapper was left in place after the traced cycle")
    # two traced cycles of the same commands give the same counts
    again = Tracer()
    again.install()
    try:
        for c in picked:
            runner.call(c)
    finally:
        again.uninstall()
    counts = {k: v[0] for k, v in tracer.summary().items()}
    expect(counts == {k: v[0] for k, v in again.summary().items()},
           "call counts differ between two traced passes")


def test_names_agree():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(e2e == run.END_TO_END, "end_to_end names/units differ between BENCHMARK.json and run.py")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(layer == run.PER_LAYER, "per_layer names/units differ between BENCHMARK.json and run.py")
    names = [w["name"] for w in bench["workloads"]]
    expect(tuple(names) == workloads.WORKLOADS, "workload names differ")
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for w in bench["workloads"]:
        expect(w["why"].strip(), w["name"] + " has no reason in BENCHMARK.json")
        expect("### " + w["name"] in readme, w["name"] + " has no section in README.md")
    for name in list(e2e) + list(layer):
        expect("`" + name + "`" in readme, name + " is not documented in README.md")
    expect(all(m["bound"] <= 0.25 for m in bench["end_to_end"]), "a bound above 0.25")
    expect(not any(math.isnan(m["bound"]) for m in bench["end_to_end"]), "a NaN bound")


def main():
    sys.path.insert(0, "src")
    import dmkit.cli as cli

    tests = [
        ("generator is deterministic per seed", test_generator_deterministic, ()),
        ("generator rejects the known-defect loops", test_generator_rejects_known_defects, ()),
        ("checks catch corrupted outputs", test_checks_catch_corruption, (cli,)),
        ("tracer reports every per-layer metric", test_tracer_reports_every_layer, (cli,)),
        ("metric and workload names agree", test_names_agree, ()),
    ]
    failed = 0
    try:
        for title, fn, args in tests:
            try:
                fn(*args)
            except Failed as e:
                failed += 1
                print("FAIL {}: {}".format(title, e))
            else:
                print("ok   {}".format(title))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
