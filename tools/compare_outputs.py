"""Compare the CLI outputs of two dmkit source trees on the benchmark commands.

    python3 tools/compare_outputs.py [--rtol X] [--noise K] PARENT_DIR CHANGE_DIR

Each tree runs in its own subprocess, with the tree as working
directory and its own src/ first on the import path.  There, the tree's
bench/workloads.py writes the model files of every workload for seeds
1-3 into a temporary directory, and every generated command goes through
dmkit.cli.main in-process, as bench/run.py drives it (one BLAS
thread).  Output timestamps, the temporary directory and the checkout
path are stripped before the two trees are compared.

The report lists the commands whose exit code, stderr or output differ,
counts the numeric fields that are byte-identical, and gives the largest
relative difference among the rest.  For each key of a JSON document's
"results" object it then gives the number of commands in which that
key's value differs and the largest relative difference in it, and for
each column of CSV output (the trace commands) the number of commands
and of fields in which it differs and its largest relative difference.
Then comes the largest relative fall of results.peak_gain.value (the
diskmargin commands) from the parent to the change, with its command:
an attained gain, which a same-answers change should not lower.  Last
come each tree's largest certificate det_residual over the mimo
commands, its largest alpha_upper / min(loop_at_a_time alpha_max) over
the same commands (the simultaneous margin cannot exceed the
loop-at-a-time one, so above 1 the mu sweep missed a peak), and the
non-blank line counts of each tree's src/dmkit, counted as bench/run.py
counts them.  The exit status is 0 when every
command matches exactly and 1 otherwise.  With --rtol X it is 0 when, in every
command, the exit code, stderr and the text around the numbers match
and each differing numeric field is within X relative; the report then
also lists the commands outside that tolerance.

With --noise K the parent tree also runs DRAWS more times, each with
rounding-level noise on every value its freq_response returns (see
add_noise).  A numeric field's spread is its largest relative move over
the draws whose exit code, stderr and text around the numbers match the
parent's (a move to or from a non-finite value counts as none).  The
exit status is then 0 when, in every command, the exit code, stderr and
the text around the numbers match, and each numeric field that differs
in value is finite in both trees and within max(X, K x spread)
relative; a CSV field may also move by one unit in its twelfth
significant digit, the precision it prints.  So flagged (nan) rows,
verdicts and messages stay exact, and a field moves only as far as
rounding-level noise in the frequency response already moves it.  The
report lists the commands outside that gate, and the largest ratio of a
field's difference to its spread.  A mimo command's certificate, its
"delta_worst" and "certificate" results, is judged by validity there,
not by value: with more than one worst-case perturbation, two trees may
find different ones.  When the change's certificate is valid (see
certificate_valid), those fields pass whatever their values; otherwise
they take the gate like any other field.  alpha_upper, the size of the
certificate, always takes it.
Uses the stdlib and numpy only (numpy through bench/workloads.py and
bench/oracles.py).
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

SEEDS = (1, 2, 3)
# for --noise: the least relative noise add_noise puts on each value of
# the parent's frequency responses, and the number of noisy parent runs
NOISE = 1e-13
DRAWS = 4
TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')
CSV_HEADER = re.compile(r"\w+(?:,\w+)*")
# a number not glued to a word: JSON and CSV fields, and numbers in messages
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])|\b(?:inf|nan|Infinity|NaN)\b"
)


def add_noise(draw):
    """Multiply every value dmkit's freq_response returns by 1 + level u,
    u drawn per value from numpy.random.default_rng(draw) with both parts
    uniform in [-1, 1], in each dmkit module that holds the function.
    level is NOISE, plus, for a state-space model at a finite w,
    eps (|w| + ||A||_F) / min_k |jw - lam_k| over the eigenvalues lam_k
    of A: to first order, the relative error a backward-stable solve of
    jwI - A may make there."""
    import numpy as np

    exact = sys.modules["dmkit.lti"].freq_response
    rng = np.random.default_rng(draw)

    def noisy(m, ws):
        vals, ok = exact(m, ws)
        level = np.full(len(vals), NOISE)
        r = getattr(m, "representation", m)
        if hasattr(r, "A") and r.A.size:
            w = np.asarray(ws, dtype=float).reshape(-1)
            fin = np.isfinite(w)
            # finite w only: 1j * inf is nan + inf j, with a RuntimeWarning
            dist = np.abs(1j * w[fin, None] - np.linalg.eigvals(r.A)).min(axis=1)
            level[fin] += np.finfo(float).eps * (np.abs(w[fin]) + np.linalg.norm(r.A)) / dist
        u = rng.uniform(-1.0, 1.0, vals.shape) + 1j * rng.uniform(-1.0, 1.0, vals.shape)
        return vals * (1.0 + level.reshape((-1,) + (1,) * (vals.ndim - 1)) * u), ok

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dmkit" and getattr(module, "freq_response", None) is exact:
            module.freq_response = noisy


def certificate_valid(cmd, text):
    """Whether a mimo command's output carries a valid certificate: with M0
    rebuilt by bench/oracles._m0 from the model file at the output's
    omega_crit, |det(I - M0 delta)| is at most 1e-12 max(1, ||M0||_F),
    and max |delta_i| equals alpha_upper within 1e-12 relative.  None for
    other output, and where omega_crit is not finite (_m0 evaluates
    finite frequencies only)."""
    import numpy as np
    import oracles

    res = results_of(text)
    if (cmd.argv[0] != "mimo" or not isinstance(res, dict) or not res.get("delta_worst")
            or not math.isfinite(float(res["omega_crit"]))):
        return None
    deltas = np.array([complex(float(d["delta"]["re"]), float(d["delta"]["im"]))
                       for d in res["delta_worst"]])
    points = cmd.argv[cmd.argv.index("--points") + 1]
    M0 = oracles._m0(cmd.model, points, oracles._skew(cmd.argv), float(res["omega_crit"]))
    if M0.shape != (len(deltas), len(deltas)):
        return False
    resid = abs(np.linalg.det(np.eye(len(deltas)) - M0 @ np.diag(deltas)))
    alpha = float(res["alpha_upper"])
    size = float(np.max(np.abs(deltas)))
    return bool(resid <= 1e-12 * max(1.0, np.linalg.norm(M0))
                and abs(size - alpha) <= 1e-12 * alpha)


def run_tree(tree, out_path, draw=None):
    """Run every command in this process, which sits in tree; write a JSON
    list of {key, code, stdout, stderr, certificate} to out_path, where
    certificate is certificate_valid of the output.  With a draw, the
    frequency responses carry that draw's noise."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import dmkit.cli
    import workloads

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(dmkit.cli.__file__).startswith(src + os.sep):
        raise SystemExit("dmkit was imported from {}, not {}".format(dmkit.cli.__file__, src))
    if draw is not None:
        add_noise(draw)
    results = []
    with tempfile.TemporaryDirectory() as work:

        def clean(text):
            text = TIMESTAMP.sub('"generated_at": ""', text)
            return text.replace(work, "<work>").replace(tree, "<tree>")

        for seed in SEEDS:
            for name in workloads.WORKLOADS:
                workdir = os.path.join(work, "{}-{}".format(name, seed))
                for cmd in workloads.generate(name, seed, workdir):
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = dmkit.cli.main(cmd.argv)
                    except Exception as e:  # a command that raises is a difference to report
                        code = "{}: {}".format(type(e).__name__, e)
                    results.append({"key": clean(cmd.key), "code": code,
                                    "stdout": clean(out.getvalue()),
                                    "stderr": clean(err.getvalue()),
                                    "certificate": certificate_valid(cmd, out.getvalue())})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def collect(tree, out_path, draw=None):
    tree = os.path.abspath(tree)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    extra = [] if draw is None else [str(draw)]
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", tree, out_path, *extra],
                   cwd=tree, env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def nonblank_lines(tree):
    """Non-blank lines of the .py files under tree/src/dmkit, the count
    bench/run.py records."""
    n = 0
    for dirpath, _dirs, files in os.walk(os.path.join(tree, "src", "dmkit")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    n += sum(1 for line in fh if line.strip())
    return n


def relative(x, y):
    """Relative difference of two number fields, inf where they differ and
    one is not finite."""
    fx, fy = float(x), float(y)
    if fx == fy:
        return 0.0
    if math.isfinite(fx) and math.isfinite(fy):
        return abs(fx - fy) / max(abs(fx), abs(fy))
    return math.inf


def compare_numbers(a, b):
    """(byte-identical fields, differing fields, largest relative
    difference), or None when the text around the numbers differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    same = diff = 0
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if x == y:
            same += 1
            continue
        diff += 1
        worst = max(worst, relative(x, y))
    return same, diff, worst


def noise_spreads(parent, draws):
    """Per command, the largest relative move of each numeric field of the
    parent's stdout over the noisy draws whose exit code, stderr and text
    around the numbers match the parent's."""
    spreads = []
    for i, p in enumerate(parent):
        fields = NUMBER.findall(p["stdout"])
        spread = [0.0] * len(fields)
        for q in (runs[i] for runs in draws):
            if (q["code"], q["stderr"]) != (p["code"], p["stderr"]) or (
                    NUMBER.split(q["stdout"]) != NUMBER.split(p["stdout"])):
                continue
            for j, y in enumerate(NUMBER.findall(q["stdout"])):
                rel = relative(fields[j], y)
                if math.isfinite(rel):
                    spread[j] = max(spread[j], rel)
        spreads.append(spread)
    return spreads


def noise_moves(a, b, spread):
    """(relative difference, spread) of each numeric field of b that
    differs from a's in value.  CSV output prints 12 significant digits,
    so the noisy runs cannot show a spread below one unit in the twelfth;
    a CSV field that moved by at most that much is left out."""
    csv = csv_table(a) is not None
    moves = []
    for x, y, sp in zip(NUMBER.findall(a), NUMBER.findall(b), spread):
        rel = relative(x, y)
        if not rel:
            continue
        size = max(abs(float(x)), abs(float(y)))
        if not (csv and rel < math.inf and
                abs(float(x) - float(y)) <= 1.5 * 10.0 ** (math.floor(math.log10(size)) - 11)):
            moves.append((rel, sp))
    return moves


def with_certificate_of(text, source):
    """text with the values of its delta_worst and certificate keys replaced
    by source's (each key once in both), so that those fields compare as
    equal."""
    decoder = json.JSONDecoder()
    for key in ("delta_worst", "certificate"):
        mark = '"{}": '.format(key)
        if text.count(mark) != 1 or source.count(mark) != 1:
            continue
        i, j = text.index(mark) + len(mark), source.index(mark) + len(mark)
        end_i, end_j = decoder.raw_decode(text, i)[1], decoder.raw_decode(source, j)[1]
        text = text[:i] + source[j:end_j] + text[end_i:]
    return text


def results_of(text):
    """The "results" object of a JSON document, or None for other output."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc.get("results") if isinstance(doc, dict) else None


def largest_det_residual(runs):
    """The largest results.certificate.det_residual among the commands
    whose output carries one (the mimo commands), or nan if none does."""
    residuals = []
    for r in runs:
        res = results_of(r["stdout"])
        cert = res.get("certificate") if isinstance(res, dict) else None
        if isinstance(cert, dict):
            residuals.append(float(cert["det_residual"]))
    return max(residuals, default=math.nan)


def largest_peak_fall(pairs):
    """(largest relative fall of results.peak_gain.value from the parent
    to the change, key of its command) over the (key, parent stdout,
    change stdout) triples; (0.0, None) when no value fell."""
    worst, worst_key = 0.0, None
    for key, a, b in pairs:
        ra, rb = results_of(a), results_of(b)
        try:
            va, vb = float(ra["peak_gain"]["value"]), float(rb["peak_gain"]["value"])
        except (TypeError, KeyError):
            continue
        if vb < va and relative(va, vb) > worst:
            worst, worst_key = relative(va, vb), key
    return worst, worst_key


def largest_alpha_ratio(runs):
    """The largest results.alpha_upper / min(results.loop_at_a_time
    alpha_max) among the commands whose output carries both (the mimo
    commands), or nan if none does."""
    ratios = []
    for r in runs:
        res = results_of(r["stdout"])
        if isinstance(res, dict) and "alpha_upper" in res and res.get("loop_at_a_time"):
            single = min(float(row["alpha_max"]) for row in res["loop_at_a_time"])
            ratios.append(float(res["alpha_upper"]) / single)
    return max(ratios, default=math.nan)


def results_breakdown(pairs):
    """{key: [commands differing, largest relative difference]} over the
    "results" keys of the (parent, change) stdout pairs."""
    keys = {}
    for a, b in pairs:
        ra, rb = results_of(a), results_of(b)
        if not isinstance(ra, dict) or not isinstance(rb, dict):
            continue
        for key in sorted(set(ra) | set(rb)):
            va = json.dumps(ra.get(key), sort_keys=True)
            vb = json.dumps(rb.get(key), sort_keys=True)
            if va == vb:
                continue
            numbers = compare_numbers(va, vb)
            entry = keys.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], math.inf if numbers is None else numbers[2])
    return keys


def csv_table(text):
    """(column names, rows of fields) of CSV output whose first line names
    its columns, or None for other output."""
    lines = text.splitlines()
    if not lines or not CSV_HEADER.fullmatch(lines[0]):
        return None
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return (names, rows) if all(len(row) == len(names) for row in rows) else None


def columns_breakdown(pairs):
    """{column: [commands differing, fields differing, largest relative
    difference]} over the CSV columns of the (parent, change) stdout
    pairs whose tables have the same columns and row count."""
    columns = {}
    for a, b in pairs:
        ta, tb = csv_table(a), csv_table(b)
        if ta is None or tb is None or ta[0] != tb[0] or len(ta[1]) != len(tb[1]):
            continue
        for j, name in enumerate(ta[0]):
            rels = []
            for x, y in ((ra[j], rb[j]) for ra, rb in zip(ta[1], tb[1]) if ra[j] != rb[j]):
                numbers = compare_numbers(x, y)
                rels.append(math.inf if numbers is None else numbers[2])
            if rels:
                entry = columns.setdefault(name, [0, 0, 0.0])
                entry[0] += 1
                entry[1] += len(rels)
                entry[2] = max(entry[2], max(rels))
    return columns


def main(argv):
    if len(argv) in (3, 4) and argv[0] == "--worker":
        run_tree(argv[1], argv[2], int(argv[3]) if len(argv) == 4 else None)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="largest relative difference a numeric field may show (default 0: exact)")
    ap.add_argument("--noise", type=float, metavar="K",
                    help="let a numeric field move up to K times its spread under noise "
                         "in the parent's frequency responses (default: off)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent = collect(args.parent, os.path.join(tmp, "parent.json"))
        change = collect(args.change, os.path.join(tmp, "change.json"))
        if args.noise is not None:
            spreads = noise_spreads(parent, [
                collect(args.parent, os.path.join(tmp, "draw.json"), draw) for draw in range(DRAWS)])
    if [r["key"] for r in parent] != [r["key"] for r in change]:
        print("the two trees generate different commands")
        return 1
    same = diff = 0
    worst, worst_key = 0.0, None
    ratio, ratio_key = 0.0, None
    by_validity = 0
    differing, outside = [], []
    for i, (p, c) in enumerate(zip(parent, change)):
        what = [f for f in ("code", "stderr", "stdout") if p[f] != c[f]]
        numbers = compare_numbers(p["stdout"], c["stdout"])
        if numbers is None:
            what.append("text outside numeric fields")
        if what:
            differing.append("{}: {}".format(p["key"], ", ".join(what)))
        # without --rtol or --noise, only byte-identical output passes
        close = numbers is not None and (
            numbers[2] <= args.rtol if args.rtol else p["stdout"] == c["stdout"])
        if args.noise is not None and numbers is not None:
            judged = c["stdout"]
            if c["certificate"] and p["stdout"] != c["stdout"]:
                judged = with_certificate_of(judged, p["stdout"])
                by_validity += 1
            moves = noise_moves(p["stdout"], judged, spreads[i])
            close = all(rel <= max(args.rtol, args.noise * sp) for rel, sp in moves)
            for rel, sp in moves:
                r = rel / sp if sp else math.inf
                if r > ratio:
                    ratio, ratio_key = r, p["key"]
        if p["code"] != c["code"] or p["stderr"] != c["stderr"] or not close:
            outside.append(p["key"])
        if numbers is None:
            continue
        same += numbers[0]
        diff += numbers[1]
        if numbers[2] > worst:
            worst, worst_key = numbers[2], p["key"]
    print("commands: {}".format(len(parent)))
    print("commands that differ: {}".format(len(differing)))
    for line in differing:
        print("  " + line)
    print("numeric fields: {} byte-identical, {} differing".format(same, diff))
    print("largest relative difference: {:.3g}{}".format(
        worst, " ({})".format(worst_key) if worst_key else ""))
    breakdown = results_breakdown((p["stdout"], c["stdout"]) for p, c in zip(parent, change))
    print("results keys that differ: {}".format(len(breakdown)))
    for key, (count, rel) in sorted(breakdown.items()):
        print("  {}: {} commands, largest relative difference {:.3g}".format(key, count, rel))
    columns = columns_breakdown((p["stdout"], c["stdout"]) for p, c in zip(parent, change))
    print("csv columns that differ: {}".format(len(columns)))
    for name, (count, fields, rel) in sorted(columns.items()):
        print("  {}: {} commands, {} fields, largest relative difference {:.3g}".format(
            name, count, fields, rel))
    fall, fall_key = largest_peak_fall((p["key"], p["stdout"], c["stdout"]) for p, c in zip(parent, change))
    print("largest relative fall of peak_gain.value: {:.3g}{}".format(
        fall, " ({})".format(fall_key) if fall_key else ""))
    print("largest mimo certificate det_residual: {:.3g} -> {:.3g}".format(
        largest_det_residual(parent), largest_det_residual(change)))
    print("largest mimo alpha_upper / min loop-at-a-time alpha_max: {!r} -> {!r}".format(
        largest_alpha_ratio(parent), largest_alpha_ratio(change)))
    print("src/dmkit non-blank lines: {} -> {}".format(
        nonblank_lines(args.parent), nonblank_lines(args.change)))
    if args.noise is not None:
        print("largest difference / spread over {} noisy parent runs: {:.3g}{}".format(
            DRAWS, ratio, " ({})".format(ratio_key) if ratio_key else ""))
        print("differing mimo commands whose certificate passed as valid: {} of {}".format(
            by_validity, sum(1 for p, c in zip(parent, change)
                             if c["certificate"] is not None and p["stdout"] != c["stdout"])))
        print("commands outside max(rtol {:g}, {:g} x spread): {}".format(
            args.rtol, args.noise, len(outside)))
    elif args.rtol:
        print("commands outside rtol {:g}: {}".format(args.rtol, len(outside)))
    if args.rtol or args.noise is not None:
        for key in outside:
            print("  " + key)
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
