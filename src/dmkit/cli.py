"""Command line front end.

    dmkit classical  model.json [--out PATH]
    dmkit diskmargin model.json [--skew R] [--out PATH] [--worst-case]
    dmkit trace      model.json [--skew R] [--out PATH] [--format json|csv] [--grid N|lo:hi:N]
    dmkit mimo       model.json [--skew R] [--out PATH] [--points input|output|io|LIST]
    dmkit exclusion  model.json [--skew R] [--out SAMPLES_CSV]

Model files are JSON: {"model": {"tf": {"num": [...], "den": [...]}}},
optionally with "feedback": "negative"|"positive", a "controller" in the
same shapes, and "tfm" (matrix of tf entries) or "ss" (A, B, C, D) in
place of "tf".

main is the one driver.  It parses the arguments, loads the model file
(_load_model_file), builds the SISO loop for every command but mimo, and
runs the command: a cmd_* function that returns (options, results,
diagnostics), or the CSV text for trace --format csv.  The driver turns
the three into the output document (_document), whose encoder (_plain)
writes every number, and sends it to stdout or to --out.  exclusion's
--out names its samples CSV instead; its document always goes to stdout.
The document is byte-stable across runs except for its timestamp.

Exit codes, mapped from the DmkitError raised: 0 success, 1 bad input
or unsupported geometry (InputError), 2 analysis not defined for this
loop, unstable or ill posed (DomainError), 3 numerical failure (any
other DmkitError).
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__
from .classical import classical_margins, critical_distance
from .disk import (
    disk_map,
    disk_margin,
    freq_margin_trace,
    nyquist_exclusion,
    verify_destabilizing,
    worst_perturbation_lti,
)
from .errors import ConstructionError, DmkitError, DomainError, InputError
# eval_freq stays bound here: bench/selftest.py checks through cli.eval_freq
# that the tracer restores the names it wraps
from .lti import LtiModel, StateSpace, TransferFunction, eval_freq, freq_response  # noqa: F401
from .multiloop import build_m, multiloop_margin, single_loop_margins, siso_loop
from .specnorm import FrequencyGrid, default_grid

SCHEMA_VERSION = 1


def _plain(x):
    """x as JSON holds it: a non-finite float as the string "nan", "inf"
    or "-inf", a complex number as {"re", "im"}, an array or tuple as a
    list, dicts and lists item by item; anything else as it is."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, complex):
        return {"re": _plain(x.real), "im": _plain(x.imag)}
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _gain_field(x):
    """Absolute gain plus a dB convenience value, omitted at 0 and inf."""
    out = {"abs": x}
    if math.isfinite(x) and x > 0.0:
        out["db"] = 20.0 * math.log10(x)
    return out


def _angle_field(x):
    return {"radians": x, "degrees": math.degrees(x)}


def _classical_fields(cm):
    """The gain interval and phase margin of a ClassicalMargins."""
    return {
        "g_lower": _gain_field(cm.g_lower),
        "g_upper": _gain_field(cm.g_upper),
        "phi_upper": _angle_field(cm.phi_upper),
    }


def _disk_fields(prefix, r):
    """The guaranteed gain pair and phase margin of a disk or multiloop
    result r, as prefix_gm and prefix_pm."""
    lo, hi = r.guaranteed_gm
    return {
        prefix + "_gm": {"lower": _gain_field(lo), "upper": _gain_field(hi)},
        prefix + "_pm": _angle_field(r.guaranteed_pm),
    }


def _geometry_fields(g):
    if g is None:
        return None
    return {**dataclasses.asdict(g), "phi_max": _angle_field(g.phi_max)}


def _gamma_m(lo, hi):
    """Symmetric gain margin min(1/lo, hi) of gain intervals (lo, hi), 1/0 = inf;
    nan where lo and hi are (a flagged trace row)."""
    with np.errstate(divide="ignore"):
        inv = np.where(lo > 0.0, np.divide(1.0, lo), math.inf)
    return np.minimum(hi, inv)


def _parse_tf_entry(obj, what):
    try:
        return TransferFunction(obj["num"], obj["den"])
    except (KeyError, TypeError) as e:
        raise InputError("{} must be an object with num and den arrays".format(what)) from e


def _parse_model(obj, feedback, what):
    if not isinstance(obj, dict):
        raise InputError("{} must be a JSON object".format(what))
    keys = [k for k in ("tf", "tfm", "ss") if k in obj]
    if len(keys) != 1:
        raise InputError("{} must contain exactly one of tf, tfm, ss".format(what))
    kind = keys[0]
    if kind == "tf":
        rep = _parse_tf_entry(obj["tf"], "{}.tf".format(what))
    elif kind == "tfm":
        rows = obj["tfm"]
        if not isinstance(rows, list) or not rows:
            raise InputError("{}.tfm must be a non-empty matrix".format(what))
        rep = [
            [_parse_tf_entry(e, "{}.tfm[{}][{}]".format(what, i, j)) for j, e in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    else:
        s = obj["ss"]
        try:
            rep = StateSpace(s["A"], s["B"], s["C"], s["D"])
        except (KeyError, TypeError) as e:
            raise InputError("{}.ss must contain A, B, C, D".format(what)) from e
    return LtiModel(rep, feedback)


def _resolve_path(path):
    if os.path.exists(path):
        return path
    if os.sep not in path:
        bundled = resources.files("dmkit").joinpath("examples", path)
        if bundled.is_file():
            return str(bundled)
    raise InputError("model file not found: {}".format(path))


def _load_model_file(path):
    path = _resolve_path(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError("model file is not valid JSON: {}".format(e)) from e
    if not isinstance(doc, dict) or "model" not in doc:
        raise InputError("model file must be an object with a 'model' entry")
    feedback = doc.get("feedback", "negative")
    if feedback not in ("negative", "positive"):
        raise InputError("feedback must be 'negative' or 'positive'")
    P = _parse_model(doc["model"], feedback, "model")
    K = _parse_model(doc["controller"], feedback, "controller") if "controller" in doc else None
    return P, K, path, digest


def _document(command, path, digest, options, results, diagnostics):
    """The JSON text of a command's output document."""
    return json.dumps(_plain({
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "dmkit", "version": __version__},
        "command": command,
        "generated_at": datetime.now(timezone.utc).replace(microsecond=0).isoformat(),
        "input": {"path": path, "sha256": digest},
        "options": options,
        "results": results,
        "diagnostics": diagnostics,
    }), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classical(args, P, K, L):
    cm = classical_margins(L)
    results = {
        **_classical_fields(cm),
        "gain_crossover_freqs": cm.gain_crossover_freqs,
        "phase_crossover_freqs": cm.phase_crossover_freqs,
        "critical_gain_freq": cm.critical_gain_freq,
        "critical_phase_freq": cm.critical_phase_freq,
    }
    diagnostics = [
        "additional stable gain interval (%.12g, %.12g) disconnected from g = 1" % interval
        for interval in cm.extra_stable_gain_intervals
    ]
    return {}, results, diagnostics


def cmd_diskmargin(args, P, K, L):
    d = disk_margin(L, args.skew)
    results = {
        "skew": args.skew,
        "alpha_max": d.spec.alpha,
        "omega_crit": d.omega_crit,
        "peak_gain": {"value": d.peak_gain.value, "frequency": d.peak_gain.frequency},
        "delta0": d.delta0,
        "f0": d.f0,
        "geometry": _geometry_fields(d.geometry),
        **_disk_fields("guaranteed", d),
        "gamma_m": _gamma_m(*d.guaranteed_gm),
    }
    diagnostics = []
    if args.skew == 1.0:
        dist = critical_distance(L)
        results["sensitivity_consistency"] = {
            "min_dist_to_critical": dist,
            "alpha_max": d.spec.alpha,
            "rel_diff": abs(dist - d.spec.alpha) / max(d.spec.alpha, 1e-300),
        }
    if args.worst_case:
        if d.delta0 is None:
            diagnostics.append(
                "the margin is unbounded at this skew; no perturbation destabilizes the loop"
            )
        elif d.f0 == math.inf:
            diagnostics.append(
                "critical perturbation switches the loop off (f0 is infinite); "
                "no destabilizing LTI closure exists at this skew"
            )
        else:
            try:
                pert = worst_perturbation_lti(d.delta0, d.omega_crit, args.skew)
            except ConstructionError as e:
                results["worst_case"] = {"error": str(e)}
                diagnostics.append("worst-case construction failed: {}".format(e))
            else:
                rep = verify_destabilizing(L, pert, d.omega_crit)
                results["worst_case"] = {
                    "delta_hat": {"num": pert.delta_hat.num.coeffs, "den": pert.delta_hat.den.coeffs},
                    "f_hat": {"num": pert.f_hat.num.coeffs, "den": pert.f_hat.den.coeffs},
                    "beta": pert.beta,
                    "verification": {"verdict": rep.verdict, "pole": rep.pole, "distance": rep.distance},
                }
                diagnostics.extend(rep.messages)
    return {"skew": args.skew, "worst_case": args.worst_case}, results, diagnostics


def _parse_grid(spec_str, L):
    if spec_str is None:
        return default_grid(L, 400)
    parts = spec_str.split(":")
    try:
        if len(parts) == 1:
            return default_grid(L, int(parts[0]))
        if len(parts) == 3:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            if not (0.0 < lo < hi) or n < 2:
                raise InputError("grid range needs 0 < lo < hi and n >= 2")
            return FrequencyGrid(np.geomspace(lo, hi, n))
    except ValueError as e:
        raise InputError("bad --grid {!r}: use N or lo:hi:N".format(spec_str)) from e
    raise InputError("bad --grid {!r}: use N or lo:hi:N".format(spec_str))


TRACE_COLUMNS = ("omega", "alpha", "gamma_min", "gamma_max", "gamma_m", "phi_m_deg")


def _csv_text(columns, table):
    """CSV with a header line and one "%.12g" field per value of the
    (N, len(columns)) float array table (nan, inf and -inf print as such)."""
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + row * len(table) % tuple(table.ravel().tolist())


def _trace_table(tr):
    """The trace as an (N, 6) float array in TRACE_COLUMNS order; a flagged
    row is nan after omega."""
    alpha, (lo, hi), pm = tr.alpha_of_omega, tr.gm_of_omega.T, tr.pm_of_omega
    return np.column_stack([tr.grid.points, alpha, lo, hi, _gamma_m(lo, hi),
                            np.where(np.isfinite(pm), np.degrees(pm), pm)])


def cmd_trace(args, P, K, L):
    tr = freq_margin_trace(L, args.skew, _parse_grid(args.grid, L))
    table = _trace_table(tr)
    if args.format == "csv":
        return _csv_text(TRACE_COLUMNS, table)
    diagnostics = []
    if tr.flagged:
        diagnostics.append(
            "samples at grid indices {} hit a pole and were flagged".format(list(tr.flagged))
        )
    options = {"skew": args.skew, "grid": args.grid or "400"}
    return options, {"skew": args.skew, "columns": TRACE_COLUMNS, "rows": table}, diagnostics


def _points_argument(raw):
    if raw in ("input", "output", "io"):
        return raw
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError as e:
        raise InputError(
            "--points must be input, output, io, or a comma-separated channel list"
        ) from e


def cmd_mimo(args, P, K, L):
    sys_md = build_m(P, K, _points_argument(args.points), args.skew)
    res = multiloop_margin(sys_md)
    results = {
        "points": args.points,
        "skew": args.skew,
        "alpha_lower": res.alpha_lower,
        "alpha_upper": res.alpha_upper,
        "omega_crit": res.omega_crit,
        **_disk_fields("guaranteed", res),
        "geometry": _geometry_fields(res.geometry),
        "delta_worst": [],
    }
    if res.delta_worst is not None:
        deltas = np.diag(res.delta_worst)
        results["delta_worst"] = [{"delta": d, "f": disk_map(complex(d), args.skew)} for d in deltas]
        results["certificate"] = {
            "det_residual": abs(np.linalg.det(np.eye(sys_md.n) - res.m0 @ res.delta_worst)),
            "delta_norm": np.max(np.abs(deltas)),
        }
    table = []
    m = P.ninputs
    for i, (cm, dm) in zip(sys_md.points, single_loop_margins(sys_md)):
        loc, ch = ("input", i) if i < m else ("output", i - m)
        table.append({
            "location": loc,
            "channel": ch + 1,
            **_classical_fields(cm),
            "alpha_max": dm.spec.alpha,
            **_disk_fields("disk", dm),
        })
    results["loop_at_a_time"] = table
    diagnostics = []
    if res.inconclusive_gap:
        diagnostics.append(
            "mu bracket gap exceeds 10 percent; the margin location is inconclusive"
        )
    if not res.converged:
        diagnostics.append(
            "mu lower-bound search at omega_crit did not converge; alpha_upper may be loose"
        )
    return {"points": args.points, "skew": args.skew}, results, diagnostics


def cmd_exclusion(args, P, K, L):
    d = disk_margin(L, args.skew)
    ex = nyquist_exclusion(d)
    results = {
        "skew": args.skew,
        "alpha_max": d.spec.alpha,
        "omega_crit": d.omega_crit,
        "center": ex.center,
        "radius": ex.radius,
        "intercepts": ex.intercepts,
    }
    diagnostics = []
    if d.f0 == math.inf:
        results["tangency"] = None
        diagnostics.append("f0 is infinite; no finite tangency point")
    else:
        results["tangency"] = -1.0 / d.f0
    if args.skew == 1.0:
        results["sensitivity_consistency"] = {
            "min_dist_to_critical": critical_distance(L),
            "radius": ex.radius,
        }
    if args.samples_csv:
        ws = np.asarray(default_grid(L, 1024).finite)
        vals, ok = freq_response(L, ws)
        samples = np.column_stack([ws[ok], vals[ok].real, vals[ok].imag])
        _emit(_csv_text(("omega", "re_L", "im_L"), samples), args.samples_csv)
        results["samples_csv"] = args.samples_csv
    return {"skew": args.skew}, results, diagnostics


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dmkit",
        description="Classical and disk-based stability margins of LTI feedback loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, skew=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("model", help="model file (JSON); bundled example names also work")
        if skew:
            p.add_argument("--skew", type=float, default=0.0,
                           help="disk skew sigma (default 0, symmetric)")
        return p

    def out(p):
        p.add_argument("--out", default=None, help="write output to this path")

    p = command("classical", cmd_classical, "gain and phase margins", skew=False)
    out(p)

    p = command("diskmargin", cmd_diskmargin, "largest tolerated perturbation disk")
    out(p)
    p.add_argument("--worst-case", action="store_true",
                   help="add the first-order destabilizing perturbation and verify it")

    p = command("trace", cmd_trace, "margins frequency by frequency")
    out(p)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--grid", default=None, help="N points, or lo:hi:N")

    p = command("mimo", cmd_mimo, "simultaneous multi-loop margins")
    out(p)
    p.add_argument("--points", default="input",
                   help="input, output, io, or comma-separated channel indices")

    # the document stays on stdout; --out names the samples CSV
    p = command("exclusion", cmd_exclusion, "Nyquist exclusion disk")
    p.add_argument("--out", dest="samples_csv", default=None,
                   help="write the Nyquist samples CSV to this path")
    p.set_defaults(out=None)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        # the analyses flag the non-finite values they meet themselves
        with np.errstate(all="ignore"):
            P, K, path, digest = _load_model_file(args.model)
            L = None if args.command == "mimo" else siso_loop(P, K)
            out = args.func(args, P, K, L)
            text = out if isinstance(out, str) else _document(args.command, path, digest, *out)
        _emit(text, args.out)
    except DmkitError as e:
        print("error: {}".format(e), file=sys.stderr)
        return 1 if isinstance(e, InputError) else 2 if isinstance(e, DomainError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
