"""Command line front end.

    dmkit classical  model.json
    dmkit diskmargin model.json [--skew R] [--worst-case]
    dmkit trace      model.json [--skew R] [--grid N|lo:hi:N] [--format json|csv] [--out PATH]
    dmkit mimo       model.json [--points input|output|io|LIST] [--skew R]
    dmkit exclusion  model.json [--skew R] [--out SAMPLES_CSV]

Model files are JSON: {"model": {"tf": {"num": [...], "den": [...]}}},
optionally with "feedback": "negative"|"positive", a "controller" in the
same shapes, and "tfm" (matrix of tf entries) or "ss" (A, B, C, D) in
place of "tf".  Results go to stdout as a JSON document (trace defaults
to CSV) that is byte-stable across runs except for its timestamp.

Exit codes: 0 success, 1 bad input or unsupported geometry,
2 analysis not defined for this loop (unstable or ill posed),
3 numerical failure.
"""

import argparse
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


def _jnum(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _jcomplex(z):
    if z is None:
        return None
    if isinstance(z, (int, float)) and math.isinf(z):
        return "inf"
    z = complex(z)
    return {"re": _jnum(z.real), "im": _jnum(z.imag)}


def _gain_field(x):
    """Absolute gain plus a dB convenience value, omitted at 0 and inf."""
    out = {"abs": _jnum(x)}
    if x is not None and math.isfinite(x) and x > 0.0:
        out["db"] = _jnum(20.0 * math.log10(x))
    return out


def _angle_field(x):
    out = {"radians": _jnum(x)}
    if x is not None and math.isfinite(x):
        out["degrees"] = _jnum(math.degrees(x))
    else:
        out["degrees"] = _jnum(x)
    return out


def _geometry_fields(g):
    if g is None:
        return None
    return {
        "gamma_min": _jnum(g.gamma_min),
        "gamma_max": _jnum(g.gamma_max),
        "center": _jnum(g.center),
        "radius": _jnum(g.radius),
        "phi_max": _angle_field(g.phi_max),
        "kind": g.kind,
    }


def _gamma_m(lo, hi):
    """Symmetric gain margin min(1/lo, hi) of gain intervals (lo, hi), 1/0 = inf."""
    with np.errstate(divide="ignore"):
        inv = np.where(lo > 0.0, np.divide(1.0, lo), math.inf)
    return np.where(hi < inv, hi, inv)


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
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "dmkit", "version": __version__},
        "command": command,
        "generated_at": datetime.now(timezone.utc).replace(microsecond=0).isoformat(),
        "input": {"path": path, "sha256": digest},
        "options": options,
        "results": results,
        "diagnostics": list(diagnostics),
    }


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classical(args):
    P, K, path, digest = _load_model_file(args.model)
    L = siso_loop(P, K)
    cm = classical_margins(L)
    results = {
        "g_lower": _gain_field(cm.g_lower),
        "g_upper": _gain_field(cm.g_upper),
        "phi_upper": _angle_field(cm.phi_upper),
        "gain_crossover_freqs": [_jnum(w) for w in cm.gain_crossover_freqs],
        "phase_crossover_freqs": [_jnum(w) for w in cm.phase_crossover_freqs],
        "critical_gain_freq": _jnum(cm.critical_gain_freq),
        "critical_phase_freq": _jnum(cm.critical_phase_freq),
    }
    diagnostics = []
    for lo, hi in cm.extra_stable_gain_intervals:
        diagnostics.append(
            "additional stable gain interval (%.12g, %.12g) disconnected from g = 1" % (lo, hi)
        )
    _emit(_document("classical", path, digest, {}, results, diagnostics), args.out)
    return 0


def cmd_diskmargin(args):
    P, K, path, digest = _load_model_file(args.model)
    L = siso_loop(P, K)
    d = disk_margin(L, args.skew)
    gm_lo, gm_hi = d.guaranteed_gm
    results = {
        "skew": _jnum(args.skew),
        "alpha_max": _jnum(d.spec.alpha),
        "omega_crit": _jnum(d.omega_crit),
        "peak_gain": {"value": _jnum(d.peak_gain.value), "frequency": _jnum(d.peak_gain.frequency)},
        "delta0": _jcomplex(d.delta0),
        "f0": _jcomplex(d.f0),
        "geometry": _geometry_fields(d.geometry),
        "guaranteed_gm": {"lower": _gain_field(gm_lo), "upper": _gain_field(gm_hi)},
        "guaranteed_pm": _angle_field(d.guaranteed_pm),
        "gamma_m": _jnum(_gamma_m(gm_lo, gm_hi)),
    }
    diagnostics = []
    if args.skew == 1.0:
        dist = critical_distance(L)
        rel = abs(dist - d.spec.alpha) / max(d.spec.alpha, 1e-300)
        results["sensitivity_consistency"] = {
            "min_dist_to_critical": _jnum(dist),
            "alpha_max": _jnum(d.spec.alpha),
            "rel_diff": _jnum(rel),
        }
    if args.worst_case:
        if d.f0 == math.inf:
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
                    "delta_hat": {
                        "num": [_jnum(c) for c in pert.delta_hat.num.coeffs],
                        "den": [_jnum(c) for c in pert.delta_hat.den.coeffs],
                    },
                    "f_hat": {
                        "num": [_jnum(c) for c in pert.f_hat.num.coeffs],
                        "den": [_jnum(c) for c in pert.f_hat.den.coeffs],
                    },
                    "beta": _jnum(pert.beta) if pert.beta is not None else None,
                    "verification": {
                        "verdict": rep.verdict,
                        "pole": _jcomplex(rep.pole),
                        "distance": _jnum(rep.distance),
                    },
                }
                diagnostics.extend(rep.messages)
    _emit(_document("diskmargin", path, digest, {"skew": _jnum(args.skew), "worst_case": bool(args.worst_case)}, results, diagnostics), args.out)
    return 0


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
            return FrequencyGrid(tuple(np.geomspace(lo, hi, n)))
    except ValueError as e:
        raise InputError("bad --grid {!r}: use N or lo:hi:N".format(spec_str)) from e
    raise InputError("bad --grid {!r}: use N or lo:hi:N".format(spec_str))


TRACE_COLUMNS = ("omega", "alpha", "gamma_min", "gamma_max", "gamma_m", "phi_m_deg")


def _csv_text(columns, rows):
    """CSV with a header line and one "%.12g" field per value (nan, inf
    and -inf print as such)."""
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + "".join(fmt % row for row in rows)


def _trace_rows(tr):
    # a flagged row is nan after omega
    alpha, pm = np.array(tr.alpha_of_omega), np.array(tr.pm_of_omega)
    lo, hi = np.array(tr.gm_of_omega).reshape(-1, 2).T
    rows = np.column_stack([tr.grid.points, alpha, lo, hi, _gamma_m(lo, hi),
                            np.where(np.isfinite(pm), np.degrees(pm), pm)])
    rows[np.isnan(alpha), 1:] = math.nan
    return list(map(tuple, rows.tolist()))


def cmd_trace(args):
    P, K, path, digest = _load_model_file(args.model)
    L = siso_loop(P, K)
    grid = _parse_grid(args.grid, L)
    tr = freq_margin_trace(L, args.skew, grid)
    rows = _trace_rows(tr)
    if args.format == "csv":
        text = _csv_text(TRACE_COLUMNS, rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    results = {
        "skew": _jnum(args.skew),
        "columns": list(TRACE_COLUMNS),
        "rows": [[_jnum(x) for x in row] for row in rows],
    }
    diagnostics = []
    if tr.flagged:
        diagnostics.append(
            "samples at grid indices {} hit a pole and were flagged".format(list(tr.flagged))
        )
    _emit(_document("trace", path, digest, {"skew": _jnum(args.skew), "grid": args.grid or "400"}, results, diagnostics), args.out)
    return 0


def _points_argument(raw):
    if raw in ("input", "output", "io"):
        return raw
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError as e:
        raise InputError(
            "--points must be input, output, io, or a comma-separated channel list"
        ) from e


def cmd_mimo(args):
    P, K, path, digest = _load_model_file(args.model)
    points = _points_argument(args.points)
    sys_md = build_m(P, K, points, args.skew)
    res = multiloop_margin(sys_md)
    deltas = []
    if res.delta_worst is not None:
        for d in np.diag(res.delta_worst):
            deltas.append({"delta": _jcomplex(d), "f": _jcomplex(disk_map(complex(d), args.skew))})
    results = {
        "points": args.points,
        "skew": _jnum(args.skew),
        "alpha_lower": _jnum(res.alpha_lower),
        "alpha_upper": _jnum(res.alpha_upper),
        "omega_crit": _jnum(res.omega_crit),
        "guaranteed_gm": {"lower": _gain_field(res.guaranteed_gm[0]),
                          "upper": _gain_field(res.guaranteed_gm[1])},
        "guaranteed_pm": _angle_field(res.guaranteed_pm),
        "geometry": _geometry_fields(res.geometry),
        "delta_worst": deltas,
    }
    if res.delta_worst is not None:
        resid = abs(np.linalg.det(np.eye(sys_md.n) - res.m0 @ res.delta_worst))
        results["certificate"] = {
            "det_residual": _jnum(resid),
            "delta_norm": _jnum(float(np.max(np.abs(np.diag(res.delta_worst))))),
        }
    table = []
    m = P.ninputs
    for i, (cm, dm) in zip(sys_md.points, single_loop_margins(sys_md)):
        loc, ch = ("input", i) if i < m else ("output", i - m)
        table.append({
            "location": loc,
            "channel": ch + 1,
            "g_lower": _gain_field(cm.g_lower),
            "g_upper": _gain_field(cm.g_upper),
            "phi_upper": _angle_field(cm.phi_upper),
            "alpha_max": _jnum(dm.spec.alpha),
            "disk_gm": {"lower": _gain_field(dm.guaranteed_gm[0]), "upper": _gain_field(dm.guaranteed_gm[1])},
            "disk_pm": _angle_field(dm.guaranteed_pm),
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
    _emit(_document("mimo", path, digest, {"points": args.points, "skew": _jnum(args.skew)}, results, diagnostics), args.out)
    return 0


def cmd_exclusion(args):
    P, K, path, digest = _load_model_file(args.model)
    L = siso_loop(P, K)
    d = disk_margin(L, args.skew)
    ex = nyquist_exclusion(d)
    results = {
        "skew": _jnum(args.skew),
        "alpha_max": _jnum(d.spec.alpha),
        "omega_crit": _jnum(d.omega_crit),
        "center": _jnum(ex.center),
        "radius": _jnum(ex.radius),
        "intercepts": [_jnum(x) for x in ex.intercepts],
    }
    diagnostics = []
    if d.f0 == math.inf:
        results["tangency"] = None
        diagnostics.append("f0 is infinite; no finite tangency point")
    else:
        results["tangency"] = _jcomplex(-1.0 / d.f0)
    if args.skew == 1.0:
        results["sensitivity_consistency"] = {
            "min_dist_to_critical": _jnum(critical_distance(L)),
            "radius": _jnum(ex.radius),
        }
    if args.out:
        ws = np.asarray(default_grid(L, 1024).finite)
        vals, ok = freq_response(L, ws)
        samples = zip(ws[ok].tolist(), vals[ok].real.tolist(), vals[ok].imag.tolist())
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(("omega", "re_L", "im_L"), samples))
        results["samples_csv"] = args.out
    _emit(_document("exclusion", path, digest, {"skew": _jnum(args.skew)}, results, diagnostics), None)
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dmkit",
        description="Classical and disk-based stability margins of LTI feedback loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default=None):
        p.add_argument("model", help="model file (JSON); bundled example names also work")
        p.add_argument("--skew", type=float, default=0.0,
                       help="disk skew sigma (default 0, symmetric)")
        p.add_argument("--out", default=None, help="write output to this path")
        if fmt_default:
            p.add_argument("--format", choices=("json", "csv"), default=fmt_default)

    p = sub.add_parser("classical", help="gain and phase margins")
    p.add_argument("model")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("diskmargin", help="largest tolerated perturbation disk")
    common(p)
    p.add_argument("--worst-case", action="store_true",
                   help="add the first-order destabilizing perturbation and verify it")
    p.set_defaults(func=cmd_diskmargin)

    p = sub.add_parser("trace", help="margins frequency by frequency")
    common(p, fmt_default="csv")
    p.add_argument("--grid", default=None, help="N points, or lo:hi:N")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("mimo", help="simultaneous multi-loop margins")
    common(p)
    p.add_argument("--points", default="input",
                   help="input, output, io, or comma-separated channel indices")
    p.set_defaults(func=cmd_mimo)

    p = sub.add_parser("exclusion", help="Nyquist exclusion disk")
    common(p)
    p.set_defaults(func=cmd_exclusion)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except InputError as e:
        print("error: {}".format(e), file=sys.stderr)
        return 1
    except DomainError as e:
        print("error: {}".format(e), file=sys.stderr)
        return 2
    except DmkitError as e:
        print("error: {}".format(e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
