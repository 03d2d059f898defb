"""Output checks against independent oracles.

Nothing here imports dmkit: every reference value comes from numpy
evaluated on the model file's own data.  `check(command, text, ctx)`
returns a list of problems (empty when the output is correct).

- classical: exact positive real roots of Im(N(jw) conj D(jw)) (real-axis
  crossings) and |N(jw)|^2 - |D(jw)|^2 (unit-circle crossings).
- diskmargin / exclusion: the peak of |S + (sigma - 1)/2| from a dense
  grid refined around its local maxima.  The reported peak must be at
  least the dense-grid peak (it is a tol-accurate supremum), and alpha
  must match the dense-grid value to 1e-3 (at skew +1 this is the
  minimum of |1 + L|).  --worst-case must verify with verdict "pass".
- trace: every row against a numpy evaluation of C (jwI - A)^-1 B.
- mimo: alpha_lower <= alpha_upper, det(I - M0 delta) at most
  1e-6 max(1, |M0|) with M0 built here from the plant and controller,
  alpha_upper equal to the size of its certificate delta, and at most
  the smallest loop-at-a-time alpha.
- bundled models: the published values, at the tolerances of
  tests/test_acceptance.py.
"""

import csv
import io
import json
import math

import numpy as np

# relative tolerance on exact-root and closed-form comparisons
RTOL = 1e-6
# relative tolerance of alpha against the refined dense grid (as in the
# acceptance test of the sigma = +1 margin)
GRID_RTOL = 1e-3
# hinf_norm's documented accuracy: within relative 1e-6 of the supremum
HINF_TOL = 1e-6
# relative allowance when two routes to one number are compared, as in
# the acceptance test of the loop-at-a-time bound
ROUNDING = 1e-9
CHUNK = 128
# largest eigenvector condition number for which state-space responses
# are summed as partial fractions rather than solved point by point
MODAL_COND = 1e6


def close(a, b, rtol, atol=0.0):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


# ---- models -----------------------------------------------------------------

def _ss_eval(A, B, C, D, ws):
    """C (jw I - A)^-1 B + D at each finite w, shape (len(ws), p, m).

    Through an eigendecomposition of A when its eigenvectors are well
    conditioned (each point is then a sum of n partial fractions), else by
    a linear solve at every point."""
    n = A.shape[0]
    out = np.empty((len(ws), C.shape[0], B.shape[1]), dtype=complex)
    if n == 0:
        out[:] = D
        return out
    lam, V = np.linalg.eig(A)
    modal = np.linalg.cond(V) < MODAL_COND
    if modal:
        cv, vb = C @ V, np.linalg.solve(V, B)
    eye = np.eye(n)
    for i in range(0, len(ws), CHUNK):
        w = ws[i:i + CHUNK]
        if modal:
            R = 1.0 / (1j * w[:, None] - lam)
            out[i:i + CHUNK] = np.einsum("pn,kn,nm->kpm", cv, R, vb) + D
        else:
            M = 1j * w[:, None, None] * eye - A
            X = np.linalg.solve(M, np.broadcast_to(B, (len(w),) + B.shape))
            out[i:i + CHUNK] = C @ X + D
    return out


def _tf_entry_eval(e, ws):
    s = 1j * np.asarray(ws)
    return np.polyval(e["num"], s) / np.polyval(e["den"], s)


class Model:
    """A plant or controller from a model document, evaluable on the axis."""

    def __init__(self, doc):
        (kind, data), = doc.items()
        self.kind, self.data = kind, data
        if kind == "ss":
            self.A = np.atleast_2d(np.array(data["A"], dtype=float))
            if self.A.size == 0:
                self.A = np.zeros((0, 0))
            D = np.atleast_2d(np.array(data["D"], dtype=float))
            self.D = D
            self.B = (np.atleast_2d(np.array(data["B"], dtype=float))
                      if np.size(data["B"]) else np.zeros((0, D.shape[1])))
            self.C = (np.atleast_2d(np.array(data["C"], dtype=float))
                      if np.size(data["C"]) else np.zeros((D.shape[0], 0)))

    def freq(self, ws):
        """Response at finite w, shape (len(ws), p, m)."""
        ws = np.asarray(ws, dtype=float)
        if self.kind == "ss":
            return _ss_eval(self.A, self.B, self.C, self.D, ws)
        if self.kind == "tf":
            return _tf_entry_eval(self.data, ws)[:, None, None]
        rows = self.data
        out = np.empty((len(ws), len(rows), len(rows[0])), dtype=complex)
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                out[:, i, j] = _tf_entry_eval(e, ws)
        return out

    def at_inf(self):
        if self.kind == "ss":
            return self.D.astype(complex)
        if self.kind == "tf":
            n = np.trim_zeros(np.array(self.data["num"], float), "f")
            d = np.trim_zeros(np.array(self.data["den"], float), "f")
            return np.array([[n[0] / d[0] if len(n) == len(d) else 0.0]], complex)
        raise ValueError("tfm at infinity is not needed by any workload")

    def features(self):
        """Poles (and zeros for tf) plus closed-loop poles under unit
        negative feedback, for grid placement."""
        if self.kind == "tf":
            n = np.trim_zeros(np.array(self.data["num"], float), "f")
            d = np.trim_zeros(np.array(self.data["den"], float), "f")
            pts = [np.roots(d), np.roots(np.polyadd(d, n))]
            if len(n) > 1:
                pts.append(np.roots(n))
        else:
            pts = [np.linalg.eigvals(self.A), np.linalg.eigvals(self.A - self.B @ self.C)]
        return np.concatenate(pts)


class SisoLoop:
    """L(s) of a SISO model file, sign-normalized to negative feedback."""

    def __init__(self, doc):
        if "controller" in doc:
            raise ValueError("SISO checks expect a loop without a controller")
        self.model = Model(doc["model"])
        self.sign = -1.0 if doc.get("feedback", "negative") == "positive" else 1.0

    def L(self, ws):
        return self.sign * self.model.freq(ws)[:, 0, 0]

    def L_inf(self):
        return self.sign * complex(self.model.at_inf()[0, 0])


def _shifted(loop, ws, sigma):
    return np.abs(1.0 / (1.0 + loop.L(ws)) + 0.5 * (sigma - 1.0))


def dense_peak(loop, sigma):
    """Sup over w of |S(jw) + (sigma - 1)/2| from a log grid over the
    dynamics, the pole frequencies, and a zoom around the best maxima."""
    feats = loop.model.features()
    mags = np.abs(feats)
    mags = mags[mags > 1e-9]
    lo, hi = (mags.min() / 1e3, mags.max() * 1e3) if mags.size else (1e-3, 1e3)
    ws = np.geomspace(lo, hi, 4000)
    axis = np.abs(feats.imag)
    axis = axis[axis > 1e-9]
    ws = np.unique(np.concatenate([ws, axis, axis * (1 + 1e-3), axis * (1 - 1e-3)]))
    g = _shifted(loop, ws, sigma)
    best = float(np.max(g))
    inf_val = abs(1.0 / (1.0 + loop.L_inf()) + 0.5 * (sigma - 1.0))
    best = max(best, inf_val)
    den0 = np.polyval(loop.model.data["den"], 0.0) if loop.model.kind == "tf" else None
    if den0 is None or den0 != 0.0:
        best = max(best, float(_shifted(loop, np.zeros(1), sigma)[0]))
    interior = np.flatnonzero((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:])) + 1
    for i in interior[np.argsort(g[interior])[::-1][:6]]:
        a, b = ws[i - 1], ws[i + 1]
        for _ in range(8):
            xs = np.geomspace(a, b, 41)
            gx = _shifted(loop, xs, sigma)
            j = int(np.argmax(gx))
            best = max(best, float(gx[j]))
            a, b = xs[max(j - 1, 0)], xs[min(j + 1, 40)]
    return best


def shifted_at(loop, w, sigma):
    if math.isinf(w):
        s = 1.0 / (1.0 + loop.L_inf())
    else:
        s = 1.0 / (1.0 + loop.L(np.array([w]))[0])
    return s + 0.5 * (sigma - 1.0)


# ---- classical --------------------------------------------------------------

def _jw_parts(c):
    """Real polynomials (descending in w) of the real and imaginary parts
    of p(jw) for p with coefficients c (descending in s)."""
    a = np.asarray(c, dtype=float)[::-1]
    k = np.arange(len(a))
    signed = a * (-1.0) ** (k // 2)  # j^k = (-1)^(k//2) times 1 or j
    return np.where(k % 2 == 0, signed, 0.0)[::-1], np.where(k % 2 == 1, signed, 0.0)[::-1]


def positive_real_roots(p):
    p = np.trim_zeros(np.asarray(p, dtype=float), "f")
    if len(p) < 2:
        return []
    dp = np.polyder(p)
    out = []
    for r in np.roots(p):
        if abs(r.imag) > 1e-6 * max(1.0, abs(r)) or r.real <= 0.0:
            continue
        w = r.real
        for _ in range(4):  # Newton polish on the exact polynomial
            d = np.polyval(dp, w)
            if d == 0.0:
                break
            step = np.polyval(p, w) / d
            if not math.isfinite(step) or abs(step) > 1e-3 * w:
                break
            w -= step
        out.append(float(w))
    out.sort()
    merged = []
    for w in out:
        if merged and abs(w - merged[-1]) <= 1e-9 * w:
            continue
        merged.append(w)
    return merged


def crossing_polys(n, d):
    """Real polynomials in w whose positive roots are the real-axis
    crossings (Im L = 0) and the unit-circle crossings (|L| = 1) of
    L = n/d, for n, d with coefficients descending in s."""
    nr, ni = _jw_parts(n)
    dr, di = _jw_parts(d)
    im_poly = np.polysub(np.polymul(ni, dr), np.polymul(nr, di))
    mag_poly = np.polysub(np.polyadd(np.polymul(nr, nr), np.polymul(ni, ni)),
                          np.polyadd(np.polymul(dr, dr), np.polymul(di, di)))
    return im_poly, mag_poly


def classical_oracle(doc):
    """(g_lower, g_upper, phi_upper, phase-crossover freqs, gain-crossover
    freqs) from exact polynomial roots; same conventions as the CLI."""
    loop = SisoLoop(doc)
    if loop.model.kind != "tf":
        raise ValueError("classical checks expect a transfer function")
    n = np.trim_zeros(np.array(loop.model.data["num"], float) * loop.sign, "f")
    d = np.trim_zeros(np.array(loop.model.data["den"], float), "f")
    im_poly, mag_poly = crossing_polys(n, d)

    def L(w):
        return complex(np.polyval(n, 1j * w) / np.polyval(d, 1j * w))

    gains = []
    for w in positive_real_roots(im_poly):
        if abs(np.polyval(d, 1j * w)) == 0.0:
            continue
        lv = L(w)
        if lv.real < 0.0:
            gains.append((-1.0 / lv.real, w))
    if d[-1] != 0.0 and n[-1] / d[-1] < 0.0:
        gains.append((-d[-1] / n[-1], 0.0))
    if len(n) == len(d) and n[0] / d[0] < 0.0:
        gains.append((-d[0] / n[0], math.inf))
    below = [g for g, _ in gains if g < 1.0 - 1e-9]
    above = [g for g, _ in gains if g > 1.0 + 1e-9]
    phis = []
    for w in positive_real_roots(mag_poly):
        phi = abs(np.angle(-L(w)))
        if phi > 1e-12:
            phis.append((phi, w))
    return {
        "g_lower": max(below) if below else 0.0,
        "g_upper": min(above) if above else math.inf,
        "phi_upper": min(p for p, _ in phis) if phis else math.inf,
        "phase_crossover_freqs": sorted(w for _, w in gains),
        "gain_crossover_freqs": sorted(w for _, w in phis),
    }


def _same_freqs(got, want):
    got = sorted(float(w) for w in got)
    if len(got) != len(want):
        return False
    return all(close(a, b, RTOL, atol=1e-12) for a, b in zip(got, want))


def check_classical(cmd, out, ctx):
    r = out["results"]
    ref = classical_oracle(cmd.model)
    probs = []
    for key in ("g_lower", "g_upper"):
        if not close(float(r[key]["abs"]), ref[key], RTOL, atol=1e-12):
            probs.append("{} {} != oracle {}".format(key, r[key]["abs"], ref[key]))
    if not close(float(r["phi_upper"]["radians"]), ref["phi_upper"], RTOL):
        probs.append("phi_upper {} != oracle {}".format(r["phi_upper"]["radians"], ref["phi_upper"]))
    for key in ("phase_crossover_freqs", "gain_crossover_freqs"):
        if not _same_freqs(r[key], ref[key]):
            probs.append("{} {} != oracle {}".format(key, r[key], ref[key]))
    return probs


# ---- disk margins -----------------------------------------------------------

def _skew(argv):
    return float(argv[argv.index("--skew") + 1]) if "--skew" in argv else 0.0


def _alpha_problems(cmd, alpha, ctx):
    sigma = _skew(cmd.argv)
    key = (cmd.argv[1], sigma)
    if key not in ctx:
        ctx[key] = dense_peak(SisoLoop(cmd.model), sigma)
    peak = ctx[key]
    ref = 1.0 / peak
    probs = []
    # alpha = 1/peak is at most the dense-grid value (the peak is a
    # tol-accurate supremum) and matches it to the grid tolerance
    if alpha > ref * (1.0 + HINF_TOL):
        probs.append("alpha {} above dense-grid 1/peak {}".format(alpha, ref))
    if alpha < ref * (1.0 - GRID_RTOL):
        probs.append("alpha {} below dense-grid 1/peak {}".format(alpha, ref))
    return probs, peak


def check_diskmargin(cmd, out, ctx):
    r = out["results"]
    alpha = float(r["alpha_max"])
    probs, peak = _alpha_problems(cmd, alpha, ctx)
    value = float(r["peak_gain"]["value"])
    if value < peak * (1.0 - HINF_TOL):
        probs.append("hinf peak {} below dense-grid peak {}".format(value, peak))
    sigma = _skew(cmd.argv)
    w0 = float(r["omega_crit"])
    g0 = shifted_at(SisoLoop(cmd.model), w0, sigma)
    if not close(abs(g0), value, RTOL):
        probs.append("gain at omega_crit {} != reported peak {}".format(abs(g0), value))
    d0 = complex(float(r["delta0"]["re"]), float(r["delta0"]["im"]))
    if abs(d0 - 1.0 / g0) > RTOL * abs(d0):
        probs.append("delta0 {} != 1/(S + k) {}".format(d0, 1.0 / g0))
    if "--worst-case" in cmd.argv:
        verdict = r.get("worst_case", {}).get("verification", {}).get("verdict")
        if verdict != "pass":
            probs.append("worst-case verdict {!r}, expected 'pass'".format(verdict))
    return probs


def _intercepts(alpha, sigma):
    gmin = (2.0 - alpha * (1.0 - sigma)) / (2.0 + alpha * (1.0 + sigma))
    gmax = (2.0 + alpha * (1.0 - sigma)) / (2.0 - alpha * (1.0 + sigma))
    return gmin, gmax


def check_exclusion(cmd, out, ctx):
    r = out["results"]
    alpha = float(r["alpha_max"])
    probs, _ = _alpha_problems(cmd, alpha, ctx)
    gmin, gmax = _intercepts(alpha, _skew(cmd.argv))
    i1, i2 = -1.0 / gmin, -1.0 / gmax
    want = {"center": 0.5 * (i1 + i2), "radius": 0.5 * (i2 - i1)}
    for key, v in want.items():
        if not close(float(r[key]), v, RTOL):
            probs.append("{} {} != {} from alpha".format(key, r[key], v))
    got = [float(x) for x in r["intercepts"]]
    if not (close(got[0], i1, RTOL) and close(got[1], i2, RTOL)):
        probs.append("intercepts {} != {}".format(got, [i1, i2]))
    return probs


# ---- trace ------------------------------------------------------------------

def check_trace(cmd, text, ctx):
    rows = list(csv.reader(io.StringIO(text)))
    head, body = rows[0], rows[1:]
    if head != ["omega", "alpha", "gamma_min", "gamma_max", "gamma_m", "phi_m_deg"]:
        return ["unexpected CSV header {}".format(head)]
    lo, hi, n = cmd.argv[cmd.argv.index("--grid") + 1].split(":")
    ws = np.geomspace(float(lo), float(hi), int(n))
    if len(body) != len(ws):
        return ["{} rows, expected {}".format(len(body), len(ws))]
    got = np.array([[float(x) for x in row] for row in body])
    probs = []
    if not np.allclose(got[:, 0], ws, rtol=1e-11, atol=0.0):
        probs.append("omega column differs from the requested grid")
    sigma = _skew(cmd.argv)
    alpha = 1.0 / _shifted(SisoLoop(cmd.model), ws, sigma)
    bad = ~np.isclose(got[:, 1], alpha, rtol=RTOL, atol=0.0)
    if bad.any():
        i = int(np.argmax(bad))
        probs.append("{} alpha rows differ, first at w={} ({} vs {})".format(
            int(bad.sum()), ws[i], got[i, 1], alpha[i]))
    interior = alpha * (1.0 + sigma) < 2.0 * (1.0 - 1e-6)
    gmin, gmax = _intercepts(alpha[interior], sigma)
    lo = np.maximum(gmin, 0.0)
    x = (1.0 + gmin * gmax) / (gmin + gmax)
    want = np.column_stack([
        lo, gmax,
        np.minimum(np.divide(1.0, lo, out=np.full_like(lo, np.inf), where=lo > 0.0), gmax),
        np.where(np.abs(x) <= 1.0, np.degrees(np.arccos(np.clip(x, -1.0, 1.0))), np.inf),
    ])
    if not np.allclose(got[interior, 2:6], want, rtol=RTOL, atol=1e-9):
        probs.append("guaranteed gain/phase columns differ from alpha")
    return probs


# ---- mimo -------------------------------------------------------------------

def _m0(doc, points, sigma, w):
    P = Model(doc["model"]).freq([w])[0]
    K = Model(doc["controller"]).freq([w])[0]
    if doc.get("feedback", "negative") == "positive":
        K = -K
    m, p = P.shape[1], P.shape[0]
    if points == "input":
        L = K @ P
    elif points == "output":
        L = P @ K
    elif points == "io":
        L = np.zeros((m + p, m + p), dtype=complex)
        L[:m, m:] = K
        L[m:, :m] = -P
    else:
        raise ValueError("channel lists are not used by any workload")
    n = L.shape[0]
    return np.linalg.inv(np.eye(n) + L) + 0.5 * (sigma - 1.0) * np.eye(n)


def check_mimo(cmd, out, ctx):
    r = out["results"]
    lo, hi = float(r["alpha_lower"]), float(r["alpha_upper"])
    probs = []
    # for 3 or fewer channels the mu bounds coincide, so alpha_lower and
    # alpha_upper are one number reached by two roundings; allow for that
    if not lo <= hi * (1.0 + ROUNDING):
        probs.append("alpha_lower {} > alpha_upper {}".format(lo, hi))
    points = cmd.argv[cmd.argv.index("--points") + 1]
    M0 = _m0(cmd.model, points, _skew(cmd.argv), float(r["omega_crit"]))
    deltas = [complex(float(d["delta"]["re"]), float(d["delta"]["im"])) for d in r["delta_worst"]]
    if deltas and not close(max(abs(d) for d in deltas), hi, RTOL):
        probs.append("alpha_upper {} is not the size of its certificate {}".format(
            hi, max(abs(d) for d in deltas)))
    if len(deltas) != M0.shape[0]:
        probs.append("{} worst-case entries for {} channels".format(len(deltas), M0.shape[0]))
    else:
        resid = abs(np.linalg.det(np.eye(len(deltas)) - M0 @ np.diag(deltas)))
        if resid > 1e-6 * max(1.0, np.linalg.norm(M0)):
            probs.append("det(I - M0 delta) = {:.3g}".format(resid))
    singles = [float(row["alpha_max"]) for row in r["loop_at_a_time"]]
    if hi > min(singles) * (1.0 + ROUNDING):
        probs.append("alpha_upper {} above loop-at-a-time {}".format(hi, min(singles)))
    return probs


# ---- bundled models: published values -----------------------------------------

def _rel(probs, what, got, want, rtol):
    if not close(got, want, rtol):
        probs.append("{} {} != published {} (rtol {})".format(what, got, want, rtol))


def check_published(cmd, out, ctx):
    name, kind = cmd.bundled, cmd.argv[0]
    r = out["results"] if isinstance(out, dict) else None
    probs = []
    if name == "ex1_loop.json" and kind == "classical":
        if float(r["g_lower"]["abs"]) != 0.0:
            probs.append("g_lower {} != 0".format(r["g_lower"]["abs"]))
        _rel(probs, "g_upper", float(r["g_upper"]["abs"]), 3.6, 0.02)
        _rel(probs, "critical_gain_freq", float(r["critical_gain_freq"]), 3.16, 0.02)
        _rel(probs, "phi_upper deg", float(r["phi_upper"]["degrees"]), 29.1, 0.02)
        _rel(probs, "critical_phase_freq", float(r["critical_phase_freq"]), 1.78, 0.02)
    elif name == "ex1_loop.json" and kind == "diskmargin" and "--worst-case" in cmd.argv:
        _rel(probs, "alpha", float(r["alpha_max"]), 0.46, 0.02)
        _rel(probs, "omega_crit", float(r["omega_crit"]), 1.94, 0.02)
        _rel(probs, "peak", float(r["peak_gain"]["value"]), 2.18, 0.02)
        for key, want in (("delta0", 0.212 - 0.406j), ("f0", 1.128 - 0.483j)):
            got = complex(float(r[key]["re"]), float(r[key]["im"]))
            if abs(got - want) > 0.02 * abs(want):
                probs.append("{} {} != published {}".format(key, got, want))
        _rel(probs, "gm lower", float(r["guaranteed_gm"]["lower"]["abs"]), 0.63, 0.02)
        _rel(probs, "gm upper", float(r["guaranteed_gm"]["upper"]["abs"]), 1.59, 0.02)
        _rel(probs, "pm deg", float(r["guaranteed_pm"]["degrees"]), 25.8, 0.02)
        wc = r["worst_case"]
        dn = [float(c) for c in wc["delta_hat"]["num"]]
        _rel(probs, "delta_hat gain", dn[0], -0.458, 0.02)
        _rel(probs, "delta_hat zero", -dn[1] / dn[0], 3.226, 0.02)
        _rel(probs, "delta_hat pole", float(wc["delta_hat"]["den"][1]), 3.226, 0.02)
        fn = [float(c) for c in wc["f_hat"]["num"]]
        _rel(probs, "f_hat num s", fn[0], 0.627, 0.02)
        _rel(probs, "f_hat num 1", fn[1], 3.226, 0.02)
        _rel(probs, "f_hat den", float(wc["f_hat"]["den"][1]), 2.0297207755, 1e-6)
    elif name == "badl_loop.json" and kind == "classical":
        _rel(probs, "phi_upper deg", float(r["phi_upper"]["degrees"]), 45.0, 0.03)
        _rel(probs, "g_lower", float(r["g_lower"]["abs"]), 0.2, 0.03)
        _rel(probs, "g_upper", float(r["g_upper"]["abs"]), 2.1, 0.03)
    elif name == "badl_loop.json" and kind == "diskmargin" and _skew(cmd.argv) == 1.0:
        if not float(r["alpha_max"]) < 0.3:
            probs.append("BADL skew-1 alpha {} not below 0.3".format(r["alpha_max"]))
    elif name == "satellite.json":
        points = cmd.argv[cmd.argv.index("--points") + 1]
        lo, hi = float(r["alpha_lower"]), float(r["alpha_upper"])
        geo = r["geometry"]
        if points == "input":
            if not (lo <= 0.0997 * 1.02 and hi >= 0.0997 * 0.98):
                probs.append("input bracket [{}, {}] misses 0.0997".format(lo, hi))
            _rel(probs, "alpha_upper", hi, 0.0997, 0.02)
            _rel(probs, "gamma_min", float(geo["gamma_min"]), 0.905, 0.02)
            _rel(probs, "gamma_max", float(geo["gamma_max"]), 1.105, 0.02)
            for row in r["loop_at_a_time"]:
                if float(row["g_lower"]["abs"]) > 1e-9 or float(row["g_upper"]["abs"]) != math.inf:
                    probs.append("loop-at-a-time gain margins not (0, inf)")
                _rel(probs, "loop-at-a-time pm", float(row["phi_upper"]["degrees"]), 90.0, 0.02)
                _rel(probs, "loop-at-a-time alpha", float(row["alpha_max"]), 2.0, 0.02)
            ctx["satellite-input"] = hi
        elif points == "io":
            if not (lo <= 0.0498 * 1.02 and hi >= 0.0498 * 0.98):
                probs.append("io bracket [{}, {}] misses 0.0498".format(lo, hi))
            _rel(probs, "gamma_min", float(geo["gamma_min"]), 0.941, 0.02)
            _rel(probs, "gamma_max", float(geo["gamma_max"]), 1.051, 0.02)
        elif points == "output":
            ref = ctx.get("satellite-input")
            if ref is None:
                probs.append("satellite output checked before input")
            else:
                _rel(probs, "output alpha_upper vs input", hi, ref, 0.01)
    return probs


CHECKS = {
    "classical": check_classical,
    "diskmargin": check_diskmargin,
    "exclusion": check_exclusion,
    "trace": check_trace,
    "mimo": check_mimo,
}


def check(cmd, text, ctx):
    """Problems with one CLI output (empty list when correct).

    ctx is shared across the commands of a run: it caches dense-grid
    peaks per (model, skew) and carries cross-command references."""
    kind = cmd.argv[0]
    if kind == "trace":
        out = text
    else:
        try:
            out = json.loads(text)
        except json.JSONDecodeError as e:
            return ["output is not JSON: {}".format(e)]
    try:
        probs = CHECKS[kind](cmd, out, ctx)
        if cmd.bundled:
            probs += check_published(cmd, out, ctx)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return ["output lacks an expected field: {!r}".format(e)]
    return probs
