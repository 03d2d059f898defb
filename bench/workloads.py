"""Seeded input generator for the three benchmark workloads.

Uses numpy only and never imports dmkit, so a change to the program
cannot change the workload.  Every generated loop passes an independent
numpy check of nominal closed-loop stability before it is kept; SISO
loops that also run `exclusion` or `diskmargin --worst-case` must have
an interior symmetric disk (peak |S - 1/2| > 1/2, with a 2 percent
safety margin so that grid error cannot flip the decision).  Random SISO
loops must also have crossings a sampled search can resolve and a
well-scaled closed-loop polynomial (_siso_ok): dmkit 0.1.0 gets loops
outside these limits wrong (bench/known_defects.py).

The same seed gives byte-identical model files: models are written with
`json.dumps(..., sort_keys=True)`, whose float formatting is exact.

Why each workload exists (see README.md for the predictions):

- siso-margins: the SISO path and tail latency.  Short analyses
  (10-600 ms), dominated by the classical crossing search and scalar
  transfer-function responses, no mu.
- mimo-margins: the mu upper-bound sweep, plus the loop-at-a-time table
  that reaches the classical layer from a different caller.  The channel
  count sets the size of the mu problem.
- dense-trace: state-space frequency response at thousands of points and
  2n-sized Hamiltonian eigenproblems, with no crossing search and no mu.

Each workload is a fixed composition (orders, state counts, channel
counts and grid sizes are stratified, not drawn) so that the cost of a
cycle of commands barely moves between seeds; the seed draws the
coefficients.
"""

import json
import math
import os
import zlib

import numpy as np

from oracles import crossing_polys, positive_real_roots

WORKLOADS = ("siso-margins", "mimo-margins", "dense-trace")

EXAMPLES_DIR = os.path.join("src", "dmkit", "examples")

# margin on the interior-disk test: dense-grid peak of |1 - L| / |1 + L|
# (which equals |S - 1/2| / (1/2)) must exceed 1 by this share
INTERIOR_MARGIN = 0.02
# nominal closed-loop poles must satisfy Re p < -STAB_MARGIN * max(1, |p|)
STAB_MARGIN = 1e-5
# SISO crossings (Im L = 0 and |L| = 1, exact polynomial roots) must be
# apart by this frequency ratio and lie inside the band spanned by the
# pole and zero magnitudes widened by CROSSING_BAND on each side; see
# _crossings_resolvable
CROSSING_SEPARATION = 1.03
CROSSING_BAND = 30.0
# the monic closed-loop characteristic polynomial den + num of a SISO tf
# loop must have every coefficient below this in magnitude; see _siso_ok
COEF_LIMIT = 1e6


class Command:
    """One CLI analysis: argv for dmkit.cli.main plus what the checks need.

    model is the parsed model document (the same data as the file), and
    bundled names the bundled example it came from, or None.
    """

    __slots__ = ("argv", "model", "bundled")

    def __init__(self, argv, model, bundled=None):
        self.argv = list(argv)
        self.model = model
        self.bundled = bundled

    @property
    def key(self):
        return " ".join(self.argv)


def _rng(workload, seed):
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
    return path


def load_bundled(name):
    with open(os.path.join(EXAMPLES_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---- independent numpy checks used while generating -----------------------

def _attempts(limit=2000):
    # rejection-sampling budget; a generator that cannot find an input
    # is a defect of the generator, never a reason to hang the run
    yield from range(limit)
    raise RuntimeError("input generator exhausted its attempts")


def _stable_poly(den):
    r = np.roots(den)
    return bool(np.all(r.real < -STAB_MARGIN * np.maximum(1.0, np.abs(r))))


def _stable_matrix(A):
    r = np.linalg.eigvals(A)
    return bool(np.all(r.real < -STAB_MARGIN * np.maximum(1.0, np.abs(r))))


def _interior_tf(num, den, ws):
    s = 1j * ws
    L = np.polyval(num, s) / np.polyval(den, s)
    return float(np.max(np.abs(1.0 - L) / np.abs(1.0 + L))) > 1.0 + INTERIOR_MARGIN


def _crossings_resolvable(num, den):
    """True when every crossing of L = num/den is well separated.

    A crossing is a positive real root of Im L(jw) or of |L(jw)| - 1.
    Adjacent crossings of one kind must be at least CROSSING_SEPARATION
    apart in frequency ratio, and every crossing must lie within
    CROSSING_BAND of the smallest and largest nonzero pole or zero
    magnitude.  Crossings that fail this (a resonant peak that grazes
    |L| = 1, or the crossover of a low-gain integrator decades below its
    dynamics) fall between or outside the points of a sampled frequency
    grid, so a grid-based crossing search misses them, as dmkit 0.1.0
    does (bench/known_defects.py).  The workloads keep to loops whose
    crossings a sampled search can resolve, the same way they keep to
    loops with an interior disk.
    """
    mags = np.abs(np.concatenate([np.roots(den), np.roots(num) if num.size > 1 else []]))
    mags = mags[mags > 1e-9]
    lo, hi = mags.min() / CROSSING_BAND, mags.max() * CROSSING_BAND
    for poly in crossing_polys(num, den):
        ws = positive_real_roots(poly)
        if ws and (ws[0] < lo or ws[-1] > hi):
            return False
        if any(b < a * CROSSING_SEPARATION for a, b in zip(ws, ws[1:])):
            return False
    return True


def _ss_response(A, B, C, ws):
    """C (jw I - A)^-1 B at each w, via an eigendecomposition of A."""
    lam, V = np.linalg.eig(A)
    cv = (C @ V)[0]
    vb = np.linalg.solve(V, B)[:, 0]
    return (cv * vb) @ (1.0 / (1j * ws[None, :] - lam[:, None]))


# ---- siso-margins ----------------------------------------------------------

# two loops of each order, so a cycle averages over more random inputs
SISO_ORDERS = tuple(range(1, 12)) * 2
SISO_BUNDLED = ("ex1_loop.json", "badl_loop.json", "resonant_loop.json")


def _siso_commands(path, doc, bundled=None):
    return [
        Command(["classical", path], doc, bundled),
        Command(["diskmargin", path, "--worst-case"], doc, bundled),
        Command(["diskmargin", path, "--skew", "1"], doc, bundled),
        Command(["exclusion", path], doc, bundled),
    ]


def _random_siso(rng, order):
    """Stable-closed-loop SISO tf of the given order: an integrator in
    some, lightly damped pairs down to zeta 3e-3, RHP zeros in some."""
    den = np.array([1.0])
    left = order
    if order >= 2 and rng.uniform() < 0.4:
        den = np.polymul(den, [1.0, 0.0])
        left -= 1
    if left >= 2 and rng.uniform() < 0.7:
        w, z = _loguniform(rng, 0.3, 30.0), _loguniform(rng, 3e-3, 0.05)
        den = np.polymul(den, [1.0, 2.0 * z * w, w * w])
        left -= 2
    while left > 0:
        if left >= 2 and rng.uniform() < 0.4:
            w, z = _loguniform(rng, 0.2, 20.0), rng.uniform(0.2, 0.9)
            den = np.polymul(den, [1.0, 2.0 * z * w, w * w])
            left -= 2
        else:
            den = np.polymul(den, [1.0, _loguniform(rng, 0.1, 20.0)])
            left -= 1
    num = np.array([1.0])
    for _ in range(int(rng.integers(0, order))):
        z = _loguniform(rng, 0.3, 30.0)
        num = np.polymul(num, [1.0, -z if rng.uniform() < 0.3 else z])
    mags = np.abs(np.roots(den)) if order else np.ones(1)
    w0 = float(np.exp(np.mean(np.log(np.maximum(mags, 0.05)))))
    k0 = abs(np.polyval(den, 1j * w0) / np.polyval(num, 1j * w0))
    sign = -1.0 if rng.uniform() < 0.25 else 1.0
    return num, den, sign * k0 * _loguniform(rng, 0.05, 2.0)


def _siso_ok(num, den, k):
    """Nominal closed-loop stability, an interior disk, resolvable
    crossings, and a well-scaled closed-loop polynomial.

    The last keeps every coefficient of den + k num (monic) below
    COEF_LIMIT.  The tf methods realize loops in companion form, whose
    entries are these coefficients; well beyond the limit (about 1e7 and
    up, high-order loops with fast poles) dmkit 0.1.0's Hamiltonian
    peak-gain test loses its axis crossings and diskmargin reports a
    peak short of the supremum, by 1e-5 up to a factor of two
    (bench/known_defects.py).
    """
    cl = np.polyadd(den, k * num)
    if np.max(np.abs(cl)) >= COEF_LIMIT or not _stable_poly(cl):
        return False
    mags = np.abs(np.concatenate([np.roots(den), np.roots(num) if num.size > 1 else []]))
    mags = mags[mags > 1e-9]
    ws = np.geomspace(mags.min() / 100.0, mags.max() * 100.0, 20000)
    return _interior_tf(k * num, den, ws) and _crossings_resolvable(k * num, den)


def siso_margins(seed, workdir):
    rng = _rng("siso-margins", seed)
    cmds = []
    for i, order in enumerate(SISO_ORDERS):
        for _ in _attempts():
            num, den, k = _random_siso(rng, order)
            # halve the gain a few times before giving up on a draw
            for _ in range(6):
                if _siso_ok(num, den, k):
                    break
                k *= 0.5
            else:
                continue
            break
        doc = {"model": {"tf": {"num": [float(c) for c in k * num],
                                "den": [float(c) for c in den]}},
               "feedback": "negative"}
        cmds.extend(_siso_commands(_write(workdir, "siso_%02d.json" % i, doc), doc))
    for name in SISO_BUNDLED:
        cmds.extend(_siso_commands(name, load_bundled(name), name))
    return cmds


# ---- mimo-margins ----------------------------------------------------------

# (channels, plant states, points) per random pair.  The io share is the
# satellite's alone: one random io analysis costs 4 to 18 s depending on
# the seed, which by itself swings a run's throughput by a third.  Two
# heavy analyses (the 3-channel pair and satellite io) in twenty keep the
# 90th percentile out of the handful of seed-dependent heavy costs.
MIMO_SLOTS = tuple(
    (2, 3 + i % 3, ("input", "output")[i % 2]) for i in range(16)
) + ((3, 4, "input"),)
MIMO_BUNDLED = (("satellite.json", "input"), ("satellite.json", "output"),
                ("satellite.json", "io"))


def _random_plant(rng, nch, nstates):
    """Stable strictly proper plant with real poles and damped pairs."""
    blocks = []
    left = nstates
    while left > 0:
        if left >= 2 and rng.uniform() < 0.5:
            w, z = _loguniform(rng, 0.3, 10.0), rng.uniform(0.1, 0.7)
            blocks.append(np.array([[0.0, w], [-w, -2.0 * z * w]]))
            left -= 2
        else:
            blocks.append(np.array([[-_loguniform(rng, 0.2, 10.0)]]))
            left -= 1
    A = np.zeros((nstates, nstates))
    i = 0
    for b in blocks:
        A[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    B = rng.standard_normal((nstates, nch))
    C = rng.standard_normal((nch, nstates))
    return A, B, C


def _random_pair(rng, nch, nstates):
    for _ in _attempts():
        A, B, C = _random_plant(rng, nch, nstates)
        G0 = C @ np.linalg.solve(-A, B)
        # controller: scaled inverse DC gain with a random coupling, so the
        # loop is neither trivially decoupled nor far from crossover
        K = np.linalg.pinv(G0) * _loguniform(rng, 0.2, 1.5)
        K = K + 0.2 * np.abs(K).max() * rng.standard_normal((nch, nch))
        if np.linalg.cond(G0) < 50.0 and _stable_matrix(A - B @ K @ C):
            return A, B, C, K


def mimo_margins(seed, workdir):
    rng = _rng("mimo-margins", seed)
    cmds = []
    for i, (nch, nstates, points) in enumerate(MIMO_SLOTS):
        A, B, C, K = _random_pair(rng, nch, nstates)
        doc = {
            "model": {"ss": {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
                             "D": np.zeros((nch, nch)).tolist()}},
            "controller": {"ss": {"A": [], "B": [], "C": [], "D": K.tolist()}},
            "feedback": "negative",
        }
        path = _write(workdir, "mimo_%02d.json" % i, doc)
        cmds.append(Command(["mimo", path, "--points", points], doc))
    for name, points in MIMO_BUNDLED:
        cmds.append(Command(["mimo", name, "--points", points], load_bundled(name), name))
    return cmds


# ---- dense-trace -----------------------------------------------------------

DENSE_STATES = tuple(range(16, 61, 2))
DENSE_POINTS = (1000, 2000, 3000) * 8


def _random_flexible(rng, nstates):
    """Flexible structure in series with a first-order lag, SISO, in a
    random orthogonal basis.  Collocated modes (positive residues) with
    damping down to 1e-3; the lag puts Re L < 0 above the first mode."""
    nmodes = (nstates - 1) // 2
    ws = np.sort(np.geomspace(1.0, 200.0, nmodes) * np.exp(rng.uniform(-0.15, 0.15, nmodes)))
    zs = np.exp(rng.uniform(math.log(1e-3), math.log(0.05), nmodes))
    res = rng.uniform(0.2, 1.0, nmodes) / np.arange(1, nmodes + 1)
    n = 2 * nmodes + 1
    A = np.zeros((n, n))
    B = np.zeros((n, 1))
    C = np.zeros((1, n))
    lag = _loguniform(rng, 0.5, 5.0)
    A[0, 0] = -lag
    B[0, 0] = lag
    for i, (w, z, r) in enumerate(zip(ws, zs, res)):
        j = 1 + 2 * i
        A[j:j + 2, j:j + 2] = [[0.0, w], [-w, -2.0 * z * w]]
        A[j + 1, 0] = math.sqrt(r) * w
        C[0, j] = math.sqrt(r)
    if n < nstates:  # pad with one fast real pole to reach the target size
        A2 = np.zeros((nstates, nstates))
        A2[:n, :n] = A
        pole = _loguniform(rng, 300.0, 1000.0)
        A2[n, n] = -pole
        A2[n, 0] = pole
        A, B = A2, np.vstack([B, [[0.0]]])
        C = np.hstack([C, [[0.01]]])
    Q, _ = np.linalg.qr(rng.standard_normal((nstates, nstates)))
    return Q @ A @ Q.T, Q @ B, C @ Q.T, ws


def _dense_ok(A, B, C, ws_modes):
    if not _stable_matrix(A - B @ C):
        return False
    ws = np.geomspace(ws_modes[0] / 100.0, ws_modes[-1] * 100.0, 20000)
    # in chunks, so the generator's memory stays far below the program's
    peak = max(float(np.max(np.abs(1.0 - L) / np.abs(1.0 + L)))
               for L in (_ss_response(A, B, C, w) for w in np.split(ws, 10)))
    return peak > 1.0 + INTERIOR_MARGIN


def dense_trace(seed, workdir):
    rng = _rng("dense-trace", seed)
    cmds = []
    for i, (nstates, npts) in enumerate(zip(DENSE_STATES, DENSE_POINTS)):
        for _ in _attempts():
            A, B, C, ws = _random_flexible(rng, nstates)
            k = _loguniform(rng, 0.2, 2.0)
            for _ in range(8):
                if _dense_ok(A, B, k * C, ws):
                    break
                k *= 0.5
            else:
                continue
            break
        C = k * C
        doc = {"model": {"ss": {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
                                "D": [[0.0]]}},
               "feedback": "negative"}
        path = _write(workdir, "dense_%02d.json" % i, doc)
        grid = "{!r}:{!r}:{}".format(float(ws[0] / 10.0), float(ws[-1] * 10.0), npts)
        cmds.append(Command(["trace", path, "--grid", grid, "--format", "csv"], doc))
        cmds.append(Command(["diskmargin", path], doc))
        cmds.append(Command(["exclusion", path], doc))
    return cmds


GENERATORS = {
    "siso-margins": siso_margins,
    "mimo-margins": mimo_margins,
    "dense-trace": dense_trace,
}


def generate(workload, seed, workdir):
    """Write the workload's model files under workdir and return one
    cycle of Commands, in the order the benchmark runs them."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](seed, workdir)
