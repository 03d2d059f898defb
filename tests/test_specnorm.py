import json
import math
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmkit import (FrequencyGrid, InputError, default_grid, disk_margin, hinf_norm,
                   sensitivity_pair, ss, tf)
from dmkit import specnorm
from dmkit.disk import _shifted_sensitivity

DATA = Path(__file__).parent / "data"


def test_grid_validation():
    g = FrequencyGrid((0.0, 1.0, 2.0, math.inf))
    assert g.finite == (0.0, 1.0, 2.0)
    for pts, msg in [((), "non-empty"), ((1.0, 1.0), "strictly increasing"),
                     ((1.0, math.inf, math.inf), "strictly increasing"),
                     ((-1.0, 2.0), "non-negative"), ((1.0, math.nan), "non-negative")]:
        with pytest.raises(InputError, match=msg):
            FrequencyGrid(pts)
    # any sequence of numbers is kept as a tuple of floats
    g = FrequencyGrid(np.array([0, 1, 2]))
    assert g.points == (0.0, 1.0, 2.0) and all(type(p) is float for p in g.points)


def test_default_grid_spans_dynamics():
    g = default_grid(tf([1], [1, 0.18, 100]))
    pts = [w for w in g.finite if w > 0]
    assert pts[0] <= 10.0 / 100 * 1.001
    assert pts[-1] >= 10.0 * 100 * 0.999
    assert g.points[0] == 0.0
    assert g.points[-1] == math.inf
    # pure gain gets a generic band
    g2 = [w for w in default_grid(tf([3], [1])).finite if w > 0]
    assert g2[0] <= 1e-2 * 1.001 and g2[-1] >= 1e2 * 0.999


def test_hinf_static_gain():
    pk = hinf_norm(tf([3], [1]))
    assert_allclose(pk.value, 3.0, rtol=1e-12)


def test_hinf_zero_system():
    pk = hinf_norm(tf([0], [1]))
    assert pk.value == 0.0


def test_hinf_lag():
    # |1/(jw+1)| peaks at dc
    pk = hinf_norm(tf([1], [1, 1]))
    assert_allclose(pk.value, 1.0, rtol=1e-9)
    assert_allclose(pk.frequency, 0.0, atol=1e-9)


def test_hinf_resonance():
    # 1/(s^2 + 0.2 s + 1): peak 1/(d sqrt(1-d^2/4)) with d=0.2 at w=sqrt(1-d^2/2)
    pk = hinf_norm(tf([1], [1, 0.2, 1]))
    d = 0.2
    want = 1.0 / (d * math.sqrt(1 - d * d / 4))
    assert_allclose(pk.value, want, rtol=1e-6)
    assert_allclose(pk.frequency, math.sqrt(1 - d * d / 2), rtol=1e-4)


def test_hinf_example_sensitivities():
    L = tf([25], [1, 10, 10, 10])
    S, T = sensitivity_pair(L)
    pS = hinf_norm(S)
    pT = hinf_norm(T)
    assert_allclose(pS.value, 2.4866599136, rtol=1e-6)
    assert_allclose(pS.frequency, 2.0114536317, rtol=1e-4)
    assert_allclose(pT.value, 2.0560585239, rtol=1e-6)
    assert_allclose(pT.frequency, 1.8756200189, rtol=1e-4)


def test_hinf_beats_dense_grid():
    rng = np.random.default_rng(17)
    for _ in range(5):
        den = np.poly(rng.uniform(-4.0, -0.1, size=4))
        num = rng.standard_normal(4)
        m = tf(num, den)
        pk = hinf_norm(m)
        lo, hi = 1e-3, 1e4
        # oracle independent of dmkit: the rational function evaluated by
        # numpy over the dense grid and w = 0; deg num < deg den, so the
        # gain at w = inf is 0
        s = 1j * np.concatenate(([0.0], np.geomspace(lo, hi, 100000)))
        grid_max = max(float(np.max(np.abs(np.polyval(num, s) / np.polyval(den, s)))), 0.0)
        assert pk.value >= grid_max * (1 - 1e-9)
        assert pk.value <= grid_max * (1 + 1e-3)


def test_hinf_scale_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(5):
        den = np.poly(rng.uniform(-4.0, -0.1, size=3))
        num = rng.standard_normal(3)
        c = rng.uniform(0.5, 20.0)
        base = hinf_norm(tf(num, den)).value
        scaled = hinf_norm(tf(c * num, den)).value
        assert_allclose(scaled, c * base, rtol=1e-9)


def test_hinf_mimo():
    # static 2x2: norm is the largest singular value
    m = ss(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), [[3.0, 0.0], [0.0, 1.0]])
    assert_allclose(hinf_norm(m).value, 3.0, rtol=1e-9)
    P = ss([[-1.0, 0.0], [0.0, -2.0]], np.eye(2), np.eye(2), np.zeros((2, 2)))
    pk = hinf_norm(P)
    assert_allclose(pk.value, 1.0, rtol=1e-6)


def test_hinf_feedthrough_dominates():
    # |(2s+1)/(s+1)| grows to 2 at high frequency
    pk = hinf_norm(tf([2, 1], [1, 1]))
    assert_allclose(pk.value, 2.0, rtol=1e-6)
    assert pk.frequency == math.inf


def test_hinf_reports_lowest_peak_frequency():
    # two equal-height resonances; the report should pick the lower one
    num = np.polymul([1, 0.02, 1], [1, 0.02, 100])
    base = tf([1], num)
    pk = hinf_norm(base)
    assert pk.frequency < 2.0


def test_hinf_finds_narrow_resonance_above_feedthrough():
    # the seed grid steps over the resonance at 1.0789 rad/s (damping
    # 3.5e-4) and peaks near the feedthrough gain 51.8; the Hamiltonian
    # just above that gain is too ill-conditioned to show the resonance's
    # crossings, so only the gain at the pole's frequency reveals it
    num = [51.8041, 225.542, 564.358, 874.968, 984.273, 867.023, 501.198, 179.267, 45.1671]
    den = [1.0, 4.48391, 11.2378, 17.4633, 19.6818, 17.3041, 10.0072, 3.55151, 0.876158]
    pk = hinf_norm(tf(num, den))
    assert_allclose(pk.value, 61.133604181804, rtol=1e-9)
    assert_allclose(pk.frequency, 1.07888851, rtol=1e-6)


# ---- level-set kernel: solve counts and the stall exit ----------------------

def _record_crossings(monkeypatch):
    """Wrap the Hamiltonian crossing test; returns the list of
    (level, crossings) it is called with, in order."""
    calls = []
    solve = specnorm._axis_crossings

    def recorded(A, B, C, D, gamma):
        f = solve(A, B, C, D, gamma)
        calls.append((gamma, f))
        return f

    monkeypatch.setattr(specnorm, "_axis_crossings", recorded)
    return calls


def _bundled_loop(name):
    doc = json.loads(resources.files("dmkit").joinpath("examples", name + ".json").read_text())
    return tf(doc["model"]["tf"]["num"], doc["model"]["tf"]["den"])


@pytest.mark.parametrize("name", ["ex1_loop", "badl_loop", "resonant_loop"])
def test_disk_margin_takes_few_hamiltonian_solves(monkeypatch, name):
    L = _bundled_loop(name)
    calls = _record_crossings(monkeypatch)
    for sigma in (0.0, 1.0, -1.0):
        calls.clear()
        disk_margin(L, sigma)
        assert 1 <= len(calls) <= 8, (sigma, len(calls))


@pytest.mark.parametrize("name", ["ex1_loop", "resonant_loop"])
@pytest.mark.parametrize("sigma", [0.0, 1.0, -1.0])
def test_hinf_certifies_its_climb_with_one_hamiltonian_solve(monkeypatch, name, sigma):
    # the climb lands on the peak, so the first level above it is already
    # crossing-free: one eigenvalue solve certifies the answer
    shifted = _shifted_sensitivity(_bundled_loop(name), sigma)
    calls = _record_crossings(monkeypatch)
    pk = hinf_norm(shifted)
    assert len(calls) == 1
    gamma, freqs = calls[0]
    assert gamma == pk.value * (1.0 + 0.5 * specnorm._TOL)
    assert freqs is not None and freqs.size == 0


def _mp_peak(gain, lo, hi):
    """Largest of the mpmath function gain on [lo, hi], where it is
    unimodal: golden-section search to 40 digits."""
    mpmath.mp.dps = 50
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    r = (mpmath.sqrt(5) - 1) / 2
    a, b = hi - r * (hi - lo), lo + r * (hi - lo)
    ga, gb = gain(a), gain(b)
    while hi - lo > mpmath.mpf(10) ** -40 * hi:
        if ga > gb:
            hi, b, gb = b, a, ga
            a = hi - r * (hi - lo)
            ga = gain(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + r * (hi - lo)
            gb = gain(b)
    return a, ga


def test_hinf_climbs_a_resonance_above_the_seed():
    # bench/known_defects.py's hinf-misses-peak loop (diskmargin --skew 1,
    # so the peak of |S|): a closed-loop resonance at 5.9388 rad/s with
    # Re p = -0.0948, closed-loop coefficients up to 7e10.  The level set
    # from the seed's best gain stopped 4.8e-6 short of it; the climb
    # from the pole's frequency reaches the top
    num = [7981092143.5604315, 11869338118.6599, 3856923210.7540092]
    den = [1.0, 104.98983713954811, 4999.2253545562735, 142055.37792726152,
           2668932.4999136375, 34909952.17696232, 327218175.7664827,
           2213242515.9045606, 10570562935.472857, 33544213774.16935,
           61915225445.53178, 47322729456.04601]
    pk = hinf_norm(sensitivity_pair(tf(num, den))[0])
    # oracle: |den / (den + num)| at jw in 50-digit arithmetic, searched
    # across the resonance of the closed-loop pole numpy's roots give
    closed = np.roots(np.polyadd(den, num))
    p = closed[np.argmin(np.where(closed.imag > 0, -closed.real, np.inf))]
    dm, cm = ([mpmath.mpf(c) for c in den], [mpmath.mpf(c) for c in np.polyadd(den, num)])

    def gain(w):
        s = mpmath.mpc(0, w)
        return abs(mpmath.polyval(dm, s) / mpmath.polyval(cm, s))

    w_peak, want = _mp_peak(gain, p.imag + 2 * p.real, p.imag - 2 * p.real)
    assert_allclose(pk.value, float(want), rtol=1e-6)
    assert pk.value <= float(want) * (1 + 1e-12)
    assert_allclose(pk.frequency, float(w_peak), rtol=1e-6)


def test_pick_lowest_chooses_between_distinct_peaks_only():
    # two peaks within 1e-9 of each other, apart from a lower sample: the
    # lower frequency wins, though the upper one is higher
    cand = [(0.0, 0.5), (1.0, 2.0 * (1 - 1e-11)), (1.1, 2.0 * (1 - 5e-10)), (3.0, 1.0),
            (10.0, 2.0), (math.inf, 0.5)]
    assert specnorm._pick_lowest(cand, 2.0) == 1.0
    # one flat peak, every sample near its top within 1e-9 of the best:
    # its best sample wins, not its lowest
    cand = [(0.0, 0.5), (0.99, 2.0 * (1 - 5e-10)), (1.0, 2.0 * (1 - 1e-10)), (1.01, 2.0),
            (1.02, 2.0 * (1 - 3e-10)), (3.0, 1.0)]
    assert specnorm._pick_lowest(cand, 2.0) == 1.01
    # exact ties on one peak go to the lower frequency
    assert specnorm._pick_lowest([(1.0, 2.0), (1.5, 2.0), (2.0, 1.0)], 2.0) == 1.0


def test_hinf_reports_the_lower_of_two_equal_peaks():
    # diag(G(s), (1 + 1e-11) G(s/10)), G = 1/(s^2 + 0.02 s + 1): the peak
    # at 10 rad/s is 1e-11 higher, within the 1e-9 tie, so the one near
    # 1 rad/s is reported, on its own top sqrt(1 - 2 zeta^2)
    A = np.zeros((4, 4))
    A[:2, :2] = [[0.0, 1.0], [-1.0, -0.02]]
    A[2:, 2:] = [[0.0, 1.0], [-100.0, -0.2]]
    B = np.zeros((4, 2))
    B[1, 0] = B[3, 1] = 1.0
    C = np.zeros((2, 4))
    C[0, 0], C[1, 2] = 1.0, 100.0 * (1 + 1e-11)
    pk = hinf_norm(ss(A, B, C, np.zeros((2, 2))))
    zeta = 0.01
    assert_allclose(pk.value, 1.0 / (2 * zeta * math.sqrt(1 - zeta * zeta)), rtol=1e-10)
    assert_allclose(pk.frequency, math.sqrt(1 - 2 * zeta * zeta), rtol=1e-9)


def test_hinf_stops_at_near_double_crossing(monkeypatch):
    # 56-state flexible loop of the dense-trace benchmark workload (seed 1).
    # Just above the peak of |S - 1/2| (level 40.7973620 (1 + tol/2)) the
    # 1e-7 real-part window reports a near-double crossing at
    # 1.0603722122 rad/s; its gain stays below the level
    doc = json.loads((DATA / "dense_20.json").read_text())["model"]["ss"]
    L = ss(doc["A"], doc["B"], doc["C"], doc["D"])
    calls = _record_crossings(monkeypatch)
    pk = disk_margin(L, 0.0).peak_gain
    assert_allclose(pk.value, 40.797364608755, rtol=1e-9)
    assert_allclose(pk.frequency, 1.0603722122, rtol=1e-9)
    spurious = [f for gamma, f in calls if gamma > pk.value and f is not None and f.size]
    assert spurious
    assert_allclose(spurious[0], 1.0603722122, rtol=1e-9)


# ---- property test: peak gain against a numpy partial-fraction oracle -------

def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _block_response(sig, wd, b, c, ws):
    """C (jw I - M)^-1 B for the 2x2 modal block M = [[sig, wd], [-wd, sig]],
    at every w of ws; b is (2, m), c is (p, 2).  Shape (N, p, m)."""
    s = 1j * ws - sig
    # det(jw I - M) = (jw - p)(jw - conj p), p = sig + j wd, in factored
    # form: expanded, it cancels near the resonance
    det = (1j * (ws - wd) - sig) * (1j * (ws + wd) - sig)
    adj = np.empty((ws.size, 2, 2), dtype=complex)
    adj[:, 0, 0] = adj[:, 1, 1] = s
    adj[:, 0, 1], adj[:, 1, 0] = wd, -wd
    return np.einsum("pi,nij,jm->npm", c, adj, b) / det[:, None, None]


@st.composite
def modal_models(draw):
    """Stable models as a sum of modes plus feedthrough: lightly damped
    pairs (damping down to 1e-4), real poles, optionally a second pair
    whose resonance matches the first to within 1e-3, and a feedthrough
    from none to dominant.  Returns (model, gain, D, resonances, slack):
    model is the transfer function (SISO) or the state-space realization
    in a random orthogonal basis (up to 2 x 2); gain(ws) is the largest
    singular value of the modal sum at each finite w, in numpy alone;
    resonances lists (Re p, Im p) per pair; slack bounds the relative
    rounding of the model's own response near its peak."""
    form = draw(st.sampled_from(["tf", "ss"]))
    p, m = (1, 1) if form == "tf" else (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # resonances at least a factor 1.5 apart: three within 1e-4 of each
    # other at damping 1e-4 put |den(jw)| of the transfer function under
    # the pole test of its evaluation
    wn = draw(_log_uniform(0.1, 10.0))
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        pairs.append((wn, draw(_log_uniform(1e-4, 0.7))))
        wn *= draw(_log_uniform(1.5, 10.0))
    reals = [draw(_log_uniform(0.1, 100.0)) for _ in range(draw(st.integers(0, 2)))]
    if len(pairs) + len(reals) == 0:
        reals = [1.0]
    modes = []  # (sig, wd, b, c); a real pole has wd = 0 and uses entry 0 only
    for wn, zeta in pairs:
        modes.append((-zeta * wn, wn * math.sqrt(1.0 - zeta * zeta),
                      rng.standard_normal((2, m)), rng.standard_normal((p, 2))))
    for a in reals:
        b, c = np.zeros((2, m)), np.zeros((p, 2))
        b[0], c[:, 0] = rng.standard_normal(m), rng.standard_normal(p)
        modes.append((-a, 0.0, b, c))

    def mode_gain(mode, w):
        return np.linalg.svd(_block_response(*mode, np.array([w])), compute_uv=False)[0, 0]

    if len(pairs) >= 2 and draw(st.booleans()):
        # two near-equal peaks: rescale the second resonance onto the first
        s1, w1, b1, c1 = modes[1]
        ratio = mode_gain(modes[0], modes[0][1]) / mode_gain(modes[1], w1)
        modes[1] = (s1, w1, b1, c1 * ratio * (1.0 + draw(st.floats(-1e-3, 1e-3))))
    scale = max(max(mode_gain(md, 0.0), mode_gain(md, md[1])) for md in modes)
    D = rng.standard_normal((p, m)) * scale * draw(st.sampled_from([0.0, 0.1, 3.0]))
    resonances = [(sig, wd) for sig, wd, _, _ in modes if wd]

    if form == "tf":
        den, num = np.array([1.0]), np.zeros(1)
        for sig, wd, b, c in modes:
            cb = c[0] @ b[:, 0]
            if wd:  # c adj(sI - M) b over det(sI - M)
                dk = np.array([1.0, -2.0 * sig, sig * sig + wd * wd])
                nk = np.array([cb, -sig * cb + wd * (c[0, 0] * b[1, 0] - c[0, 1] * b[0, 0])])
            else:
                dk, nk = np.array([1.0, -sig]), np.array([cb])
            num = np.polyadd(np.polymul(num, dk), np.polymul(nk, den))
            den = np.polymul(den, dk)
        num = np.polyadd(num, D[0, 0] * den)

        def tf_gain(ws):
            return np.abs(np.polyval(num, 1j * ws) / np.polyval(den, 1j * ws))

        # the model's response is the same polyval
        return tf(num, den), tf_gain, D, resonances, 0.0

    def gain(ws):
        G = sum(_block_response(*md, ws) for md in modes) + D
        return np.linalg.svd(G, compute_uv=False)[:, 0]

    A = np.zeros((2 * len(modes), 2 * len(modes)))
    for k, (sig, wd, _, _) in enumerate(modes):
        A[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[sig, wd], [-wd, sig]]
    B = np.vstack([md[2] for md in modes])
    C = np.hstack([md[3] for md in modes])
    Q, _ = np.linalg.qr(rng.standard_normal(A.shape))
    # a solve of (jw I - A) x = B rounds at about n eps cond(jw I - A); A is
    # normal, so for w <= ||A|| that cond is at most 2 ||A|| / min |Re p|
    cond = 2.0 * np.linalg.norm(A, 2) / min(abs(md[0]) for md in modes)
    slack = 4.0 * A.shape[0] * np.finfo(float).eps * cond
    return ss(Q @ A @ Q.T, Q @ B, C @ Q.T, D), gain, D, resonances, slack


def _oracle_peak(gain, D, resonances):
    """Largest gain over w >= 0 and w = inf: a dense log grid, then a
    zoom from its best local maxima and across every resonance."""
    ws = np.concatenate([[0.0], np.geomspace(1e-4, 1e5, 20001)])
    g = gain(ws)
    best = max(float(np.max(g)), float(np.linalg.svd(D, compute_uv=False)[0]))
    inner = np.flatnonzero((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:])) + 1
    starts = [(ws[i - 1], ws[i + 1]) for i in sorted(inner, key=lambda i: -g[i])[:8]]
    starts += [(wd + 50.0 * sig, wd - 50.0 * sig) for sig, wd in resonances]
    for lo, hi in starts:
        for _ in range(20):
            x = np.linspace(max(lo, 0.0), hi, 41)
            gx = gain(x)
            j = int(np.argmax(gx))
            best = max(best, float(gx[j]))
            # a tenth of the width per round, free to walk past either end
            lo, hi = x[j] - 2 * (x[1] - x[0]), x[j] + 2 * (x[1] - x[0])
    return best


@settings(max_examples=150, deadline=None)
@given(modal_models())
def test_hinf_against_partial_fraction_oracle(case):
    model, gain, D, resonances, slack = case
    want = _oracle_peak(gain, D, resonances)
    pk = hinf_norm(model)
    assert pk.value >= want * (1 - 1e-6)
    assert pk.value <= want * (1 + 1e-12 + slack)
