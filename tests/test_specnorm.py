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

from dmkit import (FrequencyGrid, InputError, PoleOnAxisError, StateSpace, default_grid,
                   disk_margin, freq_response, hinf_norm, poles, sensitivity_pair, ss, tf)
from dmkit import specnorm
from dmkit.disk import _shifted_sensitivity
from dmkit.lti import _modal_form

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


# ---- the peak search, pinned bit for bit ------------------------------------

def _seeded_tf(seed):
    """A stable real transfer function of order 2 to 11: lightly damped
    pairs (damping 1e-3 to 0.5) and real poles, proper or strictly
    proper, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    roots = []
    while len(roots) < n - 1:
        wn, zeta = 10.0 ** rng.uniform(-1, 2), 10.0 ** rng.uniform(-3, math.log10(0.5))
        roots += [complex(-zeta * wn, wn * math.sqrt(1 - zeta * zeta))] * 2
        roots[-1] = roots[-1].conjugate()
    roots = (roots + [-10.0 ** rng.uniform(-1, 2)])[:n]
    den = np.poly(roots).real
    return tf(rng.standard_normal(n + int(rng.integers(0, 2))), den)


def _seeded_modal(seed, p, m):
    """A stable real state-space model of 16 to 24 states from
    default_rng(seed): lightly damped 2x2 modes in a random orthogonal
    basis, so its eigenvectors are well conditioned and freq_response
    sums it over its modes; p outputs and m inputs."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(8, 13))
    A = np.zeros((2 * k, 2 * k))
    for i in range(k):
        wn, zeta = 10.0 ** rng.uniform(-1, 2), 10.0 ** rng.uniform(-3, -0.5)
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[-zeta * wn, wn], [-wn, -zeta * wn]]
    Q = np.linalg.qr(rng.standard_normal((2 * k, 2 * k)))[0]
    return ss(Q @ A @ Q.T, rng.standard_normal((2 * k, m)), rng.standard_normal((p, 2 * k)),
              0.1 * rng.standard_normal((p, m)))


def _pinned_models():
    """name -> model whose hinf_norm is pinned below: the bundled loops'
    shifted sensitivities S + (sigma - 1)/2 at skew -1, 0 and 1, seeded
    transfer functions, seeded modal models with one or two inputs and
    outputs, and the 56-state dense-trace loop's S - 1/2."""
    models = {}
    for name in ("ex1_loop", "badl_loop", "resonant_loop"):
        for sigma in (-1.0, 0.0, 1.0):
            models["{}@{:+.0f}".format(name, sigma)] = _shifted_sensitivity(_bundled_loop(name),
                                                                            sigma)
    for seed in range(6):
        models["tf{}".format(seed)] = _seeded_tf(seed)
    for seed, (p, m) in enumerate([(1, 1), (2, 1), (1, 2), (2, 2)]):
        models["modal{}x{}".format(p, m)] = _seeded_modal(10 + seed, p, m)
    doc = json.loads((DATA / "dense_20.json").read_text())["model"]["ss"]
    models["dense_20@+0"] = _shifted_sensitivity(ss(doc["A"], doc["B"], doc["C"], doc["D"]), 0.0)
    return models


# float.hex of hinf_norm's value and frequency, recorded before the peak
# search's stencils moved to Python floats, the transfer-function response
# to one recurrence and the one-input level test to scalars
_PINNED_PEAKS = {
    "badl_loop@+0": ("0x1.f9a67b21de796p+2", "0x1.2c09e7965f94ap+1"),
    "badl_loop@+1": ("0x1.08ae45f5f9e2ep+3", "0x1.2c1c965353205p+1"),
    "badl_loop@-1": ("0x1.e39e7967d03c5p+2", "0x1.2bf40e8c903e4p+1"),
    "dense_20@+0": ("0x1.466100b254181p+5", "0x1.0f748da54b8c9p+0"),
    "ex1_loop@+0": ("0x1.176b65b0c761cp+1", "0x1.f47ca483614afp+0"),
    "ex1_loop@+1": ("0x1.3e4adf3eab1c8p+1", "0x1.01774ffe75564p+1"),
    "ex1_loop@-1": ("0x1.072cecfb75cb1p+1", "0x1.e028a2329bb9ep+0"),
    "modal1x1": ("0x1.59249c20a36b9p+6", "0x1.05b4d9bcc4316p-2"),
    "modal1x2": ("0x1.a0f373b13d342p+8", "0x1.3026f4e4fc26ap-1"),
    "modal2x1": ("0x1.18d0e8955d71ep+11", "0x1.f36040354d583p-4"),
    "modal2x2": ("0x1.4ab334fa97e09p+9", "0x1.379b9ce100889p-1"),
    "resonant_loop@+0": ("0x1.649b3ba36072bp+0", "0x1.95410b7c3766cp-1"),
    "resonant_loop@+1": ("0x1.b5798965d31b2p+0", "0x1.bdca7af4e4989p-1"),
    "resonant_loop@-1": ("0x1.619d9b95af8dap+0", "0x1.55aafe7fa71bbp-1"),
    "tf0": ("0x1.cc6b0b71a13e1p+5", "0x1.ba3a68d338cb3p+5"),
    "tf1": ("0x1.4c7d7d05f9695p+11", "0x1.1bfb73f1d6153p+6"),
    "tf2": ("0x1.6e4d8a09623a0p+2", "0x1.2bc77374a597ap-3"),
    "tf3": ("0x1.2be9a40fb084cp+10", "0x1.c12fca526dfe0p-3"),
    "tf4": ("0x1.68e72e085b0a9p+5", "0x1.65c0118f54ef1p-3"),
    "tf5": ("0x1.2591ba8ccd88fp+4", "0x1.17ff79a17915ap-3"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_PEAKS))
def test_hinf_norm_is_pinned_bit_for_bit(name):
    pk = hinf_norm(_pinned_models()[name])
    assert (pk.value.hex(), float(pk.frequency).hex()) == _PINNED_PEAKS[name]


def test_pinned_models_cover_both_kernels_and_level_tests():
    # every model is pinned; the modal kernel runs, and the level test
    # takes both its one-input and its general branch
    models = _pinned_models()
    assert sorted(_PINNED_PEAKS) == sorted(models)
    ss_models = [m.representation for m in models.values()
                 if isinstance(m.representation, StateSpace)]
    assert any(r.nstates >= 16 and _modal_form(r) is not None for r in ss_models)
    assert {r.D.shape[1] for r in ss_models} == {1, 2}


def _synthetic_gain(ws):
    """A gain with every sample _climb must take as numpy's guarded
    arithmetic does: a peak of 1/sqrt((w - 1)^2 + 0.04) below 2.8, -inf
    (a pole, as the mu sweep marks one) on [2.8, 3.2), a plateau of exact
    ties at 2 on [5, 5.5], notched to 1.5 on [5.2, 5.3) and sloping off
    on either side, nan on [8, 8.5), 0 on [8.5, 10) and a peak at 12
    above."""
    w = np.asarray(ws, dtype=float)
    with np.errstate(divide="ignore"):
        return np.select(
            [w < 2.8, w < 3.2, w < 5.0, (w >= 5.2) & (w < 5.3), w <= 5.5, w < 8.0, w < 8.5,
             w < 10.0],
            [1.0 / np.sqrt((w - 1.0) ** 2 + 0.04), -np.inf, 2.0 / (6.0 - w), 1.5, 2.0,
             2.0 / (w - 4.5), np.nan, 0.0],
            1.0 / np.sqrt((w - 12.0) ** 2 + 1e-4))


# (start w, start h) of each climb below and every stencil it samples (the
# floats' reprs round-trip exactly), recorded before the climb's
# bookkeeping moved from numpy scalars to Python floats
_PINNED_CLIMBS = {
    (1.3, 0.25): [(1.05, 1.3, 1.55), (0.7, 1.0, 1.3)],
    (0.0, 0.5): [(0.5, 0.0, 0.5), (0.5, 0.5, 1.5)],
    (2.7, 0.15): [
        (2.5500000000000003, 2.7, 2.85),
        (2.2500000000000004, 2.5500000000000003, 2.85),
        (1.6500000000000004, 2.2500000000000004, 2.8500000000000005),
        (0.4500000000000004, 1.6500000000000004, 2.8500000000000005),
        (1.9499999999999995, 0.4500000000000004, 2.8500000000000005),
        (0.4500000000000002, 4.842233009708736, 9.234466019417471),
        (3.942233009708736, 4.842233009708736, 13.626699029126208),
        (0.2464161120195758, 2.544324560864156, 4.842233009708736),
        (2.544324560864156, 4.842233009708736, 7.140141458553316),
        (4.842233009708736, 5.066402479986925, 5.290571950265114),
        (4.978724888419254, 5.02256368420309, 5.066402479986925),
        (5.02256368420309, 5.044483082095007, 5.066402479986924),
    ],
    (3.0, 0.1): [(2.9, 3.0, 3.1)],
    (3.15, 0.1): [(3.05, 3.15, 3.25), (3.0500000000000003, 3.1, 3.15)],
    (2.95, 0.3): [
        (2.6500000000000004, 2.95, 3.25),
        (2.95, 2.9781061114842178, 3.0062122229684354),
    ],
    (5.45, 0.1): [(5.3500000000000005, 5.45, 5.55), (5.3500000000000005, 5.4, 5.45)],
    (5.25, 0.1): [
        (5.15, 5.25, 5.35),
        (4.95, 5.15, 5.3500000000000005),
        (5.15, 5.25, 5.35),
        (5.050000000000001, 5.15, 5.25),
        (5.050000000000001, 5.1000000000000005, 5.15),
    ],
    (5.25, 0.06): [(5.19, 5.25, 5.31), (5.07, 5.19, 5.3100000000000005)],
    (4.5, 0.4): [
        (4.1, 4.5, 4.9),
        (4.1000000000000005, 4.9, 5.7),
        (4.9, 5.230038022813688, 5.560076045627376),
        (4.9, 5.560076045627376, 6.220152091254752),
        (4.95925276189357, 5.259664403760473, 5.560076045627376),
        (4.3584294781597634, 4.95925276189357, 5.560076045627376),
        (4.95925276189357, 5.244897912669065, 5.53054306344456),
        (4.95925276189357, 5.53054306344456, 6.101833364995549),
        (4.975088546296265, 5.252815804870412, 5.53054306344456),
        (4.41963402914797, 4.975088546296265, 5.53054306344456),
        (4.975088546296265, 5.248407959738257, 5.52172737318025),
        (4.975088546296264, 5.52172737318025, 6.0683662000642355),
        (4.980097482113404, 5.250912427646827, 5.52172737318025),
        (4.438467591046559, 4.980097482113404, 5.521727373180249),
        (4.980097482113404, 5.249473004249061, 5.518848526384717),
        (4.980097482113404, 5.518848526384717, 6.057599570656031),
        (4.981762957056798, 5.250305741720758, 5.518848526384717),
        (4.44467738772888, 4.981762957056798, 5.5188485263847165),
        (4.981762957056798, 5.249822161501005, 5.517881365945211),
        (4.981762957056798, 5.517881365945211, 6.053999774833624),
        (4.9823258293463795, 5.250103597645795, 5.517881365945211),
        (4.446770292747549, 4.9823258293463795, 5.51788136594521),
        (4.9823258293463795, 5.249939597593429, 5.517553365840479),
        (4.982325829346379, 5.517553365840479, 6.05278090233458),
        (4.9825171051290695, 5.250035235484774, 5.517553365840479),
        (4.44748084441766, 4.9825171051290695, 5.517553365840479),
        (4.9825171051290695, 5.249979439411472, 5.517441773693875),
        (4.98251710512907, 5.517441773693875, 6.05236644225868),
        (4.982582225478261, 5.250011999586068, 5.517441773693875),
        (4.447722677262646, 4.982582225478261, 5.517441773693876),
        (4.982582225478261, 5.249992996082686, 5.517403766687112),
        (4.982582225478261, 5.517403766687112, 6.052225307895963),
    ],
    (7.6, 0.3): [
        (7.3, 7.6, 7.8999999999999995),
        (6.7, 7.3, 7.8999999999999995),
        (5.5, 6.7, 7.9),
        (2.3000000000000003, 4.5, 6.699999999999999),
        (4.5, 4.815151515151516, 5.130303030303033),
        (4.815151515151516, 5.260514137911723, 5.705876760671929),
        (4.36978889239131, 4.815151515151516, 5.260514137911723),
        (4.815151515151516, 4.935520916729233, 5.05589031830695),
        (4.935520916729233, 5.112123085747422, 5.288725254765611),
        (4.9871373235800895, 5.049630204663756, 5.112123085747422),
        (5.049630204663756, 5.080876645205589, 5.112123085747423),
    ],
    (7.9, 0.15): [(7.75, 7.9, 8.05)],
    (8.2, 0.2): [(7.999999999999999, 8.2, 8.399999999999999)],
    (8.5, 0.5): [(8.0, 8.5, 9.0)],
    (9.0, 0.3): [(8.7, 9.0, 9.3)],
    (9.95, 0.5): [(9.45, 9.95, 10.45)],
    (11.0, 0.5): [
        (10.5, 11.0, 11.5),
        (11.0, 11.999999999999998, 12.999999999999996),
        (11.9375, 12.0, 12.0625),
    ],
}


@pytest.mark.parametrize("start", sorted(_PINNED_CLIMBS))
def test_climb_samples_the_pinned_stencils(start):
    stencils, cand = [], []

    def gains(ws):
        stencils.append([float(w) for w in ws])
        return _synthetic_gain(ws)

    specnorm._climb(gains, cand, *start)
    assert [tuple(ws) for ws in stencils] == _PINNED_CLIMBS[start]
    # every sample joins the candidates as a pair of Python floats
    ws = [w for s in stencils for w in s]
    assert all(type(w) is float and type(g) is float for w, g in cand)
    assert [(w.hex(), repr(g)) for w, g in cand] == [
        (w.hex(), repr(g)) for w, g in zip(ws, _synthetic_gain(ws).tolist())]


def _crossings_by_block(A, B, C, D, gamma):
    """_axis_crossings by the general 2-D assembly, the oracle of its
    one-input branch: eigvalsh and inv of R = gamma^2 I - D^T D, and the
    Hamiltonian by np.block."""
    R = gamma * gamma * np.eye(D.shape[1]) - D.T @ D
    if np.min(np.linalg.eigvalsh(R)) <= 0.0:
        return None
    Ri = np.linalg.inv(R)
    ARC = A + B @ Ri @ D.T @ C
    H = np.block([
        [ARC, B @ Ri @ B.T],
        [-C.T @ (np.eye(D.shape[0]) + D @ Ri @ D.T) @ C, -ARC.T],
    ])
    lam = np.linalg.eigvals(H)
    on_axis = lam[np.abs(lam.real) <= 1e-7 * np.maximum(1.0, np.abs(lam))]
    return np.unique(np.abs(on_axis.imag))


def test_axis_crossings_equal_the_block_assembly():
    # levels below, at and just above sigma_max(D), and across the gain
    # curve: the same array, bit for bit, or None, with one input or two
    rng = np.random.default_rng(41)
    for k in range(240):
        # one input in two draws of three, the general branch in the third
        n, p, m = int(rng.integers(1, 9)), 1 + k % 2, 1 if k % 3 else 2
        A = rng.standard_normal((n, n)) - (0.5 + abs(rng.standard_normal())) * n * np.eye(n)
        B, C = rng.standard_normal((n, m)), rng.standard_normal((p, n))
        D = rng.standard_normal((p, m)) * rng.choice([0.0, 0.1, 1.0])
        d = np.linalg.norm(D, 2)
        gains = np.linalg.svd(freq_response(ss(A, B, C, D), 10.0 ** rng.uniform(-2, 2, 4))[0]
                              .reshape(4, p, m), compute_uv=False)[:, 0]
        levels = [0.5 * d, d + 1e-3, *gains, *(1.5 * gains)]
        if m == 1:
            # at sigma_max(D) of two inputs R is singular to rounding, and
            # inv may raise on it: hinf_norm's levels stay 1 + _TOL/2 above
            levels += [d, d * (1 + 1e-9)]
        for gamma in levels:
            got = specnorm._axis_crossings(A, B, C, D, gamma)
            want = _crossings_by_block(A, B, C, D, gamma)
            assert (got is None) == (want is None), (k, gamma)
            if want is not None:
                assert got.tobytes() == want.tobytes(), (k, gamma)


def test_axis_crossings_at_the_feedthrough_gain_of_two_inputs():
    # at gamma = sigma_max(D), R = gamma^2 I - D^T D is singular, yet its
    # computed least eigenvalue can be positive: inv then raises, and the
    # level, not above the feedthrough gain, has no crossing set
    D = np.array([[0.0, -1.25, 0.75]])
    A, B, C = -np.eye(2), np.ones((2, 3)), np.ones((1, 2))
    assert specnorm._axis_crossings(A, B, C, D, np.linalg.norm(D, 2)) is None


@pytest.mark.xfail(strict=True, raises=PoleOnAxisError,
                   reason="the transfer-function pole test flags points next to three resonances "
                          "within 1e-4 of each other as poles")
def test_hinf_of_three_close_resonances():
    # a stable transfer function whose three resonances at damping ~1e-4
    # lie within 1e-4 of 1 rad/s: |den(jw)| <= 1e-12 (|den|(|w|) + 1)
    # holds at 4815 of 200001 points in [0.999, 1.001], so the climb hits
    # a "pole" near the peak, where a dense evaluation shows at least 7547
    t = tf([0.09693499, 1.69888719, 0.19456522, 3.39773477, 0.09763023, 1.69884752],
           [1, 6.13861926e-4, 3.00000013, 1.22772386e-3, 3.00000013, 6.13861926e-4, 1])
    assert np.all(poles(t).real < 0.0)
    assert hinf_norm(t).value >= 7547
