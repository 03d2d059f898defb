import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmkit import FrequencyGrid, InputError, default_grid, hinf_norm, sensitivity_pair, ss, tf


def test_grid_validation():
    g = FrequencyGrid((0.0, 1.0, 2.0, math.inf))
    assert g.finite == (0.0, 1.0, 2.0)
    with pytest.raises(InputError):
        FrequencyGrid((1.0, 1.0))
    with pytest.raises(InputError):
        FrequencyGrid((-1.0, 2.0))


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
