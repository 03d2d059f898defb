"""Acceptance gate: one test per published criterion.

Each test is one pass/fail line under pytest -v.  Tolerances follow the
criteria: 2% relative against rounded reference values unless a tighter
or looser figure is stated for the item.  Oracle values used here were
derived independently (dense grid searches, hand algebra on the Mobius
map, quadratic formulas) before the library was written and are frozen
in the assertions.
"""

import cmath
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

import dmkit
from dmkit import (
    FrequencyGrid,
    build_m,
    classical_margins,
    disk_margin,
    eval_freq,
    freq_margin_trace,
    hinf_norm,
    is_stable,
    loop_at_a_time,
    mu_diag,
    multiloop_margin,
    poles,
    scalar_close,
    sensitivity_pair,
    tf,
    tfm,
    verify_destabilizing,
    verify_multiloop_destabilizing,
    worst_perturbation_lti,
)

L1 = tf([25], [1, 10, 10, 10])

BADL = tf(
    [-47.252, -20.234, -135.4086, 61.6166, 804.6454, 600.0611, 59.1451, 1.888],
    [99.8696, 175.5045, 673.7378, 890.5109, 553.1742, -49.2268, 12.1448, 1.0],
)

L5 = tf([6.25, 50, 93.75], [1, 2.18, 101.36, 200.18, 100, 0])


def satellite():
    P = tfm([[([1, -100], [1, 0, 100]), ([10, 10], [1, 0, 100])],
             [([-10, -10], [1, 0, 100]), ([1, -100], [1, 0, 100])]],
            feedback_sign="positive")
    K = tfm([[([-1], [1]), ([0], [1])], [([0], [1]), ([-1], [1])]],
            feedback_sign="positive")
    return P, K


@functools.lru_cache(maxsize=None)
def satellite_margin(points):
    # one sweep per channel set, shared by the criteria that quote it
    P, K = satellite()
    return multiloop_margin(build_m(P, K, points, 0.0))


def test_criterion_1_example1_classical_margins():
    cm = classical_margins(L1)
    assert cm.g_lower == 0.0
    assert_allclose(cm.g_upper, 3.6, rtol=0.02)
    assert_allclose(cm.critical_gain_freq, 3.16, rtol=0.02)
    assert_allclose(math.degrees(cm.phi_upper), 29.1, rtol=0.02)
    assert_allclose(cm.critical_phase_freq, 1.78, rtol=0.02)
    p = sorted(poles(scalar_close(L1, 1.0)), key=lambda z: z.real)
    assert_allclose(p[0], -9.33, rtol=0.02)
    assert_allclose(sorted(p[1:], key=lambda z: z.imag),
                    [-0.33 - 1.91j, -0.33 + 1.91j], rtol=0.02)


def test_criterion_2_example2_symmetric_disk_margin():
    d = disk_margin(L1, 0.0)
    assert_allclose(d.spec.alpha, 0.46, rtol=0.02)
    assert_allclose(d.omega_crit, 1.94, rtol=0.02)
    assert_allclose(d.peak_gain.value, 2.18, rtol=0.02)
    assert_allclose(d.delta0, 0.212 - 0.406j, rtol=0.02)
    assert_allclose(d.f0, 1.128 - 0.483j, rtol=0.02)
    assert_allclose(d.guaranteed_gm, (0.63, 1.59), rtol=0.02)
    assert_allclose(20 * math.log10(d.guaranteed_gm[1]), 4.05, rtol=0.02)
    assert_allclose(20 * math.log10(d.guaranteed_gm[0]), -4.05, rtol=0.02)
    assert_allclose(math.degrees(d.guaranteed_pm), 25.8, rtol=0.02)


def test_criterion_3_appendix_construction():
    # The printed reference pole "j1.94" is the critical frequency at
    # 3-figure precision; its exact value is 1.9550..., so a literal
    # 1e-3 window around j1.94 is unattainable by any correct build.
    # The 1e-3 pole check therefore runs against the computed critical
    # frequency, which itself must match 1.94 at the 2% tolerance used
    # for all rounded paper values.  See the decisions ledger.
    d = disk_margin(L1, 0.0)
    assert_allclose(d.omega_crit, 1.94, rtol=0.02)
    pert = worst_perturbation_lti(d.delta0, d.omega_crit, 0.0)
    # delta_hat = -0.458 (s - 3.226)/(s + 3.226) at 2%
    assert_allclose(pert.delta_hat.num.coeffs[0], -0.458, rtol=0.02)
    assert_allclose(-pert.delta_hat.num.coeffs[1] / pert.delta_hat.num.coeffs[0],
                    3.226, rtol=0.02)
    assert_allclose(pert.delta_hat.den.coeffs, [1.0, 3.226], rtol=0.02)
    # f_hat numerator 0.627 s + 3.226
    assert_allclose(pert.f_hat.num.coeffs, [0.627, 3.226], rtol=0.02)
    # denominator constant: independent oracle 2.024 (2%), frozen
    # high-precision evaluation 2.0297207755 (1e-6)
    assert_allclose(pert.f_hat.den.coeffs, [1.0, 2.024], rtol=0.02)
    assert_allclose(pert.f_hat.den.coeffs[1], 2.0297207755, rtol=1e-6)
    rep = verify_destabilizing(L1, pert, d.omega_crit)
    assert rep.verdict == "pass"
    assert abs(rep.pole - 1j * d.omega_crit) < 1e-3


def test_criterion_4_badl_margins_vs_disk():
    cm = classical_margins(BADL)
    assert_allclose(math.degrees(cm.phi_upper), 45.0, rtol=0.03)
    assert_allclose(cm.g_lower, 0.2, rtol=0.03)
    assert_allclose(cm.g_upper, 2.1, rtol=0.03)
    d = disk_margin(BADL, 1.0)
    assert d.spec.alpha < 0.3
    # dense-grid oracle for min |1 + L(jw)|, the sigma = +1 margin
    grid = np.geomspace(1e-3, 1e3, 60000)
    min_dist = min(abs(1 + eval_freq(BADL, w)) for w in grid)
    assert_allclose(d.spec.alpha, min_dist, rtol=1e-3)


def test_criterion_5_satellite_loop_at_a_time_vs_multiloop():
    P, K = satellite()
    # loop at a time: L1 = -1/s under positive feedback, i.e. 1/s once
    # sign-normalized; GM (0, inf), PM 90 deg, symmetric disk margin 2
    for ch in (0, 1):
        cm, dm = loop_at_a_time(P, K, ch, "input", 0.0)
        assert cm.g_lower <= 1e-9
        assert cm.g_upper == math.inf
        assert_allclose(math.degrees(cm.phi_upper), 90.0, rtol=0.02)
        assert_allclose(dm.spec.alpha, 2.0, rtol=0.02)
    # f1 = 0.9, f2 = 1.1 destabilizes despite those margins
    rep = verify_multiloop_destabilizing(P, K, "input", [0.9, 1.1])
    assert not rep.stable
    # multi-loop input margin bracket around 0.0997 (2% on the rounded value)
    rin = satellite_margin("input")
    assert rin.alpha_lower <= 0.0997 * 1.02
    assert rin.alpha_upper >= 0.0997 * 0.98
    assert_allclose(rin.alpha_upper, 0.0997, rtol=0.02)
    assert_allclose(rin.geometry.gamma_min, 0.905, rtol=0.02)
    assert_allclose(rin.geometry.gamma_max, 1.105, rtol=0.02)
    # input/output margin bracket around 0.0498
    rio = satellite_margin("io")
    assert rio.alpha_lower <= 0.0498 * 1.02
    assert rio.alpha_upper >= 0.0498 * 0.98
    assert_allclose(rio.geometry.gamma_min, 0.941, rtol=0.02)
    assert_allclose(rio.geometry.gamma_max, 1.051, rtol=0.02)
    # margins at the inputs equal the margins at the outputs within 1%
    rout = satellite_margin("output")
    assert_allclose(rout.alpha_upper, rin.alpha_upper, rtol=0.01)


def test_criterion_6_example5_trace_dip_and_tail():
    tr = freq_margin_trace(L5, 0.0)
    rows = [(w, a, pm) for w, a, pm in
            zip(tr.grid.points, tr.alpha_of_omega, tr.pm_of_omega)
            if 100.0 <= w < math.inf]
    assert rows, "default grid must reach 100 rad/s"
    for w, a, pm in rows:
        assert_allclose(a, 2.0, rtol=0.01)
        assert_allclose(math.degrees(pm), 90.0, rtol=0.01)
    # local dip: the margin inside [5, 20] drops below both endpoints
    dense = FrequencyGrid(tuple(np.geomspace(5.0, 20.0, 300)))
    tr2 = freq_margin_trace(L5, 0.0, dense)
    alphas = tr2.alpha_of_omega
    i = int(np.argmin(alphas))
    assert alphas[i] < alphas[0]
    assert alphas[i] < alphas[-1]
    assert 8.0 < tr2.grid.points[i] < 12.0  # dip sits near 10 rad/s


def test_criterion_7a_special_case_identities():
    for L in (L1, BADL):
        S, T = sensitivity_pair(L)
        assert_allclose(disk_margin(L, -1.0).spec.alpha,
                        1.0 / hinf_norm(T).value, rtol=1e-9)
        assert_allclose(disk_margin(L, 1.0).spec.alpha,
                        1.0 / hinf_norm(S).value, rtol=1e-9)
        # sigma = 0 equals the reciprocal peak of (S - T)/2
        Sr = S.representation
        Tr = T.representation
        half = dmkit.TransferFunction(
            np.polyadd(0.5 * np.polymul(Sr.num.coeffs, Tr.den.coeffs),
                       -0.5 * np.polymul(Tr.num.coeffs, Sr.den.coeffs)),
            np.polymul(Sr.den.coeffs, Tr.den.coeffs))
        assert_allclose(disk_margin(L, 0.0).spec.alpha,
                        1.0 / hinf_norm(dmkit.LtiModel(half)).value, rtol=1e-9)


def test_criterion_7b_s_plus_t_is_one():
    rng = np.random.default_rng(31)
    for _ in range(5):
        den = np.poly(-rng.uniform(0.1, 5.0, size=4))
        num = rng.standard_normal(4) * 0.5
        S, T = sensitivity_pair(tf(num, den))
        total = S.representation.num * T.representation.den + \
            T.representation.num * S.representation.den
        prod = S.representation.den * T.representation.den
        assert_allclose(total.coeffs, prod.coeffs, rtol=1e-9, atol=1e-9)


def test_criterion_7c_hinf_vs_dense_grid():
    S, _ = sensitivity_pair(L1)
    pk = hinf_norm(S)
    dense = np.geomspace(1e-4, 1e4, 100000)
    ref = max(abs(eval_freq(S, w)) for w in dense)
    ref = max(ref, abs(eval_freq(S, 0.0)), abs(eval_freq(S, math.inf)))
    assert_allclose(pk.value, ref, rtol=1e-3)
    assert pk.value >= ref * (1 - 1e-9)


def _random_stable_loops(n):
    rng = np.random.default_rng(53)
    out = []
    while len(out) < n:
        den = np.poly(-rng.uniform(0.2, 6.0, size=3))
        num = rng.standard_normal(3) * rng.uniform(0.3, 2.0)
        L = tf(num, den)
        try:
            if is_stable(scalar_close(L, 1.0)):
                out.append(L)
        except dmkit.DmkitError:
            continue
    return out


def test_criterion_7d_interior_sweeps_stay_stable():
    rng = np.random.default_rng(71)
    for L in _random_stable_loops(5):
        d = disk_margin(L, 0.0)
        alpha = min(d.spec.alpha, 50.0)  # huge margins need no wide sweep
        for _ in range(100):
            delta = 0.999 * alpha * math.sqrt(rng.uniform()) * \
                cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            den = 2.0 - delta
            if abs(den) < 1e-9:
                continue
            f = (2.0 + delta) / den
            assert is_stable(scalar_close(L, f))


def test_criterion_7e_mu_bounds_vs_brute_force():
    def brute(M):
        def rho(phi):
            U = np.diag([1.0, cmath.exp(1j * phi)])
            return max(abs(np.linalg.eigvals(U @ M)))
        grid = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
        vals = [rho(p) for p in grid]
        i = int(np.argmax(vals))
        res = minimize_scalar(lambda p: -rho(p),
                              bounds=(grid[i] - 0.01, grid[i] + 0.01),
                              method="bounded", options={"xatol": 1e-12})
        return max(vals[i], -res.fun)

    rng = np.random.default_rng(101)
    for _ in range(20):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ref = brute(M)
        res = mu_diag(M)
        assert res.upper == pytest.approx(ref, rel=5e-3)
        assert res.lower == pytest.approx(ref, rel=5e-3)


def test_criterion_7f_multiloop_below_loop_at_a_time():
    P, K = satellite()
    r = satellite_margin("input")
    singles = [loop_at_a_time(P, K, ch, "input", 0.0)[1].spec.alpha
               for ch in (0, 1)]
    assert r.alpha_upper <= min(singles) * (1 + 1e-9)


def test_criterion_7g_worst_case_determinant_residual():
    P, K = satellite()
    for pts in ("input", "io"):
        sysm = build_m(P, K, pts, 0.0)
        r = satellite_margin(pts)
        assert r.delta_worst is not None
        M0 = np.atleast_2d(eval_freq(sysm.M, r.omega_crit))
        resid = abs(np.linalg.det(np.eye(sysm.n) - M0 @ r.delta_worst))
        assert resid <= 1e-6 * max(1.0, np.linalg.norm(M0))


def test_criterion_8_scope_declaration():
    # Out of scope by design: the hard-disk-drive frequency-response
    # dataset (proprietary, no model published) and the airframe margins
    # 0.774 / 0.428 (require an external simulation model).  The channel
    # list API those studies motivate is exercised by the io and
    # explicit-list cases of criterion 5 and the mimo CLI tests.
    P, K = satellite()
    listed = build_m(P, K, [0, 1, 2, 3], 0.0)
    named = build_m(P, K, "io", 0.0)
    assert listed.n == named.n == 4
    for w in (0.05, 0.5):
        assert_allclose(eval_freq(listed.M, w), eval_freq(named.M, w), rtol=1e-9)
