"""Multi-loop margin machinery.

The mu bounds are cross-checked against a brute-force oracle that never
touches the scaling or phase-ascent code: for diagonal complex
uncertainty, mu(M) = max over unit-modulus diagonal U of the spectral
radius of U M, so a fine phase sweep plus a local polish gives an
independent reference for 2x2 problems.
"""

import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from dmkit import (
    InputError,
    LtiModel,
    NominalInstabilityError,
    StateSpace,
    WellPosednessError,
    build_m,
    disk_map,
    disk_map_inv,
    disk_margin,
    eval_freq,
    freq_response,
    is_stable,
    loop_at_a_time,
    mu_diag,
    multiloop_margin,
    poles,
    scalar_close,
    single_loop_margins,
    siso_loop,
    ss,
    tf,
    tfm,
    verify_multiloop_destabilizing,
)
from dmkit import DiskSpec, classical, classical_margins, cli, guaranteed_gm_pm, multiloop, specnorm
from dmkit.multiloop import MDeltaSystem, _broken_loop, _mu_upper
from dmkit.specnorm import _peak_seed

DATA = Path(__file__).parent / "data"


def satellite():
    P = tfm([[([1, -100], [1, 0, 100]), ([10, 10], [1, 0, 100])],
             [([-10, -10], [1, 0, 100]), ([1, -100], [1, 0, 100])]],
            feedback_sign="positive")
    K = tfm([[([-1], [1]), ([0], [1])], [([0], [1]), ([-1], [1])]],
            feedback_sign="positive")
    return P, K


def mu_brute_2x2(M):
    """Independent reference: spectral-radius sweep over diagonal phases."""
    M = np.asarray(M, dtype=complex)

    def rho(phi):
        U = np.diag([1.0, cmath.exp(1j * phi)])
        return max(abs(np.linalg.eigvals(U @ M)))

    grid = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    vals = [rho(p) for p in grid]
    i = int(np.argmax(vals))
    lo, hi = grid[i] - 2 * math.pi / 720, grid[i] + 2 * math.pi / 720
    res = minimize_scalar(lambda p: -rho(p), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(vals[i], -res.fun)


def test_mu_bounds_vs_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(20):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ref = mu_brute_2x2(M)
        res = mu_diag(M)
        assert res.lower <= res.upper + 1e-12
        assert res.upper >= ref * (1 - 5e-3)
        assert res.upper <= ref * (1 + 5e-3)
        assert res.lower >= ref * (1 - 5e-3)
        assert res.lower <= ref * (1 + 5e-3)


def test_mu_scaling_equivariance():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = mu_diag(M)
    scaled = mu_diag(3.7 * M)
    assert_allclose(scaled.upper, 3.7 * base.upper, rtol=1e-9)
    assert_allclose(scaled.lower, 3.7 * base.lower, rtol=1e-7)


MU_FAMILIES = ("plain", "badly scaled", "near rank one", "near triangular")


def mu_family(kind, n, rng):
    """A seeded complex n x n matrix of one of MU_FAMILIES."""
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "badly scaled":
        d = np.exp(4.0 * rng.choice([-1.0, 1.0], n))
        M = d[:, None] * M / d[None, :]
    elif kind == "near rank one":
        u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        M = np.outer(u, v) + 1e-3 * M
    elif kind == "near triangular":
        M = np.triu(M) + 1e-3 * np.tril(M, -1)
    return M


def test_mu_certificate_is_singular():
    rng = np.random.default_rng(19)
    for kind in MU_FAMILIES:
        for n in range(2, 7):
            for _ in range(3):
                M = mu_family(kind, n, rng)
                res = mu_diag(M)
                if res.delta_worst is None:
                    continue
                resid = abs(np.linalg.det(np.eye(n) - M @ res.delta_worst))
                assert resid <= 1e-6 * np.linalg.norm(M)
                assert_allclose(np.max(np.abs(np.diag(res.delta_worst))),
                                1.0 / res.lower, rtol=1e-9)


def count_descents(monkeypatch):
    """Record the number of start rows of every multiloop._descend call."""
    calls = []
    descend = multiloop._descend

    def counting(fg, x):
        calls.append(len(x))
        return descend(fg, x)

    monkeypatch.setattr(multiloop, "_descend", counting)
    return calls


@pytest.mark.parametrize("kind", MU_FAMILIES)
def test_mu_lower_meets_upper_for_two_and_three_channels(kind, monkeypatch):
    # the D-scaled bound equals mu for n <= 3, so the lower bound must
    # reach it to the descent's tolerance, and the closed-form phases of
    # the top singular pair reach it with no ascent: the upper bound's
    # descent is the only one
    calls = count_descents(monkeypatch)
    rng = np.random.default_rng([23, MU_FAMILIES.index(kind)])
    for n in (2, 3):
        for _ in range(25):
            calls.clear()
            res = mu_diag(mu_family(kind, n, rng))
            assert calls == ([] if n == 2 else [1])
            assert res.upper * (1 - 1e-9) <= res.lower <= res.upper


@pytest.mark.parametrize("points", ["input", "io"])
def test_satellite_peak_bracket_closes_without_ascent(points, monkeypatch):
    sysm = build_m(*satellite(), points, 0.0)
    M0 = eval_freq(sysm.M, multiloop_margin(sysm).omega_crit)
    calls = count_descents(monkeypatch)
    res = mu_diag(M0)
    assert calls == ([] if M0.shape[0] == 2 else [1])
    assert res.upper * (1 - 1e-9) <= res.lower <= res.upper
    assert res.converged


def test_mu_fallback_ascent_keeps_its_result(monkeypatch):
    # the closed-form phases leave this bracket open (rho 5.47 against an
    # upper bound of 5.66), so the six-start ascent runs; lower and
    # delta_worst are the values it gave when it ran on every call, with
    # the starts drawn from seed 0 (numpy 2.4, OpenBLAS, x86-64)
    M = mu_family("badly scaled", 8, np.random.default_rng(1))
    calls = count_descents(monkeypatch)
    res = mu_diag(M)
    assert calls == [1, 6]
    assert res.converged
    assert res.lower == float.fromhex("0x1.6548e4abb21fbp+2")
    want = [complex(float.fromhex(re), float.fromhex(im)) for re, im in [
        ("0x1.31908b4a1a017p-3", "0x1.9605a6a555b70p-4"),
        ("-0x1.6e4c4f554f5e4p-3", "0x1.438dc9b4a350dp-7"),
        ("-0x1.2a56e12b6e3bcp-6", "0x1.6cf499d4798dfp-3"),
        ("0x1.6b5b42923d462p-3", "-0x1.946613dbfef6dp-6"),
        ("-0x1.8dd710b84b2cfp-5", "-0x1.611db39c9e946p-3"),
        ("-0x1.2a3156300fb2bp-3", "-0x1.ab625d9e850bep-4"),
        ("0x1.a009b651adb2dp-6", "0x1.6b26af1a4c8f5p-3"),
        ("-0x1.0e3d2982aaaedp-6", "-0x1.6d4c1e145ed86p-3"),
    ]]
    assert np.array_equal(res.delta_worst, np.diag(want))


@pytest.mark.parametrize("M", [
    [[0.0, 1.0], [0.0, 0.0]],
    [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    [[1.0, 1e6, 3.0], [0.0, 2.0, 1e6], [0.0, 0.0, 0.5]],
    np.diag([1.5, 0.0]),
], ids=["nilpotent", "jordan", "nilpotent jordan", "wide triangular", "singular diagonal"])
def test_mu_degenerate_matrices(M):
    # defective or singular U M: the eigenvector basis of the lower-bound
    # gradient is singular, or the spectral radius is zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = mu_diag(np.array(M))
    assert math.isfinite(res.upper) and math.isfinite(res.lower)
    assert 0.0 <= res.lower <= res.upper


def test_mu_diagonal_matrix_exact():
    # mu of a diagonal matrix is its largest entry magnitude
    M = np.diag([1.5 + 0j, -0.4 + 0.3j])
    res = mu_diag(M)
    assert_allclose(res.upper, 1.5, rtol=1e-7)
    assert_allclose(res.lower, 1.5, rtol=1e-7)


def test_mu_rank_one_exact():
    # rank-one M: mu equals sum of |row . col| pieces; check via brute force
    u = np.array([[1.0], [0.5 - 0.2j]])
    v = np.array([[0.3 + 0.1j, -0.8]])
    M = u @ v
    ref = mu_brute_2x2(M)
    res = mu_diag(M)
    assert_allclose(res.upper, ref, rtol=1e-6)
    assert_allclose(res.lower, ref, rtol=1e-6)


def test_build_m_shapes_and_points():
    P, K = satellite()
    assert build_m(P, K, "input", 0.0).n == 2
    assert build_m(P, K, "output", 0.0).n == 2
    assert build_m(P, K, "io", 0.0).n == 4
    assert build_m(P, K, [0, 1], 0.0).n == 2
    with pytest.raises(InputError):
        build_m(P, K, [7], 0.0)
    with pytest.raises(InputError):
        build_m(P, K, "sideways", 0.0)


@pytest.mark.parametrize("points", ["01", "10", "0", "", "Input"])
def test_resolve_points_rejects_strings_that_name_no_points(points):
    # a string is not iterated character by character into a channel list
    with pytest.raises(InputError, match="points must be"):
        multiloop.resolve_points(points, 2, 2)
    with pytest.raises(InputError, match="points must be"):
        build_m(*satellite(), points, 0.0)


def test_build_m_channel_list_matches_named_points():
    P, K = satellite()
    a = build_m(P, K, "input", 0.0)
    b = build_m(P, K, [0, 1], 0.0)
    for w in (0.03, 0.3, 3.0):
        assert_allclose(eval_freq(b.M, w), eval_freq(a.M, w), rtol=1e-9)
    c = build_m(P, K, "io", 0.0)
    d = build_m(P, K, [0, 1, 2, 3], 0.0)
    for w in (0.03, 0.3, 3.0):
        assert_allclose(eval_freq(d.M, w), eval_freq(c.M, w), rtol=1e-9)


def test_satellite_mu_matches_analytic_curve():
    # input-points M for the satellite has mu^2 = 1/4 + (100+10w)/(1+w^2)
    P, K = satellite()
    sysm = build_m(P, K, "input", 0.0)
    for w in (0.01, 0.05, 1.0, 10.0):
        want = math.sqrt(0.25 + (100.0 + 10.0 * w) / (1.0 + w * w))
        M0 = eval_freq(sysm.M, w)
        res = mu_diag(M0)
        assert_allclose(res.upper, want, rtol=1e-6)
        assert_allclose(res.lower, want, rtol=1e-5)


def test_satellite_input_margin():
    P, K = satellite()
    res = multiloop_margin(build_m(P, K, "input", 0.0))
    assert_allclose(res.alpha_lower, 0.0997512422, rtol=1e-6)
    assert_allclose(res.alpha_upper, 0.0997512422, rtol=1e-6)
    assert res.alpha_lower <= res.alpha_upper + 1e-15
    assert_allclose(res.omega_crit, 0.0498756211, rtol=1e-3)
    assert_allclose(res.geometry.gamma_min, 0.9049875621, rtol=1e-6)
    assert_allclose(res.geometry.gamma_max, 1.1049875621, rtol=1e-6)
    assert not res.inconclusive_gap


def test_satellite_io_margin():
    P, K = satellite()
    res = multiloop_margin(build_m(P, K, "io", 0.0))
    assert_allclose(res.alpha_upper, 0.0498446426, rtol=1e-5)
    assert res.alpha_upper - res.alpha_lower <= 0.01 * res.alpha_upper
    # no wider than the bracket of the scalar cyclic line-search sweep
    assert 0.0 <= res.alpha_upper - res.alpha_lower <= 1.53e-7
    assert_allclose(res.geometry.gamma_min, 0.9513674, rtol=1e-5)
    assert_allclose(res.geometry.gamma_max, 1.0511186, rtol=1e-5)


def test_satellite_io_sweep_is_pinned_bit_for_bit():
    # float.hex of the sampled peak's margin and frequency, recorded before
    # the climb's stencil bookkeeping moved to Python floats
    res = multiloop_margin(build_m(*satellite(), "io", 0.0))
    assert res.alpha_lower.hex() == "0x1.9853ca8de2de4p-5"
    assert float(res.omega_crit).hex() == "0x1.989453cdd914bp-5"


def test_satellite_input_equals_output_margin():
    P, K = satellite()
    a = multiloop_margin(build_m(P, K, "input", 0.0))
    b = multiloop_margin(build_m(P, K, "output", 0.0))
    assert_allclose(b.alpha_lower, a.alpha_lower, rtol=1e-6)
    assert_allclose(b.alpha_upper, a.alpha_upper, rtol=1e-6)


def test_satellite_loop_at_a_time():
    P, K = satellite()
    for ch in (0, 1):
        for loc in ("input", "output"):
            cm, dm = loop_at_a_time(P, K, ch, loc, 0.0)
            assert cm.g_lower == 0.0
            assert cm.g_upper == math.inf
            assert_allclose(math.degrees(cm.phi_upper), 90.0, rtol=1e-9)
            assert_allclose(dm.spec.alpha, 2.0, rtol=1e-9)
            # alpha(1+sigma) = 2: guaranteed disk covers the half plane
            assert dm.guaranteed_gm == (0.0, math.inf)
            assert dm.guaranteed_pm == math.inf


def test_satellite_simultaneous_perturbation_destabilizes():
    # f1 = 0.9, f2 = 1.1 sits outside the multi-loop margin disk
    P, K = satellite()
    rep = verify_multiloop_destabilizing(P, K, "input", [0.9, 1.1])
    assert not rep.stable
    assert rep.nearest_pole.real > 0
    assert_allclose(rep.nearest_pole.real, 0.0049875621, rtol=1e-6)


def test_satellite_multiloop_below_loop_at_a_time():
    P, K = satellite()
    res = multiloop_margin(build_m(P, K, "input", 0.0))
    worst_single = min(loop_at_a_time(P, K, ch, "input", 0.0)[1].spec.alpha
                       for ch in (0, 1))
    assert res.alpha_upper <= worst_single + 1e-9


def test_multiloop_sweep_finds_resonance_between_grid_points():
    # a 4-state pair whose closed loop has a mode of damping 4.5e-3 near
    # 6.44 rad/s: mu peaks there in a band far narrower than the 400-point
    # grid spacing, and the sweep sees it only through the pole frequencies
    A = [[0.0, 0.3143727260801054, 0.0, 0.0],
         [-0.3143727260801054, -0.00539772082367326, 0.0, 0.0],
         [0.0, 0.0, 0.0, 6.213739152004728],
         [0.0, 0.0, -6.213739152004728, -0.05038718579332258]]
    B = [[-1.2622253805141594, -0.47341736129872586], [-0.7062228560015639, 2.6815239418282255],
         [0.6656853154321596, -0.23351340239983], [-0.08812784364190931, -0.15912601067363405]]
    C = [[0.1487927914429708, -0.4461911395291876, -0.0577836274295121, 0.9892451092162144],
         [0.7935862239201589, 0.2697063070966735, 1.2956277319396536, 0.18484602737633887]]
    K = [[-0.8204546632381382, -0.03556443567676527],
         [-0.07952754015795842, 0.2332706801466752]]
    P = ss(A, B, C, np.zeros((2, 2)))
    Kss = ss(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), K)
    sysm = build_m(P, Kss, "input", 0.0)
    res = multiloop_margin(sysm)
    single = min(loop_at_a_time(P, Kss, ch, "input", 0.0)[1].spec.alpha for ch in (0, 1))
    assert res.alpha_upper <= single * (1 + 1e-9)
    assert_allclose(res.omega_crit, 6.441, rtol=1e-3)
    vals, ok = freq_response(sysm.M, np.linspace(0.98, 1.02, 2001) * 6.44011713)
    assert ok.all()
    assert res.alpha_lower <= 1.0 / np.max(_mu_upper(vals)[0]) * (1 + 1e-9)


def test_multiloop_climbs_each_peak_in_stencils(monkeypatch):
    # the sweep is followed by the climb of each distinct peak, one
    # 3-point stencil a step and at most _CLIMB_STEPS steps a peak
    calls, climbs = [], []
    upper_on, climb = multiloop._upper_on, specnorm._climb

    def recording(sys, ws, x0=None):
        calls.append((len(climbs), len(ws)))
        return upper_on(sys, ws, x0)

    def counting(gains, cand, w, h):
        climbs.append(w)
        return climb(gains, cand, w, h)

    monkeypatch.setattr(multiloop, "_upper_on", recording)
    monkeypatch.setattr(specnorm, "_climb", counting)
    multiloop_margin(build_m(*satellite(), "io", 0.0))
    assert calls[0][0] == 0 and calls[0][1] > 400
    assert climbs and all(n == 3 for _, n in calls[1:])
    for k in range(1, len(climbs) + 1):
        assert 1 <= sum(c == k for c, _ in calls) <= specnorm._CLIMB_STEPS


def test_multiloop_worst_case_closes_to_axis():
    P, K = satellite()
    res = multiloop_margin(build_m(P, K, "input", 0.0))
    assert res.delta_worst is not None
    deltas = np.diag(res.delta_worst)
    fs = [(2.0 + d) / (2.0 - d) for d in deltas]
    rep = verify_multiloop_destabilizing(P, K, "input", fs, omega=res.omega_crit)
    assert rep.axis_distance <= 1e-4 * max(1.0, res.omega_crit)
    assert rep.target_distance <= 1e-3


@pytest.mark.parametrize("w, disk_family", [(2.0, True), (0.5, False)])
def test_complex_factor_closes_through_its_value(w, disk_family):
    # f = -1/L(jw) puts a closed-loop pole at jw.  With Re f > 0 its disk
    # point at skew 0 lies inside |d| < 2 and the disk family's all-pass
    # realizes f; with Re f <= 0 none does, and f closes as the plain
    # all-pass through f at w
    P = tf([25], [1, 10, 10, 10])
    f = -1.0 / complex(eval_freq(P, w))
    assert (f.real > 0) == disk_family and abs(f.imag) > 0.1
    rep = verify_multiloop_destabilizing(P, None, "input", [f], omega=w)
    assert rep.target_distance <= 1e-9 * max(1.0, w)


def test_real_factor_off_the_disk_family_closes_as_a_constant():
    # f = -1 at skew 0 has no disk point (disk_map_inv gives inf), so the
    # disk family builds nothing and f closes as the constant -1
    P = tf([25], [1, 10, 10, 10])
    assert disk_map_inv(-1.0, 0.0) == math.inf
    rep = verify_multiloop_destabilizing(P, None, "input", [-1.0])
    p = poles(scalar_close(P, tf([-1.0], [1.0])))
    assert rep.stable is False
    assert rep.nearest_pole == pytest.approx(p[np.argmin(np.abs(p.real))], rel=1e-9)


def test_switch_off_certificate_is_an_ill_posed_closure():
    # seed 1 mimo_06.json of bench/workloads.generate("mimo-margins", 1, dir):
    # its certificate at the input is delta = diag(2, 2) at omega_crit = inf,
    # where f = inf switches both loops off, so no closure realizes it
    P, K, _, _ = cli._load_model_file(str(DATA / "mimo_06.json"))
    res = multiloop_margin(build_m(P, K, "input", 0.0))
    assert res.omega_crit == math.inf
    fs = [disk_map(d, 0.0) for d in np.diag(res.delta_worst)]
    assert fs == [math.inf, math.inf]
    rep = verify_multiloop_destabilizing(P, K, "input", fs, res.omega_crit)
    assert rep.stable is False and rep.nearest_pole is None
    assert rep.messages[0].startswith("closure is ill posed")


def test_siso_plant_reduces_to_disk_margin():
    L1 = tf([25], [1, 10, 10, 10])
    d = disk_margin(L1, 0.0)
    res = multiloop_margin(build_m(L1, None, "input", 0.0))
    assert res.alpha_lower <= d.spec.alpha * (1 + 1e-4)
    assert res.alpha_upper >= d.spec.alpha * (1 - 1e-4)
    assert_allclose(res.alpha_upper, d.spec.alpha, rtol=1e-3)


def test_skew_changes_multiloop_margin():
    P, K = satellite()
    sym = multiloop_margin(build_m(P, K, "input", 0.0))
    tless = multiloop_margin(build_m(P, K, "input", -1.0))
    assert tless.alpha_upper != pytest.approx(sym.alpha_upper, rel=1e-3)


def test_random_stable_loop_monotonicity():
    P = tfm([[([2], [1, 1]), ([0.5], [1, 3])],
             [([-0.3], [1, 1]), ([1], [1, 2])]])
    sysm = build_m(P, None, "input", 0.0)
    res = multiloop_margin(sysm)
    assert res.alpha_upper > 0
    for ch in (0, 1):
        _, dm = loop_at_a_time(P, None, ch, "input", 0.0)
        assert res.alpha_upper <= dm.spec.alpha * (1 + 1e-6)
    # interior closures stay stable: sample the certified disk
    rng = np.random.default_rng(4)
    Pss = P.normalized()
    for _ in range(25):
        ds = [0.999 * res.alpha_lower * math.sqrt(rng.uniform()) *
              cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(2)]
        fs = [(2 + d) / (2 - d) for d in ds]
        rep = verify_multiloop_destabilizing(P, None, "input", fs, omega=1.0)
        assert rep.stable


def test_dimension_mismatch_rejected():
    P, _ = satellite()
    K_bad = tfm([[([1], [1, 1])]])
    with pytest.raises(InputError):
        build_m(P, K_bad, "input", 0.0)


def test_mdelta_system_fields():
    P, K = satellite()
    sysm = build_m(P, K, "input", 0.25)
    assert isinstance(sysm, MDeltaSystem)
    assert sysm.sigma == 0.25
    assert sysm.n == 2
    assert np.array_equal(sysm.poles, poles(sysm.M))


def _random_pair(seed, nch=3):
    """Stable 2 nch-state plant with nch channels under a static gain near
    its inverse DC gain, with a random coupling."""
    rng = np.random.default_rng(seed)
    A = np.diag(-rng.uniform(0.2, 5.0, 2 * nch))
    B = rng.standard_normal((2 * nch, nch))
    C = rng.standard_normal((nch, 2 * nch))
    G0 = C @ np.linalg.solve(-A, B)
    K = np.linalg.pinv(G0) * rng.uniform(0.3, 1.0)
    K = K + 0.2 * np.abs(K).max() * rng.standard_normal((nch, nch))
    return (ss(A, B, C, np.zeros((nch, nch))),
            ss(np.zeros((0, 0)), np.zeros((0, nch)), np.zeros((nch, 0)), K))


@pytest.mark.parametrize("seed", [46, 53, 69])
def test_three_channel_bracket_is_ordered(seed):
    # these loops have mu lower equal to the peak upper bound up to
    # rounding; the bracket must stay ordered with no tolerance at all
    P, K = _random_pair(seed)
    res = multiloop_margin(build_m(P, K, "input", 0.0))
    assert res.alpha_lower <= res.alpha_upper
    assert res.converged


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def damped_pairs(draw):
    """A 2- or 3-channel _damped_pair with damping drawn down to 1e-4."""
    nch = draw(st.sampled_from([2, 3]))
    modes = draw(st.lists(st.tuples(_log_uniform(0.3, 10.0), _log_uniform(1e-4, 0.7)),
                          min_size=nch, max_size=nch))
    return _damped_pair(modes, draw(st.integers(0, 2 ** 32 - 1)))


def _damped_pair(modes, seed):
    """A pair built like _random_pair, but with a plant of one mode pair
    per (frequency, damping) of modes, under the static gain halved until
    the loop is stable (the plant is)."""
    nch = len(modes)
    rng = np.random.default_rng(seed)
    A = np.zeros((2 * nch, 2 * nch))
    for i, (w, z) in enumerate(modes):
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, w], [-w, -2.0 * z * w]]
    B = rng.standard_normal((2 * nch, nch))
    C = rng.standard_normal((nch, 2 * nch))
    G0 = C @ np.linalg.solve(-A, B)
    K = np.linalg.pinv(G0) * rng.uniform(0.3, 1.0)
    K = K + 0.2 * np.abs(K).max() * rng.standard_normal((nch, nch))
    while not np.all(np.linalg.eigvals(A - B @ K @ C).real < 0):
        K = 0.5 * K
    return (ss(A, B, C, np.zeros((nch, nch))),
            ss(np.zeros((0, 0)), np.zeros((0, nch)), np.zeros((nch, 0)), K))


@settings(max_examples=25, deadline=None)
@given(damped_pairs())
def test_mu_climb_reaches_the_top_of_its_peak(pair):
    # no sample of a dense sweep around omega_crit lies above the climbed peak
    sysm = build_m(*pair, "input", 0.0)
    res = multiloop_margin(sysm)
    vals, ok = freq_response(sysm.M, np.linspace(0.98, 1.02, 2001) * res.omega_crit)
    assert res.alpha_lower <= (1 + 1e-9) / np.max(_mu_upper(vals[ok])[0])


@pytest.mark.xfail(strict=True, reason="the climb misses the higher of two near-tied peaks")
def test_mu_climb_reaches_the_higher_of_two_near_tied_peaks():
    # a draw of the property test above: alpha_lower reads 0.5060295, while
    # the 2001-point band around omega_crit gives 1/1.9835159 = 0.5041553
    pair = _damped_pair([(1.0, 0.0024787521766663585), (1.0, 0.0820849986238988),
                         (1.0, 0.0024787521766663585)], 36725845)
    sysm = build_m(*pair, "input", 0.0)
    res = multiloop_margin(sysm)
    vals, ok = freq_response(sysm.M, np.linspace(0.98, 1.02, 2001) * res.omega_crit)
    assert res.alpha_lower <= (1 + 1e-9) / np.max(_mu_upper(vals[ok])[0])


def heavy_system(name):
    """The satellite loop at its named points ("satellite io" has 4
    channels), or a 3-channel pair at the input."""
    if name.startswith("satellite"):
        return build_m(*satellite(), name.split()[1], 0.0)
    return build_m(*_random_pair(int(name.split()[-1])), "input", 0.0)


@pytest.mark.parametrize("name", ["satellite io", "pair 46"])
def test_one_balance_and_one_descent_per_sweep_and_climb_stencil(name, monkeypatch):
    # each stencil of the climb starts from the scaling of the highest
    # sample so far, and the bracket at omega_crit reuses its sample's
    # scaling: Osborne balancing runs for the seed sweep alone, once for
    # the row whose unscaled bound is largest and once for the rows priced
    # at or above the floor under its bound, each balance followed by one
    # descent;
    # every stencil runs one descent, and none follows the last
    sysm = heavy_system(name)
    events = []
    balance, descend, upper_on = multiloop._osborne_balance, multiloop._descend, multiloop._upper_on

    def balancing(absM):
        events.append(("balance", len(absM)))
        return balance(absM)

    def descending(fg, x):
        events.append(("descend", len(x)))
        return descend(fg, x)

    def recording(sys, ws, x0=None):
        events.append(("upper_on", len(ws)))
        return upper_on(sys, ws, x0)

    monkeypatch.setattr(multiloop, "_osborne_balance", balancing)
    monkeypatch.setattr(multiloop, "_descend", descending)
    monkeypatch.setattr(multiloop, "_upper_on", recording)
    multiloop_margin(sysm)
    starts = [k for k, (what, _) in enumerate(events) if what == "upper_on"]
    seed = [what for what, _ in events[1:starts[1]]]
    assert seed in (["balance", "descend"], ["balance", "descend"] * 2)
    assert events[1] == ("balance", 1)
    assert len(starts) > 2
    for a, b in zip(starts[1:], starts[2:] + [len(events)]):
        assert [what for what, _ in events[a + 1:b]] == ["descend"]


@pytest.mark.parametrize("name", ["satellite io", "pair 46", "pair 69"])
def test_climb_scalings_give_their_bounds(name, monkeypatch):
    sysm = heavy_system(name)
    rounds = []
    upper_on = multiloop._upper_on

    def recording(sys, ws, x0=None):
        out = upper_on(sys, ws, x0)
        rounds.append((ws, out))
        return out

    monkeypatch.setattr(multiloop, "_upper_on", recording)
    multiloop_margin(sysm)
    assert len(rounds) > 1
    for ws, (bounds, xs, Ms) in rounds[1:]:
        assert len(ws) == 3
        vals, ok = freq_response(sysm.M, ws)
        assert ok.all()
        assert np.array_equal(Ms, vals)
        floor = np.max(np.abs(np.linalg.eigvals(vals)))
        for M, bound, x in zip(vals, bounds, xs):
            # each returned log D reproduces its bound bit for bit
            assert np.linalg.svd(M * np.exp(x[:, None] - x[None, :]))[1][0] == bound
            cold = _mu_upper(M[None])[0][0]
            # a warm start reaches the cold start's infimum, except in rows
            # the sweep floor settled, which hold looser valid bounds
            if bound >= floor:
                assert_allclose(bound, cold, rtol=1e-9)
            else:
                assert bound >= cold * (1 - 1e-9)


@pytest.mark.parametrize("name", ["satellite io", "pair 46", "pair 53", "pair 69"])
def test_warm_climb_agrees_with_cold_starts(name, monkeypatch):
    sysm = heavy_system(name)
    warm = multiloop_margin(sysm)
    mu_upper = multiloop._mu_upper
    monkeypatch.setattr(multiloop, "_mu_upper",
                        lambda Ms, sweep=False, x0=None: mu_upper(Ms, sweep))
    cold = multiloop_margin(sysm)
    assert_allclose(warm.alpha_lower, cold.alpha_lower, rtol=1e-9)
    assert warm.alpha_lower <= warm.alpha_upper
    assert cold.alpha_lower <= cold.alpha_upper


@pytest.mark.parametrize("points", ["input", "output"])
def test_two_channel_margin_is_pinned(points):
    # two-channel bounds are in closed form and take no start, so a warm
    # start cannot move these bits (numpy 2.4, OpenBLAS, x86-64)
    sysm = build_m(*satellite(), points, 0.0)
    res = multiloop_margin(sysm)
    assert res.alpha_lower == float.fromhex("0x1.9894c2329f033p-4")
    assert res.alpha_upper == float.fromhex("0x1.9894c2329f033p-4")
    assert res.omega_crit == float.fromhex("0x1.9894b4767639dp-5")
    want = [complex(float.fromhex(re), float.fromhex(im)) for re, im in [
        ("-0x1.5ec085ea05369p-29", "-0x1.9894c2329f02fp-4"),
        ("-0x1.5ebb007064e43p-29", "-0x1.9894c2329f02fp-4"),
    ]]
    assert np.array_equal(res.delta_worst, np.diag(want))
    # the climbed peak is the top of a dense sweep around it
    vals, ok = freq_response(sysm.M, np.linspace(0.98, 1.02, 2001) * res.omega_crit)
    assert ok.all()
    assert 1.0 / res.alpha_lower >= np.max(_mu_upper(vals)[0]) * (1 - 1e-15)


def test_batched_upper_bound_brackets_mu():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4):
        Ms = rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
        upper, _ = _mu_upper(Ms)
        for M, ub in zip(Ms, upper):
            res = mu_diag(M)
            assert ub >= res.lower
            # a stack of one runs the same iteration as the whole stack
            assert res.upper == ub
            if n == 2:
                # the bound equals mu for two channels, so it meets the
                # brute-force search to rounding: allow a few ulps
                assert ub >= mu_brute_2x2(M) * (1 - 1e-14)


def osborne_balance_per_sweep(absM):
    """Ten Osborne sweeps that rebuild their index sets and slices in every
    sweep and take each norm by np.linalg.norm: the reference
    multiloop._osborne_balance must match bit for bit."""
    N, n, _ = absM.shape
    d = np.ones((N, n))
    for _ in range(10):
        for i in range(n):
            off = np.arange(n) != i
            r = np.linalg.norm(absM[:, i, off] * d[:, i:i + 1] / d[:, off], axis=1)
            c = np.linalg.norm(absM[:, off, i] * d[:, off] / d[:, i:i + 1], axis=1)
            upd = (r > 0) & (c > 0)
            d[upd, i] *= np.sqrt(c[upd] / r[upd])
    return np.log(d)


def test_osborne_balance_matches_its_per_sweep_loop():
    # |M| stacks of 2 to 8 channels and 1 to 30 rows, magnitudes over 12
    # decades, a third of them with zero entries
    rng = np.random.default_rng(53)
    for k in range(1200):
        n, N = rng.integers(2, 9), rng.integers(1, 31)
        absM = 10.0 ** rng.uniform(-6.0, 6.0, (N, n, n))
        if k % 3 == 0:
            absM[rng.random((N, n, n)) < 0.3] = 0.0
        assert np.array_equal(multiloop._osborne_balance(absM), osborne_balance_per_sweep(absM))


@pytest.mark.parametrize("kind", MU_FAMILIES)
def test_two_channel_upper_bound_is_closed_form(kind):
    # D-scaling keeps det M, so the closed-form scaling that equalizes the
    # scaled off-diagonal moduli gives mu itself, not a descent's
    # approximation of it
    rng = np.random.default_rng([31, MU_FAMILIES.index(kind)])
    for _ in range(40):
        M = mu_family(kind, 2, rng)
        assert_allclose(_mu_upper(M[None])[0][0], mu_brute_2x2(M), rtol=1e-12)


@pytest.mark.parametrize("M, mu", [
    ([[1.0, 1.0], [0.0, 1.0]], 1.0),
    (np.diag([1.5, 0.0]), 1.5),
    ([[2.0, 0.0], [3.0, -1.0]], 2.0),
])
def test_two_channel_upper_bound_with_a_zero_coupling(M, mu):
    # m01 m10 = 0: mu is the larger diagonal modulus, approached as the
    # scaling runs to the edge of the box (0/0 keeps it at 0)
    (ub,), (x,) = _mu_upper(np.array(M, dtype=complex)[None])
    assert_allclose(ub, mu, rtol=1e-15)
    assert np.all(np.abs(x) <= 50.0)


@pytest.mark.parametrize("make", [
    lambda: build_m(*satellite(), "io", 0.0),
    lambda: build_m(*_random_pair(46), "input", 0.0),
    lambda: build_m(*_random_pair(69), "input", 0.0),
], ids=["satellite io", "three channels", "three channels, Frobenius prices at the floor"])
def test_sweep_floor_keeps_the_largest_bound(make, monkeypatch):
    sysm = make()
    vals, ok = freq_response(sysm.M, _peak_seed(sysm.M, 400, sysm.poles))
    Ms = vals[ok].reshape(-1, sysm.n, sysm.n)
    rows = []
    sv_and_gradient = multiloop._sv_and_gradient

    def counting(Ms, x):
        rows.append(len(x))
        return sv_and_gradient(Ms, x)

    monkeypatch.setattr(multiloop, "_sv_and_gradient", counting)
    full, _ = _mu_upper(Ms)
    full_rows = sum(rows)
    rows.clear()
    swept, xs = _mu_upper(Ms, sweep=True)
    assert swept.max() == full.max()
    assert np.argmax(swept) == np.argmax(full)
    # rows stopped at the floor, or priced below it, hold looser, still
    # valid, bounds below it; the floor is 1 - 1e-9 times the bound of the
    # row whose unscaled largest singular value is the largest
    assert np.all(swept >= full)
    unscaled = np.linalg.svd(Ms, compute_uv=False)[:, 0]
    floor = (1 - 1e-9) * full[np.argmax(unscaled)]
    assert np.all(swept[swept != full] < floor)
    # every row is priced at log D = 0: by its unscaled bound where its
    # Frobenius norm reaches the largest row or column norm of the stack,
    # elsewhere by that Frobenius norm.  A row priced below the floor keeps
    # its price and log D = 0; every other row is balanced and descended,
    # so a Frobenius-priced one at or above the floor leaves log D = 0
    # without an SVD at it
    fro = np.linalg.norm(Ms, axis=(1, 2))
    lo = max(np.linalg.norm(Ms, axis=1).max(), np.linalg.norm(Ms, axis=2).max())
    screened = fro * (1 + 1e-12) >= lo
    held = np.where(screened, unscaled, fro) < floor
    assert (held & ~screened).any()
    assert np.array_equal(swept[held & screened], unscaled[held & screened])
    assert_allclose(swept[held & ~screened], fro[held & ~screened], rtol=1e-14)
    assert np.all(xs[held] == 0.0)
    assert np.all(np.any(xs[~held & ~screened] != 0.0, axis=1))
    assert sum(rows) < full_rows


def _assert_sweep_keeps_the_top_rows(Ms):
    """Every row's bound is at least sigma_max(D M D^-1) at its own log D,
    within 8 eps (a descended row's SVD carries singular vectors, the
    check's does not).  Every row of the sweep within 1e-9 of the largest
    bound has the bound and log D of the unpruned descent, bit for bit,
    and every row's bound is at least its spectral radius.  For two
    channels, where the unpruned bound is mu itself, a row the sweep
    prices by the closed form alone lies below 1 - 1e-9 times the top and
    at or above 1 - 1e-7 times its spectral radius, with the unpruned
    log D."""
    full, x_full = _mu_upper(Ms)
    swept, x_swept = _mu_upper(Ms, sweep=True)
    scaled = np.linalg.svd(Ms * np.exp(x_swept[:, :, None] - x_swept[:, None, :]), compute_uv=False)
    assert np.all(swept >= (1 - 8 * np.finfo(float).eps) * scaled[:, 0])
    top = full >= (1 - 1e-9) * full.max()
    assert np.array_equal(swept[top], full[top])
    assert np.array_equal(x_swept[top], x_full[top])
    rho = np.max(np.abs(np.linalg.eigvals(Ms)), axis=1)
    if Ms.shape[1] == 2:
        closed = swept != full
        assert np.all(swept[closed] < (1 - 1e-9) * full.max())
        assert np.all(swept[closed] >= (1 - 1e-7) * rho[closed])
        assert np.array_equal(x_swept, x_full)
    else:
        assert np.all(swept >= rho)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("kind", MU_FAMILIES)
def test_seed_sweep_keeps_the_rows_near_its_largest_bound(kind, n):
    # each matrix comes as drawn, shrunk by 5e-10 and diagonally rescaled,
    # so that several rows lie within 1e-9 of the largest bound, and the
    # row whose unscaled bound is largest is often not one of them
    rng = np.random.default_rng([41, MU_FAMILIES.index(kind), n])
    base = np.array([mu_family(kind, n, rng) for _ in range(12)])
    d = np.exp(rng.uniform(-2.0, 2.0, (12, n)))
    _assert_sweep_keeps_the_top_rows(
        np.concatenate([base, (1 - 5e-10) * base, d[:, :, None] * base / d[:, None, :]]))


@pytest.mark.parametrize("name", ["satellite input", "satellite output", "satellite io",
                                  "pair 46", "pair 53", "pair 69"])
def test_seed_sweep_of_a_loop_keeps_the_rows_near_its_largest_bound(name):
    sysm = heavy_system(name)
    vals, ok = freq_response(sysm.M, _peak_seed(sysm.M, 400, sysm.poles))
    _assert_sweep_keeps_the_top_rows(vals[ok])


def test_two_channel_sweep_keeps_the_top_rows_at_any_scale():
    # |m|^2 overflows above about 1e154 and underflows below 1e-154; a
    # stack at either end still keeps its top rows.  The last pair: at
    # 1e-100, squaring F and |det M| loses both, and F / 2 would price
    # the rank-one row (sigma_max 1.2e-100) below the identity (1e-100)
    rng = np.random.default_rng(43)
    base = np.array([mu_family("plain", 2, rng) for _ in range(12)])
    base = np.concatenate([base, (1 - 5e-10) * base])
    for scale in (1e160, 1e-160, 1e-300):
        _assert_sweep_keeps_the_top_rows(scale * base)
    tiny = np.array([np.eye(2), np.full((2, 2), 0.6)], dtype=complex) * 1e-100
    swept, _ = _mu_upper(tiny, sweep=True)
    assert np.argmax(swept) == 1
    _assert_sweep_keeps_the_top_rows(tiny)


def count_svd_rows(monkeypatch):
    """Record the number of matrices of every np.linalg.svd call made
    without singular vectors: the unscaled and closed-form-scaled rows
    the seed sweep prices, not the descent's."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            calls.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_two_channel_sweep_prices_an_overflowing_row_by_its_svd(monkeypatch):
    # one entry near 1e160 among ordinary rows: that row is the top, it
    # gets its SVD, and the others are priced in closed form
    rng = np.random.default_rng(47)
    Ms = np.array([mu_family("plain", 2, rng) for _ in range(12)])
    Ms[5, 0, 1] = 1e160
    calls = count_svd_rows(monkeypatch)
    swept, _ = _mu_upper(Ms, sweep=True)
    assert calls == [1]
    assert np.argmax(swept) == 5
    _assert_sweep_keeps_the_top_rows(Ms)


@pytest.mark.parametrize("name", ["satellite input", "pair 46"])
def test_seed_sweep_takes_few_unscaled_svds(name, monkeypatch):
    # the closed form (two channels) or the norm screen (more) prices
    # every row first; only rows that can reach the top get an SVD
    sysm = heavy_system(name)
    vals, ok = freq_response(sysm.M, _peak_seed(sysm.M, 400, sysm.poles))
    Ms = vals[ok]
    calls = count_svd_rows(monkeypatch)
    _mu_upper(Ms, sweep=True)
    assert sum(calls) < (5 if sysm.n == 2 else len(Ms))


def test_six_channel_pair_is_pinned():
    # the 56th draw of bench/workloads._random_pair(rng, 3 + k % 4,
    # 4 + 2 (k % 4)) on default_rng(99), at the input; its seed sweep has
    # 405 rows (numpy 2.4, OpenBLAS, x86-64)
    P, K, _, _ = cli._load_model_file(str(DATA / "pair_55.json"))
    res = multiloop_margin(build_m(P, K, "input", 0.0))
    assert res.alpha_lower == 0.5739860753403625
    assert res.alpha_upper == 0.5739874939915761
    assert res.omega_crit == 0.0
    assert res.converged


def static_plant(D):
    D = np.atleast_2d(D)
    p = len(D)
    return ss(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((p, 0)), D)


@pytest.mark.parametrize("D, inv", [
    (-(1 - 5e-5) * np.eye(3), np.eye(3) / 5e-5),
    (np.array([[0.0, 1e8], [1e-8, 1e-4]]), np.array([[1.0 + 1e-4, -1e8], [-1e-8, 1.0]]) / 1e-4),
])
def test_build_m_accepts_small_or_badly_scaled_i_plus_d(D, inv):
    # sigma = 1 leaves M = (I + D)^-1 unshifted
    sys = build_m(static_plant(D), None, "input", 1.0)
    assert_allclose(sys.M.representation.D, inv, rtol=1e-9)


@pytest.mark.parametrize("D", [
    np.array([[0.0, 1e8], [1e-8, 1e-14]]),
    np.array([[0.0, 1.0], [1.0, 1e-14]]),
    np.array([[-1.0 + 1e-13]]),
])
def test_build_m_rejects_singular_i_plus_d(D):
    with pytest.raises(WellPosednessError):
        build_m(static_plant(D), None, "input", 0.0)


LOOP_CASES = {
    "satellite input": (satellite, "input"),
    "satellite output": (satellite, "output"),
    "satellite io": (satellite, "io"),
    "2-channel pair io": (lambda: _random_pair(4, 2), "io"),
    "3-channel pair input": (lambda: _random_pair(46), "input"),
}


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_single_loop_margins_read_the_diagonal_of_m(case, sigma):
    # each row is the loop broken at its point alone: classical margins
    # field for field, and M_jj = S_j + (sigma - 1)/2 for the disk margin,
    # a different realization of the same function
    make, points = LOOP_CASES[case]
    P, K = make()
    sysm = build_m(P, K, points, sigma)
    rows = single_loop_margins(sysm)
    assert len(rows) == sysm.n == len(sysm.points)
    for i, (cm, dm) in zip(sysm.points, rows):
        L = LtiModel(_broken_loop(P, K, [i])[0])
        assert cm == classical_margins(L)
        assert dm.spec.alpha == pytest.approx(disk_margin(L, sigma).spec.alpha, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sigma", [0.0, 1.0, -0.5])
def test_loop_at_a_time_equals_the_margins_of_its_loop(sigma):
    # a one-point M is bit for bit the shifted sensitivity disk_margin builds
    for P, K in (satellite(), _random_pair(4, 2), _random_pair(46)):
        m = P.ninputs
        for loc, offset, size in (("input", 0, m), ("output", m, P.noutputs)):
            for ch in range(size):
                L = LtiModel(_broken_loop(P, K, [offset + ch])[0])
                cm, dm = loop_at_a_time(P, K, ch, loc, sigma)
                assert cm == classical_margins(L)
                assert dm == disk_margin(L, sigma)


@pytest.mark.parametrize("make, sigma", [
    (satellite, 0.0), (satellite, 1.0), (lambda: _random_pair(46), -0.5),
    # M = S - I = 0 for a zero plant at sigma = -1: an infinite alpha_lower
    (lambda: (static_plant(np.zeros((2, 2))), None), -1.0),
])
def test_multiloop_result_carries_its_disk(make, sigma):
    res = multiloop_margin(build_m(*make(), "input", sigma))
    gm, pm = guaranteed_gm_pm(DiskSpec(res.alpha_lower, sigma))
    assert (res.guaranteed_gm, res.guaranteed_pm) == (gm, pm)
    assert (res.geometry is None) == math.isinf(res.alpha_lower)


@pytest.mark.parametrize("points", ["input", "io"])
def test_single_loop_margins_reuse_the_poles_of_m(monkeypatch, points):
    # each M_jj shares M's A, so its peak search takes sys.poles instead of
    # solving for them again, and the rows stay the same
    sysm = build_m(*satellite(), points, 0.0)
    want = single_loop_margins(sysm)

    def no_poles(m):
        raise AssertionError("the poles of M were solved again")

    monkeypatch.setattr(specnorm, "poles", no_poles)
    assert single_loop_margins(sysm) == want


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_each_row_peak_is_the_peak_gain_of_its_diagonal_entry(case, sigma):
    # the rows take their seed samples from one response of M; each peak is
    # still bit for bit the one M_jj's own search finds
    make, points = LOOP_CASES[case]
    sysm = build_m(*make(), points, sigma)
    r = sysm.M.representation
    for j, (_, dm) in enumerate(single_loop_margins(sysm)):
        m_jj = LtiModel(StateSpace(r.A, r.B[:, [j]], r.C[[j], :], r.D[[j]][:, [j]]))
        want = specnorm._peak_gain(m_jj, sysm.poles)
        assert (dm.peak_gain.value, dm.peak_gain.frequency) == (want.value, want.frequency)
        assert dm.peak_gain.response == want.response


@pytest.mark.parametrize("points", ["input", "io"])
def test_single_loop_margins_evaluate_m_once_on_the_seed(monkeypatch, points):
    # one response of M over the peak seed serves every row; no row
    # evaluates its own diagonal entry there again
    sysm = build_m(*satellite(), points, 0.0)
    seed = _peak_seed(sysm.M, specnorm._GRID_N, sysm.poles)
    want = single_loop_margins(sysm)
    on_m, on_seed = [], []

    def spy(module):
        inner = module.freq_response

        def recording(m, ws):
            if m is sysm.M:
                on_m.append(np.asarray(ws))
            elif np.array_equal(np.asarray(ws), seed):
                on_seed.append(m)
            return inner(m, ws)

        monkeypatch.setattr(module, "freq_response", recording)

    spy(multiloop)
    spy(specnorm)
    assert single_loop_margins(sysm) == want
    assert len(on_m) == 1 and np.array_equal(on_m[0], seed)
    assert on_seed == []


@pytest.mark.parametrize("make, points", [
    (satellite, "io"), (satellite, "output"), (lambda: _random_pair(46), "input"),
])
def test_single_loop_margins_skip_the_nominal_stability_check(monkeypatch, make, points):
    # build_m proved the nominal closed loop stable; the rows do not close
    # their loops at unity gain again
    sysm = build_m(*make(), points, 0.0)
    want = single_loop_margins(sysm)
    gains = []
    inner = classical._stable_closure

    def recording(L, g):
        gains.append(g)
        return inner(L, g)

    monkeypatch.setattr(classical, "_stable_closure", recording)
    assert single_loop_margins(sysm) == want
    assert 1.0 not in gains
    # the spy sees the check that classical_margins makes
    classical_margins(LtiModel(_broken_loop(*make(), [sysm.points[0]])[0]))
    assert 1.0 in gains


def test_loop_at_a_time_raises_on_an_unstable_nominal_loop():
    # build_m's check on the poles of M still guards every row
    P = ss(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
    K = ss(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), -5.0 * np.eye(2))
    for loc in ("input", "output"):
        with pytest.raises(NominalInstabilityError):
            loop_at_a_time(P, K, 0, loc)


@pytest.mark.parametrize("make, points", [
    (satellite, "io"), (satellite, "input"), (lambda: _random_pair(46), "input"),
])
def test_multiloop_result_carries_m_at_omega_crit(make, points):
    # m0 is the search's own sample at omega_crit, and a point's response
    # does not depend on the grid it was evaluated on
    sysm = build_m(*make(), points, 0.0)
    res = multiloop_margin(sysm)
    assert np.array_equal(res.m0, np.atleast_2d(eval_freq(sysm.M, res.omega_crit)))


def test_siso_loop_entry_point():
    L = tf([25], [1, 10, 10, 10])
    assert siso_loop(L) is L
    P, K = tf([1], [1, 1]), tf([2, 1], [1, 4])
    loop = siso_loop(P, K)
    w = 0.9
    assert_allclose(eval_freq(loop, w), eval_freq(P, w) * eval_freq(K, w), rtol=1e-12)
    # the same loop as loop_at_a_time's single input channel
    cm, dm = loop_at_a_time(P, K, 0, "input")
    assert dm.spec.alpha == disk_margin(loop).spec.alpha
    with pytest.raises(InputError):
        siso_loop(satellite()[0])
    with pytest.raises(InputError):
        siso_loop(*satellite())
