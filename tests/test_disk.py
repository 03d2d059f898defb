"""Disk margin computations against hand-derived values.

The reference loop throughout is L = 25/(s^3+10s^2+10s+10).  Its
symmetric disk margin comes from the peak of |S - 1/2|, which was
located independently by dense grid search plus golden refinement
before this module was written; those numbers are frozen here.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmkit import (
    ConstructionError,
    DiskSpec,
    NominalInstabilityError,
    UnsupportedCaseError,
    classical_margins,
    default_grid,
    disk_geometry,
    disk_map,
    disk_map_inv,
    disk_margin,
    eval_freq,
    freq_margin_trace,
    gain_phase_tradeoff,
    guaranteed_gm_pm,
    hinf_norm,
    is_stable,
    nyquist_exclusion,
    poles,
    safe_region_curve,
    scalar_close,
    sensitivity_pair,
    ss,
    tf,
    verify_destabilizing,
    worst_perturbation_lti,
)
from dmkit.cli import _trace_table
from dmkit.disk import (EXTERIOR_DISK, HALF_PLANE, INTERIOR_DISK, MarginTrace, _shifted_sensitivity,
                        _trace_margins)
from dmkit.lti import LtiModel, StateSpace, TransferFunction
from dmkit.specnorm import FrequencyGrid

L1 = tf([25], [1, 10, 10, 10])

# frozen oracle values for L1, sigma = 0
ALPHA1 = 0.4580925477
OMEGA1 = 1.9550268934
PEAK1 = 2.1829650033
DELTA01 = 0.2130804584 - 0.4055188042j
F01 = 1.1288520615 - 0.4831160677j
GM1 = (0.6272780306, 1.5941894205)
PM1_DEG = 25.8017093784


def test_disk_spec_validation():
    DiskSpec(0.5, -1.0)
    with pytest.raises(Exception):
        DiskSpec(-0.1, 0.0)


def test_geometry_hand_case():
    g = disk_geometry(DiskSpec(0.75, 0.2))
    assert_allclose(g.gamma_min, 0.4827586207, rtol=1e-9)
    assert_allclose(g.gamma_max, 2.3636363636, rtol=1e-9)
    assert g.kind == "interior-disk"
    assert_allclose(g.center, (g.gamma_min + g.gamma_max) / 2, rtol=1e-12)
    assert_allclose(g.radius, (g.gamma_max - g.gamma_min) / 2, rtol=1e-12)
    assert_allclose(math.sin(g.phi_max), g.radius / g.center, rtol=1e-12)


def test_geometry_kinds():
    assert disk_geometry(DiskSpec(1.9, 0.0)).kind == "interior-disk"
    g = disk_geometry(DiskSpec(2.0, 0.0))
    assert g.kind == "half-plane"
    assert g.gamma_max == math.inf
    assert disk_geometry(DiskSpec(2.1, 0.0)).kind == "exterior-disk"
    # sigma < 0 shifts the boundary to 2/|1+sigma|
    assert disk_geometry(DiskSpec(3.9, -0.5)).kind == "interior-disk"
    assert disk_geometry(DiskSpec(4.1, -0.5)).kind == "exterior-disk"


def test_geometry_phase_saturates():
    # radius exceeds center: every phase is covered
    g = disk_geometry(DiskSpec(1.5, 0.0))
    if g.radius > g.center:
        assert g.phi_max == math.inf


def test_disk_margin_example2():
    d = disk_margin(L1, 0.0)
    assert_allclose(d.spec.alpha, ALPHA1, rtol=1e-8)
    assert_allclose(d.omega_crit, OMEGA1, rtol=1e-7)
    assert_allclose(d.peak_gain.value, PEAK1, rtol=1e-8)
    assert_allclose(d.delta0, DELTA01, rtol=1e-7)
    assert_allclose(d.f0, F01, rtol=1e-7)
    assert_allclose(d.guaranteed_gm, GM1, rtol=1e-8)
    assert_allclose(math.degrees(d.guaranteed_pm), PM1_DEG, rtol=1e-8)
    # symmetric disk: dB gains match in magnitude
    lo_db = 20 * math.log10(d.guaranteed_gm[0])
    hi_db = 20 * math.log10(d.guaranteed_gm[1])
    assert_allclose(-lo_db, hi_db, rtol=1e-9)
    assert_allclose(hi_db, 4.0507984539, rtol=1e-8)


def test_disk_margin_alpha_is_reciprocal_peak():
    d = disk_margin(L1, 0.0)
    assert_allclose(d.spec.alpha * d.peak_gain.value, 1.0, rtol=1e-12)


def test_special_case_identities():
    S, T = sensitivity_pair(L1)
    nT = hinf_norm(T).value
    nS = hinf_norm(S).value
    assert_allclose(disk_margin(L1, -1.0).spec.alpha, 1.0 / nT, rtol=1e-9)
    assert_allclose(disk_margin(L1, 1.0).spec.alpha, 1.0 / nS, rtol=1e-9)
    # sigma = +1 margin equals the minimum distance to the critical point
    grid = np.geomspace(1e-3, 1e3, 20000)
    min_dist = min(abs(1 + eval_freq(L1, w)) for w in grid)
    assert_allclose(disk_margin(L1, 1.0).spec.alpha, min_dist, rtol=1e-6)


def test_sigma_zero_peak_matches_direct_construction():
    S, _ = sensitivity_pair(L1)
    r = S.representation
    shifted = TransferFunction(
        np.polyadd(r.num.coeffs, -0.5 * r.den.coeffs), r.den.coeffs)
    assert_allclose(disk_margin(L1, 0.0).peak_gain.value,
                    hinf_norm(LtiModel(shifted)).value, rtol=1e-9)


def test_disk_margin_rejects_unstable_nominal():
    # 0.5/(s-1) closes to s - 0.5: nominal loop unstable
    with pytest.raises(NominalInstabilityError):
        disk_margin(tf([0.5], [1, -1]), 0.0)
    # 2/(s-1) closes to s + 1: open-loop instability alone is fine
    d = disk_margin(tf([2], [1, -1]), 0.0)
    assert d.spec.alpha > 0


def test_critical_factor_closes_to_axis_pole():
    d = disk_margin(L1, 0.0)
    closed = scalar_close(L1, d.f0)
    dist = min(abs(z - 1j * d.omega_crit) for z in poles(closed))
    assert dist < 1e-6 * max(1.0, d.omega_crit)


def test_interior_sweep_stays_stable():
    # any f strictly inside D(alpha_max, 0) keeps the loop stable
    d = disk_margin(L1, 0.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        delta = 0.999 * d.spec.alpha * math.sqrt(rng.uniform()) * \
            cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        f = (2 + delta) / (2 - delta)
        assert is_stable(scalar_close(L1, f))


def test_boundary_factor_destabilizes_beyond():
    d = disk_margin(L1, 0.0)
    delta = d.delta0 * 1.02
    f = (2 + delta) / (2 - delta)
    assert not is_stable(scalar_close(L1, f))


def test_worst_perturbation_example_a1():
    d = disk_margin(L1, 0.0)
    pert = worst_perturbation_lti(d.delta0, d.omega_crit, 0.0)
    assert_allclose(pert.beta, 3.2357593868, rtol=1e-6)
    # delta_hat = -c (s - beta)/(s + beta), c = alpha_max
    assert_allclose(pert.delta_hat.num.coeffs,
                    [-ALPHA1, ALPHA1 * 3.2357593868], rtol=1e-6)
    assert_allclose(pert.delta_hat.den.coeffs, [1.0, 3.2357593868], rtol=1e-6)
    # f_hat = (0.627 s + 3.236)/(s + 2.030)
    assert_allclose(pert.f_hat.num.coeffs, [0.6272780306, 3.2357593868], rtol=1e-6)
    assert_allclose(pert.f_hat.den.coeffs, [1.0, 2.0297207755], rtol=1e-6)


def test_worst_perturbation_matches_delta0_at_omega0():
    d = disk_margin(L1, 0.0)
    pert = worst_perturbation_lti(d.delta0, d.omega_crit, 0.0)
    got = eval_freq(LtiModel(pert.delta_hat), d.omega_crit)
    assert_allclose(got, d.delta0, rtol=1e-9)
    got_f = eval_freq(LtiModel(pert.f_hat), d.omega_crit)
    assert_allclose(got_f, d.f0, rtol=1e-9)
    # all-pass: |delta_hat| = alpha at every frequency
    for w in (0.0, 0.5, 5.0, math.inf):
        assert_allclose(abs(eval_freq(LtiModel(pert.delta_hat), w)),
                        d.spec.alpha, rtol=1e-9)


def test_worst_perturbation_real_delta_is_constant():
    pert = worst_perturbation_lti(-0.5, 1.3, 0.0)
    assert pert.beta is None
    assert pert.delta_hat.den.degree == 0
    assert_allclose(eval_freq(LtiModel(pert.f_hat), 0.7), (2 - 0.5) / (2 + 0.5))


def test_worst_perturbation_trivial_point_rejected():
    # delta = 2/(1+sigma) maps to f = inf: no LTI realization
    with pytest.raises(ConstructionError):
        worst_perturbation_lti(2.0, 1.0, 0.0)


def test_verify_destabilizing_example_a1():
    d = disk_margin(L1, 0.0)
    pert = worst_perturbation_lti(d.delta0, d.omega_crit, 0.0)
    rep = verify_destabilizing(L1, pert, d.omega_crit)
    assert rep.verdict == "pass"
    assert rep.distance <= 1e-4 * max(1.0, d.omega_crit)
    assert_allclose(rep.pole.imag, d.omega_crit, rtol=1e-6)


def test_verify_flags_wrong_frequency():
    d = disk_margin(L1, 0.0)
    pert = worst_perturbation_lti(d.delta0, d.omega_crit, 0.0)
    rep = verify_destabilizing(L1, pert, d.omega_crit * 3.0)
    assert rep.verdict == "fail"


@pytest.mark.parametrize("f", [-0.5, -0.5 * (1 - 1e-13)])
def test_verify_ill_posed_closure(f):
    # f L = -1 identically, and 1 + f L(inf) singular to rounding: both are
    # the w = inf form of destabilization, not an error
    rep = verify_destabilizing(tf([2.0], [1.0]), f, math.inf)
    assert rep.verdict == "ill-posed"


def test_trace_resonant_loop():
    L5 = tf([6.25, 50, 93.75], [1, 2.18, 101.36, 200.18, 100, 0])
    grid = np.array([5.0, 9.96965, 10.0, 20.0, 100.0, 1000.0])
    from dmkit import FrequencyGrid
    tr = freq_margin_trace(L5, 0.0, FrequencyGrid(tuple(grid)))
    a = tr.alpha_of_omega
    assert_allclose(a[0], 1.91625377, rtol=1e-6)
    assert_allclose(a[1], 0.92120854, rtol=1e-6)
    assert_allclose(a[2], 1.01992848, rtol=1e-6)
    assert_allclose(a[3], 2.00120561, rtol=1e-6)
    assert_allclose(a[4], 2.00000147, rtol=1e-6)
    assert_allclose(a[5], 2.0, rtol=1e-6)
    # tail heads toward the full right half plane: phi -> 90 degrees
    assert_allclose(math.degrees(tr.pm_of_omega[4]), 90.0, rtol=0.01)
    assert_allclose(math.degrees(tr.pm_of_omega[5]), 90.0, rtol=0.01)


def test_trace_at_open_loop_pole():
    # the trace reads the shifted sensitivity, which is a closed-loop
    # quantity: S = 0 at the integrator pole, so alpha(0) = 2 cleanly
    L5 = tf([6.25, 50, 93.75], [1, 2.18, 101.36, 200.18, 100, 0])
    tr = freq_margin_trace(L5, 0.0)
    assert tr.flagged == ()
    assert_allclose(tr.alpha_of_omega[0], 2.0, rtol=1e-9)
    assert tr.pm_of_omega[0] == math.inf  # exact half-plane row


def test_trace_minimum_matches_global_margin():
    d = disk_margin(L1, 0.0)
    tr = freq_margin_trace(L1, 0.0, default_grid(L1, 2000))
    finite = [a for a in tr.alpha_of_omega if not math.isnan(a)]
    assert min(finite) >= d.spec.alpha * (1 - 1e-4)


def flexible_loop(n, seed=3):
    """A SISO state-space loop of n lightly damped states in a random
    orthogonal basis, scaled to a peak gain of 1/2 so that it closes
    stable."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for k in range(0, n, 2):
        w, z = 10.0 ** rng.uniform(-1, 2), 10.0 ** rng.uniform(-3, -1)
        A[k : k + 2, k : k + 2] = [[-z * w, w], [-w, -z * w]]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A, B, C = Q @ A @ Q.T, Q @ rng.standard_normal((n, 1)), rng.standard_normal((1, n)) @ Q.T
    return ss(A, B, 0.5 / hinf_norm(ss(A, B, C, [[0.0]])).value * C, [[0.0]])


def test_one_eigen_solve_of_a_per_analysis(monkeypatch):
    # poles and the modal kernel share one eig of the closed loop's A;
    # besides it come the Hamiltonian's 2n x 2n solves and the 1 x 1 of
    # the closure's well-posedness test
    L = flexible_loop(40)
    sizes = []
    for name in ("eig", "eigvals"):
        def counted(a, solve=getattr(np.linalg, name)):
            sizes.append(np.shape(a))
            return solve(a)
        monkeypatch.setattr(np.linalg, name, counted)
    disk_margin(L, 0.0)
    assert sizes.count((40, 40)) == 1 and (80, 80) in sizes
    assert set(sizes) <= {(1, 1), (40, 40), (80, 80)}
    sizes.clear()
    tr = freq_margin_trace(L, 0.0, FrequencyGrid(np.geomspace(0.1, 100.0, 2000)))
    assert sorted(sizes) == [(1, 1), (40, 40)]
    # the trace's arrays are the public result, read-only
    assert tr.alpha_of_omega.shape == tr.pm_of_omega.shape == (2000,)
    assert tr.gm_of_omega.shape == (2000, 2)
    assert not any(a.flags.writeable for a in (tr.alpha_of_omega, tr.gm_of_omega, tr.pm_of_omega))


def test_a_state_space_analysis_builds_two_models(monkeypatch):
    # one closure gives the shifted sensitivity: the doubled loop and its
    # closed form, with no complementary sensitivity or shifted copy
    L = flexible_loop(40)
    built = []
    init = StateSpace.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(StateSpace, "__init__", counting)
    disk_margin(L, 0.0)
    assert len(built) == 2
    built.clear()
    freq_margin_trace(L, 0.5, FrequencyGrid(np.geomspace(0.1, 100.0, 50)))
    assert len(built) == 2


@pytest.mark.parametrize("sigma", [0.0, 1.0, -0.5])
def test_delta0_is_the_peak_sample(sigma):
    # the peak search's own sample of the response gives delta0: eval_freq
    # at omega_crit, bit for bit
    for L in (L1, flexible_loop(40)):
        d = disk_margin(L, sigma)
        assert d.delta0 == 1.0 / eval_freq(_shifted_sensitivity(L, sigma), d.omega_crit)


def check_map_radius(f, sigma, alpha, on_boundary):
    """|disk_map_inv(f, sigma)| equals alpha (on_boundary) or is not above it,
    within 1e-8 plus 1e-14 over f's relative distance to -(1 - sigma)/(1 +
    sigma), the point no finite d reaches, near which the map amplifies
    rounding in f; the distance is normalized as the map's own 1e-9 pole
    band normalizes it, and inside that band the map reports inf and is
    not judged."""
    near = abs((1.0 + sigma) * f + (1.0 - sigma)) / (abs((1.0 + sigma) * f) + abs(1.0 - sigma))
    r = abs(disk_map_inv(f, sigma))
    if r == math.inf:
        assert near <= 1e-9, (f, sigma, alpha)
        return
    err = abs(r - alpha) if on_boundary else max(r - alpha, 0.0)
    assert err * near <= (1e-8 * near + 1e-14) * alpha, (f, sigma, alpha, r)


def check_trace_rows(gains, ok, sigma):
    """_trace_margins' rows against the public disk map, row by row: a finite
    phase puts e^{j phi} on the disk boundary and smaller rotations inside;
    an infinite one off the half-plane band leaves every rotation inside;
    finite gain ends lie on the boundary, and gains between them and 1
    inside.  Each row also equals guaranteed_gm_pm of its own DiskSpec, and
    the CLI's table row is that plus gamma_m = min(1/lo, hi) and degrees."""
    gains, ok = np.asarray(gains, dtype=float), np.asarray(ok)
    alpha, lo, hi, pm = _trace_margins(gains, ok, sigma)
    grid = FrequencyGrid(tuple(range(gains.size)))
    tr = MarginTrace(grid, alpha, np.column_stack([lo, hi]), pm)
    table = [tuple(row.tolist()) for row in _trace_table(tr)]
    rows = zip(table, alpha.tolist(), lo.tolist(), hi.tolist(), pm.tolist())
    for i, (row, a, g_lo, g_hi, phi) in enumerate(rows):
        assert row[0] == grid.points[i]
        if not ok[i]:
            assert all(math.isnan(v) for v in (a, g_lo, g_hi, phi) + row[1:])
            continue
        (s_lo, s_hi), s_pm = guaranteed_gm_pm(DiskSpec(a, sigma))
        assert (s_lo, s_hi, s_pm) == (g_lo, g_hi, phi), i
        gamma_m = min(1.0 / g_lo if g_lo > 0.0 else math.inf, g_hi)
        assert row[1:] == (a, g_lo, g_hi, gamma_m, math.degrees(phi) if phi < math.inf else phi), i
        if a == math.inf:
            assert (g_lo, g_hi, phi) == (0.0, math.inf, math.inf)
            continue
        band = abs(abs(a * (1.0 + sigma)) - 2.0) <= 2e-12
        assert 0.0 <= g_lo <= 1.0 <= g_hi and (phi == math.inf or 0.0 <= phi <= math.pi), i
        if phi < math.inf:
            check_map_radius(cmath.exp(1j * phi), sigma, a, True)
            for k in (0.5, 0.9, 0.99):
                check_map_radius(cmath.exp(1j * k * phi), sigma, a, False)
        else:
            assert band or abs(sigma * a) > 2.0 * (1.0 - 1e-15), i
            if not band:
                for t in np.linspace(0.0, math.pi, 9):
                    check_map_radius(cmath.exp(1j * t), sigma, a, False)
        check_map_radius(1.0, sigma, a, False)
        for end in (g_lo, g_hi):
            if 0.0 < end < math.inf:
                check_map_radius(end, sigma, a, True)
        check_map_radius(0.5 * (g_lo + 1.0), sigma, a, False)
        check_map_radius(0.5 * (g_hi + 1.0) if g_hi < math.inf else 2.0, sigma, a, False)


@pytest.mark.parametrize("sigma", [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0])
def test_trace_rows_match_scalar_margins(sigma):
    # interior, half-plane (alpha (1 + sigma) = 2 within 1e-12, on either
    # side of the edge), exterior, zero gain and flagged rows in one grid
    gains = [0.0, 1e-3, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 50.0, 1e6]
    if sigma != -1.0:
        edge = abs(1.0 + sigma) / 2.0
        gains += [edge * (1.0 + e) for e in (0.0, 5e-13, -5e-13, 3e-12, -3e-12, 1e-6, -1e-6)]
    ok = [True] * len(gains)
    gains += [0.4, math.nan]
    ok += [False, False]
    kinds = {disk_geometry(DiskSpec(1.0 / g, sigma)).kind for g, good in zip(gains, ok) if good and g}
    # sigma = -1 has no disk-map pole, so every disk is interior
    assert kinds == ({INTERIOR_DISK} if sigma == -1.0 else {INTERIOR_DISK, HALF_PLANE, EXTERIOR_DISK})
    check_trace_rows(gains, ok, sigma)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30), st.floats(-5.0, 5.0))
@example(gains=[1e-9], sigma=-2.0)
def test_trace_rows_match_scalar_margins_random(gains, sigma):
    check_trace_rows(gains, [True] * len(gains), sigma)


@pytest.mark.parametrize("sigma", [0.0, 0.5, -0.9, 2.0])
def test_guaranteed_pm_matches_mpmath(sigma):
    # cos(phi) = (1 + gmin gmax)/(gmin + gmax) from the intercepts, in 40
    # digits; the acos of the rounded intercepts lost about eps/phi^2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for alpha in (1e-2, 1e-3, 1e-4, 1e-6):
            a, s = mpmath.mpf(alpha), mpmath.mpf(sigma)
            gmin, gmax = (2 - (1 - s) * a) / (2 + (1 + s) * a), (2 + (1 - s) * a) / (2 - (1 + s) * a)
            want = mpmath.acos((1 + gmin * gmax) / (gmin + gmax))
            phi = guaranteed_gm_pm(DiskSpec(alpha, sigma))[1]
            assert abs(phi - want) <= 1e-15 * want, (alpha, sigma)


def test_guaranteed_pm_pin_satellite_io():
    # satellite io's alpha_lower at skew 0; 2 atan(alpha/2) in degrees to 40
    # digits is 2.8552965687497116034...; the acos form printed 2.855296568749704
    alpha = 0.04984464227081897
    pm = math.degrees(guaranteed_gm_pm(DiskSpec(alpha, 0.0))[1])
    assert abs(pm - 2.8552965687497116034) <= 1e-15 * 2.8552965687497116034


def test_guaranteed_margins_inside_classical():
    for sigma in (-1.0, -0.5, 0.0, 0.5, 1.0):
        d = disk_margin(L1, sigma)
        cm = classical_margins(L1)
        (lo, hi), pm = d.guaranteed_gm, d.guaranteed_pm
        assert lo >= cm.g_lower - 1e-12
        assert hi <= cm.g_upper + 1e-12
        if math.isfinite(pm):
            assert pm <= cm.phi_upper + 1e-12


def test_guaranteed_gm_pm_eq8_eq9():
    (lo, hi), pm = guaranteed_gm_pm(DiskSpec(ALPHA1, 0.0))
    assert_allclose((lo, hi), GM1, rtol=1e-8)
    assert_allclose(math.degrees(pm), PM1_DEG, rtol=1e-8)
    # degenerate disk: gains collapse to 1 and phase to 0
    (lo0, hi0), pm0 = guaranteed_gm_pm(DiskSpec(1e-9, 0.0))
    assert_allclose((lo0, hi0), (1.0, 1.0), atol=1e-8)
    assert_allclose(pm0, 0.0, atol=1e-8)


def test_guaranteed_pm_infinite_when_disk_covers_half_plane():
    (lo, hi), pm = guaranteed_gm_pm(DiskSpec(2.0, 0.0))
    assert (lo, hi) == (0.0, math.inf)
    assert pm == math.inf


def test_gain_phase_tradeoff():
    d = DiskSpec(0.75, 0.0)
    phi = gain_phase_tradeoff(d, gain=1.0)
    assert_allclose(math.degrees(phi), 41.1120904392, rtol=1e-8)
    # at the gain extremes no phase variation is left
    assert_allclose(gain_phase_tradeoff(d, gain=5.0 / 11.0), 0.0, atol=1e-6)
    g = gain_phase_tradeoff(d, phase=0.0)
    assert_allclose(g, (5.0 / 11.0, 11.0 / 5.0), rtol=1e-9)


def test_gain_phase_tradeoff_keeps_its_digits_near_the_gain_ends():
    # gains t^4-close to an interior disk's ends, against a 50-digit acos
    # of the same float inputs; acos((g^2 + gmin gmax) / (g (gmin + gmax)))
    # in floats loses all the digits of a small phase there
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    checked = 0
    with mpmath.workdps(50):
        while checked < 300:
            spec = DiskSpec(rng.uniform(0.01, 1.5), rng.uniform(-1.0, 1.0))
            geo = disk_geometry(spec)
            if geo.kind != INTERIOR_DISK or geo.gamma_min <= 0.0:
                continue
            gmin, gmax = geo.gamma_min, geo.gamma_max
            step = rng.uniform() ** 4 * (gmax - gmin)
            gain = gmin + step if rng.integers(2) else gmax - step
            g = mpmath.mpf(gain)
            want = mpmath.acos((g * g + mpmath.mpf(gmin) * gmax) / (g * (mpmath.mpf(gmin) + gmax)))
            got = gain_phase_tradeoff(spec, gain=gain)
            assert abs(got - want) <= 1e-15 * want
            checked += 1
    # the branches: outside the disk, and a gain whose rotation is unbounded
    assert gain_phase_tradeoff(DiskSpec(0.75, 0.0), gain=2.3) is None
    assert gain_phase_tradeoff(DiskSpec(1.5, -1.0), gain=0.25) == math.pi


def test_safe_region_curve_contains_tradeoff_points():
    # rows are (gain_dB, phase_deg); sigma = 0 peaks its phase at 0 dB
    d = DiskSpec(0.75, 0.0)
    curve = safe_region_curve(d, n=721)
    gains = [g for g, _ in curve]
    phases = [p for _, p in curve]
    assert max(phases) == pytest.approx(
        math.degrees(gain_phase_tradeoff(d, gain=1.0)), rel=1e-3)
    assert min(gains) == pytest.approx(20 * math.log10(5.0 / 11.0), rel=1e-3)
    assert max(gains) == pytest.approx(20 * math.log10(11.0 / 5.0), rel=1e-3)


def test_nyquist_exclusion_example2():
    d = disk_margin(L1, 0.0)
    ex = nyquist_exclusion(d.spec)
    # a result is read through its own geometry, with the same answers
    assert nyquist_exclusion(d) == ex
    assert gain_phase_tradeoff(d, gain=1.0) == gain_phase_tradeoff(d.spec, gain=1.0)
    assert_allclose(ex.intercepts, (-1.0 / GM1[0], -1.0 / GM1[1]), rtol=1e-8)
    assert_allclose(ex.center, -(1 / GM1[0] + 1 / GM1[1]) / 2, rtol=1e-8)
    # the loop never enters the excluded disk
    for w in np.geomspace(1e-3, 1e3, 3000):
        assert abs(eval_freq(L1, w) - ex.center) >= ex.radius * (1 - 1e-9)
    # and touches it at the critical frequency
    tangency = -1.0 / d.f0
    assert_allclose(abs(tangency - ex.center), ex.radius, rtol=1e-9)
    assert_allclose(eval_freq(L1, d.omega_crit), tangency, rtol=1e-6)


def test_nyquist_exclusion_shapes():
    # sigma = +1: disk of radius alpha centered at -1
    ex = nyquist_exclusion(DiskSpec(0.4, 1.0))
    assert_allclose(ex.center, -1.0, rtol=1e-12)
    assert_allclose(ex.radius, 0.4, rtol=1e-12)
    # sigma = -1, alpha = 0.5: intercepts -2 and -2/3
    ex2 = nyquist_exclusion(DiskSpec(0.5, -1.0))
    assert_allclose(sorted(ex2.intercepts), [-2.0, -2.0 / 3.0], rtol=1e-9)


def test_nyquist_exclusion_requires_interior_disk():
    with pytest.raises(UnsupportedCaseError):
        nyquist_exclusion(DiskSpec(2.5, 0.0))


def test_disk_map_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(500):
        sigma = rng.uniform(-1.0, 1.0)
        d = complex(*rng.uniform(-3.0, 3.0, size=2))
        if abs(2.0 - (1.0 + sigma) * d) < 1e-3:
            continue
        assert_allclose(disk_map_inv(disk_map(d, sigma), sigma), d, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.3, 1.0, 2.0])
def test_disk_map_pole(sigma):
    pole = 2.0 / (1.0 + sigma)
    assert disk_map(pole, sigma) == math.inf
    assert disk_map(pole * (1.0 + 1e-10), sigma) == math.inf
    assert math.isfinite(abs(disk_map(pole * (1.0 + 1e-7), sigma)))
    assert disk_map_inv(math.inf, sigma) == pole


def test_disk_map_has_no_pole_at_sigma_minus_one():
    for d in (0.5, 2.0, 1e6, -1e6, 3.0 + 4.0j):
        assert disk_map(d, -1.0) == 1.0 + d
    assert disk_map_inv(math.inf, -1.0) == math.inf


def test_intercepts_are_the_disk_map():
    for alpha in (0.1, 0.458, 1.0, 1.7, 2.5, 7.0):
        for sigma in (-1.0, -0.4, 0.0, 0.6, 1.0):
            g = disk_geometry(DiskSpec(alpha, sigma))
            if g.kind == "half-plane":
                continue
            assert g.gamma_min == disk_map(-alpha, sigma)
            assert g.gamma_max == disk_map(alpha, sigma)


def test_safe_region_curve_half_plane_sentinel_uses_map_pole():
    # 2 - alpha = 1e-9 is inside the map's 1e-9 pole test (the old
    # 1e-12 test drew a finite point at 192 dB)
    first = safe_region_curve(DiskSpec(2.0 - 1e-9, 0.0), n=3)[0]
    assert first[0] == math.inf and math.isnan(first[1])
