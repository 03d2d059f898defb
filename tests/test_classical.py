import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmkit import classical, cli
from dmkit import (
    InputError,
    NominalInstabilityError,
    StateSpace,
    WellPosednessError,
    classical_margins,
    gain_margins,
    phase_margin,
    poles,
    scalar_close,
    is_stable,
    ss,
    ss_to_tf,
    tf,
    tf_to_ss,
    tfm,
)
from dmkit.lti import _horner
from dmkit.multiloop import siso_loop

DATA = Path(__file__).parent / "data"

L1 = tf([25], [1, 10, 10, 10])

BADL = tf(
    [-47.252, -20.234, -135.4086, 61.6166, 804.6454, 600.0611, 59.1451, 1.888],
    [99.8696, 175.5045, 673.7378, 890.5109, 553.1742, -49.2268, 12.1448, 1.0],
)


def test_example1_gain_margins():
    gl, gu, (wl, wu) = gain_margins(L1)
    assert gl == 0.0
    assert_allclose(gu, 3.6, rtol=1e-9)
    assert wl is None
    assert_allclose(wu, math.sqrt(10), rtol=1e-9)


def test_example1_phase_margin():
    phi, w = phase_margin(L1)
    assert_allclose(math.degrees(phi), 29.1103691316, rtol=1e-8)
    assert_allclose(w, 1.7844356208, rtol=1e-8)


def test_example1_full_report():
    cm = classical_margins(L1)
    assert cm.g_lower == 0.0
    assert_allclose(cm.g_upper, 3.6, rtol=1e-9)
    assert_allclose(math.degrees(cm.phi_upper), 29.1103691316, rtol=1e-8)
    assert_allclose(cm.critical_gain_freq, 3.1622776602, rtol=1e-8)
    assert_allclose(cm.critical_phase_freq, 1.7844356208, rtol=1e-8)
    assert cm.phase_crossover_freqs == (cm.critical_gain_freq,)
    assert cm.gain_crossover_freqs == (cm.critical_phase_freq,)
    assert cm.extra_stable_gain_intervals == ()


def test_example1_margin_boundaries_destabilize():
    # just inside the reported interval stays stable, just beyond does not
    assert is_stable(scalar_close(L1, 3.6 * 0.999))
    assert not is_stable(scalar_close(L1, 3.6 * 1.001))
    phi = classical_margins(L1).phi_upper
    assert is_stable(scalar_close(L1, np.exp(1j * 0.999 * phi)))
    assert not is_stable(scalar_close(L1, np.exp(1j * 1.001 * phi)))


def test_badl_margins():
    cm = classical_margins(BADL)
    assert_allclose(cm.g_lower, 0.2000872390, rtol=1e-8)
    assert_allclose(cm.g_upper, 2.1135528655, rtol=1e-8)
    assert_allclose(math.degrees(cm.phi_upper), 44.8555511, rtol=1e-8)
    # upper gain margin binds through loss of well-posedness at w = inf
    assert cm.critical_gain_freq == math.inf
    assert math.inf in cm.phase_crossover_freqs
    assert_allclose(min(cm.phase_crossover_freqs), 0.18616710, rtol=1e-6)
    assert_allclose(cm.critical_phase_freq, 1.43321048, rtol=1e-6)


def test_badl_paper_rounding():
    cm = classical_margins(BADL)
    assert_allclose(cm.g_lower, 0.2, rtol=0.03)
    assert_allclose(cm.g_upper, 2.1, rtol=0.03)
    assert_allclose(math.degrees(cm.phi_upper), 45.0, rtol=0.03)


def test_integrator_loop_has_open_gain_interval():
    cm = classical_margins(tf([1], [1, 0]))
    assert cm.g_lower == 0.0
    assert cm.g_upper == math.inf
    assert_allclose(math.degrees(cm.phi_upper), 90.0, rtol=1e-9)
    assert_allclose(cm.critical_phase_freq, 1.0, rtol=1e-9)


def test_no_gain_crossover_means_infinite_phase_margin():
    # |L| < 1 everywhere
    cm = classical_margins(tf([0.5], [1, 1]))
    assert cm.phi_upper == math.inf
    assert cm.critical_phase_freq is None


def test_unstable_nominal_rejected():
    with pytest.raises(NominalInstabilityError):
        classical_margins(tf([1], [1, -1]))


def test_mimo_rejected():
    P = tfm([[([1], [1, 1]), ([0], [1])], [([0], [1]), ([1], [1, 2])]])
    with pytest.raises(InputError):
        classical_margins(P)


def test_positive_feedback_sign_handling():
    # -1/s under positive feedback is 1/s under negative feedback
    cm = classical_margins(tf([-1], [1, 0], feedback_sign="positive"))
    assert cm.g_lower == 0.0
    assert cm.g_upper == math.inf
    assert_allclose(math.degrees(cm.phi_upper), 90.0, rtol=1e-9)


def test_gain_candidates_are_axis_crossings():
    # closing at each reported margin puts poles on the axis
    for g, w in ((3.6, math.sqrt(10)),):
        closed = scalar_close(L1, g)
        assert min(abs(z - 1j * w) for z in poles(closed)) < 1e-6


def test_multiple_phase_crossings_loop():
    # L = 25 (s+1)/(s^3+10s^2+10s+10) scaled down: add a stable window probe
    num = [-47.252, -20.234, -135.4086, 61.6166, 804.6454, 600.0611, 59.1451, 1.888]
    den = [99.8696, 175.5045, 673.7378, 890.5109, 553.1742, -49.2268, 12.1448, 1.0]
    gl, gu, _ = gain_margins(tf(num, den))
    # interval around 1 is maximal: both ends destabilize
    assert not is_stable(scalar_close(tf(num, den), gl * 0.98))
    assert is_stable(scalar_close(tf(num, den), gl * 1.02))
    assert is_stable(scalar_close(tf(num, den), gu * 0.98))
    assert not is_stable(scalar_close(tf(num, den), gu * 1.02))


# ---- exact crossings against an independent numpy oracle -------------------

def _crossing_oracle(num, den):
    """Positive real roots of Im L(jw) = 0 and |L(jw)| = 1, from
    numpy.polynomial composition with s = jw and numpy.roots."""
    jw = np.polynomial.Polynomial([0, 1j])
    n = np.polynomial.Polynomial(np.asarray(num, float)[::-1])(jw)
    d = np.polynomial.Polynomial(np.asarray(den, float)[::-1])(jw)

    def conj(p):
        return np.polynomial.Polynomial(p.coef.conj())

    def positive(c):
        r = np.roots(c[::-1])
        return np.sort([x.real for x in r if x.real > 0 and abs(x.imag) < 1e-7 * abs(x)])

    return positive((n * conj(d)).coef.imag), positive((n * conj(n) - d * conj(d)).coef.real)


def _L(num, den, w):
    return np.polyval(num, 1j * w) / np.polyval(den, 1j * w)


# a resonant peak grazing |L| = 1 gives two gain crossovers 0.3% apart
NEAR_DOUBLE = (
    [4.4232253772301634e-05, 0.0012931931559487218, 0.009553488533227274,
     0.00671520758453747],
    [1.0, 1.1609672834881273, 2.3281113151536763, 1.3330075916528912,
     1.3439992319928205],
)

# a low-gain integrator loop crosses |L| = 1 far below its poles and zeros
LOW_CROSSOVER = (
    [0.0016495912063889198, 0.09921376223659804, 1.4935835026678173,
     -11.370163144992059, -453.079427024504, -3887.672919107605,
     -13912.478213148748, -19170.265082950486, 1863.9245684843936,
     18221.821034665936],
    [1.0, 24.660163911747077, 483.2781694663471, 5269.108450475484,
     38542.65704869341, 162919.625456283, 584809.4033078025,
     1382330.9443815053, 2731095.475151958, 2920044.86123279,
     2702758.460499364, 0.0],
)


@pytest.mark.parametrize("num, den", [NEAR_DOUBLE, LOW_CROSSOVER],
                         ids=["near-double-crossover", "crossover-below-grid"])
def test_crossings_match_numpy_roots(num, den):
    cm = classical_margins(tf(num, den))
    real_axis, unit_circle = _crossing_oracle(num, den)
    assert_allclose(cm.gain_crossover_freqs, unit_circle, rtol=1e-9)
    phis = [abs(np.angle(-_L(num, den, w))) for w in unit_circle]
    assert_allclose(cm.phi_upper, min(phis), rtol=1e-9)
    gains = sorted((-1.0 / _L(num, den, w).real, w) for w in real_axis
                   if _L(num, den, w).real < 0)
    assert_allclose(cm.phase_crossover_freqs, [w for _, w in gains], rtol=1e-9)
    assert cm.g_lower == 0.0
    assert_allclose(cm.g_upper, min(g for g, _ in gains if g > 1), rtol=1e-9)


def test_near_double_crossover_phase_margin():
    cm = classical_margins(tf(*NEAR_DOUBLE))
    assert len(cm.gain_crossover_freqs) == 2
    w1, w2 = cm.gain_crossover_freqs
    assert 1.002 < w2 / w1 < 1.004
    assert_allclose(math.degrees(cm.phi_upper), 44.2654061, rtol=1e-8)


def test_crossover_below_pole_zero_span():
    cm = classical_margins(tf(*LOW_CROSSOVER))
    assert len(cm.gain_crossover_freqs) == 1
    assert_allclose(cm.gain_crossover_freqs[0], 0.00674238957, rtol=1e-8)


def _series(first, second):
    """State-space realization of second(s) first(s), SISO."""
    a1, b1, c1, d1 = first.A, first.B, first.C, first.D
    a2, b2, c2, d2 = second.A, second.B, second.C, second.D
    n1, n2 = a1.shape[0], a2.shape[0]
    A = np.block([[a1, np.zeros((n1, n2))], [b2 @ c1, a2]])
    return ss(A, np.vstack([b1, b2 @ d1]), np.hstack([d2 @ c1, c2]), d2 @ d1)


def _assert_same_margins(a, b, rtol):
    assert b.g_lower == a.g_lower or math.isclose(b.g_lower, a.g_lower, rel_tol=rtol)
    assert b.g_upper == a.g_upper or math.isclose(b.g_upper, a.g_upper, rel_tol=rtol)
    assert b.phi_upper == a.phi_upper or math.isclose(b.phi_upper, a.phi_upper, rel_tol=rtol)
    assert len(b.phase_crossover_freqs) == len(a.phase_crossover_freqs)
    assert_allclose(b.phase_crossover_freqs, a.phase_crossover_freqs, rtol=rtol)
    assert len(b.gain_crossover_freqs) == len(a.gain_crossover_freqs)
    assert_allclose(b.gain_crossover_freqs, a.gain_crossover_freqs, rtol=rtol)


def test_rotated_state_space_loop_matches_its_transfer_function():
    # relative degree 2 realized in a rotated modal basis: C B is zero only
    # to rounding, which must not read as a real-axis crossing far out
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        p = -np.exp(rng.uniform(np.log(0.1), np.log(50.0), n))
        r = rng.normal(size=n) * 10.0
        r[-1] = -r[:-1].sum()
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        L = ss(Q @ np.diag(p) @ Q.T, Q @ np.ones((n, 1)), r[None, :] @ Q.T, [[0.0]])
        num = np.trim_zeros(sum(r[i] * np.poly(np.delete(p, i)) for i in range(n)), "f")
        if not is_stable(scalar_close(tf(num, np.poly(p)), 1.0)):
            continue
        assert ss_to_tf(L).num.degree <= n - 2
        _assert_same_margins(classical_margins(tf(num, np.poly(p))), classical_margins(L), 1e-7)


def test_wide_span_companion_loop_matches_its_transfer_function():
    # denominator coefficients up to 3e10 against a numerator near 1e-2:
    # det(sI - A + B C) - det(sI - A) loses the numerator to rounding
    # unless B C is scaled up first
    num = [0.00042483842977397436, 0.010540246307463598]
    den = [1.0, 65.99276893151401, 5608.356187566589, 283999.21286879305,
           9680532.045184752, 296373569.32658815, 5164711365.077173,
           29433210586.574528]
    r = tf_to_ss(tf(num, den))
    assert_allclose(ss_to_tf(r).num.coeffs, num, rtol=1e-9)
    _assert_same_margins(classical_margins(tf(num, den)),
                         classical_margins(ss(r.A, r.B, r.C, r.D)), 1e-9)


def test_state_space_integrator_sets_no_lower_gain_limit():
    # rounding leaves this realization's pencil solvable at w = 0, where it
    # gives L(0) ~ -1.4e11: the integrator must still keep w = 0 from
    # reading as a gain boundary near 7e-12
    den = [1.0, 19.075554739261555, 618.6474831773871, 4124.121511383766,
           63397.69129814346, 59874.14171519782, 0.0]
    L = _series(tf_to_ss(tf([1.0, 2.0, 1.0], den)), tf_to_ss(tf([1.0, 1.0], [1.0, 1.0])))
    a = classical_margins(tf(np.polymul([1.0, 2.0, 1.0], [1.0, 1.0]), np.polymul(den, [1.0, 1.0])))
    b = classical_margins(L)
    assert b.g_lower == 0.0
    _assert_same_margins(a, b, 1e-9)


def test_small_gain_loop_keeps_its_real_axis_crossing():
    # (1 + j sqrt(3))^3 = -8, so L(j sqrt(3)) = -1e-8 exactly
    cm = classical_margins(tf([8e-8], [1, 3, 3, 1]))
    assert_allclose(cm.g_upper, 1e8, rtol=1e-9)
    assert_allclose(cm.critical_gain_freq, math.sqrt(3), rtol=1e-9)


def test_spurious_small_gain_root_is_not_a_boundary(monkeypatch):
    # at w = 1, L = -2e-8 (1 + j): tiny, but 45 degrees off the real axis;
    # an absolute 1e-6 test on Im L would read g = 5e7 there
    real_roots = classical._positive_roots
    monkeypatch.setattr(classical, "_positive_roots",
                        lambda p, residual: sorted(real_roots(p, residual) + [1.0]))
    cm = classical_margins(tf([8e-8], [1, 3, 3, 1]))
    assert 1.0 not in cm.phase_crossover_freqs
    assert_allclose(cm.g_upper, 1e8, rtol=1e-9)


def test_crossings_evaluate_each_model_once(monkeypatch):
    # the loop and, for a state-space loop, its transfer function, each
    # once over every candidate: the real-axis roots, w = 0, w = inf and
    # the unit-circle roots; a transfer-function loop is its own
    sizes = []
    evaluate = classical.freq_response
    monkeypatch.setattr(classical, "freq_response",
                        lambda m, ws: sizes.append(len(ws)) or evaluate(m, ws))
    for L, calls in ((L1, 1), (BADL, 1), (tf_to_ss(BADL.representation), 2)):
        sizes.clear()
        classical_margins(L)
        assert len(sizes) == calls and sizes[0] >= 2 and set(sizes) == {sizes[0]}


def test_static_closure_agrees_with_scalar_close():
    # a state-space loop closes as the autonomous _close(StateSpace(A, B,
    # g C, g D), []): scalar_close's closed-loop A, bit for bit
    gains = np.concatenate([[0.0, 1.0], np.geomspace(1e-3, 1e3, 25), -np.geomspace(1e-2, 1e2, 9)])
    verdicts = []
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4) * 2:
        A = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
        B, C, D = rng.standard_normal((n, 1)), rng.standard_normal((1, n)), rng.standard_normal((1, 1))
        L = ss(A, B, C, D)
        for g in gains:
            closed = scalar_close(L, g).representation
            assert np.array_equal(classical._close(StateSpace(A, B, g * C, g * D), []).A, closed.A)
            verdicts.append(classical._stable_closure(L, g))
            assert verdicts[-1] == is_stable(closed)
    assert 0 < sum(verdicts) < len(verdicts)
    t = tf([1.0, 2.0], [1.0, 0.5, 3.0])
    for g in gains:
        assert classical._stable_closure(t, g) == is_stable(scalar_close(t, g))


@pytest.mark.parametrize("L", [ss([[-1.0]], [[1.0]], [[1.0]], [[0.5]]), tf([1.0, 0.0], [2.0, 1.0])])
def test_static_closure_rejects_an_ill_posed_gain(L):
    # 1 + g d = 0 at g = -2 for d = 0.5, by either route
    with pytest.raises(WellPosednessError):
        scalar_close(L, -2.0)
    with pytest.raises(WellPosednessError):
        classical._stable_closure(L, -2.0)


# ---- property test: margins against closure and dense-grid oracles ---------

def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def stable_loops(draw):
    """Random stable strictly proper loops: lightly damped pairs, real
    poles, an optional integrator, left- and right-half-plane zeros.
    Returns (num, den, model): the model is the transfer function, its
    companion-form realization, or a companion-form plant in series with
    a lead-lag controller, as the CLI folds plant and controller."""
    pairs = draw(st.lists(st.tuples(_log_uniform(0.1, 100.0), _log_uniform(1e-3, 0.7)),
                          max_size=2))
    reals = draw(st.lists(_log_uniform(0.1, 100.0), max_size=3))
    integrator = draw(st.booleans())
    den = np.array([1.0])
    for wn, zeta in pairs:
        den = np.polymul(den, [1.0, 2.0 * zeta * wn, wn * wn])
    for a in reals:
        den = np.polymul(den, [1.0, a])
    if integrator:
        den = np.polymul(den, [1.0, 0.0])
    order = len(den) - 1
    assume(order >= 1)
    zeros = draw(st.lists(st.tuples(_log_uniform(0.1, 100.0), st.booleans()),
                          max_size=order - 1))
    num = np.array([1.0])
    for z, rhp in zeros:
        num = np.polymul(num, [1.0, -z if rhp else z])
    # positive gain at s = 0 keeps small loop gains stable
    dc = np.polyval(num, 0.0) / (1.0 if integrator else np.polyval(den, 0.0))
    num = num * np.sign(dc) * draw(_log_uniform(1e-2, 1e2))
    realization = draw(st.sampled_from(["tf", "ss", "series"]))
    if realization == "series":
        zero, pole = draw(_log_uniform(0.1, 100.0)), draw(_log_uniform(0.1, 100.0))
        lead_lag = [pole / zero, pole], [1.0, pole]
        model = _series(tf_to_ss(tf(num, den)), tf_to_ss(tf(*lead_lag)))
        num, den = np.polymul(num, lead_lag[0]), np.polymul(den, lead_lag[1])
    elif realization == "ss":
        r = tf_to_ss(tf(num, den))
        model = ss(r.A, r.B, r.C, r.D)
    else:
        model = tf(num, den)
    # nominal poles clearly off the axis: a loop stable only to rounding
    # (drawn with an exact pole-zero cancellation) has no margins to check
    p = _closed_loop_poles(num, den, 1.0)
    assume(np.all(p.real < -1e-6 * np.abs(p)))
    return num, den, model


def _closed_loop_poles(num, den, f):
    return np.roots(np.polyadd(den, f * num))


def _stable(num, den, f):
    return bool(np.all(_closed_loop_poles(num, den, f).real < 0))


def _sign_changes(y):
    return np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)


def _near(ws, lo, hi):
    return any(lo * (1 - 1e-9) <= w <= hi * (1 + 1e-9) for w in ws)


@settings(max_examples=150, deadline=None)
@given(stable_loops())
def test_classical_margins_against_oracles(loop):
    num, den, model = loop
    cm = classical_margins(model)
    for g, inside in ((cm.g_upper, 1 - 1e-3), (cm.g_lower, 1 + 1e-3)):
        if 0.0 < g < math.inf:
            assert _stable(num, den, g * inside)
            assert not _stable(num, den, g * (2.0 - inside))
    if math.isfinite(cm.phi_upper):
        for sign in (1, -1):
            assert _stable(num, den, np.exp(sign * 1j * cm.phi_upper * (1 - 1e-3)))
        # beyond pi a rotation one way is a smaller rotation the other way
        assert cm.phi_upper * (1 + 1e-3) > math.pi or not (_stable(num, den, np.exp(1j * cm.phi_upper * (1 + 1e-3)))
                    and _stable(num, den, np.exp(-1j * cm.phi_upper * (1 + 1e-3))))
    ws = np.geomspace(1e-5, 1e5, 200001)
    L = _L(num, den, ws)
    for i in _sign_changes(L.imag):
        if L[i].real < 0 and L[i + 1].real < 0:
            assert _near(cm.phase_crossover_freqs, ws[i], ws[i + 1])
    for i in _sign_changes(np.abs(L) - 1.0):
        assert _near(cm.gain_crossover_freqs, ws[i], ws[i + 1])


def _same_bits(got, want):
    # equal to the last bit, part by part, a nan matching any nan
    return all(np.float64(g).tobytes() == np.float64(v).tobytes() or (math.isnan(g) and math.isnan(v))
               for g, v in ((got.real, want.real), (got.imag, want.imag)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=14),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=14),
       st.floats(min_value=0.0, max_value=1e12, allow_subnormal=True))
def test_newton_polish_horner_is_polyval_bit_for_bit(coeffs, imag, w):
    # _positive_roots and critical_distance evaluate their polynomials at a
    # Python float w, the _crossings residuals N and D at the Python complex
    # 1j w: each is np.polyval to the last bit, and stays a Python number
    cplx = [complex(c, b) for c, b in zip(coeffs, imag + [0.0] * len(coeffs))]
    with np.errstate(over="ignore", invalid="ignore"):
        cases = [(coeffs, w, np.polyval(np.array(coeffs), w)),
                 (coeffs, 1j * w, np.polyval(np.array(coeffs), np.complex128(1j * w))),
                 (cplx, 1j * w, np.polyval(np.array(cplx), np.complex128(1j * w)))]
    for c, x, want in cases:
        got = _horner(c, x)
        assert type(got) is type(x) and _same_bits(got, want)


def test_newton_polish_stops_where_the_residual_overflows():
    # |N(jw)| is about 3.7e16^10 at the unit-circle crossing, so its square
    # overflows: the polish keeps np.roots' root, where numpy's inf residual
    # stopped it too
    num = 3.7e16 * np.poly(-np.arange(1.5, 10.0))
    den = np.poly(-np.arange(1.0, 11.0))
    gains, phases = classical._crossings(classical._nominal(tf(num, den)))
    assert gains == []
    assert [(phi.hex(), w.hex()) for phi, w in phases] == [("0x1.921fb54442d19p+0", "0x1.06e69ba160fffp+55")]


def test_dense_loop_margins_raise_no_runtime_warning():
    # a 20-state loop whose real-axis residual overflowed numpy's complex
    # product ("overflow" and "invalid value" RuntimeWarnings); the margins
    # keep their bits (a float's repr round-trips)
    P, K, _, _ = cli._load_model_file(str(DATA / "dense_20.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cm = classical_margins(siso_loop(P, K))
    assert cm == classical.ClassicalMargins(
        g_lower=0.0, g_upper=1.060327160774579, phi_upper=0.027186787847457664,
        gain_crossover_freqs=(1.0542604944845224, 1.0603289461004577),
        phase_crossover_freqs=(
            1.0605740946877165, 2.340920176708885, 1.3122664377987554, 3.3828328656304656,
            4.829051385677983, 10.495049250015946, 1.1616899888217511, 43.668447365624196,
            5.287903003357606, 24.376100019574732, 7.9749626523686805, 28.980902944846154,
            51.8277435326182, 72.64179578794197, 13.1208606695753, 2.4961064441054837,
            1.4701164395828392, 4.989247564100361, 5.508105331283317, 3.6100542908971445,
            171.17543069486197, 36.2353847285228, 8.611100119479035, 78.82968457058523,
            14.080221834861812, 10.869167362819782, 105.15751374886374, 37.32418833201586,
            187.91506882976208, 137.4021451965083, 25.828277714812568, 76.57907333791026,
            31.00837514924774, 46.54294390767365, 119.8838818327, 180.71115082948154,
            89.64240924738435, 153.8238759200696, 59.37925138292091, 657.5241562675297),
        critical_gain_freq=1.0605740946877165, critical_phase_freq=1.0603289461004577,
        extra_stable_gain_intervals=((2714761.6345099313, math.inf),))
