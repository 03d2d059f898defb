import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dmkit import (
    AlgebraicLoopError,
    DegreeZeroError,
    ImproperModelError,
    InputError,
    LtiModel,
    PoleOnAxisError,
    Polynomial,
    StateSpace,
    TransferFunction,
    WellPosednessError,
    eval_freq,
    freq_response,
    is_stable,
    poles,
    poly_roots,
    scalar_close,
    sensitivity_pair,
    ss,
    ss_to_tf,
    tf,
    tf_to_ss,
    tfm,
)
from dmkit import lti
from dmkit.lti import (
    _CHUNK_BYTES,
    _MODAL_STATES,
    _close,
    _large_real,
    _minreal,
    _modal_form,
)


def test_polynomial_basic():
    p = Polynomial([0, 0, 1, 2, 3])
    assert p.degree == 2
    assert_allclose(p.coeffs, [1, 2, 3])
    assert p(0) == 3
    assert p(1) == 6
    assert not p.is_zero

    z = Polynomial([0.0, 0.0])
    assert z.is_zero
    assert z.degree == 0
    assert_allclose(z.coeffs, [0.0])


def test_polynomial_evaluation_is_polyval_bit_for_bit():
    # the evaluator behind every transfer-function response: np.polyval's
    # values and types, at scalars and arrays, real and complex
    rng = np.random.default_rng(3)
    for _ in range(300):
        c = rng.standard_normal(rng.integers(1, 12)) * 10.0 ** rng.uniform(-6, 6)
        if rng.random() < 0.3:
            c = c + 1j * rng.standard_normal(c.size)
        p = Polynomial(c)
        for x in (rng.uniform(-50, 50), 1j * rng.uniform(0, 50), 3,
                  rng.uniform(-50, 50, rng.integers(1, 6)),
                  1j * rng.uniform(0, 1e4, rng.integers(1, 6)), np.array([np.nan, 0.0])):
            want, got = np.polyval(p.coeffs, x), p(x)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_polynomial_arithmetic():
    a = Polynomial([1, 1])      # s + 1
    b = Polynomial([1, -1])     # s - 1
    assert_allclose((a * b).coeffs, [1, 0, -1])
    assert_allclose((a + b).coeffs, [2, 0])
    assert_allclose((a - b).coeffs, [2.0])
    # cancellation trims the leading zero
    assert (a - a).is_zero


def test_polynomial_monic():
    p = Polynomial([2, 4, 6]).monic()
    assert_allclose(p.coeffs, [1, 2, 3])


def test_poly_roots_linear():
    assert_allclose(poly_roots(Polynomial([1, 1])), [-1])


def test_poly_roots_vieta():
    r = poly_roots(Polynomial([1, 10, 10, 10]))
    assert len(r) == 3
    assert_allclose(np.prod(r), -10, rtol=1e-9)
    assert_allclose(np.sum(r), -10, rtol=1e-9)


def test_poly_roots_resonant_pair():
    # s^2 + 0.18 s + 100, quadratic formula: -0.09 +- j sqrt(100 - 0.0081)
    r = poly_roots(Polynomial([1, 0.18, 100]))
    r = sorted(r, key=lambda z: z.imag)
    assert_allclose(r[1], -0.09 + 9.999594992j, rtol=1e-8)
    assert_allclose(r[0], -0.09 - 9.999594992j, rtol=1e-8)


def test_poly_roots_degree_zero():
    with pytest.raises(DegreeZeroError):
        poly_roots(Polynomial([5.0]))


def test_poly_roots_residuals():
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = rng.integers(1, 11)
        c = rng.standard_normal(deg + 1)
        c[0] = c[0] if abs(c[0]) > 0.1 else 1.0
        p = Polynomial(c)
        for r in poly_roots(p):
            assert abs(p(r)) <= 1e-8 * np.linalg.norm(c)


def test_transfer_function_props():
    t = TransferFunction([1, 0], [1, 1])
    assert t.is_proper
    assert not t.is_strictly_proper
    assert TransferFunction([1], [1, 1]).is_strictly_proper
    assert not TransferFunction([1, 0, 0], [1, 1]).is_proper


def test_poles_tf_and_ss():
    m = tf([1], [1, 3, 2])
    assert_allclose(sorted(poles(m).real), [-2, -1], atol=1e-12)
    m2 = ss([[-1, 0], [0, -2]], [[1], [1]], [[1, 1]], [[0]])
    assert_allclose(sorted(poles(m2).real), [-2, -1], atol=1e-12)


def test_poles_example5_denominator():
    # s(s+1)^2 (s^2 + 0.18 s + 100) expanded
    m = tf([1], [1, 2.18, 101.36, 200.18, 100, 0])
    p = list(poles(m))
    resonant = sorted((z for z in p if abs(z.imag) > 1), key=lambda z: z.imag)
    rest = [z for z in p if abs(z.imag) <= 1]
    assert_allclose(resonant[0], -0.09 - 9.999594992j, rtol=1e-6)
    assert_allclose(resonant[1], -0.09 + 9.999594992j, rtol=1e-6)
    assert_allclose(sorted(z.real for z in rest), [-1, -1, 0], atol=1e-6)


def test_is_stable():
    assert is_stable(tf([1], [1, 1]))
    assert not is_stable(tf([1], [1, -1]))
    # integrator pole at 0 is not strictly stable
    assert not is_stable(tf([1], [1, 0]))


def test_is_stable_example1_closed_loop():
    closed = scalar_close(tf([25], [1, 10, 10, 10]), 1.0)
    assert is_stable(closed)
    p = sorted(poles(closed), key=lambda z: z.real)
    assert_allclose(p[0], -9.33, rtol=0.01)
    assert_allclose(sorted(p[1:], key=lambda z: z.imag),
                    [-0.33 - 1.91j, -0.33 + 1.91j], rtol=0.01)


def test_eval_freq_values():
    L = tf([25], [1, 10, 10, 10])
    assert_allclose(eval_freq(L, 0.0), 2.5)
    assert_allclose(eval_freq(tf([3], [1]), 17.3), 3.0)
    assert_allclose(eval_freq(tf([1], [1, 0]), 1.0), -1j)


def test_eval_freq_at_infinity():
    assert_allclose(eval_freq(tf([2, 1], [1, 1]), math.inf), 2.0)
    assert_allclose(eval_freq(tf([1], [1, 1]), math.inf), 0.0)
    m = ss([[-1]], [[1]], [[1]], [[4]])
    assert_allclose(eval_freq(m, math.inf), 4.0)
    with pytest.raises(ImproperModelError):
        eval_freq(tf([1, 0, 0], [1, 1]), math.inf)


def test_eval_freq_pole_on_axis():
    with pytest.raises(PoleOnAxisError):
        eval_freq(tf([1], [1, 0, 1]), 1.0)
    with pytest.raises(PoleOnAxisError):
        eval_freq(tf([1], [1, 0]), 0.0)
    # a nan frequency must not read as w = inf and return the feedthrough,
    # nor pass as a point with a nan value: both realizations flag it
    with pytest.raises(PoleOnAxisError):
        eval_freq(ss([[-1]], [[1]], [[1]], [[4]]), math.nan)
    with pytest.raises(PoleOnAxisError):
        eval_freq(tf([4, 5], [1, 1]), math.nan)


def test_eval_freq_conjugate_symmetry():
    rng = np.random.default_rng(11)
    L = tf([25], [1, 10, 10, 10])
    for w in rng.uniform(0.01, 50.0, size=25):
        assert_allclose(eval_freq(L, -w), np.conj(eval_freq(L, w)), rtol=1e-12)
    m = ss([[-1, 2], [0, -3]], [[1], [1]], [[1, 0]], [[0.5]])
    for w in rng.uniform(0.01, 50.0, size=25):
        assert_allclose(eval_freq(m, -w), np.conj(eval_freq(m, w)), rtol=1e-12)


def numpy_response(m, w):
    """m at s = jw from numpy alone, not through freq_response: polyval
    for a transfer function, one solve of the 2-D pencil for state space."""
    r = m.representation
    if isinstance(r, TransferFunction):
        if math.isinf(w):
            return r.num.coeffs[0] / r.den.coeffs[0] if r.num.degree == r.den.degree else 0.0
        return np.polyval(r.num.coeffs, 1j * w) / np.polyval(r.den.coeffs, 1j * w)
    out = r.D
    if r.nstates and not math.isinf(w):
        out = r.C @ np.linalg.solve(1j * w * np.eye(r.nstates) - r.A, r.B) + r.D
    return out[0, 0] if out.shape == (1, 1) else out


def kernel(m):
    """The kernel freq_response runs m on: "tf", "modal", or "lu" for the
    other state-space models, those the modal kernel rejects included."""
    r = m.representation
    if isinstance(r, TransferFunction):
        return "tf"
    return "modal" if _large_real(r) and _modal_form(r) is not None else "lu"


def assert_is_numpy_response(m, w, v):
    """v is m at jw: bit for bit where freq_response solves the pencil
    as numpy does (transfer functions, stacked LU), and within 1e-10
    relative to the largest entry on the modal kernel."""
    want = numpy_response(m, w)
    if kernel(m) in ("tf", "lu"):
        assert np.array_equal(v, want)
        return
    assert np.max(np.abs(v - want)) <= 1e-10 * np.max(np.abs(want))


coef = st.floats(-10.0, 10.0, allow_nan=False)
freqs = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=120)


@st.composite
def model_and_grid(draw):
    """A TF or SS model, SISO or MIMO, and a grid holding 0, inf and, when
    drawn, the frequency of a pole placed exactly on the axis and a point
    just beside it.  State counts reach both frequency-response kernels."""
    ws = [0.0, math.inf] + draw(freqs)
    w0 = draw(st.sampled_from([None, 0.0, 1.0, 2.0, ws[-1]]))
    if w0 is not None:
        ws += [w0, w0 * (1.0 + 1e-13)]
    if draw(st.booleans()):
        den = np.atleast_1d(np.poly(draw(st.lists(st.floats(-5.0, -0.05), max_size=6))))
        num = draw(st.lists(coef, min_size=1, max_size=den.size + 1))
        if w0 is not None:
            den = np.polymul(den, [1.0, 0.0, w0 * w0])
        if not any(num):
            num = [1.0]
        return tf(num, den), ws
    n = draw(st.integers(0, 30))
    p, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    if w0 is not None:
        # block-diagonal, so jw0 I - A is exactly singular
        A = np.block([[A, np.zeros((n, 2))],
                      [np.zeros((2, n)), np.array([[0.0, w0], [-w0, 0.0]])]])
        n += 2
    return ss(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
              rng.standard_normal((p, m))), ws


@settings(max_examples=80, deadline=None)
@given(model_and_grid())
def test_freq_response_equals_eval_freq(case):
    # a point's value and flag do not depend on the grid around it, on
    # either kernel, and match numpy where the point is not a pole
    m, ws = case
    vals, ok = freq_response(m, ws)
    assert vals.shape[0] == ok.shape[0] == len(ws)
    for i, w in enumerate(ws):
        try:
            want = eval_freq(m, w)
        except (PoleOnAxisError, ImproperModelError):
            assert not ok[i]
            assert np.all(np.isnan(vals[i]))
            continue
        assert ok[i]
        assert np.array_equal(vals[i], want)
        assert_is_numpy_response(m, w, vals[i])


def singular_pencil_model(n, rng):
    """n states, two inputs and outputs: a stable diagonal block and a
    [[0, 1], [-1, 0]] block, so the pencil at w = 1 is exactly singular."""
    A = np.diag(-rng.uniform(0.1, 10.0, n))
    A[-2:, -2:] = [[0.0, 1.0], [-1.0, 0.0]]
    return ss(A, rng.standard_normal((n, 2)), rng.standard_normal((2, n)), np.zeros((2, 2)))


def test_freq_response_spans_chunks():
    # 40 states, on the modal kernel: one sum holds a few hundred points,
    # so this grid takes several, one of them holding the pole at w = 1
    rng = np.random.default_rng(3)
    n = 40
    m = singular_pencil_model(n, rng)
    assert kernel(m) == "modal"
    ws = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 1000), [1.0, math.inf]))
    # the sum's working set per point, as freq_response budgets it
    assert ws.size > 4 * _CHUNK_BYTES // (8 * n * (2 * 2 * 2 + 8))
    vals, ok = freq_response(m, ws)
    assert np.flatnonzero(~ok).tolist() == [ws.size - 2]
    for w, v in zip(ws[ok], vals[ok]):
        assert np.array_equal(v, eval_freq(m, w))
        assert_is_numpy_response(m, w, v)


def test_freq_response_spans_chunks_stacked_lu():
    # the same below the modal kernel's state count, where the stacked LU
    # solves match numpy bit for bit
    rng = np.random.default_rng(3)
    n = _MODAL_STATES - 1
    m = singular_pencil_model(n, rng)
    assert kernel(m) == "lu"
    ws = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 1000), [1.0, math.inf]))
    assert ws.size > 4 * _CHUNK_BYTES // (16 * n * (2 * n + 2))
    vals, ok = freq_response(m, ws)
    assert np.flatnonzero(~ok).tolist() == [ws.size - 2]
    for w, v in zip(ws[ok], vals[ok]):
        assert np.array_equal(v, eval_freq(m, w))
        assert np.array_equal(v, numpy_response(m, w))


def test_stacked_lu_flags_singular_pencil_of_a_model_the_modal_kernel_rejects():
    # a dense, defective block, so the modal kernel rejects the model, and
    # a [[0, 1], [-1, 0]] block: the pencil at w = 1 is exactly singular
    rng = np.random.default_rng(8)
    n = _MODAL_STATES
    A = np.zeros((n, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n - 2, n - 2)))
    A[:-2, :-2] = Q @ (np.eye(n - 2, k=1) - 3.0 * np.eye(n - 2)) @ Q.T
    A[-2:, -2:] = [[0.0, 1.0], [-1.0, 0.0]]
    m = ss(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[0.5]])
    assert kernel(m) == "lu"
    vals, ok = freq_response(m, [0.5, 1.0, -1.0, 2.0])
    assert ok.tolist() == [True, False, False, True]
    assert np.isnan(vals[1]) and np.isnan(vals[2])
    with pytest.raises(PoleOnAxisError):
        eval_freq(m, 1.0)


def test_modal_kernel_flags_rounding_level_pole():
    # the integrator 1/(s^3 + 0.0996 s^2 + s) in series with (s + 1)/(s + 1),
    # with stable, decoupled modes to reach the modal kernel's size, in a
    # random orthogonal basis: rounding keeps the pencil solvable at w = 0,
    # where an LU solve reads L(0) ~ -2e15
    rng = np.random.default_rng(5)
    loop = lti._ss_series(tf_to_ss(tf([1.0], [1.0, 0.0996, 1.0, 0.0])),
                          tf_to_ss(tf([1.0, 1.0], [1.0, 1.0])))
    k = _MODAL_STATES - loop.nstates
    A = np.zeros((_MODAL_STATES, _MODAL_STATES))
    A[:-k, :-k] = loop.A
    A[-k:, -k:] = np.diag(-rng.uniform(0.5, 50.0, k))
    B = np.vstack([loop.B, rng.standard_normal((k, 1))])
    C = np.hstack([loop.C, rng.standard_normal((1, k))])
    Q, _ = np.linalg.qr(rng.standard_normal(A.shape))
    m = ss(Q @ A @ Q.T, Q @ B, C @ Q.T, [[0.0]])
    assert kernel(m) == "modal"
    vals, ok = freq_response(m, [0.0, 1e-3, 1.0])
    assert ok.tolist() == [False, True, True]
    assert np.isnan(vals[0])
    with pytest.raises(PoleOnAxisError):
        eval_freq(m, 0.0)


def guard_model():
    """A mode at 1 rad/s with damping 1e-12, so w = 1 lies 1e-12 from the
    pole, beside real poles: there the rounding of the eigenvalues,
    eps ||A||_F over that distance, is far above the modal kernel's
    guard, and away from the pole it is not.  The block-diagonal A keeps
    numpy exact."""
    rng = np.random.default_rng(4)
    n = _MODAL_STATES
    A = np.diag(-np.geomspace(2.0, 20.0, n))
    A[:2, :2] = [[-1e-12, 1.0], [-1.0, -1e-12]]
    m = ss(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)), [[0.0]])
    assert kernel(m) == "modal"
    return m


def test_modal_guard_sends_points_near_a_pole_to_stacked_lu(monkeypatch):
    m = guard_model()
    solved = []
    solve = np.linalg.solve

    def recording_solve(M, B):
        # the stacked pencils jwI - A, read back at their first diagonal
        solved.extend(M[:, 0, 0].imag.tolist())
        return solve(M, B)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    ws = [0.01, 1.0, 10.0, 100.0]
    vals, ok = freq_response(m, ws)
    monkeypatch.undo()
    assert ok.all()
    assert solved == [1.0]
    for w, v in zip(ws, vals):
        assert_is_numpy_response(m, w, v)
    assert np.array_equal(vals[1], eval_freq(m, 1.0))


def test_guarded_point_equals_numpy_solve():
    # the point the guard turns away is solved as numpy solves its pencil
    m = guard_model()
    assert np.array_equal(freq_response(m, [0.01, 1.0])[0][1], numpy_response(m, 1.0))


def several_chunks(draw, n, p, m):
    """A point count that takes two to four chunks of the modal kernel,
    and more of the stacked LU solves, as freq_response budgets them."""
    per_chunk = _CHUNK_BYTES // min(8 * n * (2 * p * m + 8), 16 * n * (2 * n + m))
    return draw(st.integers(2 * per_chunk, 4 * per_chunk))


@st.composite
def flexible_model_and_grid(draw):
    """A real model of 16 to 80 states in a random orthogonal basis:
    lightly damped modes (damping down to 1e-3, as in the dense-trace
    benchmark) and real poles.  The grid takes several chunks and holds
    every mode frequency, where the pencil is worst conditioned; the
    count of those last points comes third."""
    n = draw(st.integers(_MODAL_STATES, 80))
    p, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.zeros((n, n))
    modes = []
    k = 0
    while k < n:
        if k + 1 < n and rng.uniform() < 0.8:
            w, z = math.exp(rng.uniform(math.log(0.1), math.log(100.0))), 10.0 ** rng.uniform(-3, -1)
            A[k : k + 2, k : k + 2] = [[-z * w, w], [-w, -z * w]]
            modes.append(w)
            k += 2
        else:
            A[k, k] = -math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
            k += 1
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    model = ss(Q @ A @ Q.T, Q @ rng.standard_normal((n, m)), rng.standard_normal((p, n)) @ Q.T,
               rng.standard_normal((p, m)))
    ws = np.concatenate((np.geomspace(1e-2, 1e3, several_chunks(draw, n, p, m)), modes, [0.0, -1.0]))
    return model, ws, len(modes) + 2


def assert_matches_pointwise_solve(m, ws, tail):
    # the oracle is numpy's LU solve of each pencil on its own: bit for
    # bit on the stacked LU solves, and within 1e-10 on the modal kernel,
    # which lies up to some 5e-11 from a 40-digit solve at a lightly
    # damped mode
    vals, ok = freq_response(m, ws)
    assert ok.all()
    for w, v in zip(ws, vals):
        assert_is_numpy_response(m, w, v)
    # eval_freq at a spread of points and at each mode, where the modal
    # kernel's guard may send the point to the stacked LU solves
    for i in [*range(0, ws.size, 97), *range(ws.size - tail, ws.size)]:
        assert np.array_equal(vals[i], eval_freq(m, ws[i]))


@settings(max_examples=20, deadline=None)
@given(flexible_model_and_grid())
def test_modal_kernel_matches_pointwise_solve(case):
    m, ws, tail = case
    assert kernel(m) == "modal"
    assert_matches_pointwise_solve(m, ws, tail)


@settings(max_examples=20, deadline=None)
@given(flexible_model_and_grid())
def test_stacked_lu_matches_pointwise_solve_without_the_modal_kernel(case):
    # the same models with the modal kernel turned off, so the stacked LU
    # solves take every point
    m, ws, tail = case
    with mock.patch.object(lti, "_MODAL_COND", 0.0):
        assert kernel(m) == "lu"
        assert_matches_pointwise_solve(m, ws, tail)


@st.composite
def companion_model_and_grid(draw):
    """tf_to_ss of 16 to 40 states whose poles come in pairs, so its
    eigenvectors are far too ill-conditioned for the modal kernel, and
    in a random orthogonal basis when drawn."""
    n = draw(st.integers(_MODAL_STATES, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = -np.geomspace(0.1, 10.0, n // 2) * np.exp(rng.uniform(-0.1, 0.1, n // 2))
    den = np.poly(np.concatenate((roots, roots, [-1.0] * (n % 2))))
    r = tf_to_ss(tf(rng.standard_normal(n + 1), den))
    if draw(st.booleans()):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        r = StateSpace(Q @ r.A @ Q.T, Q @ r.B, r.C @ Q.T, r.D)
    ws = np.concatenate((np.geomspace(1e-2, 1e2, several_chunks(draw, n, 1, 1)), [0.0, -1.0]))
    return LtiModel(r), ws


@settings(max_examples=10, deadline=None)
@given(companion_model_and_grid())
def test_companion_forms_give_numpy_values(case):
    # a large real model the modal kernel rejects is solved point by
    # point as numpy solves it, whatever the chunk
    m, ws = case
    assert kernel(m) == "lu"
    vals, ok = freq_response(m, ws)
    assert ok.all()
    for i, w in enumerate(ws):
        assert np.array_equal(vals[i], numpy_response(m, w))
    for i in range(0, ws.size, 97):
        assert np.array_equal(vals[i], eval_freq(m, ws[i]))


def test_sensitivity_pair_integrator():
    S, T = sensitivity_pair(tf([1], [1, 0]))
    assert_allclose(S.representation.num.coeffs, [1, 0])
    assert_allclose(S.representation.den.coeffs, [1, 1])
    assert_allclose(T.representation.num.coeffs, [1.0])
    assert_allclose(T.representation.den.coeffs, [1, 1])


def test_sensitivity_pair_trivial_and_value():
    S, T = sensitivity_pair(tf([0], [1]))
    assert_allclose(eval_freq(S, 1.0), 1.0)
    assert_allclose(eval_freq(T, 1.0), 0.0)
    S1, _ = sensitivity_pair(tf([25], [1, 10, 10, 10]))
    assert_allclose(eval_freq(S1, 0.0), 1 / 3.5, rtol=1e-12)


def test_sensitivity_pair_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        den = np.poly(-rng.uniform(0.1, 5.0, size=3))
        num = rng.standard_normal(3)
        S, T = sensitivity_pair(tf(num, den))
        total = S.representation.num * T.representation.den + \
            T.representation.num * S.representation.den
        prod = S.representation.den * T.representation.den
        # S + T = 1 coefficient-wise: num_S den_T + num_T den_S = den_S den_T
        assert_allclose(total.coeffs, prod.coeffs, rtol=1e-9, atol=1e-9)


def test_sensitivity_pair_mimo_identity():
    P = tfm([[([1], [1, 1]), ([0], [1])], [([1], [1, 2]), ([2], [1, 3])]])
    S, T = sensitivity_pair(P)
    for w in (0.0, 0.7, 3.0):
        total = np.asarray(eval_freq(S, w)) + np.asarray(eval_freq(T, w))
        assert_allclose(total, np.eye(2), atol=1e-12)


def test_sensitivity_pair_algebraic_loop():
    with pytest.raises(AlgebraicLoopError):
        sensitivity_pair(tf([-1], [1]))


def test_tf_to_ss_constant_and_lag():
    s0 = tf_to_ss(TransferFunction([5], [1]))
    assert s0.nstates == 0
    assert_allclose(s0.D, [[5]])
    s1 = tf_to_ss(TransferFunction([1], [1, 1]))
    w = 0.83
    want = 1 / (1j * w + 1)
    got = s1.C @ np.linalg.solve(1j * w * np.eye(1) - s1.A, s1.B) + s1.D
    assert_allclose(got[0, 0], want, rtol=1e-12)


def test_tf_to_ss_improper():
    with pytest.raises(ImproperModelError):
        tf_to_ss(TransferFunction([1, 0, 0], [1, 1]))


def test_tf_ss_roundtrip_example1():
    t = TransferFunction([25], [1, 10, 10, 10])
    back = ss_to_tf(tf_to_ss(t))
    grid = np.geomspace(0.01, 100, 50)
    for w in grid:
        a = eval_freq(tf(t.num.coeffs, t.den.coeffs), w)
        b = eval_freq(LtiModel(back), w)
        assert_allclose(b, a, rtol=1e-9)


def test_tf_ss_agreement_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        den = np.poly(-rng.uniform(0.2, 4.0, size=4))
        num = rng.standard_normal(4)
        t = tf(num, den)
        sm = LtiModel(tf_to_ss(t.representation))
        for w in np.geomspace(0.01, 100, 30):
            assert_allclose(eval_freq(sm, w), eval_freq(t, w), rtol=1e-9)


def test_scalar_close_gain_sweep():
    L = tf([25], [1, 10, 10, 10])
    nominal = scalar_close(L, 1.0)
    assert is_stable(nominal)
    at_gu = scalar_close(L, 3.6)
    p = poles(at_gu)
    onaxis = [z for z in p if abs(z.real) < 1e-6]
    assert len(onaxis) == 2
    assert_allclose(sorted(abs(z.imag) for z in onaxis), [3.16, 3.16], rtol=0.01)
    # f = 0 leaves the open-loop poles alone
    opened = scalar_close(L, 0.0)
    assert_allclose(sorted(poles(opened).real), sorted(poles(L).real), atol=1e-9)


def test_scalar_close_well_posedness():
    # 1 + f L(inf) = 0 with L(inf) = 1 and f = -1
    L = tf([1, 0], [1, 1])
    with pytest.raises(WellPosednessError):
        scalar_close(L, -1.0)


def test_scalar_close_complex_factor():
    L = tf([25], [1, 10, 10, 10])
    f = 0.5 + 0.25j
    closed = scalar_close(L, f)
    w = 1.3
    want = f * eval_freq(L, w) / (1 + f * eval_freq(L, w))
    assert_allclose(eval_freq(closed, w), want, rtol=1e-9)


def test_close_with_nothing_kept_is_the_autonomous_closed_loop():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
    B, C = rng.standard_normal((4, 2)), rng.standard_normal((2, 4))
    D = 0.3 * rng.standard_normal((2, 2))
    closed = _close(StateSpace(A, B, C, D), [])
    assert (closed.B.shape, closed.C.shape, closed.D.shape) == ((4, 0), (0, 4), (0, 0))
    # the state matrix A - B (I + D)^-1 C of the sensitivity, bit for bit
    S = sensitivity_pair(ss(A, B, C, D))[0].representation
    assert np.array_equal(closed.A, S.A)
    assert_allclose(closed.A, A - B @ np.linalg.solve(np.eye(2) + D, C), rtol=1e-12)
    with pytest.raises(WellPosednessError):
        _close(StateSpace(A, B, C, -np.eye(2)), [])


def test_state_space_with_states_and_no_inputs_or_outputs():
    A = np.array([[-1.0, 2.0], [0.0, -3.0]])
    m = StateSpace(A, np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
    assert (m.nstates, m.noutputs, m.ninputs) == (2, 0, 0)
    assert_allclose(poles(m), [-3.0, -1.0])
    # an empty B or C is still rejected where D has columns or rows
    for B, C in ((np.zeros((2, 0)), [[1.0, 0.0]]), ([], [[1.0, 0.0]]),
                 ([[1.0], [0.0]], np.zeros((0, 2)))):
        with pytest.raises(InputError):
            StateSpace(A, B, C, [[0.5]])
    # without states an empty B and C are those of the static gain D
    g = StateSpace([], [], [], [[1.0, 2.0]])
    assert (g.B.shape, g.C.shape) == ((0, 2), (1, 0))


def test_feedback_sign_normalization():
    # positive feedback on L is negative feedback on -L
    m = tf([1], [1, 1], feedback_sign="positive")
    n = m.normalized()
    assert n.feedback_sign == "negative"
    assert_allclose(eval_freq(n, 0.5), -eval_freq(tf([1], [1, 1]), 0.5))


def test_tfm_assembly_and_minreal():
    # all four entries share s^2+100; packing duplicates must not survive
    P = tfm([[([1, -100], [1, 0, 100]), ([10, 10], [1, 0, 100])],
             [([-10, -10], [1, 0, 100]), ([1, -100], [1, 0, 100])]])
    r = P.representation
    assert isinstance(r, StateSpace)
    assert r.nstates == 2
    w = 1.0
    want = np.array([[1j - 100, 10 + 10j], [-10 - 10j, 1j - 100]]) / 99.0
    assert_allclose(eval_freq(P, w), want, rtol=1e-9)


def test_minreal_keeps_minimal_models():
    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    s = StateSpace(a, [[1.0], [1.0]], [[1.0, 0.5]], [[0.0]])
    m = _minreal(s)
    assert m.nstates == 2


def test_invalid_inputs():
    with pytest.raises(InputError):
        StateSpace([[0, 1]], [[1]], [[1]], [[0]])
    with pytest.raises(InputError):
        tfm([[([1], [1, 1])], [([1], [1, 1]), ([1], [1, 2])]])
    with pytest.raises(InputError):
        LtiModel(TransferFunction([1], [1, 1]), "sideways")


def test_zero_state_model():
    m = ss(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]])
    assert_allclose(eval_freq(m, 0.3), 2.0)
    assert is_stable(m)


def static_loop(D):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p = D.shape[0]
    return StateSpace(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((p, 0)), D)


# (D, exact (I + D)^-1): det(I + D) is 1.25e-13 for the first, the
# second is [[0, 1], [1, 1e-4]] in other units, the third is a one-way
# coupling, [[0, 1], [0, 0]] in other units, and the fourth a 3x3 chain
# of them, whose I + D has determinant 1
CHAIN = np.diag([1e20, 1e20], 1)
WELL_POSED = [
    (-(1 - 5e-5) * np.eye(3), np.eye(3) / 5e-5),
    (np.array([[0.0, 1e8], [1e-8, 1e-4]]), np.array([[1.0 + 1e-4, -1e8], [-1e-8, 1.0]]) / 1e-4),
    (np.array([[0.0, 1e8], [0.0, 0.0]]), np.array([[1.0, -1e8], [0.0, 1.0]])),
    (CHAIN, np.eye(3) - CHAIN + CHAIN @ CHAIN),
]
# I + D singular to rounding: [[1, 1e8], [1e-8, 1 + 1e-14]], its balanced
# twin, one channel, 1e6 (rank one) + 1e-8 I, whose smallest singular
# value is far from 0 but not relative to the 2e6 it is formed from, and
# one channel with 1 + D at 0.75 of the 2e-12 threshold
ILL_POSED = [
    np.array([[0.0, 1e8], [1e-8, 1e-14]]),
    np.array([[0.0, 1.0], [1.0, 1e-14]]),
    np.array([[-1.0 + 1e-13]]),
    1e6 * np.ones((2, 2)) + (1e-8 - 1.0) * np.eye(2),
    np.array([[-1.0 + 1.5e-12]]),
]


def with_kept_channel(D):
    """D behind one extra channel that stays open."""
    D = np.atleast_2d(D)
    return static_loop(np.block([[np.full((1, 1), 0.5), np.full((1, len(D)), 0.1)],
                                 [np.full((len(D), 1), 0.1), D]]))


@pytest.mark.parametrize("D, inv", WELL_POSED)
def test_closures_accept_small_or_badly_scaled_i_plus_d(D, inv):
    n = len(D)
    S, T = sensitivity_pair(static_loop(D))
    assert_allclose(S.representation.D, inv, rtol=1e-9)
    assert_allclose(T.representation.D, np.eye(n) - inv, rtol=1e-9)
    closed = scalar_close(LtiModel(static_loop(D)), 1.0)
    assert_allclose(closed.representation.D, np.eye(n) - inv, rtol=1e-9)
    assert _close(with_kept_channel(D), [0]).D.shape == (1, 1)


@pytest.mark.parametrize("D", ILL_POSED)
def test_closures_reject_singular_i_plus_d(D):
    with pytest.raises(WellPosednessError):
        sensitivity_pair(static_loop(D))
    with pytest.raises(WellPosednessError):
        scalar_close(LtiModel(static_loop(D)), 1.0)
    with pytest.raises(WellPosednessError):
        _close(with_kept_channel(D), [0])
    if D.shape == (1, 1):
        # the same loop as a transfer function, and with dynamics both as
        # a transfer function and realized: one verdict for every form
        d = D[0, 0]
        lag = tf([d, 1.0], [1.0, 1.0])
        for L in (tf([d], [1.0]), lag, LtiModel(tf_to_ss(lag))):
            with pytest.raises(WellPosednessError):
                sensitivity_pair(L)
            with pytest.raises(WellPosednessError):
                scalar_close(L, 1.0)


def kappa(D):
    """Componentwise condition number rho(|(I + D)^-1| (I + |D|)), inf
    where I + D is singular."""
    eye = np.eye(len(D))
    try:
        K = np.abs(np.linalg.inv(eye + D)) @ (eye + np.abs(D))
    except np.linalg.LinAlgError:
        return math.inf
    return np.max(np.abs(np.linalg.eigvals(K))) if np.isfinite(K).all() else math.inf


def well_posed(D):
    try:
        _close(with_kept_channel(D), [0])
    except WellPosednessError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
def test_close_verdict_ignores_channel_units(n, decades, seed):
    # I + D = U diag(s) V^T with its smallest singular value 10^-decades,
    # against the same D in other units, T D T^-1 with log10 T in [-13, 13]
    rng = np.random.default_rng(seed)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    s = 10.0 ** np.append(rng.uniform(-1.0, 1.0, n - 1), -decades)
    D = (U * s) @ V.T - np.eye(n)
    # a decade of room on both sides of the 1e12 threshold
    assume(not 1e11 <= kappa(D) <= 1e13)
    t = 10.0 ** rng.uniform(-13.0, 13.0, n)
    assert well_posed(D * t[:, None] / t[None, :]) == well_posed(D)


@st.composite
def loop_and_keep(draw):
    """Stable state-space loop of up to 4 channels, an ordered subset of
    channels kept open, and 5 frequencies."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    if n:
        A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.1, 2.0)) * np.eye(n)
    sys = StateSpace(A, rng.standard_normal((n, p)), rng.standard_normal((p, n)),
                     0.5 * rng.standard_normal((p, p)))
    keep = draw(st.permutations(range(p)))[: draw(st.integers(1, p))]
    ws = 10.0 ** rng.uniform(-2.0, 2.0, size=5)
    return sys, keep, ws


def response(sys, ws):
    vals, ok = freq_response(sys, ws)
    assert ok.all()
    return np.reshape(vals, (len(ws), sys.noutputs, sys.ninputs))


@settings(max_examples=150, deadline=None)
@given(loop_and_keep())
def test_close_matches_lft_of_open_loop(case):
    sys, keep, ws = case
    other = [i for i in range(sys.noutputs) if i not in keep]
    L = response(sys, ws)
    for Lw, got in zip(L, response(_close(sys, keep), ws)):
        want = Lw[np.ix_(keep, keep)]
        if other:
            closed = np.eye(len(other)) + Lw[np.ix_(other, other)]
            # keep the oracle's own rounding below the tolerance
            assume(np.linalg.cond(closed) < 1e4)
            want = want - Lw[np.ix_(keep, other)] @ np.linalg.solve(closed, Lw[np.ix_(other, keep)])
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want) + 1e-300

    S, T = (response(m.representation, ws) for m in sensitivity_pair(LtiModel(sys)))
    eye = np.eye(sys.noutputs)
    for Lw, Sw, Tw in zip(L, S, T):
        assume(np.linalg.cond(eye + Lw) < 1e4)
        inv = np.linalg.inv(eye + Lw)
        assert np.linalg.norm(Sw - inv) <= 1e-9 * np.linalg.norm(inv)
        assert np.linalg.norm(Tw - Lw @ inv) <= 1e-9 * np.linalg.norm(Lw @ inv) + 1e-300
        assert np.linalg.norm(Sw + Tw - eye) <= 1e-9 * np.linalg.norm(eye)
