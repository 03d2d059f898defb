"""Classical gain and phase margins of SISO loops.

Margins here are interval statements: the reported range (g_lower,
g_upper) of pure gain variation keeps the negative feedback closure
stable and well posed, and phi_upper does the same for pure phase
rotation in either direction.  Candidate boundaries are the gains and
phases at which the perturbed loop acquires an imaginary-axis pole:
real-axis crossings of the Nyquist plot for gain, unit-modulus
crossings for phase, plus the w = 0 and w = inf endpoints for gain.

The crossings are exact.  With L = N/D (state space through ss_to_tf)
they are the positive real roots of two real polynomials in w:
Im(N(jw) conj D(jw)) for real-axis crossings and |N(jw)|^2 - |D(jw)|^2
for unit-modulus ones.  Each root is Newton-polished on Python numbers,
its residual from N(jw) and D(jw) by lti._horner, then verified on the
model, masked by the poles that the transfer function flags, with
one freq_response call on each over the roots, w = 0 and w = inf (one
call in all when the model is a transfer function).  One
call computes them, and the closure, once.  A static gain g closes a
state-space loop as the autonomous _close(StateSpace(A, B, g C, g D), []).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DmkitError, InputError, NominalInstabilityError
from .lti import (StateSpace, TransferFunction, _as_model, _close, _horner, _trim, freq_response,
                  is_stable, scalar_close, ss_to_tf)

__all__ = ["ClassicalMargins", "gain_margins", "phase_margin", "classical_margins"]

# j^k for k = 0, 1, 2, 3: exact, unlike a complex power
_J_POWERS = np.array([1.0, 1j, -1.0, -1j])


@dataclass(frozen=True)
class ClassicalMargins:
    """Stable ranges of pure gain and pure phase perturbation.

    g_lower, g_upper bound the admissible gain interval around 1
    (0 means no lower limit, math.inf no upper limit).  phi_upper is the
    admissible rotation in radians, either direction, math.inf when
    unconstrained.  The crossover tuples list the frequencies of all
    candidate boundaries found; critical_gain_freq and
    critical_phase_freq give the frequency of the binding one (None when
    that side is unconstrained).  extra_stable_gain_intervals lists
    stable gain ranges disconnected from the one containing g = 1.
    """

    g_lower: float
    g_upper: float
    phi_upper: float
    gain_crossover_freqs: tuple
    phase_crossover_freqs: tuple
    critical_gain_freq: object
    critical_phase_freq: object
    extra_stable_gain_intervals: tuple = ()


def _on_axis(coeffs):
    """Coefficients in w (descending) of p(jw), p given descending in s."""
    c = np.asarray(coeffs)
    return c * _J_POWERS[np.arange(c.size - 1, -1, -1) % 4]


def _abs2(c):
    """|p(jw)|^2 as a real polynomial in w, from _on_axis coefficients
    without leading zeros."""
    return np.convolve(c, c.conj()).real


def _polymul(a, b):
    """np.polymul(a, b) without its poly1d round trip: leading zeros are
    trimmed first, and an empty array is the zero polynomial."""
    return np.convolve(_trim(a), _trim(b))


def _positive_roots(p, residual):
    """Positive real roots of the real polynomial p (descending in w),
    ascending, with roots within 1e-9 relative of each other returned
    once.  Each is polished by Newton steps residual(w) / p'(w) on a
    Python float w, which stop where residual overflows."""
    p = _trim(np.asarray(p, dtype=float))
    if p.size < 2:
        return []
    dp = np.polyder(p).tolist()
    out = []
    for r in np.roots(p):
        if r.real <= 0.0 or abs(r.imag) > 1e-6 * abs(r):
            continue
        w = float(r.real)
        for _ in range(8):
            d = _horner(dp, w)
            try:
                step = residual(w) / d if d else 0.0
            except OverflowError:
                break
            # stop at convergence, and never jump to a neighbouring root
            if not 1e-16 * w < abs(step) < 1e-3 * w:
                break
            w -= step
        out.append(float(w))
    out.sort()
    return [w for i, w in enumerate(out) if i == 0 or w - out[i - 1] > 1e-9 * w]


def _transfer_function(L):
    r = L.representation
    return r if isinstance(r, TransferFunction) else ss_to_tf(r)


def _stable_closure(L, g):
    """Whether the normalized SISO loop L closed with the static gain g is stable."""
    r = L.representation
    if isinstance(r, TransferFunction):
        return is_stable(scalar_close(L, g))
    return is_stable(_close(StateSpace(r.A, r.B, g * r.C, g * r.D), []))


def _nominal(L):
    """L normalized, once checked to be SISO with a stable nominal closure."""
    L = _as_model(L).normalized()
    if not L.is_siso:
        raise InputError("classical margins are defined for SISO loops")
    if not _stable_closure(L, 1.0):
        raise NominalInstabilityError("nominal closed loop is unstable")
    return L


def _crossings(L):
    """Every candidate boundary of the _nominal loop L: the (g, w) pairs at
    which closing with gain g puts a pole at jw, and the (phi, w) pairs at
    unit-modulus crossings, sorted.
    """
    t = _transfer_function(L)
    n, d = _on_axis(t.num.coeffs), _on_axis(t.den.coeffs)
    nc, dc = t.num.coeffs.tolist(), t.den.coeffs.tolist()

    def roots(p, form):
        # Newton residuals from N(jw) and D(jw) escape the cancellation
        # in p's expanded coefficients
        return _positive_roots(p, lambda w: form(_horner(nc, 1j * w), _horner(dc, 1j * w)))

    # n and d keep Polynomial's nonzero leading coefficient
    real_axis = roots(np.convolve(n, d.conj()).imag, lambda nv, dv: (nv * dv.conjugate()).imag)
    unit_circle = roots(np.polysub(_abs2(n), _abs2(d)), lambda nv, dv: abs(nv) ** 2 - abs(dv) ** 2)
    ws = np.array(real_axis + [0.0, math.inf] + unit_circle)
    vals, ok = freq_response(L, ws)
    if t is not L.representation:
        # t also flags axis poles that rounding hides from a state-space pencil
        ok &= freq_response(t, ws)[1]

    def verified(lo, hi):
        return zip(ws[lo:hi][ok[lo:hi]].tolist(), vals[lo:hi][ok[lo:hi]].tolist())

    k = len(real_axis)
    gains = []
    for w, lc in verified(0, k):
        if abs(lc.imag) <= 1e-6 * abs(lc) and lc.real < 0.0:
            gains.append((-1.0 / lc.real, w))
    for w, lv in verified(k, k + 2):
        if abs(lv.imag) <= 1e-12 * (1.0 + abs(lv)) and lv.real < 0.0:
            gains.append((-1.0 / lv.real, w))

    phases = []
    for w, lc in verified(k + 2, None):
        phi = abs(np.angle(-lc))
        # phi = 0 would mean L = -1 exactly, excluded by the nominal
        # stability precondition
        if abs(abs(lc) - 1.0) <= 1e-8 and phi > 1e-12:
            phases.append((float(phi), w))
    return sorted(gains), sorted(phases)


def _gain_interval(gains):
    below = [(g, w) for g, w in gains if g < 1.0 - 1e-9]
    above = [(g, w) for g, w in gains if g > 1.0 + 1e-9]
    g_lower, w_lower = max(below) if below else (0.0, None)
    g_upper, w_upper = min(above) if above else (math.inf, None)
    return g_lower, g_upper, (w_lower, w_upper)


def gain_margins(L):
    """Admissible pure-gain interval around g = 1.

    Returns
    -------
    (g_lower, g_upper, (w_lower, w_upper))
        g_lower in [0, 1], g_upper >= 1 (math.inf when unbounded); the
        frequencies are those of the binding boundaries, None on an
        unbounded side.

    Raises
    ------
    NominalInstabilityError
        If the unperturbed closed loop is already unstable.
    """
    return _gain_interval(_crossings(_nominal(L))[0])


def phase_margin(L):
    """Largest guaranteed pure-phase rotation (radians, either sign).

    Returns (phi_upper, critical_frequency); (math.inf, None) when the
    loop gain never crosses unity.
    """
    phases = _crossings(_nominal(L))[1]
    return phases[0] if phases else (math.inf, None)


def classical_margins(L):
    """Both margins plus crossover bookkeeping in one result."""
    return _margins(_nominal(L))


def _margins(L):
    """classical_margins of a normalized SISO loop L whose nominal closure
    is known to be stable, as multiloop's rows know theirs from build_m."""
    gains, phases = _crossings(L)
    g_lower, g_upper, (w_lo, w_up) = _gain_interval(gains)
    phi_upper, w_phi = phases[0] if phases else (math.inf, None)

    # binding gain frequency: the side nearer to 1 on a log scale, None
    # when neither side is bounded
    up = math.log(g_upper) if math.isfinite(g_upper) else math.inf
    lo = -math.log(g_lower) if g_lower > 0.0 else math.inf
    crit_g = None if up == lo == math.inf else (w_up if up <= lo else w_lo)

    return ClassicalMargins(
        g_lower=g_lower,
        g_upper=g_upper,
        phi_upper=phi_upper,
        gain_crossover_freqs=tuple(sorted(w for _, w in phases)),
        phase_crossover_freqs=tuple(w for _, w in gains),
        critical_gain_freq=crit_g,
        critical_phase_freq=w_phi,
        extra_stable_gain_intervals=_extra_stable_intervals(L, gains),
    )


def _extra_stable_intervals(L, gains):
    """Stable gain intervals disconnected from the one containing g = 1."""
    bounds = [0.0] + [g for g, _ in gains] + [math.inf]
    extra = []
    for a, b in zip(bounds, bounds[1:]):
        if a < 1.0 < b:
            continue
        if math.isinf(b):
            test = 2.0 * a
        elif a == 0.0:
            test = 0.5 * b
        else:
            test = math.sqrt(a * b)
        try:
            if _stable_closure(L, test):
                extra.append((a, b))
        except DmkitError:
            continue
    return tuple(extra)


def critical_distance(L):
    """min over w >= 0 of |1 + L(jw)|; for a stable closure, 1/||S||_inf,
    the sigma = +1 disk margin.  Exact: it sits at w = 0, w = inf or a
    positive stationary point of |N(jw) + D(jw)|^2 / |D(jw)|^2, each
    evaluated on the model."""
    L = _as_model(L).normalized()
    t = _transfer_function(L)
    p = _abs2(_on_axis(_trim(np.polyadd(t.num.coeffs, t.den.coeffs))))
    q = _abs2(_on_axis(t.den.coeffs))
    stationary = np.polysub(_polymul(np.polyder(p), q), _polymul(p, np.polyder(q)))
    candidates = _positive_roots(stationary, lambda w, c=stationary.tolist(): _horner(c, w))
    vals, ok = freq_response(L, [0.0, math.inf] + candidates)
    return float(np.min(np.abs(1.0 + vals[ok]), initial=math.inf))
