"""Peak gain (H-infinity norm) and frequency grids.

The norm is certified by the level-set test of Bruinsma & Steinbuch
(Systems & Control Letters 14(4), 1990; Boyd & Balakrishnan, 1990).  For
a stable real realization (A, B, C, D) and a level gamma above the
largest singular value of D, the associated Hamiltonian matrix has
imaginary-axis eigenvalues exactly at the frequencies where the gain
crosses gamma.  The search first lands on a peak and only then solves a
Hamiltonian.  It samples the gain on a coarse grid and at each pole's
damped frequency, where a resonance too narrow for the grid peaks, and
climbs from the best sample to the top of its peak by Newton steps on
1/gain^2, which is a parabola next to one lightly damped mode.  The
crossing test at the climbed gain times (1 + _TOL/2) then usually finds
none, and that certifies the level as an upper bound.  Crossings mean a
higher peak elsewhere: the gain is evaluated at them and between
consecutive ones, the best is climbed, and its level is tested in turn.
The search also stops when no evaluated gain rises above a level: just
above a peak the eigenvalue test can report a near-double crossing that
is not one.  The answer is the best gain attained; among distinct peaks
within 1e-9 of it the lowest frequency is reported.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ImproperModelError, InputError, NumericalError, PoleOnAxisError
from .lti import _EPS, TransferFunction, _as_model, _as_ss, _tf_points, freq_response, poles

__all__ = ["PeakGain", "FrequencyGrid", "default_grid", "hinf_norm"]


@dataclass(frozen=True)
class PeakGain:
    """A gain value, the frequency (rad/s, may be 0 or inf) where it occurs
    and the model's response there, as freq_response gives it."""

    value: float
    frequency: float
    response: object = field(compare=False, repr=False)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing frequencies in rad/s; may include 0 and math.inf."""

    points: tuple

    def __post_init__(self):
        pts = np.fromiter(self.points, dtype=float)
        if pts.size == 0:
            raise InputError("frequency grid must be non-empty")
        if not (pts >= 0.0).all():
            raise InputError("frequencies must be non-negative")
        if (pts[1:] <= pts[:-1]).any():
            raise InputError("frequency grid must be strictly increasing")
        object.__setattr__(self, "points", tuple(pts.tolist()))

    @property
    def finite(self):
        return tuple(p for p in self.points if math.isfinite(p))


def _log_grid(m, n, pole_set):
    """default_grid's points as an array, for a model whose poles are already known."""
    if n < 2:
        raise InputError("grid needs at least 2 points")
    mags = [abs(p) for p in pole_set]
    if isinstance(m.representation, TransferFunction):
        mags.extend(abs(z) for z in m.representation.zeros())
    mags = [x for x in mags if x > 1e-12]
    if mags:
        lo, hi = min(mags) / 100.0, max(mags) * 100.0
    else:
        lo, hi = 1e-2, 1e2
    return np.concatenate(([0.0], np.geomspace(lo, hi, int(n)), [math.inf]))


def _peak_seed(m, n, pole_set):
    """The sorted, duplicate-free frequencies where a peak search starts:
    the n-point log grid of _log_grid (0 and inf included) and the
    positive imaginary part of each pole, near which a resonance too
    narrow for the grid peaks."""
    return np.unique(np.concatenate([_log_grid(m, n, pole_set),
                                     pole_set.imag[pole_set.imag > 0.0]]))


def default_grid(m, n=400):
    """Logarithmic grid covering the model's dynamics, with 0 and inf sentinels.

    The finite part spans two decades beyond the smallest and largest
    nonzero pole or zero magnitude (zeros are only available for
    transfer-function models).  A pure gain gets the fixed span
    [1e-2, 1e2].  n is the number of finite points; n = 2 gives just the
    endpoints.
    """
    m = _as_model(m)
    return FrequencyGrid(_log_grid(m, n, poles(m)))


def _gains(m, ws, values, response=None):
    """Largest singular value of the response, freq_response's or the given
    (values, ok), at each w of ws; the response goes to values[w]."""
    vals, ok = freq_response(m, ws) if response is None else response
    if not ok.all():
        raise PoleOnAxisError("evaluation at w = {} hits a pole".format(ws[int(np.argmin(ok))]))
    values.update(zip(np.asarray(ws).tolist(), vals))
    if vals.ndim == 1:
        return np.abs(vals)
    return np.linalg.svd(vals, compute_uv=False)[:, 0]


def _realization(m):
    r = m.representation
    if isinstance(r, TransferFunction) and not r.is_proper:
        raise ImproperModelError("peak gain of an improper model is infinite")
    r = _as_ss(r)
    if np.iscomplexobj(r.A) or np.iscomplexobj(r.B) or np.iscomplexobj(r.C) or np.iscomplexobj(r.D):
        raise InputError("hinf_norm expects real-coefficient models")
    return r


def _axis_crossings(A, B, C, D, gamma):
    """Frequencies where the gain equals gamma, or None if gamma is not
    above the feedthrough gain.  Empty array means gamma exceeds the peak."""
    n, mm = A.shape[0], D.shape[1]
    R = gamma * gamma * np.eye(mm) - D.T @ D
    # one input: R is 1x1, its eigenvalue R itself and its inverse 1/R
    if (R[0, 0] if mm == 1 else np.min(np.linalg.eigvalsh(R))) <= 0.0:
        return None
    try:
        Ri = 1.0 / R if mm == 1 else np.linalg.inv(R)
    except np.linalg.LinAlgError:  # singular to rounding where eigvalsh read it positive
        return None
    BRi = B @ Ri
    ARC = A + BRi @ D.T @ C
    H = np.empty((2 * n, 2 * n))
    H[:n, :n], H[:n, n:] = ARC, BRi @ B.T
    H[n:, :n], H[n:, n:] = -C.T @ (np.eye(D.shape[0]) + D @ Ri @ D.T) @ C, -ARC.T
    try:
        lam = np.linalg.eigvals(H)
    except np.linalg.LinAlgError as e:
        raise NumericalError("Hamiltonian eigenvalue computation failed: {}".format(e)) from e
    on_axis = lam[np.abs(lam.real) <= 1e-7 * np.maximum(1.0, np.abs(lam))]
    w = np.unique(np.abs(on_axis.imag))
    return w


# relative accuracy of hinf_norm, and the finite points of its seed grid
_TOL, _GRID_N = 1e-6, 128
# level-set steps before hinf_norm gives up; each step gains at least a
# factor 1 + _TOL/2 and the iteration converges quadratically, so a
# handful suffices
_MAX_LEVELS = 50
# steps of one climb before it stops where it is; on the workloads and
# 3597 random loops no climb takes more than 20, and the samples of one
# that stops stay candidates all the same
_CLIMB_STEPS = 32
_SQRT_EPS = math.sqrt(_EPS)


def hinf_norm(m):
    """Peak gain over frequency of a stable proper model.

    Climb, then certify (see the module docstring): the best gain on
    _peak_seed's frequencies, a _GRID_N-point grid (w = 0 and w = inf
    included) and the imaginary part of each pole, is climbed to the top
    of its peak (_climb), and the Hamiltonian crossing test at that gain
    times (1 + _TOL/2) certifies it when it finds no crossings, which is
    the common case: one eigenvalue solve.  Crossings send the search to
    the best gain between them, climbed in turn.  The mu sweep of
    multiloop_margin shares the seed and the climb (_climb_peaks).

    Parameters
    ----------
    m : LtiModel (or bare representation)

    Returns
    -------
    PeakGain
        value is the largest gain attained at any evaluated frequency,
        within relative _TOL (1e-6) of the true supremum; frequency is
        where it was attained and response the value there.  Peaks at
        w = 0 or w = inf are reported with those exact sentinels.  Among
        distinct peaks within 1e-9 of the value the lowest frequency wins
        (_pick_lowest).

    Raises
    ------
    DomainError
        If the model has a pole with Re >= 0 (the supremum over the axis
        would not be the H-infinity norm).
    ImproperModelError
        For improper transfer functions.
    NumericalError
        If an eigenvalue solve fails or the iteration does not settle
        within _MAX_LEVELS steps.
    """
    m = _as_model(m)
    return _peak_gain(m, poles(m))


def _peak_gain(m, pole_set, seed=None):
    """hinf_norm of the model m whose poles, pole_set, are already known;
    seed is (ws, (values, ok)), m's _peak_seed frequencies and
    freq_response there, when the caller holds them (multiloop's rows),
    and every check still runs.  The seed is the one freq_response call
    of a transfer function: the climb's stencils and the level-set
    candidates go through one gains(ws) closure, which evaluates them by
    lti._tf_points, freq_response's values bit for bit on Python
    numbers, and by _gains where that returns None (a flagged,
    non-finite or overflowing point) and for state space."""
    if not np.all(pole_set.real < 0.0):
        raise DomainError("peak gain is only defined for stable models")
    r = _realization(m)
    A, B, C, D = r.A, r.B, r.C, r.D

    ws, response = (_peak_seed(m, _GRID_N, pole_set), None) if seed is None else seed
    values = {}
    cand = list(zip(ws.tolist(), _gains(m, ws, values, response).tolist()))
    lo = max(g for _, g in cand)
    # a zero or static gain is reported at w = 0, the seed's first point
    if lo == 0.0 or r.nstates == 0:
        return PeakGain(lo, 0.0, values[0.0])
    tf = m.representation if isinstance(m.representation, TransferFunction) else None

    def gains(ws):
        vals = None if tf is None else _tf_points(tf, ws)
        if vals is None:
            return _gains(m, ws, values)
        values.update(zip(ws, vals))
        return np.abs(vals)

    for _ in range(_MAX_LEVELS):
        lo = _climb_peaks(gains, cand, pole_set)
        level = lo * (1.0 + 0.5 * _TOL)
        freqs = _axis_crossings(A, B, C, D, level)
        # the gain peaks between paired crossings of a level it exceeds
        ws = [] if freqs is None else [float(w) for w in freqs]
        ws += [0.5 * (a + b) for a, b in zip(ws, ws[1:])]
        if ws:
            cand.extend(zip(ws, gains(ws).tolist()))
        best = max(g for _, g in cand)
        # no crossings certify the level as an upper bound; crossings
        # whose gains stay below the level are a near-double crossing
        # the eigenvalue test reports next to the peak
        if best <= level:
            w0 = _pick_lowest(cand, best)
            return PeakGain(best, w0, values[w0])
    raise NumericalError("peak-gain level set did not settle")


def _climb_peaks(gains, cand, pole_set):
    """_climb the gain, gains(ws) at each frequency of a sequence ws, up
    each distinct peak of the (w, gain) candidates cand within 1e-9 of
    their best (_peaks); return the best gain.  From a pole's frequency
    (of pole_set) the first h is its resonance width |Re p|; from any
    other sample, a quarter of the distance to the nearest one."""
    width = {}
    for p in pole_set[pole_set.imag > 0.0].tolist():
        width[p.imag] = min(width.get(p.imag, math.inf), -p.real)
    for w in _peaks(cand, max(g for _, g in cand)):
        if w < math.inf:
            h = width.get(w)
            if h is None:
                h = 0.25 * min(abs(x - w) for x, _ in cand if x != w)
            _climb(gains, cand, w, h)
    return max(g for _, g in cand)


def _climb(gains, cand, w, h):
    """Climb the gain g = gains(ws) from frequency w to the top of its
    peak; every sample joins the (w, gain) candidates cand.

    Each step samples the stencil [w - h, w, w + h] (one gains call,
    which for a transfer function runs lti._tf_points on the three
    points; mirrored at w = 0, as the gain of a real model is even in w),
    fits a parabola to f = 1/g^2 there and moves w to its vertex, with the
    next h the length of that step, but at most 16 times narrower.  Next
    to one lightly damped mode f is exactly such a parabola, ((w - Im p)^2
    + (Re p)^2) / |residue|^2, so from the mode's frequency and width the
    steps converge quadratically.  h stays wide enough that the samples
    at w +- h lie sqrt(eps)/4 below the centre, or rounding in g would
    swamp the slope of f.  A stencil is narrow when they lie at most
    sqrt(eps) below it: a cubic term in f then moves the fitted vertex too
    little to lower the gain there.  The climb stops on a narrow stencil
    whose vertex is within rounding of its centre, after one step from a
    narrow stencil, which rounding alone may have set, or on a stencil
    flat to rounding.  A vertex more than 2h away, or none (f concave), is
    not trusted, as on a skewed peak: w moves to the best sample instead,
    with h doubled while that sample is the highest yet (a shoulder).
    """
    top, narrow = 0.0, False
    for _ in range(_CLIMB_STEPS):
        ws = [abs(w - h), abs(w), abs(w + h)]
        g = gains(ws).tolist()
        cand.extend(zip(ws, g))
        # as numpy divides: inf at g^2 = 0, 0 at g = -inf; a nan stops it
        f = [1.0 / q if q else math.inf for q in (x * x for x in g)]
        if math.isnan(f[0] + f[2]) or not max(f) - min(f) > 4.0 * _EPS * f[1]:
            return
        # slope and curvature of f in units of h; the vertex lies
        # d1^2 / (2 d2) below f[1]
        d1, d2 = 0.5 * (f[2] - f[0]), f[2] - 2.0 * f[1] + f[0]
        step = -d1 / d2 if 0.0 < d2 < math.inf else math.inf
        if not abs(step) <= 2.0:
            k = g.index(max(g))  # the first of exact ties, as np.argmax
            w, h, top = ws[k], (2.0 if g[k] > top else 1.0) * h, max(top, g[k])
            continue
        top = max(top, max(g))
        was_narrow, narrow = narrow, d2 <= _SQRT_EPS * f[1]
        if d1 == 0.0 or (narrow and (was_narrow or d1 * d1 <= 8.0 * _EPS * d2 * f[1])):
            return
        # h where the samples at w +- h lie sqrt(eps)/4 below the vertex
        floor = math.sqrt(0.25 * _SQRT_EPS * f[1] / d2)
        w, h = w + step * h, max(abs(step), 1.0 / 16.0, floor) * h


def _peaks(cand, best):
    """Frequency of each distinct peak within 1e-9 of best, in increasing
    order: a peak is a run of frequency-adjacent (w, gain) candidates
    whose gains all lie within 1e-9 of best, and its frequency is that of
    its largest gain (the lowest among exact ties)."""
    tops, top = [], None
    for w, g in sorted(cand):
        if g < best * (1.0 - 1e-9):
            top = None
        elif top is None:
            top = [w, g]
            tops.append(top)
        elif g > top[1]:
            top[:] = w, g
    return [w for w, _ in tops]


def _pick_lowest(cand, best):
    """Frequency of the lowest distinct peak within 1e-9 of best (_peaks).
    Near-equal distinct peaks go to the lowest frequency; on one peak the
    frequency is that of its best candidate, however flat its top."""
    return float(_peaks(cand, best)[0])
