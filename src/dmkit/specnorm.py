"""Peak gain (H-infinity norm) and frequency grids.

The norm comes from the level-set iteration of Bruinsma & Steinbuch
(Systems & Control Letters 14(4), 1990; Boyd & Balakrishnan, 1990).  For
a stable real realization (A, B, C, D) and a level gamma above the
largest singular value of D, the associated Hamiltonian matrix has
imaginary-axis eigenvalues exactly at the frequencies where the gain
crosses gamma.  The start is the best gain on a coarse grid and at each
pole's damped frequency, where a resonance too narrow for the grid
peaks.  Each step takes the crossings of the current best gain (raised
by half the tolerance) and evaluates the gain at them and between
consecutive ones; the gain peaks between paired crossings, so the best
of those is the next level.  The iteration converges quadratically.  It
stops when a level has no crossings, which certifies it as an upper
bound, or when no evaluated gain rises above it: just above a peak the
eigenvalue test can report a near-double crossing that is not one.  A
last polish takes the crossings of a level just below the best gain,
which are real and well separated, and evaluates between them to land
on the peak itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ImproperModelError, InputError, NumericalError, PoleOnAxisError
from .lti import TransferFunction, _as_model, freq_response, poles, tf_to_ss

__all__ = ["PeakGain", "FrequencyGrid", "default_grid", "hinf_norm"]


@dataclass(frozen=True)
class PeakGain:
    """A gain value and the frequency (rad/s, may be 0 or inf) where it occurs."""

    value: float
    frequency: float


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


def _gains(m, ws):
    """Largest singular value of the response at each frequency of ws."""
    vals, ok = freq_response(m, ws)
    if not ok.all():
        raise PoleOnAxisError("evaluation at w = {} hits a pole".format(ws[int(np.argmin(ok))]))
    if vals.ndim == 1:
        return np.abs(vals)
    return np.linalg.svd(vals, compute_uv=False)[:, 0]


def _realization(m):
    r = m.representation
    if isinstance(r, TransferFunction):
        if not r.is_proper:
            raise ImproperModelError("peak gain of an improper model is infinite")
        r = tf_to_ss(r)
    if np.iscomplexobj(r.A) or np.iscomplexobj(r.B) or np.iscomplexobj(r.C) or np.iscomplexobj(r.D):
        raise InputError("hinf_norm expects real-coefficient models")
    return r


def _axis_crossings(A, B, C, D, gamma):
    """Frequencies where the gain equals gamma, or None if gamma is not
    above the feedthrough gain.  Empty array means gamma exceeds the peak."""
    mm = D.shape[1]
    R = gamma * gamma * np.eye(mm) - D.T @ D
    if np.min(np.linalg.eigvalsh(R)) <= 0.0:
        return None
    Ri = np.linalg.inv(R)
    ARC = A + B @ Ri @ D.T @ C
    H = np.block([
        [ARC, B @ Ri @ B.T],
        [-C.T @ (np.eye(D.shape[0]) + D @ Ri @ D.T) @ C, -ARC.T],
    ])
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


def hinf_norm(m):
    """Peak gain over frequency of a stable proper model.

    Level-set iteration on the Hamiltonian crossing test, seeded by the
    best gain on _peak_seed's frequencies, a _GRID_N-point grid (w = 0
    and w = inf included) and the imaginary part of each pole; the mu
    sweep of multiloop_margin starts from the same seed.  Each step finds
    the frequencies where the gain crosses the current best value times
    (1 + _TOL/2), evaluates the gain there and midway between consecutive
    crossings, and takes the largest as the next best value.  It stops
    when that level has no crossings (the level bounds the peak from
    above) or when no evaluated gain exceeds the level.  A final step
    evaluates midway between the crossings of the best value times
    (1 - _TOL/2).

    Parameters
    ----------
    m : LtiModel (or bare representation)

    Returns
    -------
    PeakGain
        value is within relative _TOL (1e-6) of the true supremum;
        frequency is where that gain was attained.  Peaks at w = 0 or
        w = inf are reported with those exact sentinels.  Among near-equal
        peaks the lowest frequency wins.

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
    pole_set = poles(m)
    if not np.all(pole_set.real < 0.0):
        raise DomainError("peak gain is only defined for stable models")
    r = _realization(m)
    A, B, C, D = r.A, r.B, r.C, r.D

    seed = _peak_seed(m, _GRID_N, pole_set)
    cand = list(zip(seed.tolist(), _gains(m, seed).tolist()))
    lo = max(g for _, g in cand)
    if lo == 0.0:
        return PeakGain(0.0, 0.0)

    if r.nstates == 0:
        w0 = _pick_lowest(cand, lo)
        return PeakGain(lo, 0.0 if w0 == math.inf else w0)

    def peak_between(freqs):
        # the gain peaks between paired crossings of a level it exceeds
        ws = [] if freqs is None else [float(w) for w in freqs]
        ws += [0.5 * (a + b) for a, b in zip(ws, ws[1:])]
        if ws:
            cand.extend(zip(ws, _gains(m, ws).tolist()))
        return max(g for _, g in cand)

    for _ in range(_MAX_LEVELS):
        level = lo * (1.0 + 0.5 * _TOL)
        best = peak_between(_axis_crossings(A, B, C, D, level))
        # no crossings certify the level as an upper bound; crossings
        # whose gains stay below the level are a near-double crossing
        # the eigenvalue test reports next to the peak
        if best <= level:
            break
        lo = best
    else:
        raise NumericalError("peak-gain level set did not settle")

    # just below an attained gain the crossings are real and well
    # separated, and midway between them sits the peak itself
    best = peak_between(_axis_crossings(A, B, C, D, lo * (1.0 - 0.5 * _TOL)))
    return PeakGain(best, _pick_lowest(cand, best))


def _pick_lowest(cand, best):
    """Lowest frequency of the (w, gain) candidates within 1e-9 of best."""
    ws = [w for w, g in cand if g >= best * (1.0 - 1e-9)]
    return float(min(ws))
