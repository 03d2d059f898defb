"""Peak gain (H-infinity norm) and frequency grids.

The norm is computed by bisection on a Hamiltonian eigenvalue test: for
a stable real realization (A, B, C, D) and gamma > max singular value of
D, the associated Hamiltonian matrix has imaginary-axis eigenvalues
exactly when gamma is below the peak gain, and those eigenvalues sit at
the frequencies where the gain crosses gamma.  A coarse grid seeds the
bisection and supplies the lower bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ImproperModelError, InputError, NumericalError, PoleOnAxisError
from .lti import TransferFunction, _as_model, freq_response, is_stable, poles, tf_to_ss

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
        pts = tuple(float(p) for p in self.points)
        if len(pts) == 0:
            raise InputError("frequency grid must be non-empty")
        if any(p < 0 or math.isnan(p) for p in pts):
            raise InputError("frequencies must be non-negative")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InputError("frequency grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def finite(self):
        return tuple(p for p in self.points if math.isfinite(p))


def _feature_magnitudes(m):
    mags = [abs(p) for p in poles(m)]
    r = m.representation
    if isinstance(r, TransferFunction):
        mags.extend(abs(z) for z in r.zeros())
    return [x for x in mags if x > 1e-12]


def default_grid(m, n=400):
    """Logarithmic grid covering the model's dynamics, with 0 and inf sentinels.

    The finite part spans two decades beyond the smallest and largest
    nonzero pole or zero magnitude (zeros are only available for
    transfer-function models).  A pure gain gets the fixed span
    [1e-2, 1e2].  n is the number of finite points; n = 2 gives just the
    endpoints.
    """
    m = _as_model(m)
    if n < 2:
        raise InputError("grid needs at least 2 points")
    mags = _feature_magnitudes(m)
    if mags:
        lo, hi = min(mags) / 100.0, max(mags) * 100.0
    else:
        lo, hi = 1e-2, 1e2
    pts = np.geomspace(lo, hi, int(n))
    return FrequencyGrid((0.0,) + tuple(float(p) for p in pts) + (math.inf,))


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


def hinf_norm(m, tol=1e-6, grid_n=128):
    """Peak gain over frequency of a stable proper model.

    Parameters
    ----------
    m : LtiModel (or bare representation)
    tol : relative accuracy of the returned value.
    grid_n : number of finite seed-grid points.

    Returns
    -------
    PeakGain
        value is within relative tol of the true supremum; frequency is
        where that gain was attained.  Peaks at w = 0 or w = inf are
        reported with those exact sentinels.  Among near-equal peaks the
        lowest frequency wins.

    Raises
    ------
    DomainError
        If the model has a pole with Re >= 0 (the supremum over the axis
        would not be the H-infinity norm).
    ImproperModelError
        For improper transfer functions.
    """
    m = _as_model(m)
    if not is_stable(m):
        raise DomainError("peak gain is only defined for stable models")
    r = _realization(m)
    A, B, C, D = r.A, r.B, r.C, r.D

    seed = default_grid(m, grid_n)
    cand = list(zip(seed.points, _gains(m, seed.points).tolist()))
    best_val = max(g for _, g in cand)
    if best_val == 0.0:
        return PeakGain(0.0, 0.0)

    if r.nstates == 0:
        w0 = _pick_lowest(cand, best_val)
        return PeakGain(best_val, 0.0 if w0 == math.inf else w0)

    lo = best_val
    probe = lo * (1.0 + 0.5 * tol)
    freqs = _axis_crossings(A, B, C, D, probe)
    if freqs is not None and freqs.size == 0:
        # grid already found the peak to within tol
        return PeakGain(lo, _pick_lowest(cand, lo))

    hi = lo * 2.0
    for _ in range(80):
        f = _axis_crossings(A, B, C, D, hi)
        if f is not None and f.size == 0:
            break
        hi *= 2.0
    else:
        raise NumericalError("peak-gain upper bracket did not close")

    last_freqs = freqs if freqs is not None else np.zeros(0)
    while hi - lo > 0.25 * tol * lo:
        mid = 0.5 * (lo + hi)
        f = _axis_crossings(A, B, C, D, mid)
        if f is None or f.size:
            lo = mid
            if f is not None:
                last_freqs = f
        else:
            hi = mid

    # evaluate at the crossing frequencies and between them; the gain
    # peaks between paired crossings of the last level that still cut it
    extra = [float(w) for w in last_freqs]
    extra += [0.5 * (a + b) for a, b in zip(extra, extra[1:])]
    if extra:
        cand.extend(zip(extra, _gains(m, extra).tolist()))
    best_val = max(g for _, g in cand)
    return PeakGain(best_val, _pick_lowest(cand, best_val))


def _pick_lowest(cand, best):
    ws = [w for w, g in cand if g >= best * (1.0 - 1e-9)]
    return float(min(ws))
