"""Classical gain and phase margins of SISO loops.

Margins here are interval statements: the reported range (g_lower,
g_upper) of pure gain variation keeps the negative feedback closure
stable and well posed, and phi_upper does the same for pure phase
rotation in either direction.  Candidate boundaries are the gains and
phases at which the perturbed loop acquires an imaginary-axis pole:
real-axis crossings of the Nyquist plot for gain, unit-modulus
crossings for phase, plus the w = 0 and w = inf endpoints for gain.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DmkitError, InputError, NominalInstabilityError, PoleOnAxisError
from .lti import _as_model, eval_freq, freq_response, is_stable, scalar_close
from .specnorm import default_grid

__all__ = ["ClassicalMargins", "gain_margins", "phase_margin", "classical_margins"]


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


def _require_siso_normalized(L):
    L = _as_model(L).normalized()
    if not L.is_siso:
        raise InputError("classical margins are defined for SISO loops")
    closed = scalar_close(L, 1.0)
    if not is_stable(closed):
        raise NominalInstabilityError("nominal closed loop is unstable")
    return L


def _response_samples(L, grid):
    ws = np.asarray(grid)
    vals, ok = freq_response(L, ws)
    return ws[ok], vals[ok]


def _refine_root(f, a, b):
    return brentq(f, a, b, xtol=1e-13, rtol=1e-14, maxiter=200)


def _phase_crossover_candidates(L, n_grid=2000):
    """Gains g > 0 at which the closure acquires an axis pole:
    (gain, frequency) pairs at the real-axis crossings with Re L < 0,
    plus the w = 0 and w = inf endpoints when L is negative there."""
    grid = [w for w in default_grid(L, n_grid).points if 0.0 < w < math.inf]
    ws, vals = _response_samples(L, grid)
    cands = []

    def im_at(w):
        return eval_freq(L, w).imag

    for i in range(len(ws) - 1):
        a, b = vals[i].imag, vals[i + 1].imag
        if a == 0.0 or a * b >= 0.0:
            continue
        wc = _refine_root(im_at, ws[i], ws[i + 1])
        lc = eval_freq(L, wc)
        # reject pseudo-roots produced by a pole inside the bracket
        if abs(lc.imag) > 1e-6 * (1.0 + abs(lc)):
            continue
        if lc.real < 0.0:
            cands.append((-1.0 / lc.real, float(wc)))

    for w in (0.0, math.inf):
        try:
            lv = eval_freq(L, w)
        except PoleOnAxisError:
            continue
        if abs(lv.imag) <= 1e-12 * (1.0 + abs(lv)) and lv.real < 0.0:
            cands.append((-1.0 / lv.real, w))

    cands.sort()
    # merge near-duplicates (same gain found from both sides of a bracket)
    merged = []
    for g, w in cands:
        if merged and abs(g - merged[-1][0]) <= 1e-6 * merged[-1][0] and (
            w == merged[-1][1] or (math.isfinite(w) and math.isfinite(merged[-1][1])
                                   and abs(w - merged[-1][1]) <= 1e-6 * max(1.0, merged[-1][1]))
        ):
            continue
        merged.append((g, w))
    return merged


def _stable_at_gain(L, g):
    return is_stable(scalar_close(L, g))


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
    L = _require_siso_normalized(L)
    cands = _phase_crossover_candidates(L)
    below = [(g, w) for g, w in cands if g < 1.0 - 1e-9]
    above = [(g, w) for g, w in cands if g > 1.0 + 1e-9]
    if below:
        g_lower, w_lower = max(below)
    else:
        g_lower, w_lower = 0.0, None
    if above:
        g_upper, w_upper = min(above)
    else:
        g_upper, w_upper = math.inf, None
    return g_lower, g_upper, (w_lower, w_upper)


def _gain_crossover_candidates(L, n_grid=2000):
    grid = [w for w in default_grid(L, n_grid).points if 0.0 < w < math.inf]
    ws, vals = _response_samples(L, grid)
    mags = np.abs(vals) - 1.0
    cands = []

    def mag_at(w):
        return abs(eval_freq(L, w)) - 1.0

    for i in range(len(ws) - 1):
        a, b = mags[i], mags[i + 1]
        if a == 0.0 or a * b >= 0.0:
            continue
        wc = _refine_root(mag_at, ws[i], ws[i + 1])
        lc = eval_freq(L, wc)
        if abs(abs(lc) - 1.0) > 1e-8:
            continue
        phi = abs(np.angle(-lc))
        if phi > 1e-12:
            # phi = 0 would mean L = -1 exactly, excluded by the nominal
            # stability precondition
            cands.append((float(phi), float(wc)))
    cands.sort()
    return cands


def phase_margin(L):
    """Largest guaranteed pure-phase rotation (radians, either sign).

    Returns (phi_upper, critical_frequency); (math.inf, None) when the
    loop gain never crosses unity.
    """
    L = _require_siso_normalized(L)
    cands = _gain_crossover_candidates(L)
    if not cands:
        return math.inf, None
    phi, w = cands[0]
    return phi, w


def classical_margins(L):
    """Both margins plus crossover bookkeeping in one result."""
    L = _require_siso_normalized(L)
    g_lower, g_upper, (w_lo, w_up) = gain_margins(L)
    phi_upper, w_phi = phase_margin(L)
    phase_cross = tuple(w for _, w in _phase_crossover_candidates(L))
    gain_cands = _gain_crossover_candidates(L)
    gain_cross = tuple(sorted(w for _, w in gain_cands))

    # binding gain frequency: the side nearer to 1 on a log scale
    if g_lower > 0.0 and math.isfinite(g_upper):
        crit_g = w_up if abs(math.log(g_upper)) <= abs(math.log(g_lower)) else w_lo
    elif math.isfinite(g_upper):
        crit_g = w_up
    elif g_lower > 0.0:
        crit_g = w_lo
    else:
        crit_g = None

    extra = _extra_stable_intervals(L)
    return ClassicalMargins(
        g_lower=g_lower,
        g_upper=g_upper,
        phi_upper=phi_upper,
        gain_crossover_freqs=gain_cross,
        phase_crossover_freqs=phase_cross,
        critical_gain_freq=crit_g,
        critical_phase_freq=w_phi,
        extra_stable_gain_intervals=extra,
    )


def _extra_stable_intervals(L):
    """Stable gain intervals disconnected from the one containing g = 1."""
    cands = _phase_crossover_candidates(L)
    if not cands:
        return ()
    bounds = [0.0] + [g for g, _ in cands] + [math.inf]
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
            if _stable_at_gain(L, test):
                extra.append((a, b))
        except DmkitError:
            continue
    return tuple(extra)
