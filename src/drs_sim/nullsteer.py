"""Analytic yaw selection that drops reflected interference into an array null.

Rotating the surface by alpha shifts both local azimuths (interferer and
receiver) by alpha while leaving elevations fixed.  Each direction-cosine
sum then becomes a pure harmonic in alpha,

    u_x(alpha) = P cos(alpha) - Q sin(alpha) = R cos(alpha + atan2(Q, P)),
    u_y(alpha) = Q cos(alpha) + P sin(alpha) = R cos(alpha - atan2(P, Q)),

with R = sqrt(P^2 + Q^2).  Each sum is continuous in alpha, so the null
closest to alpha = 0 lies on one of the two null levels nearest to the sum's
value at alpha = 0; only those are solved, at most eight roots in all, and
they are tested nearest-first, so a lone nearest null costs one residual.
When none of them is a null inside the budget, the rotation that minimizes
|psi| is found by a coarse scan whose bracketed minima are refined by
golden-section search.

The elevations are fixed for the whole step, so ``NullSteerInput`` holds
their sines, which its caller computes once per step.  ``psi_interference``
is the one evaluation of psi: the analytic roots' residuals and the
fallback's scan and refinement (about 60 evaluations) all go through it.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .channel import RisConfig, array_factor, direction_cosine_sums
from .geometry import wrap_angle

MODE_ANALYTIC = "analytic-null"
MODE_FALLBACK = "fallback-min"
MODE_NONE = "none"

# Analytic nulls must reach this residual; generically they land many
# orders of magnitude lower and the filter only guards float pathologies.
NULL_RESIDUAL_TOL = 1e-9

_BOUND_SLACK = 1e-12
# Null rotations at most _MERGE_GAP apart are one null.
_MERGE_GAP = 1e-12
# Fallback search: coarse intervals on each side of alpha = 0, and enough
# golden-section steps to shrink a two-interval bracket (2 bound /
# _COARSE_HALF wide) below 1e-9 bound.  A fixed step count rather than a
# width test keeps the loop finite when 1e-9 bound underflows.
_COARSE_HALF = 8
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_STEPS = math.ceil(math.log(1e-9 * _COARSE_HALF / 2.0) / math.log(_INV_PHI))


class NullSteerInput:
    """Geometry seen from the current pose plus the per-step rotation budget.

    theta_i, theta_r: elevations of the interferer and the receiver off
    boresight (straight down), in [0, pi]; any node strictly below the drone
    sits in [0, pi/2).  phi_i, phi_r: their azimuths in the yawed local
    frame, wrapped to (-pi, pi] on construction.  sin_i, sin_r: the sines of
    the two elevations, which the caller computes once for the step (the
    engine's trajectory does, for every served step).
    """

    __slots__ = ("theta_i", "phi_i", "theta_r", "phi_r", "ris", "alpha_bound", "sin_i", "sin_r")

    def __init__(
        self,
        theta_i: float,
        phi_i: float,
        theta_r: float,
        phi_r: float,
        ris: RisConfig,
        alpha_bound: float,  # [rad], rotation rate times step duration
        sin_i: float,  # math.sin(theta_i)
        sin_r: float,  # math.sin(theta_r)
    ) -> None:
        for theta in (theta_i, theta_r):
            if not 0.0 <= theta <= math.pi:  # NaN too
                raise ValueError(f"theta must be in [0, pi], got {theta}")
        if not 0.0 < alpha_bound < math.inf:
            raise ValueError(f"alpha_bound must be finite and > 0, got {alpha_bound}")
        self.theta_i = theta_i
        self.phi_i = wrap_angle(phi_i)
        self.theta_r = theta_r
        self.phi_r = wrap_angle(phi_r)
        self.ris = ris
        self.alpha_bound = alpha_bound
        self.sin_i = sin_i
        self.sin_r = sin_r


class NullSolution:
    __slots__ = ("alpha", "residual", "mode")

    def __init__(self, alpha: float, residual: float, mode: str) -> None:
        self.alpha = alpha
        self.residual = residual  # |array factor| at alpha
        self.mode = mode


def psi_interference(inp: NullSteerInput, alpha: float) -> float:
    """Array factor of the interferer -> receiver reflection after rotating by alpha.

    A rotated azimuth is wrapped only when it leaves (-pi, pi]; inside it,
    wrap_angle would return it unchanged.
    """
    phi_i, phi_r = inp.phi_i + alpha, inp.phi_r + alpha
    if not -math.pi < phi_i <= math.pi:
        phi_i = wrap_angle(phi_i)
    if not -math.pi < phi_r <= math.pi:
        phi_r = wrap_angle(phi_r)
    ux, uy = direction_cosine_sums(inp.sin_i, phi_i, inp.sin_r, phi_r)
    return array_factor(inp.ris, ux, uy)


def null_rotations(inp: NullSteerInput) -> list[float]:
    """Rotations within the budget that solve the nearest null levels of each axis.

    The row factor vanishes where u_x(alpha) = k * wavelength / (M * dx)
    for a nonzero integer k not divisible by M (multiples of M are grating
    lobes where the factor returns to full magnitude) and |k| <= R / spacing;
    the column condition is the same with (N, dy) and u_y.  As u = R cos(alpha
    + shift) is continuous, the first level it crosses turning either way
    from alpha = 0 is the nearest one at or below u(0) or at or above it, so
    only those are solved (both acos branches, wrapped): at most eight roots,
    row axis first and levels ascending.  Residuals are not checked here.

    (P, Q) are the in-phase and quadrature coefficients of the rotated
    cosine sums, their values at alpha = 0; for every alpha:

        sin(t_i) cos(p_i + alpha) + sin(t_r) cos(p_r + alpha) = P cos(alpha) - Q sin(alpha)
        sin(t_i) sin(p_i + alpha) + sin(t_r) sin(p_r + alpha) = Q cos(alpha) + P sin(alpha)
    """
    p, q = direction_cosine_sums(inp.sin_i, inp.phi_i, inp.sin_r, inp.phi_r)
    amplitude = math.hypot(p, q)
    if amplitude == 0.0:
        return []
    ris = inp.ris
    bound = inp.alpha_bound + _BOUND_SLACK
    roots: list[float] = []
    for count, pitch, shift in (
        (ris.m_rows, ris.dx, math.atan2(q, p)),
        (ris.n_cols, ris.dy, -math.atan2(p, q)),
    ):
        null_spacing = ris.wavelength / (count * pitch)
        k_max = math.floor(amplitude / null_spacing)
        level = amplitude * math.cos(shift) / null_spacing
        below, above = math.floor(level), math.ceil(level)
        if below % count == 0:
            below -= 1
        if above % count == 0:
            above += 1
        for k in (below,) if below == above else (below, above):
            if abs(k) > k_max or k % count == 0:  # k % 1 == 0: a lone row or column
                continue
            branch = math.acos(max(-1.0, min(1.0, k * null_spacing / amplitude)))
            for alpha_raw in (branch, -branch):
                alpha = wrap_angle(alpha_raw - shift)
                if -bound <= alpha <= bound:
                    roots.append(alpha)
    return roots


def nearest_null(inp: NullSteerInput) -> tuple[float, float] | None:
    """Smallest-|alpha| null rotation within the budget and its residual, or None.

    Roots with residual <= NULL_RESIDUAL_TOL are nulls; nulls at most 1e-12
    apart are one null, kept at the lowest (ascending deduplication).  The
    smallest |alpha| wins, the more negative (the first kept) on a tie.

    Roots are tested nearest-first.  The first null p is the answer when the
    next root's |alpha| exceeds |p| by more than _MERGE_GAP: every other null
    is then more than _MERGE_GAP from p and farther from 0, so the rule
    below would keep p and pick it.  Otherwise the remaining roots are
    tested and the rule runs.
    """
    roots = sorted(null_rotations(inp), key=abs)
    passing = []
    for i, alpha in enumerate(roots):
        residual = abs(psi_interference(inp, alpha))
        if residual <= NULL_RESIDUAL_TOL:
            if not passing and (i + 1 == len(roots) or abs(roots[i + 1]) - abs(alpha) > _MERGE_GAP):
                return alpha, residual
            passing.append((alpha, residual))
    passing.sort(key=itemgetter(0))
    best, kept = None, -math.inf
    for alpha, residual in passing:
        if alpha - kept > _MERGE_GAP:
            kept = alpha
            if best is None or abs(alpha) < abs(best[0]):
                best = (alpha, residual)
    return best


def _golden_section_min(inp: NullSteerInput, lo: float, hi: float) -> tuple[float, float]:
    """Rotation in [lo, hi] with the lowest |psi| reached by golden-section search.

    Converges to a local minimum of |psi| on the bracket (Kiefer 1953) in
    2 + _REFINE_STEPS evaluations; returns (alpha, |psi|) of the best of the
    two final interior points, which is the best point evaluated.
    """
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = abs(psi_interference(inp, c)), abs(psi_interference(inp, d))
    for _ in range(_REFINE_STEPS):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = abs(psi_interference(inp, c))
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = abs(psi_interference(inp, d))
    return (c, fc) if fc <= fd else (d, fd)


def select_rotation(inp: NullSteerInput) -> NullSolution:
    """Pick the per-step rotation: exact null if reachable, else a searched minimum.

    The analytic null of smallest |alpha| wins (tie: the more negative one)
    to preserve rotation budget for later steps; ``nearest_null`` finds it
    from the nearest null levels alone, testing their roots nearest-first.
    With no null inside the budget, |psi| is scanned at
    2 * _COARSE_HALF + 1 uniform rotations over [-bound, bound] (alpha = 0
    is the middle one), and every scanned point no higher than its
    neighbours is refined by golden-section search over the bracket its
    neighbours span (one-sided at the two ends).  The lowest point found
    wins (a tie keeps alpha = 0, else the first found); if it does not
    improve on alpha = 0 by at least 1e-12 the pose is left alone.  The scan
    and the refinement evaluate |psi| as ``abs(psi_interference(inp, alpha))``.
    """
    null = nearest_null(inp)
    if null is not None:
        return NullSolution(*null, MODE_ANALYTIC)

    alphas = [
        inp.alpha_bound * (i - _COARSE_HALF) / _COARSE_HALF for i in range(2 * _COARSE_HALF + 1)
    ]
    residuals = [abs(psi_interference(inp, alpha)) for alpha in alphas]
    baseline = residuals[_COARSE_HALF]
    best_alpha, best_residual = 0.0, baseline
    points = list(zip(alphas, residuals))
    last = len(alphas) - 1
    for i, residual in enumerate(residuals):
        left, right = max(i - 1, 0), min(i + 1, last)
        if residual <= residuals[left] and residual <= residuals[right]:
            points.append(_golden_section_min(inp, alphas[left], alphas[right]))
    for alpha, residual in points:
        if residual < best_residual:
            best_alpha, best_residual = alpha, residual
    if baseline - best_residual < 1e-12:
        return NullSolution(0.0, baseline, MODE_NONE)
    return NullSolution(best_alpha, best_residual, MODE_FALLBACK)
