"""Analytic yaw selection that drops reflected interference into an array null.

Rotating the surface by alpha shifts both local azimuths (interferer and
receiver) by alpha while leaving elevations fixed.  Each direction-cosine
sum then becomes a pure harmonic in alpha,

    u_x(alpha) = P cos(alpha) - Q sin(alpha) = R cos(alpha + atan2(Q, P)),
    u_y(alpha) = Q cos(alpha) + P sin(alpha) = R cos(alpha - atan2(P, Q)),

with R = sqrt(P^2 + Q^2).  Over the rotation budget each sum sweeps an
interval known in closed form; only the null levels inside it are solved.
When no null is inside the budget, the rotation that minimizes |psi| is
found by a coarse scan whose bracketed minima are refined by golden-section
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import RisConfig, array_factor, direction_cosine_sums
from .geometry import AngularCoords, wrap_angle

MODE_ANALYTIC = "analytic-null"
MODE_FALLBACK = "fallback-min"
MODE_NONE = "none"

# Analytic candidates must reach this residual; generically they land many
# orders of magnitude lower and the filter only guards float pathologies.
NULL_RESIDUAL_TOL = 1e-9

_BOUND_SLACK = 1e-12
# Relative widening of the searched null-level interval, far above the
# ~1e-15 R by which rounding can move a level across its edge.
_LEVEL_PAD = 1e-9
# Fallback search: coarse intervals on each side of alpha = 0, and enough
# golden-section steps to shrink a two-interval bracket (2 bound /
# _COARSE_HALF wide) below 1e-9 bound.  A fixed step count rather than a
# width test keeps the loop finite when 1e-9 bound underflows.
_COARSE_HALF = 8
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_STEPS = math.ceil(math.log(1e-9 * _COARSE_HALF / 2.0) / math.log(_INV_PHI))


@dataclass(frozen=True)
class NullSteerInput:
    """Geometry seen from the current pose plus the per-step rotation budget."""

    interferer: AngularCoords
    receiver: AngularCoords
    ris: RisConfig
    alpha_bound: float  # [rad], rotation rate times step duration

    def __post_init__(self) -> None:
        if self.alpha_bound <= 0.0:
            raise ValueError("alpha_bound must be > 0")


@dataclass(frozen=True)
class NullSolution:
    alpha: float
    residual: float  # |array factor| at alpha
    mode: str


def psi_interference(inp: NullSteerInput, alpha: float) -> float:
    """Array factor of the interferer -> receiver reflection after rotating by alpha."""
    i, r = inp.interferer, inp.receiver
    phi_i, phi_r = wrap_angle(i.phi + alpha), wrap_angle(r.phi + alpha)
    return array_factor(inp.ris, *direction_cosine_sums(i.theta, phi_i, r.theta, phi_r))


def harmonic_coefficients(inp: NullSteerInput) -> tuple[float, float]:
    """In-phase and quadrature coefficients (P, Q) of the rotated cosine sums.

    For every alpha:

        sin(t_i) cos(p_i + alpha) + sin(t_r) cos(p_r + alpha) = P cos(alpha) - Q sin(alpha)
        sin(t_i) sin(p_i + alpha) + sin(t_r) sin(p_r + alpha) = Q cos(alpha) + P sin(alpha)
    """
    i, r = inp.interferer, inp.receiver
    return direction_cosine_sums(i.theta, i.phi, r.theta, r.phi)


def candidate_alphas(inp: NullSteerInput) -> list[float]:
    """All rotations within the budget that zero a row or column factor.

    The row factor vanishes where u_x(alpha) = k * wavelength / (M * dx)
    for a nonzero integer k not divisible by M (multiples of M are grating
    lobes where the factor returns to full magnitude); the column condition
    is the same with (N, dy) and u_y.  Over |alpha| <= bound, u = R cos(alpha
    + shift) spans its values at +-bound, widened to R (-R) when the peak at
    -shift (trough at pi - shift) is inside the budget; only the k whose
    level lies in that span are solved (both acos branches, wrapped, bound-
    and residual-filtered).  Sorted ascending, deduplicated; empty when
    nothing lands inside the budget.
    """
    p, q = harmonic_coefficients(inp)
    amplitude = math.hypot(p, q)
    if amplitude == 0.0:
        return []
    ris = inp.ris
    bound = inp.alpha_bound + _BOUND_SLACK
    found: list[float] = []
    for count, pitch, shift in (
        (ris.m_rows, ris.dx, math.atan2(q, p)),
        (ris.n_cols, ris.dy, -math.atan2(p, q)),
    ):
        ends = (amplitude * math.cos(shift - bound), amplitude * math.cos(shift + bound))
        hi = amplitude if abs(wrap_angle(shift)) <= bound else max(ends)
        lo = -amplitude if abs(wrap_angle(shift - math.pi)) <= bound else min(ends)
        null_spacing = ris.wavelength / (count * pitch)
        k_max = math.floor(amplitude / null_spacing)
        k_lo = max(-k_max, math.ceil((lo - _LEVEL_PAD * amplitude) / null_spacing))
        k_hi = min(k_max, math.floor((hi + _LEVEL_PAD * amplitude) / null_spacing))
        for k in range(k_lo, k_hi + 1):
            if k % count == 0:
                continue
            branch = math.acos(max(-1.0, min(1.0, k * null_spacing / amplitude)))
            for alpha_raw in (branch, -branch):
                alpha = wrap_angle(alpha_raw - shift)
                if abs(alpha) <= bound and abs(psi_interference(inp, alpha)) <= NULL_RESIDUAL_TOL:
                    found.append(alpha)
    found.sort()
    deduped: list[float] = []
    for alpha in found:
        if not deduped or alpha - deduped[-1] > 1e-12:
            deduped.append(alpha)
    return deduped


def _golden_section_min(inp: NullSteerInput, lo: float, hi: float) -> tuple[float, float]:
    """Rotation in [lo, hi] with the lowest |psi| reached by golden-section search.

    Converges to a local minimum of |psi| on the bracket (Kiefer 1953);
    returns (alpha, |psi|) of the best of the two final interior points,
    which is the best point evaluated.
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

    Among analytic candidates the smallest |alpha| wins (tie: the more
    negative one) to preserve rotation budget for later steps.  With no
    candidate, |psi| has no zero in the budget; it is scanned at
    2 * _COARSE_HALF + 1 uniform rotations over [-bound, bound] (alpha = 0
    is the middle one), and every scanned point no higher than its
    neighbours is refined by golden-section search over the bracket its
    neighbours span (one-sided at the two ends).  The lowest point found
    wins (a tie keeps alpha = 0, else the first found); if it does not
    improve on alpha = 0 by at least 1e-12 the pose is left alone.
    """
    candidates = candidate_alphas(inp)
    if candidates:
        alpha = min(candidates, key=lambda a: (abs(a), a))
        return NullSolution(alpha, abs(psi_interference(inp, alpha)), MODE_ANALYTIC)

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
