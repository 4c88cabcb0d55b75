"""Independent oracles the tests check the library against.

Everything here re-derives expected values from first principles (explicit
phasor sums, dense grids, direct trigonometric evaluation) without calling
into the code under test.  The one exception is ``candidate_alphas``, the
full null enumeration the yaw controller used before it solved only the
nearest null levels: it takes (P, Q) from the library's
``direction_cosine_sums`` and evaluates residuals with its
``psi_interference`` so that its filter matches the controller's exactly.
``composed_psi_interference`` uses the library's ``wrap_angle``, as the
composition it writes out did.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from drs_sim.channel import direction_cosine_sums
from drs_sim.geometry import wrap_angle
from drs_sim.nullsteer import NULL_RESIDUAL_TOL, NullSteerInput, psi_interference


def phasor_sum_psi(
    m: int,
    n: int,
    dx: float,
    dy: float,
    wavelength: float,
    theta_t,
    phi_t,
    theta_r,
    phi_r,
) -> np.ndarray:
    """|array factor| as the normalized M x N phasor double sum (vectorized)."""
    theta_t, phi_t, theta_r, phi_r = np.broadcast_arrays(
        np.atleast_1d(theta_t), phi_t, theta_r, phi_r
    )
    ux = np.sin(theta_t) * np.cos(phi_t) + np.sin(theta_r) * np.cos(phi_r)
    uy = np.sin(theta_t) * np.sin(phi_t) + np.sin(theta_r) * np.sin(phi_r)
    k = 2.0 * np.pi / wavelength
    rows = np.exp(1j * k * dx * np.outer(ux, np.arange(m))).sum(axis=1)
    cols = np.exp(1j * k * dy * np.outer(uy, np.arange(n))).sum(axis=1)
    return np.abs(rows * cols) / (m * n)


def phasor_sum_psi_scalar(
    m, n, dx, dy, wavelength, theta_t, phi_t, theta_r, phi_r
) -> float:
    """Same double sum, element by element in plain Python."""
    ux = math.sin(theta_t) * math.cos(phi_t) + math.sin(theta_r) * math.cos(phi_r)
    uy = math.sin(theta_t) * math.sin(phi_t) + math.sin(theta_r) * math.sin(phi_r)
    k = 2.0 * math.pi / wavelength
    total = 0j
    for i in range(m):
        for j in range(n):
            total += cmath.exp(1j * k * (i * dx * ux + j * dy * uy))
    return abs(total) / (m * n)


def _dirichlet_ratio(count: int, arg: float) -> float:
    """sin(count * arg) / (count * sin(arg)), with the limit within 1e-8 of a multiple of pi."""
    k = round(arg / math.pi)
    if abs(arg - k * math.pi) < 1e-8:
        return -1.0 if (k * (count - 1)) % 2 else 1.0
    return math.sin(count * arg) / (count * math.sin(arg))


def composed_psi_interference(inp: NullSteerInput, alpha: float) -> float:
    """The rotated interference array factor, composed step by step.

    This is the float-for-float composition the library evaluated before
    the input stored its elevation sines: both sines are taken here, both
    rotated azimuths go through ``wrap_angle``, and each axis makes its own
    Dirichlet-ratio call.  The library's evaluation must equal it exactly.
    """
    ris = inp.ris
    phi_t, phi_r = wrap_angle(inp.phi_i + alpha), wrap_angle(inp.phi_r + alpha)
    sin_t, sin_r = math.sin(inp.theta_i), math.sin(inp.theta_r)
    ux = sin_t * math.cos(phi_t) + sin_r * math.cos(phi_r)
    uy = sin_t * math.sin(phi_t) + sin_r * math.sin(phi_r)
    row = _dirichlet_ratio(ris.m_rows, math.pi * ux * ris.dx / ris.wavelength)
    col = _dirichlet_ratio(ris.n_cols, math.pi * uy * ris.dy / ris.wavelength)
    return row * col


def dirichlet_direct(count: int, x) -> np.ndarray:
    """sin(count x) / (count sin x) with the limit at multiples of pi (vectorized)."""
    x = np.asarray(x, dtype=float)
    k = np.round(x / np.pi)
    near = np.abs(x - k * np.pi) < 1e-8
    limit = np.where((k.astype(np.int64) * (count - 1)) % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.sin(count * x) / (count * np.sin(x))
    return np.where(near, limit, value)


def rotation_grid(alphas) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of each rotation, for ``rotated_factor_magnitude``.

    A scan over many instances on one grid computes them once.
    """
    alphas = np.asarray(alphas, dtype=float)
    return np.cos(alphas), np.sin(alphas)


def rotated_factor_magnitude(
    m, n, dx, dy, wavelength, theta_i, phi_i, theta_r, phi_r, grid
) -> np.ndarray:
    """|rotated interference array factor| over the rotations of ``rotation_grid(alphas)``.

    Each node's rotated azimuth phi + alpha enters through the angle-addition
    formulas, so only the cosine and sine of alpha itself are needed per
    rotation.
    """
    cos_a, sin_a = grid
    s_i, cos_i, sin_i = np.sin(theta_i), np.cos(phi_i), np.sin(phi_i)
    s_r, cos_r, sin_r = np.sin(theta_r), np.cos(phi_r), np.sin(phi_r)
    ux = s_i * (cos_i * cos_a - sin_i * sin_a) + s_r * (cos_r * cos_a - sin_r * sin_a)
    uy = s_i * (sin_i * cos_a + cos_i * sin_a) + s_r * (sin_r * cos_a + cos_r * sin_a)
    row = dirichlet_direct(m, np.pi * ux * dx / wavelength)
    col = dirichlet_direct(n, np.pi * uy * dy / wavelength)
    return np.abs(row * col)


def relay_height_cost(d_2d: float, height: float) -> float:
    """The planner's altitude cost (d_2d^2 + h^2) / cos^6(atan(d_2d / h)) = (d_2d^2 + h^2)^4 / h^6.

    Not proportional to the reflected link's path loss over the midpoint,
    which has one more distance factor, (d_2d^2 + h^2)^5 / h^6, and is least
    at h = sqrt(3/2) d_2d where this cost is least at sqrt(3) d_2d.
    """
    return (d_2d * d_2d + height * height) / math.cos(math.atan2(d_2d, height)) ** 6


def grid_min_height(d_2d: float, lo: float, hi: float, points: int) -> float:
    """Argmin of the altitude cost over a dense uniform grid."""
    h = np.linspace(lo, hi, points)
    cost = (d_2d**2 + h**2) / np.cos(np.arctan2(d_2d, h)) ** 6
    return float(h[int(np.argmin(cost))])


def clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def summed_lane_trace(
    spawns, y_min: float, y_max: float, stride: float, steps: int
) -> list[dict[int, float]]:
    """Vehicle y per step by repeated addition, dropping a vehicle once it leaves.

    ``spawns`` maps a step to the vehicles entering after that step's move,
    as (id, lane) pairs; lane 0 enters at y_min moving +stride, lane 1 at
    y_max moving -stride.  Entry i of the result holds the survivors' y
    after step i + 1.
    """
    ys: dict[int, float] = {}
    signed = {}
    trace = []
    for step in range(1, steps + 1):
        for vid in list(ys):
            y = ys[vid] + signed[vid]
            if y_min <= y <= y_max:
                ys[vid] = y
            else:
                del ys[vid]
        for vid, lane in spawns.get(step, ()):
            ys[vid] = y_min if lane == 0 else y_max
            signed[vid] = stride if lane == 0 else -stride
        trace.append(dict(ys))
    return trace


def exhaustive_candidate_alphas(
    p: float,
    q: float,
    m: int,
    n: int,
    dx: float,
    dy: float,
    wavelength: float,
    bound: float,
    residual,
) -> list[float]:
    """Null rotations within |alpha| <= bound, trying every null level.

    Solves R cos(alpha + shift) = k * wavelength / (count * pitch) for every
    nonzero k up to R over the spacing (skipping grating lobes, k divisible
    by count), both signs and both acos branches, then keeps the rotations
    within bound + 1e-12 whose ``residual(alpha)`` is at most 1e-9.  Sorted
    and deduplicated at 1e-12.  The residual is passed in so that the filter
    is evaluated exactly as the code under test evaluates it.
    """
    amplitude = math.hypot(p, q)
    if amplitude == 0.0:
        return []
    found = []
    for count, pitch, shift in ((m, dx, math.atan2(q, p)), (n, dy, -math.atan2(p, q))):
        spacing = wavelength / (count * pitch)
        for k in range(1, math.floor(amplitude / spacing) + 1):
            if k % count == 0:
                continue
            for signed_k in (k, -k):
                branch = math.acos(clamp(signed_k * spacing / amplitude, -1.0, 1.0))
                for alpha_raw in (branch, -branch):
                    r = math.remainder(alpha_raw - shift, 2.0 * math.pi)
                    alpha = r + 2.0 * math.pi if r <= -math.pi else r
                    if abs(alpha) <= bound + 1e-12 and abs(residual(alpha)) <= 1e-9:
                        found.append(alpha)
    found.sort()
    deduped = []
    for alpha in found:
        if not deduped or alpha - deduped[-1] > 1e-12:
            deduped.append(alpha)
    return deduped


def grid_fallback_min(
    m, n, dx, dy, wavelength, theta_i, phi_i, theta_r, phi_r, bound, points=2001
) -> tuple[float, float, str]:
    """Uniform-grid fallback rule: (alpha, |psi|, mode) over |alpha| <= bound.

    Scans alpha_j = -bound + j * 2 bound / (points - 1) and keeps the first
    strict minimum below |psi(0)|; when that does not improve on alpha = 0
    by at least 1e-12, returns (0, |psi(0)|, "none"), else mode
    "fallback-min".
    """
    alphas = -bound + np.arange(points) * (2.0 * bound / (points - 1))
    magnitudes = rotated_factor_magnitude(
        m, n, dx, dy, wavelength, theta_i, phi_i, theta_r, phi_r,
        rotation_grid(np.append(alphas, 0.0)),
    )
    baseline = float(magnitudes[-1])
    j = int(np.argmin(magnitudes[:-1]))  # first index of the minimum
    if baseline - magnitudes[j] < 1e-12:
        return 0.0, baseline, "none"
    return float(alphas[j]), float(magnitudes[j]), "fallback-min"


def candidate_alphas(inp: NullSteerInput) -> list[float]:
    """All rotations within the budget that zero a row or column factor.

    The row factor vanishes where u_x(alpha) = k * wavelength / (M * dx)
    for a nonzero integer k not divisible by M (multiples of M are grating
    lobes where the factor returns to full magnitude); the column condition
    is the same with (N, dy) and u_y.  Over |alpha| <= bound, u = R cos(alpha
    + shift) spans its values at +-bound, widened to R (-R) when the peak at
    -shift (trough at pi - shift) is inside the budget; only the k whose
    level lies in that span, widened by 1e-9 R, are solved (both acos
    branches, wrapped, bound- and residual-filtered).  Sorted ascending,
    deduplicated at 1e-12; empty when nothing lands inside the budget.
    """
    p, q = direction_cosine_sums(
        math.sin(inp.theta_i), inp.phi_i, math.sin(inp.theta_r), inp.phi_r
    )
    amplitude = math.hypot(p, q)
    if amplitude == 0.0:
        return []
    ris = inp.ris
    bound = inp.alpha_bound + 1e-12
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
        k_lo = max(-k_max, math.ceil((lo - 1e-9 * amplitude) / null_spacing))
        k_hi = min(k_max, math.floor((hi + 1e-9 * amplitude) / null_spacing))
        for k in range(k_lo, k_hi + 1):
            if k % count == 0:
                continue
            branch = math.acos(max(-1.0, min(1.0, k * null_spacing / amplitude)))
            for alpha_raw in (branch, -branch):
                alpha = wrap_angle(alpha_raw - shift)
                if (
                    abs(alpha) <= bound
                    and abs(psi_interference(inp, alpha)) <= NULL_RESIDUAL_TOL
                ):
                    found.append(alpha)
    found.sort()
    deduped: list[float] = []
    for alpha in found:
        if not deduped or alpha - deduped[-1] > 1e-12:
            deduped.append(alpha)
    return deduped


def enumerated_selection(inp: NullSteerInput) -> tuple[float, float, str] | None:
    """(alpha, |psi|, mode) the yaw controller picks from the full enumeration.

    Among ``candidate_alphas`` the smallest |alpha| wins, the more negative
    one on a tie; None when there is no candidate (the controller then
    searches for a minimum instead).
    """
    candidates = candidate_alphas(inp)
    if not candidates:
        return None
    alpha = min(candidates, key=lambda a: (abs(a), a))
    return alpha, abs(psi_interference(inp, alpha)), "analytic-null"
