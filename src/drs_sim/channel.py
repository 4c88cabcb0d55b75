"""Far-field reflection link budget: array factor, path loss, SINR, rate.

The reflector is an M x N grid of passive elements with pitch (dx, dy).
In the far field the grid's coherent gain toward an (incident, exit) angle
pair collapses to a product of two normalized Dirichlet kernels over the
direction-cosine sums; everything else in the path loss is geometry and
per-element gain.
"""

from __future__ import annotations

import math
import sys

# Path-loss value for a hop with no usable path (element pattern zero or a
# perfectly nulled array factor).  Propagates through sinr() as zero power.
NO_PATH = math.inf

SINR_FORM_STANDARD = "standard"
SINR_FORM_PAPER_LITERAL = "paper-literal"
SINR_FORMS = (SINR_FORM_STANDARD, SINR_FORM_PAPER_LITERAL)

# Arguments closer than this to a multiple of pi take the analytic limit of
# the Dirichlet ratio; direct evaluation is accurate well outside it.
_SINGULARITY_SNAP = 1e-8


class RisConfig:
    """Reflecting-surface geometry and link gains (linear units).

    Defaults: 32 x 32 elements at half-wavelength pitch in the 5.9 GHz ITS
    band, unit gains, unit reflection amplitude.  The resulting far-field
    boundary (~52 m) sits well below the minimum flight altitude.
    """

    def __init__(
        self,
        m_rows: int = 32,
        n_cols: int = 32,
        dx: float = 0.0254,  # element pitch along local x [m]
        dy: float = 0.0254,  # element pitch along local y [m]
        wavelength: float = 0.0508,  # carrier wavelength [m]
        gain_tx: float = 1.0,
        gain_rx: float = 1.0,
        gain_ris: float = 1.0,
        amplitude: float = 1.0,  # element reflection amplitude, in (0, 1]
    ) -> None:
        self.m_rows, self.n_cols = m_rows, n_cols
        self.dx, self.dy, self.wavelength = dx, dy, wavelength
        self.gain_tx, self.gain_rx, self.gain_ris = gain_tx, gain_rx, gain_ris
        self.amplitude = amplitude
        # path_loss squares the two counts and the wavelength into a float product
        for name in ("m_rows", "n_cols"):
            count = getattr(self, name)
            if not (count >= 1 and count * count <= sys.float_info.max):
                raise ValueError(
                    f"ris.{name} must be >= 1 with a square at most {sys.float_info.max:.6g}"
                )
        for name in ("dx", "dy", "wavelength", "gain_tx", "gain_rx", "gain_ris"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"ris.{name} must be finite and > 0, got {value!r}")
        if not wavelength * wavelength < math.inf:
            raise ValueError(f"ris.wavelength squared must be finite, got {wavelength!r}")
        if not 0.0 < amplitude <= 1.0:
            raise ValueError(f"ris.amplitude must be in (0, 1], got {amplitude!r}")


class RadioConfig:
    """Transmit power, noise floor and the rate-model coefficients."""

    def __init__(
        self,
        tx_power: float = 0.2,  # [W]
        noise_power: float = 1e-13,  # [W]
        efficiency: float = 0.8,  # link effectiveness, in (0, 1]
        eff_bandwidth: float = 1e7,  # [Hz]
    ) -> None:
        self.tx_power, self.noise_power = tx_power, noise_power
        self.efficiency, self.eff_bandwidth = efficiency, eff_bandwidth
        for name in ("tx_power", "noise_power", "eff_bandwidth"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"radio.{name} must be finite and > 0, got {value!r}")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"radio.efficiency must be in (0, 1], got {efficiency!r}")


def radiation_pattern(theta: float) -> float:
    """Per-element power pattern: cos^3(theta) in front, zero behind.

    Raises ValueError outside [0, pi].
    """
    if math.isnan(theta) or not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    if theta > math.pi / 2:
        return 0.0
    return math.cos(theta) ** 3


def direction_cosine_sums(
    sin_t: float, phi_t: float, sin_r: float, phi_r: float
) -> tuple[float, float]:
    """Sums of the incident and exit direction cosines along local x and y.

    Takes the sines of the two elevations rather than the elevations: they
    are fixed for a whole step, so a caller computes each once.
    """
    return (
        sin_t * math.cos(phi_t) + sin_r * math.cos(phi_r),
        sin_t * math.sin(phi_t) + sin_r * math.sin(phi_r),
    )


def array_factor(ris: RisConfig, ux: float, uy: float) -> float:
    """Array factor psi: row times column Dirichlet ratio at sums (ux, uy); 1 when specular.

    Each ratio is the normalized Dirichlet kernel sin(count x) / (count sin x),
    the coherent sum of ``count`` equally spaced unit phasors, in [-1, 1],
    at x = pi u pitch / wavelength.  At x = k*pi both numerator and
    denominator vanish; within _SINGULARITY_SNAP of it the analytic limit
    (-1)^(k*(count-1)) is taken.  Those points are the grating lobes: the
    ratio returns to full magnitude, not to zero.
    """
    pi, sin = math.pi, math.sin
    count = ris.m_rows
    x = pi * ux * ris.dx / ris.wavelength
    k = round(x / pi)
    if abs(x - k * pi) < _SINGULARITY_SNAP:
        row = -1.0 if (k * (count - 1)) % 2 else 1.0
    else:
        row = sin(count * x) / (count * sin(x))
    count = ris.n_cols
    x = pi * uy * ris.dy / ris.wavelength
    k = round(x / pi)
    if abs(x - k * pi) < _SINGULARITY_SNAP:
        col = -1.0 if (k * (count - 1)) % 2 else 1.0
    else:
        col = sin(count * x) / (count * sin(x))
    return row * col


def path_loss(
    ris: RisConfig, f_tx: float, f_rx: float, d_tx: float, d_rx: float, psi_value: float
) -> float:
    """Far-field path loss of a reflected hop (linear, >= 1 in practice).

        64 pi^3 d_t^2 d_r^2
        -----------------------------------------------------------------
        G_t G_r G M^2 N^2 dx dy lambda^2 F(theta_t) F(theta_r) A^2 |psi|^2

    ``f_tx`` and ``f_rx`` are the element patterns F at the two elevations.
    Returns NO_PATH (no usable path) when either elevation falls behind the
    surface (element pattern zero), the array factor is exactly nulled, or
    the denominator underflows to zero.
    """
    if f_tx == 0.0 or f_rx == 0.0 or psi_value == 0.0:
        return NO_PATH
    numerator = 64.0 * math.pi**3 * d_tx**2 * d_rx**2
    denominator = (
        ris.gain_tx
        * ris.gain_rx
        * ris.gain_ris
        * ris.m_rows**2
        * ris.n_cols**2
        * ris.dx
        * ris.dy
        * ris.wavelength**2
        * f_tx
        * f_rx
        * ris.amplitude**2
        * psi_value**2
    )
    if denominator == 0.0:
        return NO_PATH
    return numerator / denominator


def fraunhofer_distance(ris: RisConfig) -> float:
    """Far-field boundary 2 D^2 / lambda for aperture diagonal D [m]."""
    diagonal = math.hypot(ris.m_rows * ris.dx, ris.n_cols * ris.dy)
    return 2.0 * diagonal * diagonal / ris.wavelength


def sinr(
    radio: RadioConfig,
    pl_desired: float,
    pl_interference: float,
    form: str = SINR_FORM_STANDARD,
) -> float:
    """Signal-to-interference-plus-noise ratio at the served receiver.

    ``standard`` treats P_t / PL as received signal power over noise plus
    received interference power:

        (P_t / PL) / (sigma_N^2 + P_t / PL_I)

    ``paper-literal`` evaluates the alternative algebraic form

        P_t / (PL * sigma_N^2 + P_t / PL_I)

    Both decrease in PL and increase in PL_I; pass NO_PATH for an absent
    interferer (its power contribution becomes zero).
    """
    if pl_desired <= 0.0 or pl_interference <= 0.0:
        raise ValueError("path losses must be > 0")
    interference_power = radio.tx_power / pl_interference
    if form == SINR_FORM_STANDARD:
        return (radio.tx_power / pl_desired) / (radio.noise_power + interference_power)
    if form == SINR_FORM_PAPER_LITERAL:
        return radio.tx_power / (pl_desired * radio.noise_power + interference_power)
    raise ValueError(f"unknown sinr form: {form!r}")


def rate(radio: RadioConfig, sinr_value: float) -> float:
    """Achievable rate in bit/s: efficiency * bandwidth * log2(1 + SINR)."""
    if sinr_value < 0.0:
        raise ValueError("sinr must be >= 0")
    return radio.efficiency * radio.eff_bandwidth * math.log2(1.0 + sinr_value)
