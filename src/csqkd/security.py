"""Asymptotic reverse-reconciliation secret key rate for the fading channel.

The fluctuating link enters through three probability-weighted moments
(<T>, <sqrt(T)>, <eps>).  The Alice-Bob covariance matrix is

    [[ V I2,                    <sqrt(T)> sqrt(V^2-1) sigma_z ],
     [ <sqrt(T)> sqrt(V^2-1) sigma_z,  (<T>(V - 1 + <eps>) + 1) I2 ]]

with V = V_A + 1 the equivalent EPR variance.  Because <sqrt(T)>^2 <= <T>,
this equals the matrix of a deterministic channel with effective
transmittance T_eff = <sqrt(T)>^2 and a matched effective excess noise, so
the standard Gaussian-protocol closed forms apply after that substitution.

Receiver imperfections support two accounting conventions.  Under "trusted"
detection the inefficiency and electronic noise are modeled as a
beamsplitter fed by an EPR source in front of an ideal detector (the
lambda_3, lambda_4 conditional eigenvalues below, with a fifth eigenvalue
pinned at 1), and the eavesdropper gains nothing from them.  Under
"untrusted" detection (the conservative default for key rates) they are
folded into the channel before an ideal measurement, so heterodyne's extra
vacuum and doubled electronic noise count against security as well as
signal.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .channel import ProtocolParams

FLAG_INVALID_REGIME = "invalid_regime"
FLAG_UNPHYSICAL = "unphysical_covariance"

#: Symplectic eigenvalues may undershoot 1 by at most this before flagging.
PHYSICALITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ChannelSummary:
    """Ensemble moments consumed by the rate formulas."""

    t_mean: float
    sqrt_t_mean: float
    eps_mean: float
    source: str = "true"

    def __post_init__(self) -> None:
        if not 0 < self.t_mean <= 1:
            raise ValueError(f"t_mean must be in (0, 1], got {self.t_mean}")
        if self.sqrt_t_mean <= 0:
            raise ValueError(f"sqrt_t_mean must be > 0, got {self.sqrt_t_mean}")
        if self.sqrt_t_mean**2 > self.t_mean + 1e-9:
            raise ValueError(
                f"sqrt_t_mean^2 = {self.sqrt_t_mean**2} exceeds t_mean = {self.t_mean}"
            )
        if self.eps_mean < 0:
            raise ValueError(f"eps_mean must be >= 0, got {self.eps_mean}")


def summary_from_means(
    t_mean: float, sqrt_t_mean: float, eps_mean: float, source: str = "true"
) -> ChannelSummary:
    """Build a summary, clamping float shadows of the physical constraints."""
    t = min(max(t_mean, 1e-12), 1.0)
    s = min(max(sqrt_t_mean, 1e-12), math.sqrt(t))
    return ChannelSummary(
        t_mean=t, sqrt_t_mean=s, eps_mean=max(eps_mean, 0.0), source=source
    )


@dataclass(frozen=True)
class NoiseBudget:
    """Additive noise referred to the channel input, shot-noise units."""

    chi_line: float
    chi_h: float
    chi_tot: float


def detection_noise(params: ProtocolParams) -> float:
    """Detector-added noise chi_h referred to the detector input.

    Homodyne: ((1 - eta) + nu_el) / eta.  Heterodyne adds one vacuum unit and
    a second electronic-noise contribution: (1 + (1 - eta) + 2 nu_el) / eta.
    """
    eta = params.detector_efficiency
    nu = params.electronic_noise
    if params.detection == "homodyne":
        return ((1.0 - eta) + nu) / eta
    return (1.0 + (1.0 - eta) + 2.0 * nu) / eta


def noise_budget(transmittance: float, excess_noise: float, params: ProtocolParams) -> NoiseBudget:
    """Decompose the total input-referred noise: chi_tot = chi_line + chi_h / T."""
    if not 0 < transmittance <= 1:
        raise ValueError(f"transmittance must be in (0, 1], got {transmittance}")
    if excess_noise < 0:
        raise ValueError(f"excess_noise must be >= 0, got {excess_noise}")
    chi_line = 1.0 / transmittance - 1.0 + excess_noise
    chi_h = detection_noise(params)
    return NoiseBudget(
        chi_line=chi_line, chi_h=chi_h, chi_tot=chi_line + chi_h / transmittance
    )


def g_func(x: float) -> float:
    """Bosonic entropy of a thermal mode with symplectic eigenvalue x.

    ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), continuously extended
    to g(1) = 0 and strictly increasing for x > 1.
    """
    if x < 1.0 - 1e-9:
        raise ValueError(f"symplectic eigenvalue below 1: {x}")
    if x <= 1.0:
        return 0.0
    up = (x + 1.0) / 2.0
    down = (x - 1.0) / 2.0
    out = up * math.log2(up)
    if down > 0.0:
        out -= down * math.log2(down)
    return out


def _b_block(summary: ChannelSummary, params: ProtocolParams) -> float:
    v = params.epr_variance
    return summary.t_mean * (v - 1.0 + summary.eps_mean) + 1.0


def mutual_information(summary: ChannelSummary, params: ProtocolParams) -> float:
    """Alice-Bob mutual information in bits per channel use.

    Homodyne:  0.5 log2[ <T>(V+chi_tot) / (<T>(V+chi_tot) - <sqrt(T)>^2 (V-1)) ].
    Heterodyne uses both quadratures, doubling the prefactor with the
    heterodyne chi_h in chi_tot.  The channel fluctuation penalty appears
    through <sqrt(T)>^2 < <T>.  A non-positive log argument returns the
    0-rate sentinel.
    """
    v = params.epr_variance
    budget = noise_budget(summary.t_mean, summary.eps_mean, params)
    signal = summary.t_mean * (v + budget.chi_tot)
    den = signal - summary.sqrt_t_mean**2 * (v - 1.0)
    if den <= 0 or signal <= 0:
        return 0.0
    half_bits = 0.5 * math.log2(signal / den)
    return half_bits if params.detection == "homodyne" else 2.0 * half_bits


DETECTOR_NOISE_MODES = ("untrusted", "trusted")


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate decomposition with the symplectic spectrum behind it."""

    i_ab: float
    chi_be: float
    key_rate: float
    lambdas: tuple[float, float, float, float, float]
    detection: str
    flags: tuple[str, ...] = ()
    detector_noise: str = "untrusted"


def untrusted_referral(
    summary: ChannelSummary, params: ProtocolParams
) -> tuple[ChannelSummary, ProtocolParams]:
    """Fold detection loss and electronic noise into the channel.

    Returns the extended-channel summary (transmittance eta*<T>, excess noise
    raised by nu_el referred to the extended input, doubled for heterodyne's
    two electronic noise contributions) paired with ideal-detector protocol
    constants.  Alice-Bob mutual information is invariant under this
    referral; only the Holevo term changes, since the detector imperfections
    now sit inside the channel the eavesdropper controls.
    """
    eta = params.detector_efficiency
    nu = params.electronic_noise
    t_ext = eta * summary.t_mean
    nu_count = 1.0 if params.detection == "homodyne" else 2.0
    extended = ChannelSummary(
        t_mean=t_ext,
        sqrt_t_mean=math.sqrt(eta) * summary.sqrt_t_mean,
        eps_mean=summary.eps_mean + nu_count * nu / t_ext,
        source=summary.source,
    )
    ideal = dataclasses.replace(params, detector_efficiency=1.0, electronic_noise=0.0)
    return extended, ideal


def _pair_from_invariants(trace_term: float, det_term: float) -> tuple[float, float]:
    """Symplectic pair from Delta = l1^2 + l2^2 and det = (l1 l2)^2."""
    disc = math.sqrt(max(trace_term**2 - 4.0 * det_term, 0.0))
    hi = math.sqrt(max((trace_term + disc) / 2.0, 0.0))
    lo = math.sqrt(max((trace_term - disc) / 2.0, 0.0))
    return hi, lo


def holevo_bound(
    summary: ChannelSummary, params: ProtocolParams
) -> tuple[float, tuple[float, float, float, float, float], tuple[str, ...]]:
    """Eve's Holevo information on Bob's outcomes under collective attacks.

    Returns (chi_BE, (lambda_1..lambda_5), flags).  lambda_1, lambda_2 come
    from the two-mode closed form on the fading covariance matrix;
    lambda_3, lambda_4 from the post-measurement conditional matrix of the
    trusted-detector model (homodyne or heterodyne); lambda_5 = 1 exactly.
    Eigenvalues are clamped to 1 before the entropy evaluation, and anything
    below 1 - 1e-6 flags the report as unphysical.
    """
    v = params.epr_variance
    t_eff = summary.sqrt_t_mean**2
    b = _b_block(summary, params)
    c_sq = t_eff * (v**2 - 1.0)
    chi_h = detection_noise(params)

    delta = v**2 + b**2 - 2.0 * c_sq
    sqrt_det = v * b - c_sq  # product lambda_1 * lambda_2
    lam1, lam2 = _pair_from_invariants(delta, sqrt_det**2)

    # chi_line of the equivalent deterministic channel, via T_eff(V + chi) = b
    denom = b + chi_h  # = T_eff (V + chi_tot_eff)
    if params.detection == "homodyne":
        a_cond = (delta * chi_h + v * sqrt_det + b) / denom
        b_cond = sqrt_det * (v + sqrt_det * chi_h) / denom
    else:
        a_cond = (
            delta * chi_h**2
            + sqrt_det**2
            + 1.0
            + 2.0 * chi_h * (v * sqrt_det + b)
            + 2.0 * c_sq
        ) / denom**2
        b_cond = ((v + sqrt_det * chi_h) / denom) ** 2
    lam3, lam4 = _pair_from_invariants(a_cond, b_cond)
    lam5 = 1.0

    lambdas = (lam1, lam2, lam3, lam4, lam5)
    flags: tuple[str, ...] = ()
    if min(lambdas) < 1.0 - PHYSICALITY_TOLERANCE:
        flags = (FLAG_UNPHYSICAL,)
    clamped = [max(lam, 1.0) for lam in lambdas]
    chi_be = (
        g_func(clamped[0])
        + g_func(clamped[1])
        - g_func(clamped[2])
        - g_func(clamped[3])
        - g_func(clamped[4])
    )
    return chi_be, lambdas, flags


def secret_key_rate(
    summary: ChannelSummary,
    params: ProtocolParams,
    detector_noise: str = "untrusted",
) -> KeyRateReport:
    """Asymptotic reverse-reconciliation rate K = beta * I_AB - chi_BE.

    ``detector_noise`` selects how receiver imperfections are accounted:
    "untrusted" (default, conservative) hands detection loss and electronic
    noise to the eavesdropper via :func:`untrusted_referral`, which is what
    makes heterodyne's doubled electronic noise a security penalty and not
    just a signal penalty; "trusted" keeps the beamsplitter + EPR detector
    model out of the eavesdropper's reach.  Negative rates are reported
    as-is; clipping at zero is a presentation choice left to callers.
    """
    if detector_noise not in DETECTOR_NOISE_MODES:
        raise ValueError(
            f"detector_noise must be one of {DETECTOR_NOISE_MODES}, got {detector_noise!r}"
        )
    if detector_noise == "untrusted" and (
        params.detector_efficiency < 1.0 or params.electronic_noise > 0.0
    ):
        eval_summary, eval_params = untrusted_referral(summary, params)
    else:
        eval_summary, eval_params = summary, params
    i_ab = mutual_information(eval_summary, eval_params)
    flags: list[str] = []
    if i_ab == 0.0:
        flags.append(FLAG_INVALID_REGIME)
    chi_be, lambdas, holevo_flags = holevo_bound(eval_summary, eval_params)
    flags.extend(holevo_flags)
    key = params.reconciliation_efficiency * i_ab - chi_be
    return KeyRateReport(
        i_ab=i_ab,
        chi_be=chi_be,
        key_rate=key,
        lambdas=lambdas,
        detection=params.detection,
        flags=tuple(flags),
        detector_noise=detector_noise,
    )
