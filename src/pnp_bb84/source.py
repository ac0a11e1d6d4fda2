"""Model of the untrusted source as seen through the passive monitoring tap.

The sender cannot trust the photon-number statistics of the light reaching
her device, but pulses whose monitored photon number falls inside the window
``[(1-delta) m_a, (1+delta) m_a]`` ("untagged") admit binomial envelopes on
the photon number they leave with.  The passive beam-splitter arrangement is
analysed through its equivalent active one, which substitutes the effective
transmittance ``lambda' = lambda q/(1-q)`` into those envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .numerics import check_probability, statistical_deviation
from .params import PhysicalParams


class WindowConditionError(ValueError):
    """The sub-single-photon window condition does not hold."""


@dataclass(frozen=True)
class SourceConfig:
    """Source-side state for one pulse class at one separation.

    ``lam`` is the internal attenuator transmittance of the class under
    consideration; ``delta`` the untagged-window half-width.
    """

    m_bright: float
    q_split: float
    loss_coeff: float
    distance_km: float
    delta: float
    lam: float

    def __post_init__(self) -> None:
        # every check is written so that nan fails it
        if not 0.0 < self.m_bright < math.inf:
            raise ValueError("m_bright must be finite and positive")
        if not 0 < self.q_split < 1:
            raise ValueError("q_split must lie strictly in (0, 1)")
        if not (0.0 <= self.loss_coeff < math.inf
                and 0.0 <= self.distance_km < math.inf):
            raise ValueError("loss_coeff and distance_km must be finite and "
                             "non-negative")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and non-negative")
        if not 0 <= self.lam <= 1:
            raise ValueError("lam must lie in [0, 1]")
        if self.lambda_prime > 1:
            raise ValueError("effective transmittance lambda' exceeds 1")

    @classmethod
    def from_params(cls, phys: PhysicalParams, distance_km: float,
                    delta: float, lam: float) -> "SourceConfig":
        return cls(m_bright=phys.m_bright, q_split=phys.q_split,
                   loss_coeff=phys.loss_coeff, distance_km=distance_km,
                   delta=delta, lam=lam)

    @property
    def m_a(self) -> float:
        """Mean photon number per pulse reaching the sender's device."""
        return self.m_bright * 10.0 ** (-self.loss_coeff * self.distance_km / 10.0)

    @property
    def lambda_prime(self) -> float:
        """Transmittance of the equivalent active arrangement."""
        return self.lam * self.q_split / (1.0 - self.q_split)

    @property
    def window_valid(self) -> bool:
        """Whether the envelopes of `photon_bound_*` apply at this point."""
        return (1.0 + self.delta) * self.m_a * self.lambda_prime < 1.0

    def require_window(self) -> None:
        if not self.window_valid:
            raise WindowConditionError(
                f"window condition violated: (1+delta) m_a lambda' = "
                f"{(1 + self.delta) * self.m_a * self.lambda_prime:.6g} >= 1")


@dataclass(frozen=True)
class PhotonBounds:
    """Upper/lower photon-number probability envelopes of one pulse class."""

    config: SourceConfig

    def __post_init__(self) -> None:
        self.config.require_window()

    @property
    def window(self) -> tuple[float, float]:
        m_a = self.config.m_a
        return ((1.0 - self.config.delta) * m_a,
                (1.0 + self.config.delta) * m_a)

    def upper(self, n: int) -> float:
        return photon_bound_upper(self.config, n)

    def lower(self, n: int) -> float:
        return photon_bound_lower(self.config, n)


def mean_output_intensity(cfg: SourceConfig) -> float:
    """Mean photon number of the pulses returned to the receiver."""
    return cfg.m_a * cfg.lam * cfg.q_split


def photon_bound_upper(cfg: SourceConfig, n: int) -> float:
    """Upper envelope of the emitted photon-number probability at n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    cfg.require_window()
    value = _kernels.photon_upper_kernel(cfg.m_a, cfg.delta, cfg.lambda_prime, n)
    return check_probability(value, "photon_bound_upper")


def photon_bound_lower(cfg: SourceConfig, n: int) -> float:
    """Lower envelope of the emitted photon-number probability at n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    cfg.require_window()
    value = _kernels.photon_lower_kernel(cfg.m_a, cfg.delta, cfg.lambda_prime, n)
    return check_probability(value, "photon_bound_lower")


def untagged_probability_infinite(cfg: SourceConfig,
                                  half_inside: bool = True) -> float:
    """Asymptotic probability that a pulse is untagged.

    ``half_inside`` selects the default reading of the coverage argument,
    ``delta*sqrt(m_a(1-q)/2)``; the alternative places the 1/2 outside the
    square root (kept for sensitivity checks).
    """
    value = _kernels.coverage_kernel(cfg.delta, cfg.m_a, cfg.q_split,
                                     1 if half_inside else 0)
    return check_probability(value, "untagged_probability")


def untagged_probability_finite(cfg: SourceConfig, epsilon_u: float,
                                n_pulses: float,
                                half_inside: bool = True) -> float:
    """Untagged-probability lower bound after the finite-sample deviation.

    Clamped at zero; the tagged upper bound is one minus the returned value.
    """
    p_inf = untagged_probability_infinite(cfg, half_inside)
    return max(0.0, p_inf - statistical_deviation(epsilon_u, n_pulses))
