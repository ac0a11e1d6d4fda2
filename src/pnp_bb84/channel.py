"""Analytic detection model: overall gain and QBER for any pulse class."""

from __future__ import annotations

from . import _kernels
from .numerics import check_probability
from .params import PhysicalParams


def channel_transmittance(eta_bob: float, loss_coeff: float,
                          distance_km: float) -> float:
    """One-way transmittance from the sender's output to a detection."""
    if distance_km < 0:
        raise ValueError("distance_km must be non-negative")
    return eta_bob * _kernels.attenuation(loss_coeff, distance_km)


def gain_and_qber(mu: float, eta: float, phys: PhysicalParams,
                  with_eta: bool = True) -> tuple[float, float]:
    """Detection probability and error rate of a class with mean intensity mu.

    ``with_eta`` keeps the receiver/channel transmittance inside the
    exponent (the physically consistent form); the variant without it is
    retained for sensitivity analysis only.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    q, e = _kernels.gain_qber_kernel(mu, eta, phys.y0, phys.e_det, phys.e0,
                                     1 if with_eta else 0)
    return q, check_probability(e, "qber")


def vacuum_observables(phys: PhysicalParams) -> tuple[float, float]:
    """Gain and error rate of the vacuum class: pure background clicks."""
    return phys.y0, phys.e0_vac
