"""Analytic detection model: overall gain and QBER for any pulse class."""

from __future__ import annotations

import math

from . import _kernels
from .numerics import check_range
from .params import PhysicalParams


def channel_transmittance(eta_bob: float, loss_coeff: float,
                          distance_km: float) -> float:
    """One-way transmittance from the sender's output to a detection."""
    check_range("eta_bob", eta_bob, 0.0, 1.0, lo_open=True)
    check_range("loss_coeff", loss_coeff, 0.0, math.inf, hi_open=True)
    check_range("distance_km", distance_km, 0.0, math.inf, hi_open=True)
    return eta_bob * _kernels.attenuation(loss_coeff, distance_km)


def gain_and_qber(mu: float, eta: float, phys: PhysicalParams,
                  with_eta: bool = True) -> tuple[float, float]:
    """Detection probability and error rate of a class with mean intensity mu.

    ``with_eta`` keeps the receiver/channel transmittance inside the
    exponent (the physically consistent form); the variant without it is
    retained for sensitivity analysis only.
    """
    check_range("mu", mu, 0.0, math.inf, hi_open=True)
    check_range("eta", eta, 0.0, 1.0, lo_open=True)
    q, e = _kernels.gain_qber_kernel(mu, eta, phys.y0, phys.e_det, phys.e0,
                                     1 if with_eta else 0)
    if q == 0.0:
        raise ValueError(f"the gain is 0 at mu={mu}, eta={eta}, y0={phys.y0}, "
                         f"so the qber is undefined")
    return q, check_range("qber", e, 0.0, 1.0)


def vacuum_observables(phys: PhysicalParams) -> tuple[float, float]:
    """Gain and error rate of the vacuum class: pure background clicks."""
    return phys.y0, phys.e0_vac
