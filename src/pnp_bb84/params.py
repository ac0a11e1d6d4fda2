"""Fixed hardware/channel parameters, scenario labels and bound conventions."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace

from .numerics import M_BRIGHT_MAX, check_range


class Scenario(str, enum.Enum):
    """The four protocol variants: decoy states or none (``uses_decoy``),
    times a finite or an asymptotic key (``finite``)."""

    NO_DECOY_INFINITE = "no_decoy_infinite"
    NO_DECOY_FINITE = "no_decoy_finite"
    DECOY_INFINITE = "decoy_infinite"
    DECOY_FINITE = "decoy_finite"

    def __init__(self, value: str) -> None:
        # plain attributes, not properties: the rate paths read them per call
        self.uses_decoy = value.startswith("decoy")
        self.finite = value.endswith("_finite")

    def check_pulse_count(self, n_pulses: float) -> float:
        """1 <= N < inf for a finite key, so that ``N * p`` cannot underflow
        to 0 for a class probability p; an asymptotic one has N = inf."""
        if self.finite:
            return check_range("n_pulses", n_pulses, 1.0, math.inf,
                               hi_open=True)
        return check_range("n_pulses", n_pulses, math.inf, math.inf)


@dataclass(frozen=True)
class PhysicalParams:
    """Hardware and channel constants of the set-up.

    Defaults describe a fibre link with Gobby-Yuan-Shields detector figures
    plus representative source-side values: a bright source of 1e6 photons
    per pulse at the receiver, a 1:99 monitoring tap, error correction 22%
    above the Shannon limit and a 1e-9 total security failure budget of which
    1e-10 is reserved for error correction.
    """

    eta_bob: float = 0.045        # receiver internal transmittance
    loss_coeff: float = 0.21      # channel loss, dB/km
    y0: float = 1.7e-6            # background yield per pulse
    e_det: float = 0.033          # intrinsic detector error rate
    e0: float = 0.5               # background error rate
    e0_vac: float = 0.5           # background error rate, vacuum class
    f_ec: float = 1.22            # error-correction inefficiency
    m_bright: float = 1e6         # mean photons per bright pulse at the source
    q_split: float = 0.01         # beam-splitter fraction sent to the encoder
    eps_total: float = 1e-9       # total security parameter
    eps_ec: float = 1e-10         # error-correction failure probability

    def __post_init__(self) -> None:
        check_range("eta_bob", self.eta_bob, 0.0, 1.0, lo_open=True)
        check_range("loss_coeff", self.loss_coeff, 0.0, math.inf, hi_open=True)
        check_range("y0", self.y0, 0.0, 1.0)
        check_range("e_det", self.e_det, 0.0, 1.0)
        check_range("e0", self.e0, 0.0, 1.0)
        check_range("e0_vac", self.e0_vac, 0.0, 1.0)
        check_range("f_ec", self.f_ec, 1.0, math.inf, hi_open=True)
        check_range("m_bright", self.m_bright, 0.0, M_BRIGHT_MAX, True)
        check_range("q_split", self.q_split, 0.0, 1.0, True, True)
        check_range("eps_total", self.eps_total, 0.0, 1.0, True, True)
        check_range("eps_ec", self.eps_ec, 0.0, self.eps_total, True, True)
        # built once: the rate paths ask for it on every evaluation
        object.__setattr__(self, "_array", tuple(
            float(getattr(self, f.name)) for f in fields(self)))

    @property
    def eps_free(self) -> float:
        """Security budget left for the optimized epsilon components."""
        return self.eps_total - self.eps_ec

    def to_array(self) -> tuple[float, ...]:
        """Flat float layout consumed by the kernels (``_kernels`` ``phys``):
        the fields in their order."""
        return self._array


# --- bound-convention toggles -------------------------------------------------
#
# Several of the security-bound expressions admit more than one defensible
# reading or construction; each toggle below names one such choice.  The
# defaults are the readings under which the four scenarios produce mutually
# consistent benchmark results (see README); ``strict()`` selects the
# never-looser construction everywhere, at a visible cost in distance.

GAIN_WITH_ETA = "with_eta"            # detection prob. uses exp(-mu*eta)
GAIN_WITHOUT_ETA = "without_eta"      # variant: exp(-mu), kept for sensitivity

COVERAGE_HALF_INSIDE = "half_inside"  # erf(delta*sqrt(M(1-q)/2))
COVERAGE_HALF_OUTSIDE = "half_outside"  # erf(delta*sqrt(M(1-q))/2)

SINGLE_PHOTON_MIXED = "mixed"         # Q1u from lower P0 + upper P1
SINGLE_PHOTON_STRICT = "strict"       # both lower bounds (never looser)

DECOY_EST_PAIRED = "paired"           # one bound per (class, n), reused everywhere
DECOY_EST_ALTERNATE = "alternate"     # zero-photon-weighted vacuum subtraction
DECOY_EST_STRICT = "strict"           # every slot bounded in the safe direction

SIFTING_EXACT = "exact"               # q = n / N_B: sampled bits carry full cost
SIFTING_HALF = "half"                 # q = 1/2 shorthand


@dataclass(frozen=True)
class BoundConventions:
    """Resolution of the ambiguous readings in the security-bound formulas."""

    gain_model: str = GAIN_WITH_ETA
    window_coverage: str = COVERAGE_HALF_INSIDE
    single_photon_mass: str = SINGLE_PHOTON_MIXED
    decoy_estimator: str = DECOY_EST_PAIRED
    sifting_factor: str = SIFTING_EXACT

    _CHOICES = {
        "gain_model": (GAIN_WITH_ETA, GAIN_WITHOUT_ETA),
        "window_coverage": (COVERAGE_HALF_INSIDE, COVERAGE_HALF_OUTSIDE),
        "single_photon_mass": (SINGLE_PHOTON_MIXED, SINGLE_PHOTON_STRICT),
        "decoy_estimator": (DECOY_EST_PAIRED, DECOY_EST_ALTERNATE,
                            DECOY_EST_STRICT),
        "sifting_factor": (SIFTING_EXACT, SIFTING_HALF),
    }

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            choices = self._CHOICES[f.name]
            if value not in choices:
                raise ValueError(f"{f.name}={value!r} not one of {choices}")
        # built once: the rate paths ask for it on every evaluation
        object.__setattr__(self, "_flags", (
            1 if self.gain_model == GAIN_WITH_ETA else 0,
            1 if self.window_coverage == COVERAGE_HALF_INSIDE else 0,
            1 if self.single_photon_mass == SINGLE_PHOTON_MIXED else 0,
            {DECOY_EST_PAIRED: 0, DECOY_EST_ALTERNATE: 1,
             DECOY_EST_STRICT: 2}[self.decoy_estimator],
            1 if self.sifting_factor == SIFTING_EXACT else 0,
        ))

    @classmethod
    def strict(cls) -> "BoundConventions":
        """Never-looser bounds: safe but noticeably shorter secure distances."""
        return cls(single_photon_mass=SINGLE_PHOTON_STRICT,
                   decoy_estimator=DECOY_EST_STRICT)

    def to_flags(self) -> tuple[int, ...]:
        """Integer layout consumed by the kernels (``_kernels`` ``flags``)."""
        return self._flags

    def replace(self, **kw) -> "BoundConventions":
        return replace(self, **kw)

