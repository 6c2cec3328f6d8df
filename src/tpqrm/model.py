"""Physical parameters and critical-line geometry.

The Hamiltonian (units of the mode frequency, hbar = omega = 1) is

    H = -(Delta/2) sigma_x + a'a + g (1+r)/2 sigma_z (a^2 + a'^2)
        + g (1-r)/2 i sigma_y (a^2 - a'^2)

with qubit frequency Delta >= 0, two-photon coupling g >= 0 and
anisotropy r in [0, 1].  The discrete spectrum collapses at
g_c = 1/(1+r); criticality occurs on the line Delta = Delta_c =
(1-r)/(1+r) for 0 < r < 1 (r = 1 is the isotropic model with
Delta_c = 0).

Everything downstream is parameterized by the derived quantities
collected in :class:`CriticalGeometry`:

    beta  = sqrt(1 - g^2/g_c^2)      effective oscillator frequency
    theta = (1/4) ln[(1+g/g_c)/(1-g/g_c)]   squeezing parameter

which satisfy beta = 1/cosh(2*theta) identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Inputs (Delta, g, r); the mode frequency is fixed to 1.

    g may equal g_c(r) exactly (collapse point); g > g_c is rejected
    because the spectrum is unbounded below there.
    """

    delta: float
    g: float
    r: float

    def __post_init__(self):
        check_finite(delta=self.delta, g=self.g, r=self.r)
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"anisotropy r={self.r} outside [0, 1]")
        if self.delta < 0.0:
            raise ValueError(f"qubit frequency delta={self.delta} must be >= 0")
        if self.g < 0.0:
            raise ValueError(f"coupling g={self.g} must be >= 0")
        if self.g > self.g_c:
            raise ValueError(
                f"coupling g={self.g} exceeds g_c={self.g_c} (spectrum unbounded below)"
            )

    @property
    def g_c(self) -> float:
        return 1.0 / (1.0 + self.r)

    @property
    def delta_c(self) -> float:
        return (1.0 - self.r) / (1.0 + self.r)

    @property
    def g_over_gc(self) -> float:
        return self.g / self.g_c


@dataclass(frozen=True)
class CriticalGeometry:
    """Derived scalars of a parameter point.

    at_collapse marks g == g_c exactly, where beta = 0 and theta
    diverges; consumers reject that point unless they explicitly
    state otherwise.
    """

    g_c: float
    delta_c: float
    beta: float
    theta: float
    e_collapse: float = -0.5
    at_collapse: bool = False


@dataclass(frozen=True)
class SectorSpec:
    """Symmetry sector: Bargmann index q and residual Z2 parity.

    q = 1/4 labels the even-photon subspace (the ground state lives
    here), q = 3/4 the odd one.  parity is the residual Z2 label
    within the subspace.
    """

    q: float = 0.25
    parity: int = -1

    def __post_init__(self):
        if self.q not in (0.25, 0.75):
            raise ValueError(f"Bargmann index q={self.q} must be 1/4 or 3/4")
        if self.parity not in (+1, -1):
            raise ValueError(f"parity={self.parity} must be +1 or -1")

    @property
    def even(self) -> bool:
        return self.q == 0.25


def check_finite(**fields: float | None) -> None:
    """Reject NaN and inf early, naming the first offending field; None (unset) passes."""
    for name, value in fields.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")


def check_count(name: str, value: int, least: int = 1) -> None:
    """Reject a count below least early, naming it, before it reaches a solver."""
    if value < least:
        raise ValueError(f"{name}={value} must be >= {least}")


def critical_params(r: float) -> tuple[float, float]:
    """Critical coupling and qubit frequency (g_c, Delta_c) for anisotropy r."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"anisotropy r={r} outside [0, 1]")
    return 1.0 / (1.0 + r), (1.0 - r) / (1.0 + r)


def geometry(params: ModelParams) -> CriticalGeometry:
    """Critical geometry (beta, theta) of a parameter point.

    At g = g_c returns beta = 0, theta = +inf with at_collapse set.
    """
    g_c, delta_c = critical_params(params.r)
    x = params.g / g_c
    at_collapse = x >= 1.0
    if at_collapse:
        beta, theta = 0.0, math.inf
    else:
        beta = math.sqrt((1.0 - x) * (1.0 + x))
        theta = 0.25 * math.log((1.0 + x) / (1.0 - x))
    return CriticalGeometry(
        g_c=g_c,
        delta_c=delta_c,
        beta=beta,
        theta=theta,
        at_collapse=at_collapse,
    )


def params_from_dict(cfg: dict) -> ModelParams:
    """Build ModelParams from the JSON parameter schema.

    Accepted keys: "delta" (float, or the string "critical"), "r",
    and exactly one of "g" / "g_over_gc".  Unknown keys are rejected.
    """
    allowed = {"delta", "g", "g_over_gc", "r"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    if "r" not in cfg:
        raise ValueError("missing required parameter 'r'")
    r = float(cfg["r"])
    g_c, delta_c = critical_params(r)

    if ("g" in cfg) == ("g_over_gc" in cfg):
        raise ValueError("exactly one of 'g' and 'g_over_gc' is required")
    g = float(cfg["g"]) if "g" in cfg else float(cfg["g_over_gc"]) * g_c

    if "delta" not in cfg:
        raise ValueError("missing required parameter 'delta'")
    delta = cfg["delta"]
    if delta == "critical":
        delta = delta_c
    return ModelParams(delta=float(delta), g=g, r=r)
