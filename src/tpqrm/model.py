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
import numbers
from dataclasses import dataclass

CONTINUUM_EDGE = -0.5  # E_c: at g = g_c the spectrum above it is a continuum
MAX_ENTRIES = 2**23  # doubles in the largest array one call may allocate (64 MiB)


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
        g_c = self.g_c  # critical_params rejects an r outside [0, 1]
        if self.delta < 0.0:
            raise ValueError(f"qubit frequency delta={self.delta} must be >= 0")
        if self.g < 0.0:
            raise ValueError(f"coupling g={self.g} must be >= 0")
        if self.g > g_c:
            raise ValueError(f"coupling g={self.g} exceeds g_c={g_c} (spectrum unbounded below)")

    @property
    def g_c(self) -> float:
        return critical_params(self.r)[0]

    @property
    def delta_c(self) -> float:
        return critical_params(self.r)[1]


@dataclass(frozen=True)
class CriticalGeometry:
    """Derived scalars of a parameter point.

    at_collapse marks g == g_c exactly, where beta = 0 and theta
    diverges; consumers reject that point unless they explicitly
    state otherwise.
    """

    beta: float
    theta: float
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
        check_parity("parity", self.parity)


def check_finite(**fields: float | None) -> None:
    """Reject NaN and inf early, naming the first offending field; None (unset) passes."""
    for name, value in fields.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")


def check_positive(**fields: float | None) -> None:
    """Reject values that are not finite and above zero, naming the first; None (unset) passes."""
    for name, value in fields.items():
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{name}={value} must be finite and positive")


def check_count(name: str, value: int, least: int = 1) -> None:
    """Reject a count that is not an integer (bool included) or is below least, by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value} must be an integer")
    if value < least:
        raise ValueError(f"{name}={value} must be >= {least}")


def check_budget(name: str, entries: float, array: str = "an array of {:.3g} entries") -> None:
    """Reject an input whose largest array would pass MAX_ENTRIES doubles, before it is allocated.

    name states the input ("n_max=4096"), and array describes the array
    with a {} for its size.  A float count that overflows is rejected too.
    """
    if entries > MAX_ENTRIES:
        raise ValueError(f"{name} needs {array.format(entries)}, above {MAX_ENTRIES}")


def check_parity(name: str, value: int) -> None:
    """Reject a Z2 label that is not the integer +1 or -1 (bool included), by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1")


def critical_params(r: float) -> tuple[float, float]:
    """Critical coupling and qubit frequency (g_c, Delta_c) for anisotropy r."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"anisotropy r={r} outside [0, 1]")
    return 1.0 / (1.0 + r), (1.0 - r) / (1.0 + r)


def geometry(params: ModelParams) -> CriticalGeometry:
    """Critical geometry (beta, theta) of a parameter point.

    At g = g_c returns beta = 0, theta = +inf with at_collapse set.
    """
    x = params.g / params.g_c
    at_collapse = x >= 1.0
    if at_collapse:
        beta, theta = 0.0, math.inf
    else:
        beta = math.sqrt((1.0 - x) * (1.0 + x))
        theta = 0.5 * math.atanh(x)  # = (1/4) ln[(1+x)/(1-x)], without its 1e-16/x rounding
    return CriticalGeometry(beta=beta, theta=theta, at_collapse=at_collapse)

