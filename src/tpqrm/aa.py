"""Closed-form spectrum in the decoupled-manifold (adiabatic) approximation.

In the squeezed frame the even-sector Hamiltonian is a harmonic ladder
(2n + 1/2) beta - 1/2 coupled across photonic manifolds by matrix
elements M_mn(beta).  Dropping the off-diagonal couplings gives the
closed-form levels

    E_(n,p) = (2n + 1/2) beta - 1/2 + p * M_nn(beta),  p = +-1,

where the parity label p enters exactly as written: the sign that
multiplies M_nn IS the Z2 parity, which makes these labels directly
comparable to the exact-diagonalization blocks.  The (-1)^n inside
M_nn then produces the alternating parity order of the level ladder.

M_mn in terms of associated Legendre functions (conventions pinned in
specfun):

    M_mn = (-1)^m sqrt(beta) sqrt((2n)!/(2m)!) [ (Delta/2) P_(m+n)^(m-n)
           - g(1-r)/2 ( P_(m+n-1)^(m-n+1) - (2n+1)(2n+2) P_(m+n+1)^(m-n-1) ) ]

with everything evaluated at argument beta.  For beta << 1 this reduces
to the expansion

    M_mn ~ (-1)^(m+n) (sqrt(beta)/2) K_mn [ delta + alpha_mn beta^2 ],

    K_mn     = sqrt((2m-1)!!(2n-1)!!/((2m)!!(2n)!!)) (1-beta^2)^(|m-n|/2)
    alpha_mn = (2m+1)((5n+1) Delta_c - n Delta) - 2n Delta_c
    delta    = Delta - Delta_c.

The same coupling is the qubit term seen through the squeeze operator,

    M = D [ (Delta/2) S - g(1-r)/2 S (A - A') ],

with S = S(2 theta) and A = a^2 on the even manifolds and
D = diag((-1)^m).  aa_matrix builds the dense block in this
squeeze-operator form from specfun.squeeze_matrix; aa_matrix_element
evaluates the Legendre form one element at a time, and the tests
cross-check the two.  The small-beta expansion serves as a further
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, check_count, geometry
from .specfun import _BLOCK_ENTRIES, log_double_factorial, squeeze_matrix, squeeze_term


@dataclass(frozen=True)
class AAMatrixElement:
    """One manifold-coupling element, exact and expanded forms side by side."""

    m: int
    n: int
    value: float
    k_factor: float
    alpha: float
    small_beta_value: float


@dataclass(frozen=True)
class AALevel:
    n: int
    parity: int
    energy: float
    split_part: float


@dataclass(frozen=True)
class GroundStateObservables:
    """Ground-state expectation values; x = a + a', p = i(a' - a), vacuum dx = dp = 1."""

    photon: float
    sigma_x: float
    dx: float
    dp: float


def _beta_of(params: ModelParams) -> float:
    # beta = 1 (g = 0) evaluates exactly through the Legendre forms;
    # only the collapse point itself is rejected.
    geo = geometry(params)
    if geo.at_collapse:
        raise ValueError("beta = 0 at g = g_c: theta diverges, point rejected here")
    return geo.beta


def _m_element_value(m: int, n: int, params: ModelParams) -> float:
    """Exact Legendre form of M_mn; each term assembled in log space."""
    geo = geometry(params)
    beta, tanh2 = geo.beta, math.tanh(2.0 * geo.theta) ** 2
    total = 0.5 * params.delta * squeeze_term(m, n, 0, beta, tanh2)
    if params.g != 0.0 and params.r != 1.0:
        total -= 0.5 * params.g * (1.0 - params.r) * (
            squeeze_term(m, n, -1, beta, tanh2)
            - (2 * n + 1) * (2 * n + 2) * squeeze_term(m, n, +1, beta, tanh2)
        )
    return (-1.0) ** m * total


def k_factor(m: int, n: int, beta: float) -> float:
    log_k = 0.5 * (
        log_double_factorial(2 * m - 1)
        + log_double_factorial(2 * n - 1)
        - log_double_factorial(2 * m)
        - log_double_factorial(2 * n)
    )
    return math.exp(log_k) * (1.0 - beta * beta) ** (abs(m - n) / 2.0)


def alpha_coefficient(m: int, n: int, delta: float, delta_c: float) -> float:
    return (2 * m + 1) * ((5 * n + 1) * delta_c - n * delta) - 2 * n * delta_c


def aa_matrix_element(m: int, n: int, params: ModelParams) -> AAMatrixElement:
    """Manifold-coupling element M_mn, with its small-beta companion.

    Requires 0 <= g < g_c (beta in (0, 1]; the collapse point is
    rejected).  The exact value and the expansion agree to relative
    O(beta^2) as beta -> 0.
    """
    if m < 0 or n < 0:
        raise ValueError("manifold indices must be >= 0")
    beta = _beta_of(params)
    value = _m_element_value(m, n, params)
    kf = k_factor(m, n, beta)
    al = alpha_coefficient(m, n, params.delta, params.delta_c)
    delta_det = params.delta - params.delta_c
    small = (-1.0) ** (m + n) * 0.5 * math.sqrt(beta) * kf * (delta_det + al * beta * beta)
    return AAMatrixElement(m=m, n=n, value=value, k_factor=kf, alpha=al, small_beta_value=small)


def aa_matrix(params: ModelParams, n_max: int) -> np.ndarray:
    """Dense M_mn block, m, n = 0..n_max-1, in the squeeze-operator form.

    With A[n-1, n] = sqrt(2n(2n-1)), column n of S A reads column n - 1
    of S and column n of S A' reads column n + 1, so S is built one
    column wider.  Term for term this is aa_matrix_element's Legendre
    form: its shifted Legendre families are these column shifts of S.

    M is written over S's own (n_max+1)^2 buffer in row blocks: rows
    r0:r1 of M need only rows r0:r1 of S, and land at flat offsets
    [r0 n_max, r1 n_max), below where row r1 of S starts (r1 (n_max+1)).
    The result is the buffer's leading n_max^2 entries, C-contiguous.
    """
    check_count("n_max", n_max)
    _beta_of(params)  # rejects the collapse point
    s = squeeze_matrix(geometry(params).theta, n_max + 1).entries
    flat = s.reshape(-1)
    n = np.arange(n_max)
    lowering = np.sqrt(2.0 * n[1:] * (2.0 * n[1:] - 1.0))
    raising = np.sqrt((2.0 * n + 1.0) * (2.0 * n + 2.0))
    rows = max(1, _BLOCK_ENTRIES // n_max)
    for r0 in range(0, n_max, rows):
        r1 = min(r0 + rows, n_max)
        s_rows = s[r0:r1]
        m = np.zeros((r1 - r0, n_max))  # S(A - A'), then M in place
        np.multiply(s_rows[:, : n_max - 1], lowering, out=m[:, 1:])
        m -= s_rows[:, 1:] * raising
        m *= -0.5 * params.g * (1.0 - params.r)
        m += 0.5 * params.delta * s_rows[:, :n_max]
        m *= (-1.0) ** n[r0:r1, None]
        flat[r0 * n_max : r1 * n_max] = m.reshape(-1)
    return flat[: n_max * n_max].reshape(n_max, n_max)


def aa_energy(n: int, parity: int, params: ModelParams) -> AALevel:
    """Closed-form level E_(n, parity); at g = g_c every level is -1/2."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    if n < 0:
        raise ValueError("manifold index must be >= 0")
    geo = geometry(params)
    if geo.at_collapse:
        return AALevel(n=n, parity=parity, energy=-0.5, split_part=0.0)
    diag = (2 * n + 0.5) * geo.beta - 0.5
    m_nn = _m_element_value(n, n, params)
    return AALevel(n=n, parity=parity, energy=diag + parity * m_nn, split_part=parity * m_nn)


def aa_gaps(n: int, params: ModelParams) -> tuple[float, float]:
    """(eps_sp, eps_dp) at manifold n.

    eps_sp is the same-parity gap |E_(n+1,-) - E_(n,-)| (the soft mode,
    ~ 2 beta near collapse); eps_dp the parity splitting
    |E_(n,+) - E_(n,-)| = 2|M_nn| (~ beta^(5/2) on the critical line).
    """
    e_minus = aa_energy(n, -1, params).energy
    e_up = aa_energy(n + 1, -1, params).energy
    e_plus = aa_energy(n, +1, params).energy
    return abs(e_up - e_minus), abs(e_plus - e_minus)


def aa_observables(params: ModelParams) -> GroundStateObservables:
    """Closed-form ground-state observables on the critical line.

    photon = (1-beta)/(2 beta), <sigma_x> = sqrt(beta),
    dx = dp = beta^(-1/2).  Derived for Delta = Delta_c; away from it
    these are the leading decoupled-manifold values.
    """
    beta = _beta_of(params)
    return GroundStateObservables(
        photon=(1.0 - beta) / (2.0 * beta),
        sigma_x=math.sqrt(beta),
        dx=1.0 / math.sqrt(beta),
        dp=1.0 / math.sqrt(beta),
    )


def aa_qfi_leading(params: ModelParams) -> float:
    """Leading coupling-sensitivity (QFI) on the critical line: (1+r)^2 / (2 beta^4)."""
    beta = _beta_of(params)
    return (1.0 + params.r) ** 2 / (2.0 * beta**4)


def second_order_corrections(params: ModelParams, n: int) -> tuple[float, float]:
    """Truncated perturbative corrections beyond the decoupled-manifold levels.

    Returns (state_corr, energy_corr) for the parity -1 level n: the
    first-order state-correction norm sqrt(sum_m (M_mn/(E_n - E_m))^2)
    and the second-order energy shift sum_m M_mn^2/(E_n - E_m), both over
    the band |m - n| <= 40.  The K_mn envelope (1-beta^2)^(|m-n|/2) bounds
    the omitted band tail geometrically at fixed band; note the full
    (untruncated) sum also carries an m ~ 1/beta^2 tail contribution
    that this window deliberately measures without.
    """
    _beta_of(params)  # rejects the collapse point
    e_n = aa_energy(n, -1, params).energy
    state_sq = 0.0
    energy = 0.0
    for m in range(max(0, n - 40), n + 41):
        if m == n:
            continue
        m_mn = _m_element_value(m, n, params)
        e_m = aa_energy(m, -1, params).energy
        ratio = m_mn / (e_n - e_m)
        state_sq += ratio * ratio
        energy += m_mn * m_mn / (e_n - e_m)
    return math.sqrt(state_sq), energy
