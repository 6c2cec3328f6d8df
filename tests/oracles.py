"""Per-element forms of the squeeze elements and the manifold coupling.

The package computes S and M as whole matrices (specfun.squeeze_matrix,
aa.aa_matrix, the only route to M).  These are the element-at-a-time
forms of the same quantities, under the conventions pinned in specfun's
docstring, kept here as oracles for them.  The Legendre forms

    <2m|S(2 theta)|2n> = sqrt(beta) sqrt((2n)!/(2m)!) P_(m+n)^(m-n)(beta)
    M_mn = (-1)^m sqrt(beta) sqrt((2n)!/(2m)!) [ (Delta/2) P_(m+n)^(m-n)
           - g(1-r)/2 ( P_(m+n-1)^(m-n+1) - (2n+1)(2n+2) P_(m+n+1)^(m-n-1) ) ]

have each term assembled in log space from one legendre_log_table.  For
beta << 1, M_mn has the small-beta expansion of the aa module docstring,

    M_mn ~ (-1)^(m+n) (sqrt(beta)/2) K_mn [ delta + alpha_mn beta^2 ],

    K_mn     = sqrt((2m-1)!!(2n-1)!!/((2m)!!(2n)!!)) (1-beta^2)^(|m-n|/2)
    alpha_mn = (2m+1)((5n+1) Delta_c - n Delta) - 2n Delta_c
    delta    = Delta - Delta_c,

which agrees with the exact M_mn to relative O(beta^2) as beta -> 0.
"""

from __future__ import annotations

import math

from scipy.special import gammaln

from tpqrm.model import ModelParams, geometry
from tpqrm.specfun import legendre_log_table, log_double_factorial


def legendre_pk_log(
    l: int, k: int, x: float, one_minus_x2: float | None = None
) -> tuple[float, float]:
    """(sign, log|P_l^k(x)|) for any integer degree and order, x in [0, 1]."""
    if l < 0:
        l = -l - 1
    signs, logs = legendre_log_table(k, l, x, one_minus_x2)
    return float(signs[l]), float(logs[l])


def squeeze_term(m: int, n: int, shift: int, beta: float, tanh2: float) -> float:
    """sqrt(beta (2n)!/(2m)!) P_(m+n+shift)^(m-n-shift)(beta), assembled in log space.

    tanh2 = tanh^2(2 theta) = 1 - beta^2 seeds the Legendre table; at
    small theta beta rounds to 1 and 1 - beta^2 from beta keeps no digit.
    """
    sign, log_p = legendre_pk_log(m + n + shift, m - n - shift, beta, tanh2)
    if sign == 0.0:
        return 0.0
    log_fac = 0.5 * (gammaln(2 * n + 1) - gammaln(2 * m + 1))
    return sign * math.exp(0.5 * math.log(beta) + log_fac + log_p)


def m_element_legendre(m: int, n: int, params: ModelParams) -> float:
    """Legendre form of M_mn, one element; each term assembled in log space."""
    geo = geometry(params)
    beta, tanh2 = geo.beta, math.tanh(2.0 * geo.theta) ** 2
    total = 0.5 * params.delta * squeeze_term(m, n, 0, beta, tanh2)
    if params.g != 0.0 and params.r != 1.0:
        total -= 0.5 * params.g * (1.0 - params.r) * (
            squeeze_term(m, n, -1, beta, tanh2)
            - (2 * n + 1) * (2 * n + 2) * squeeze_term(m, n, +1, beta, tanh2)
        )
    return (-1.0) ** m * total


def second_order_legendre(params: ModelParams, n: int) -> tuple[float, float]:
    """aa.second_order_corrections as a sequential loop over Legendre elements."""
    beta = geometry(params).beta

    def level(m: int) -> float:  # the parity -1 level E_m
        return (2 * m + 0.5) * beta - 0.5 - m_element_legendre(m, m, params)

    e_n = level(n)
    state_sq = 0.0
    energy = 0.0
    for m in range(max(0, n - 40), n + 41):
        if m == n:
            continue
        m_mn = m_element_legendre(m, n, params)
        e_m = level(m)
        ratio = m_mn / (e_n - e_m)
        state_sq += ratio * ratio
        energy += m_mn * m_mn / (e_n - e_m)
    return math.sqrt(state_sq), energy


def k_factor(m: int, n: int, beta: float) -> float:
    """K_mn of the small-beta expansion."""
    log_k = 0.5 * (
        log_double_factorial(2 * m - 1)
        + log_double_factorial(2 * n - 1)
        - log_double_factorial(2 * m)
        - log_double_factorial(2 * n)
    )
    return math.exp(log_k) * (1.0 - beta * beta) ** (abs(m - n) / 2.0)


def alpha_coefficient(m: int, n: int, delta: float, delta_c: float) -> float:
    """alpha_mn of the small-beta expansion."""
    return (2 * m + 1) * ((5 * n + 1) * delta_c - n * delta) - 2 * n * delta_c


def m_element_small_beta(m: int, n: int, params: ModelParams) -> float:
    """M_mn from the small-beta expansion."""
    beta = geometry(params).beta
    detuning = params.delta - params.delta_c
    alpha = alpha_coefficient(m, n, params.delta, params.delta_c)
    return ((-1.0) ** (m + n) * 0.5 * math.sqrt(beta) * k_factor(m, n, beta)
            * (detuning + alpha * beta * beta))
