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
squeeze-operator form from specfun.squeeze_matrix, and it is the
package's only route to M: every level and gap below, and ed's
squeezed-frame solve, read it from one aa_matrix build, and the frame's
ladder from _bare_level.  The Legendre form and the small-beta expansion
above are the tests' oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, check_budget, check_count, check_parity, geometry
from .specfun import _BLOCK_ENTRIES, squeeze_matrix


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
    # beta = 1 (g = 0) evaluates exactly: squeeze_matrix returns the
    # identity at theta = 0.  Only the collapse point itself is rejected.
    geo = geometry(params)
    if geo.at_collapse:
        raise ValueError("beta = 0 at g = g_c: theta diverges, point rejected here")
    return geo.beta


def _bare_level(n, beta: float):
    """(2n + 1/2) beta - 1/2, the squeezed-frame ladder without M; n may be an array."""
    return (2 * n + 0.5) * beta - 0.5


def aa_matrix(params: ModelParams, n_max: int) -> np.ndarray:
    """Dense M_mn block, m, n = 0..n_max-1, in the squeeze-operator form.

    With A[n-1, n] = sqrt(2n(2n-1)), column n of S A reads column n - 1
    of S and column n of S A' reads column n + 1, so S is built one
    column wider.  Term for term this is the Legendre form of the module
    docstring: its shifted Legendre families are these column shifts of S.
    An entry does not depend on n_max: every operation on it, in the
    sweep and in the assembly, is elementwise.

    M is written over S's own (n_max+1)^2 buffer in row blocks: rows
    r0:r1 of M need only rows r0:r1 of S, and land at flat offsets
    [r0 n_max, r1 n_max), below where row r1 of S starts (r1 (n_max+1)).
    The result is the buffer's leading n_max^2 entries, C-contiguous.
    An S past the entry budget (model.check_budget) is rejected by its
    n_max before it is allocated.
    """
    check_count("n_max", n_max)
    _beta_of(params)  # rejects the collapse point
    check_budget(f"n_max={n_max}", (n_max + 1) ** 2)  # S, then M, in one buffer
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
    check_parity("parity", parity)
    check_count("n", n, 0)
    geo = geometry(params)
    if geo.at_collapse:
        return AALevel(n=n, parity=parity, energy=-0.5, split_part=0.0)
    m_nn = float(aa_matrix(params, n + 1)[n, n])
    return AALevel(n=n, parity=parity, energy=_bare_level(n, geo.beta) + parity * m_nn,
                   split_part=parity * m_nn)


def aa_gaps(n: int, params: ModelParams) -> tuple[float, float]:
    """(eps_sp, eps_dp) at manifold n.

    eps_sp is the same-parity gap |E_(n+1,-) - E_(n,-)| (the soft mode,
    ~ 2 beta near collapse); eps_dp the parity splitting, read as 2|M_nn|
    (~ beta^(5/2) on the critical line) as |E_(n,+) - E_(n,-)| near -1/2
    would cancel its digits.  One aa_matrix build; at g = g_c both are 0.
    """
    check_count("n", n, 0)
    geo = geometry(params)
    if geo.at_collapse:
        return 0.0, 0.0
    mat = aa_matrix(params, n + 2)
    e_minus = _bare_level(n, geo.beta) - float(mat[n, n])
    e_up = _bare_level(n + 1, geo.beta) - float(mat[n + 1, n + 1])
    return abs(e_up - e_minus), 2.0 * abs(float(mat[n, n]))


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
    that this window deliberately measures without.  M_mn and the levels
    E_m = (2m + 1/2) beta - 1/2 - M_mm all come from one aa_matrix build.
    """
    check_count("n", n, 0)
    beta = _beta_of(params)  # rejects the collapse point
    mat = aa_matrix(params, n + 41)
    ms = np.arange(max(0, n - 40), n + 41)
    ms = ms[ms != n]
    m_mn = mat[ms, n]
    gaps = (_bare_level(n, beta) - mat[n, n]) - (_bare_level(ms, beta) - mat[ms, ms])
    ratio = m_mn / gaps
    return math.sqrt(float(np.sum(ratio * ratio))), float(np.sum(m_mn * m_mn / gaps))
