"""Linear coupling quenches and their residual-energy scaling.

The protocol ramps g(t) = g_f t / tau_q from the decoupled ground state
(the n = 0 basis state of the q=1/4, parity -1 block) and measures the
residual energy E_r = <psi(tau_q)|H(g_f)|psi(tau_q)> - E_0(g_f).

Propagation uses Crank-Nicolson steps with the coupling evaluated at
the midpoint of each step: the Cayley transform of a Hermitian
tridiagonal block is exactly unitary, so the norm is conserved to
roundoff, and accuracy is certified by rerunning at half the step until
E_r is stable to 1%.  E_0(g_f) comes from a separate eigensolve with
its own truncation doubling (near collapse the true ground state needs
a far larger basis than the propagated, frozen-out state ever
occupies); the propagation basis is gated by requiring the occupancy of
its top 10% of states to stay below 1e-8.

Freeze-out bookkeeping (zv = 1/2 fixed):

    g_K / g_c        = 1 - (4 sqrt(2) tau_q)^(-2/3)
    E_r (adiabatic)  = tau_q^-2 (g_f^2/g_c^2) / [16 (1 - g_f^2/g_c^2)^(5/2)]
    E_r (frozen)     = tau_q^-2 (4 sqrt(2) tau_q)^(5/3) / 16   (~ tau_q^(-1/3))

kz_predict evaluates these closed forms; kz_sweep measures slopes
independently of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgtsv

from .ed import build_parity_block, converge, tridiag_apply
from .errors import ConvergenceError
from .model import ModelParams, check_count, check_finite, critical_params

Z_NU = 0.5  # soft-mode gap exponent entering every closed form here

_NORM_DRIFT_TARGET = 1e-9
_LEAK_TARGET = 1e-8
_ER_REL_TOL = 1e-2
_E0_CEILING = 131072


@dataclass(frozen=True)
class QuenchProtocol:
    """Linear ramp g(t) = g_f t / tau_q at fixed Delta (default: critical)."""

    g_f: float
    tau_q: float
    r: float
    delta: float | None = None
    n_max: int = 256
    dt: float | None = None

    def __post_init__(self):
        g_c, delta_c = critical_params(self.r)
        check_finite(g_f=self.g_f, tau_q=self.tau_q, delta=self.delta, dt=self.dt)
        if not 0.0 < self.g_f < g_c:
            raise ValueError(f"g_f={self.g_f} must lie strictly inside (0, g_c={g_c})")
        if self.tau_q <= 0.0:
            raise ValueError("tau_q must be positive")
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        if self.delta is None:
            object.__setattr__(self, "delta", delta_c)

    @property
    def params_final(self) -> ModelParams:
        return ModelParams(delta=self.delta, g=self.g_f, r=self.r)

    def default_dt(self) -> float:
        # resolves both the bare oscillator period and the ramp scale
        return min(0.01, self.tau_q / 1e5)


@dataclass(frozen=True)
class QuenchResult:
    residual_energy: float
    norm_drift: float
    n_max: int
    dt: float
    ground_energy: float
    samples: np.ndarray | None = None  # columns: t, g, <H(g)>, |<ground(g)|psi>|


@dataclass(frozen=True)
class KZPrediction:
    g_k: float
    e_r_adiabatic: float
    e_r_kz: float


def ground_energy_final(protocol: QuenchProtocol, tol: float = 1e-10) -> float:
    """E_0 at g_f from a dedicated eigensolve with truncation doubling."""

    def solve(n: int) -> float:
        block = build_parity_block(protocol.params_final, -1, n)
        return float(eigh_tridiagonal(block.diag, protocol.g_f * block.coupling,
                                      eigvals_only=True, select="i", select_range=(0, 0))[0])

    e_cur, e_prev, _ = converge(solve, max(protocol.n_max, 256), _E0_CEILING,
                                lambda new, old: abs(new - old) < tol)
    if e_prev is None or abs(e_cur - e_prev) >= tol:
        raise ConvergenceError(
            f"ground energy at g_f not converged to {tol:.0e} below n_max={_E0_CEILING}"
        )
    return e_cur


def _propagate_once(
    protocol: QuenchProtocol, n_max: int, dt: float, n_samples: int, e0: float
) -> tuple[float, float, float, list[tuple[float, float, float, float]]]:
    """One Crank-Nicolson run; returns (E_r, norm_drift, leak, samples)."""
    block = build_parity_block(protocol.params_final, -1, n_max)
    diag, coupling = block.diag, block.coupling
    psi = np.zeros(n_max, dtype=complex)
    psi[0] = 1.0

    n_steps = max(1, int(round(protocol.tau_q / dt)))
    dt = protocol.tau_q / n_steps
    half = 0.5j * dt
    one_plus = 1.0 + half * diag

    sample_every = max(1, n_steps // n_samples) if n_samples else 0
    samples: list[tuple[float, float, float, float]] = []

    rate = protocol.g_f / protocol.tau_q
    for step in range(n_steps):
        g_mid = rate * (step + 0.5) * dt
        t_mid = g_mid * coupling
        rhs = psi - half * tridiag_apply(diag, t_mid, psi)
        dl = half * t_mid
        _, _, _, psi, info = zgtsv(dl, one_plus.copy(), dl.copy(), rhs)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (LAPACK info={info})")
        if n_samples and (step + 1) % sample_every == 0:
            t_now = (step + 1) * dt
            g_now = rate * t_now
            t_vec = g_now * coupling
            _, v = eigh_tridiagonal(diag, t_vec, select="i", select_range=(0, 0))
            overlap = abs(complex(np.vdot(v[:, 0], psi)))
            energy = float(np.real(np.vdot(psi, tridiag_apply(diag, t_vec, psi))))
            samples.append((t_now, g_now, energy, overlap))

    norm_drift = abs(float(np.linalg.norm(psi)) - 1.0)
    leak = float(np.sum(np.abs(psi[int(0.9 * n_max):]) ** 2))
    h_psi = tridiag_apply(diag, protocol.g_f * coupling, psi)
    return float(np.real(np.vdot(psi, h_psi))) - e0, norm_drift, leak, samples


def propagate(
    protocol: QuenchProtocol,
    n_samples: int = 0,
    check_truncation: bool = False,
) -> QuenchResult:
    """Run the quench; report E_r only once dt-halving moves it by < 1%.

    Raises ConvergenceError on norm drift above 1e-9, on basis leakage
    (top decile occupancy above 1e-8 at n_max, 2 n_max and 4 n_max), on
    dt non-convergence (three halvings), and, with check_truncation,
    when doubling n_max moves E_r by more than 1%.
    """
    check_count("n_samples", n_samples, 0)
    e0 = ground_energy_final(protocol)
    dt = protocol.dt if protocol.dt is not None else protocol.default_dt()

    for n_max in (protocol.n_max, 2 * protocol.n_max, 4 * protocol.n_max):
        e_r, drift, leak, samples_raw = _propagate_once(protocol, n_max, dt, n_samples, e0)
        if leak <= _LEAK_TARGET:
            break
    else:
        raise ConvergenceError(f"basis leakage {leak:.2e} above {_LEAK_TARGET:.0e} at n_max={n_max}")
    if drift > _NORM_DRIFT_TARGET:
        raise ConvergenceError(f"norm drift {drift:.2e} above {_NORM_DRIFT_TARGET:.0e}")

    def e_r_at(halvings: int, e_r_first: float = e_r) -> float:
        # rung h runs at dt / h; the first rung is the leakage run above
        if halvings == 1:
            return e_r_first
        return _propagate_once(protocol, n_max, dt / halvings, 0, e0)[0]

    def held(new: float, old: float) -> bool:
        return abs(new - old) <= _ER_REL_TOL * max(abs(new), 1e-300)

    e_r_fine, e_r, halvings = converge(e_r_at, 1, 8, held)
    if not held(e_r_fine, e_r):
        raise ConvergenceError(
            f"E_r not stable to {_ER_REL_TOL:.0%} under dt halving (last dt={dt / halvings:.2e})"
        )
    dt /= halvings // 2  # report the coarser step of the held pair

    if check_truncation:
        e_r_dbl = _propagate_once(protocol, 2 * n_max, dt, 0, e0)[0]
        if not held(e_r_dbl, e_r):
            raise ConvergenceError(
                f"E_r moves by {abs(e_r_dbl - e_r):.2e} (> 1%) when doubling n_max={n_max}"
            )

    samples = np.array(samples_raw) if n_samples else None
    return QuenchResult(
        residual_energy=e_r,
        norm_drift=drift,
        n_max=n_max,
        dt=dt,
        ground_energy=e0,
        samples=samples,
    )


def kz_predict(tau_q: float, params: ModelParams) -> KZPrediction:
    """Freeze-out coupling and both residual-energy regimes for this tau_q.

    zv is pinned to 1/2 here; measured slopes (kz_sweep + fits) stay
    independent of these closed forms.
    """
    if tau_q <= 1.0:
        raise ValueError("freeze-out formulas assume tau_q > 1")
    g_c = params.g_c
    g_k = g_c * (1.0 - (4.0 * math.sqrt(2.0) * tau_q) ** (-1.0 / (3.0 * Z_NU)))
    ratio_sq = (params.g / g_c) ** 2
    e_ad = tau_q**-2 * ratio_sq / (16.0 * (1.0 - ratio_sq) ** (5.0 * Z_NU))
    e_kz = tau_q**-2 * (4.0 * math.sqrt(2.0) * tau_q) ** (5.0 / 3.0) / 16.0
    return KZPrediction(g_k=g_k, e_r_adiabatic=e_ad, e_r_kz=e_kz)


def kz_sweep(
    g_f: float,
    tau_list: np.ndarray | list[float],
    params: ModelParams,
    n_max: int = 256,
    dt: float | None = None,
    n_samples: int = 0,
) -> list[dict]:
    """Residual energy across quench times; unconverged points are flagged.

    params supplies (delta, r); g_f is the common endpoint.  Each point
    carries its own dt-halving and truncation checks; failures mark the
    row converged=False rather than aborting the sweep.  "samples" holds
    the run's n_samples trajectory samples (None if 0 or unconverged).
    """
    taus = [float(t) for t in tau_list]

    def one(tau_q: float) -> dict:
        protocol = QuenchProtocol(g_f=g_f, tau_q=tau_q, r=params.r, delta=params.delta,
                                  n_max=n_max, dt=dt)
        row = {
            "g_f_over_gc": g_f / params.g_c,
            "tau_q": tau_q,
            "e_r": math.nan,
            "norm_drift": math.nan,
            "n_max": protocol.n_max,
            "dt": protocol.dt if protocol.dt is not None else protocol.default_dt(),
            "converged": False,
            "samples": None,
        }
        try:
            res = propagate(protocol, n_samples=n_samples, check_truncation=True)
        except ConvergenceError:
            return row
        row.update(
            e_r=res.residual_energy,
            norm_drift=res.norm_drift,
            n_max=res.n_max,
            dt=res.dt,
            converged=True,
            samples=res.samples,
        )
        return row

    return [one(t) for t in taus]
