import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval
from scipy.linalg import eig, eigh_tridiagonal
from scipy.optimize import minimize_scalar
from scipy.special import eval_genlaguerre, gammaln

import oracles
from tpqrm import aa, ed, specfun
from tpqrm.aa import aa_energy, aa_observables, aa_qfi_leading
from tpqrm.analysis import make_grid
from tpqrm.errors import ConvergenceError
from tpqrm.model import CONTINUUM_EDGE, ModelParams, SectorSpec, critical_params, geometry
from tpqrm.quench import adiabatic_reference
from tpqrm.specfun import squeeze_element


def at_beta(r: float, beta: float, delta: float | None = None) -> ModelParams:
    g_c, delta_c = critical_params(r)
    return ModelParams(
        delta=delta_c if delta is None else delta, g=g_c * math.sqrt(1 - beta * beta), r=r
    )


# ---------------------------------------------------------------- blocks

def dense_hamiltonian(params: ModelParams, n_fock: int) -> np.ndarray:
    """Full Hamiltonian on spin (x) Fock(0..n_fock-1); real because i sigma_y is real."""
    n = np.arange(n_fock)
    a = np.diag(np.sqrt(n[1:].astype(float)), 1)
    a2 = a @ a
    ad2 = a2.T
    num = np.diag(n.astype(float))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    return (
        -0.5 * params.delta * np.kron(sx, np.eye(n_fock))
        + np.kron(eye2, num)
        + 0.5 * params.g * (1 + params.r) * np.kron(sz, a2 + ad2)
        + 0.5 * params.g * (1 - params.r) * np.kron(isy, a2 - ad2)
    )


def verify_block_projection(
    params: ModelParams, parity: int, n_max: int, q: float = 0.25
) -> float:
    """Max entrywise deviation of the tridiagonal block from the dense projection.

    Builds the (|up,f_n> + s_n|down,f_n>)/sqrt(2) basis explicitly and
    projects the dense Hamiltonian onto it; the derived closed form
    must reproduce that to machine precision.
    """
    off = ed._fock_offset(q)
    n_fock = 2 * n_max + off + 2
    h = dense_hamiltonian(params, n_fock)
    basis = np.zeros((2 * n_fock, n_max))
    for n in range(n_max):
        s = -parity * (-1) ** n
        f = 2 * n + off
        basis[f, n] = 1.0 / math.sqrt(2.0)
        basis[n_fock + f, n] = s / math.sqrt(2.0)
    projected = basis.T @ h @ basis
    block = ed.build_parity_block(params, parity, n_max, q)
    tri = np.diag(block.diag) + np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
    return float(np.abs(projected - tri).max())


@pytest.mark.parametrize("q", [0.25, 0.75])
@pytest.mark.parametrize("parity", [+1, -1])
@pytest.mark.parametrize(
    "delta,g,r", [(0.7, 0.4, 0.6), (0.6, 0.76, 0.25), (0.0, 0.3, 1.0), (0.25, 0.625, 0.6)]
)
def test_block_matches_dense_projection(delta, g, r, parity, q):
    assert verify_block_projection(
        ModelParams(delta=delta, g=g, r=r), parity, 14, q
    ) < 1e-12


@given(
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    parity=st.sampled_from([+1, -1]),
    q=st.sampled_from([0.25, 0.75]),
)
def test_block_matches_dense_projection_everywhere(delta, frac, r, parity, q):
    # the closed-form block is the dense Hamiltonian's projection, up to g = g_c
    p = ModelParams(delta=delta, g=frac / (1.0 + r), r=r)
    assert verify_block_projection(p, parity, 14, q) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.05, 0.9),
    parity=st.sampled_from([+1, -1]),
)
def test_hellmann_feynman_block_coupling(r, delta, frac, parity):
    # dE0/dg = <0| dH/dg |0> holds exactly in the truncated block
    g_c, n = 1.0 / (1.0 + r), 96
    g, h = frac * g_c, 1e-5 * g_c

    def e0(coupling: float) -> float:
        return ed.lowest_level(ModelParams(delta=delta, g=coupling, r=r), parity, n)

    block = ed.build_parity_block(ModelParams(delta=delta, g=g, r=r), parity, n)
    assert np.allclose(block.offdiag, g * block.coupling, rtol=1e-15, atol=0.0)
    _, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
    expected = float(v[:, 0] @ ed.tridiag_apply(np.zeros(n), block.coupling, v[:, 0]))
    central = (e0(g + h) - e0(g - h)) / (2.0 * h)
    assert abs(central - expected) < 1e-6 * max(1.0, abs(expected))


def _whole_array_block(params: ModelParams, parity: int, n: int, q: float):
    """build_parity_block as whole-array expressions, the oracle of its in-place build."""
    s = np.full(n, -float(parity))
    s[1::2] = parity
    f = 2 * np.arange(n) + ed._fock_offset(q)
    diag = f - 0.5 * params.delta * s
    root = np.sqrt((f[:-1] + 1.0) * (f[:-1] + 2.0))
    mix = (1 + params.r) - (1 - params.r) * s[:-1]
    return diag, params.g * root * mix / 2.0, root * mix / 2.0


@settings(max_examples=80, deadline=None)
@given(
    r=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    delta=st.floats(0.0, 3.0),
    frac=st.just(1.0) | st.floats(0.0, 1.0),
    parity=st.sampled_from([+1, -1]),
    q=st.sampled_from([0.25, 0.75]),
    n=st.sampled_from([2, 3, 2**17 - 1, 2**17]) | st.integers(2, 2**17),
)
def test_block_build_is_bitwise_the_whole_array_expressions(r, delta, frac, parity, q, n):
    p = ModelParams(delta=delta, g=frac / (1.0 + r), r=r)  # frac = 1 is g = g_c exactly
    block = ed.build_parity_block(p, parity, n, q)
    for got, want in zip((block.diag, block.offdiag, block.coupling),
                         _whole_array_block(p, parity, n, q)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", [5e-324, 2.2250738585072014e-308, 1e-300, 2.0**-969, 2.0**-968])
@pytest.mark.parametrize("r", [0.6, 2.220446049250313e-16])
def test_block_build_is_bitwise_at_a_subnormal_coupling(g, r):
    # a fused (x * mix / 2) would round g root mix / 2 once where the
    # expressions round twice, in the subnormal range
    p = ModelParams(delta=0.3, g=g, r=r)
    for parity in (+1, -1):
        block = ed.build_parity_block(p, parity, 64)
        for got, want in zip((block.diag, block.offdiag, block.coupling),
                             _whole_array_block(p, parity, 64, 0.25)):
            assert got.tobytes() == want.tobytes()


def test_block_first_offdiagonal():
    p = ModelParams(delta=0.3, g=0.2, r=0.6)
    t_minus = ed.build_parity_block(p, -1, 4).offdiag[0]
    t_plus = ed.build_parity_block(p, +1, 4).offdiag[0]
    assert t_minus == pytest.approx(math.sqrt(2) * 0.2 * 0.6, rel=1e-14)
    assert t_plus == pytest.approx(math.sqrt(2) * 0.2, rel=1e-14)


def test_blocks_identical_for_isotropic_zero_delta():
    p = ModelParams(delta=0.0, g=0.3, r=1.0)
    bp = ed.build_parity_block(p, +1, 32)
    bm = ed.build_parity_block(p, -1, 32)
    assert np.array_equal(bp.diag, bm.diag)
    assert np.array_equal(bp.offdiag, bm.offdiag)


def test_ground_state_parity_minus_at_zero_coupling():
    p = ModelParams(delta=1.0, g=0.0, r=0.6)
    minus = ed.ed_spectrum(p, SectorSpec(0.25, -1), k=2)
    plus = ed.ed_spectrum(p, SectorSpec(0.25, +1), k=2)
    assert minus.energies[0] == pytest.approx(-0.5, abs=1e-13)
    assert plus.energies[0] > minus.energies[0]


# ---------------------------------------------------------------- spectra

def test_zero_coupling_spectrum_exact_set():
    p = ModelParams(delta=1.0, g=0.0, r=0.6)
    spec = ed.full_spectrum(p, k=6)
    exact = sorted(2 * n + s * 0.5 for n in range(6) for s in (+1, -1))
    assert np.abs(spec.energies - exact).max() < 1e-12
    assert spec.converged.all()
    assert list(spec.energies) == sorted(spec.energies)


def test_same_parity_gap_near_collapse():
    spec = ed.ed_spectrum(at_beta(0.6, 0.1), SectorSpec(0.25, -1), k=2)
    gap = spec.energies[1] - spec.energies[0]
    assert abs(gap - 0.2) / 0.2 < 0.06  # deviation ~ Delta_c^2/2 + O(beta)


def test_collapse_point_gap_doubles_until_gate_holds():
    g_c, delta_c = critical_params(0.25)
    p = ModelParams(delta=delta_c - 0.2, g=g_c, r=0.25)
    gap, n_max, converged = ed.collapse_point_gap(p, 256, 8192)
    assert converged and n_max == 4096  # algebraic convergence: 256 is too small
    half = abs(ed.lowest_level(p, +1, 2048) - ed.lowest_level(p, -1, 2048))
    assert gap == abs(ed.lowest_level(p, +1, 4096) - ed.lowest_level(p, -1, 4096))
    assert abs(gap - half) <= 0.02 * gap
    # a ceiling below the needed truncation reports the gate as failed
    gap, n_max, converged = ed.collapse_point_gap(p, 256, 2048)
    assert not converged and n_max == 2048


@pytest.mark.parametrize("move,held", [(0.019, True), (0.021, False)])
def test_collapse_point_gap_holds_only_within_two_percent(monkeypatch, move, held):
    # forged rungs: the gap at 8 rows is 1.0 and was 1 + move at 4 rows, and the
    # 16-row rung moves 10%; only a move within 2% of the gap holds the gate
    gaps = {4: 1.0 + move, 8: 1.0, 16: 1.1}
    monkeypatch.setattr(ed, "lowest_level", lambda params, parity, n: gaps[n] if parity == +1 else 0.0)
    g_c, delta_c = critical_params(0.25)
    p = ModelParams(delta=delta_c - 0.2, g=g_c, r=0.25)
    assert ed.collapse_point_gap(p, 8, 16) == ((1.0, 8, True) if held else (1.1, 16, False))


def _block_levels(block: ed.ParityBlock, k: int) -> np.ndarray:
    """The block's lowest k eigenvalues by LAPACK bisection, eigenvalues only."""
    return eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True,
                            select="i", select_range=(0, k - 1))


def _bisection(block: ed.ParityBlock) -> float:
    return float(_block_levels(block, 1)[0])


@pytest.mark.parametrize("n", [32768, 65536])
@pytest.mark.parametrize("r", [0.25, 0.6])
def test_ground_eigenvalue_matches_bisection_on_the_collapse_blocks(r, n):
    # criterion 06's blocks; at Delta < Delta_c the parity -1 level is a box
    # state just above -1/2, the case uncertified Rayleigh-quotient iteration
    # gets wrong
    g_c, delta_c = critical_params(r)
    for off in np.linspace(0.06, 0.11, 6):
        for parity in (+1, -1):
            block = ed.build_parity_block(ModelParams(delta=delta_c - off, g=g_c, r=r), parity, n)
            level = ed._ground_pair(block.diag, block.offdiag)[0]
            assert abs(level - _bisection(block)) <= 1e-10


def _record_calls(monkeypatch, name: str, log: list, fail_after: int | None = None):
    """Wrap ed.<name>, logging each call's rows; after fail_after calls, report info 1."""
    original = getattr(ed, name)

    def wrapped(d, *args, **kwargs):
        log.append(len(d))
        out = original(d, *args, **kwargs)
        if fail_after is not None and len(log) > fail_after:
            return (*out[:-1], 1)
        return out

    monkeypatch.setattr(ed, name, wrapped)


def test_ground_pair_work_on_the_collapse_blocks(monkeypatch):
    # criterion 06's 48 lowest_level calls; a start of ones took 328
    # factorizations and 306 solves, the ground state's sign pattern from
    # the leading block's vector 281 and 233; starting the 24 box-state
    # blocks at the continuum edge takes 252 and 180, and bisects only the
    # 24 bound blocks' leading 512 rows
    factored, solved, bisected = [], [], []
    _record_calls(monkeypatch, "dpttrf", factored)
    _record_calls(monkeypatch, "dpttrs", solved)
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    for r in (0.25, 0.6):
        g_c, delta_c = critical_params(r)
        for n in (32768, 65536):
            for off in np.linspace(0.06, 0.11, 6):
                for parity in (+1, -1):
                    ed.lowest_level(ModelParams(delta=delta_c - off, g=g_c, r=r), parity, n)
    assert len(factored) <= 252 and len(solved) <= 180
    assert bisected == [512] * 24


def _edge_blocks():
    """(params, parity, n) at g = g_c: r in {0, 0.25, 0.6, 1}, Delta = Delta_c +- {0.06, 0.11}."""
    for r in (0.0, 0.25, 0.6, 1.0):
        g_c, delta_c = critical_params(r)
        for delta in (delta_c + d for d in (-0.11, -0.06, 0.06, 0.11) if delta_c + d >= 0):
            for n in (1024, 32768):
                for parity in (+1, -1):
                    yield ModelParams(delta=delta, g=g_c, r=r), parity, n


def test_lowest_level_starts_at_the_continuum_edge_exactly_when_no_level_lies_below(monkeypatch):
    # E_c = -1/2 is the first shift when T - E_c factors (no level below the
    # edge): then nothing is bisected, else only the leading 512 rows; either
    # way the level is bisection's within the certificate's r + tol <= 2 tol
    paths = set()
    for p, parity, n in _edge_blocks():
        block = ed.build_parity_block(p, parity, n)
        below_edge = ed.dpttrf(block.diag - CONTINUUM_EDGE, block.offdiag)[2] != 0
        bisected = []
        _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
        level = ed.lowest_level(p, parity, n)
        monkeypatch.undo()
        assert bisected == ([512] if below_edge else [])
        scale = max(np.abs(block.diag).max(), 2 * np.abs(block.offdiag).max())
        assert abs(level - _bisection(block)) <= 16 * np.finfo(float).eps * scale
        paths.add(below_edge)
    assert paths == {True, False}


def test_lowest_level_passes_the_edge_only_at_the_collapse_point(monkeypatch):
    shifts = []
    ground_pair = ed._ground_pair

    def recording(diag, off, vector=True, first_shift=None):
        shifts.append(first_shift)
        return ground_pair(diag, off, vector, first_shift)

    monkeypatch.setattr(ed, "_ground_pair", recording)
    g_c, delta_c = critical_params(0.6)
    for g in (g_c, 0.999 * g_c, 0.0):
        ed.lowest_level(ModelParams(delta=delta_c - 0.06, g=g, r=0.6), -1, 1024)
    assert shifts == [CONTINUUM_EDGE, None, None]


def _collapse_block(parity: int, n: int, off: float = 0.06) -> ed.ParityBlock:
    g_c, delta_c = critical_params(0.6)
    return ed.build_parity_block(ModelParams(delta=delta_c - off, g=g_c, r=0.6), parity, n)


@pytest.mark.parametrize("parity", [+1, -1])
def test_a_lowest_level_keeps_nothing_n_sized_after_it_returns(parity):
    # each 65536-row call allocates the block's three arrays and its own six
    # work rows (9 n doubles at the peak) and frees all of them on return: no
    # work block is kept from one call to the next
    n, (g_c, delta_c) = 65536, critical_params(0.6)
    p = ModelParams(delta=delta_c - 0.06, g=g_c, r=0.6)
    ed.lowest_level(p, parity, n)
    tracemalloc.start()
    try:
        ed.lowest_level(p, parity, n)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < n * 8
    assert 8 * n * 8 < peak < 10 * n * 8


def test_a_ground_vector_belongs_to_the_caller(monkeypatch):
    solved = []
    _record_calls(monkeypatch, "dpttrs", solved)
    block = _collapse_block(-1, 4096)
    vector = ed._ground_pair(block.diag, block.offdiag)[1]
    kept = vector.copy()
    assert vector.flags.owndata
    calls = len(solved)
    other = _collapse_block(+1, 8192, off=0.11)
    ed._ground_pair(other.diag, other.offdiag)
    assert calls and len(solved) > calls  # both calls iterated
    assert np.array_equal(vector.view(np.uint64), kept.view(np.uint64))


def test_ground_pairs_do_not_depend_on_the_arena_size():
    # a second thread solves the same blocks, 1024 rows after 65536 rows as
    # well as before them: every pair is bitwise the main thread's
    blocks = [_collapse_block(parity, n) for n in (1024, 65536, 1024) for parity in (+1, -1)]
    main = [ed._ground_pair(b.diag, b.offdiag) for b in blocks]
    found = []
    worker = threading.Thread(
        target=lambda: found.extend(ed._ground_pair(b.diag, b.offdiag) for b in blocks))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(found) == len(blocks)
    for (level, vector), (again, again_vector) in zip(main, found):
        assert again == level
        assert np.array_equal(again_vector.view(np.uint64), vector.view(np.uint64))


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("r,g,delta,parity", [
    (0.0, 0.5, 0.5, +1), (0.0, 0.5, 0.5, -1), (0.0, 1.0, 2.0, -1),
    (0.0, 1.0, 2.0, +1),  # the ground state's 2 x 2 piece is the block's last
    (0.6, 0.0, 0.5, +1), (0.6, 0.0, 0.5, -1), (1.0, 0.0, 2.0, +1),
])
def test_ground_pair_certifies_reducible_blocks(monkeypatch, r, g, delta, parity, n):
    # r = 0 zeroes every second off-diagonal and g = 0 all of them, so the
    # start must not vanish on any row that can hold the ground state
    block = ed.build_parity_block(ModelParams(delta=delta, g=g, r=r), parity, n)
    bisected = []
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    level, vector = ed._ground_pair(block.diag, block.offdiag)
    assert bisected == [512]
    assert abs(level - _bisection(block)) <= 1e-12
    scale = max(np.abs(block.diag).max(), 2 * np.abs(block.offdiag).max())
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-14
    residual = ed.tridiag_apply(block.diag, block.offdiag, vector) - level * vector
    assert np.linalg.norm(residual) <= 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize("fail_after", [None, 1, 0],
                         ids=["certified", "certificate_fails", "no_shift_certified"])
def test_ground_eigenvalue_falls_back_to_bisection(monkeypatch, fail_after):
    # fail_after = 1: only the first shift is certified, so neither a lifted
    # shift nor the final certificate is; 0: the shift search hits its cap
    block = ed.build_parity_block(ModelParams(delta=0.3, g=0.2, r=0.6), -1, 1024)
    bisected, factored, solved = [], [], []
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    _record_calls(monkeypatch, "dpttrf", factored, fail_after)
    _record_calls(monkeypatch, "dpttrs", solved)
    level, vector = ed._ground_pair(block.diag, block.offdiag)
    if fail_after is None:
        assert bisected == [512] and solved
        assert abs(level - _bisection(block)) <= 1e-12
    else:
        assert bisected == [512, 1024]
        assert bool(solved) == (fail_after == 1)
        assert level == _bisection(block)
    # every mode returns a unit eigenvector of its level
    scale = max(np.abs(block.diag).max(), 2 * np.abs(block.offdiag).max())
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-14
    residual = ed.tridiag_apply(block.diag, block.offdiag, vector) - level * vector
    assert np.linalg.norm(residual) <= 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n", [1024, 32768])
def test_lowest_level_skips_only_the_vector_solve(monkeypatch, n):
    # the eigenvalue-only exit drops the final dpttrs solve; E_0 stays bitwise
    g_c, delta_c = critical_params(0.6)
    for off in (0.06, 0.11):
        p = ModelParams(delta=delta_c - off, g=g_c, r=0.6)
        block = ed.build_parity_block(p, -1, n)
        with_vector, level_only = [], []
        _record_calls(monkeypatch, "dpttrs", with_vector)
        level = ed._ground_pair(block.diag, block.offdiag, first_shift=CONTINUUM_EDGE)[0]
        monkeypatch.undo()
        _record_calls(monkeypatch, "dpttrs", level_only)
        assert ed.lowest_level(p, -1, n) == level
        monkeypatch.undo()
        assert len(level_only) == len(with_vector) - 1


@pytest.mark.parametrize("n", [2, 3, 100, 511, 512])
def test_small_blocks_keep_bisection_bitwise(monkeypatch, n):
    p = ModelParams(delta=0.4, g=0.8, r=0.25)
    blocks = {parity: ed.build_parity_block(p, parity, n) for parity in (+1, -1)}

    def no_factorization(*args, **kwargs):
        raise AssertionError("a small block must not reach inverse iteration")

    monkeypatch.setattr(ed, "dpttrf", no_factorization)
    for parity, block in blocks.items():
        assert ed.lowest_level(p, parity, n) == _bisection(block)
        w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
        level, vector = ed._ground_pair(block.diag, block.offdiag)
        assert level == w[0] and np.array_equal(vector, v[:, 0])


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize("r", [0.25, 0.6])
def test_ground_vector_matches_stein_above_the_bisection_rows(r, n):
    # criterion 03's grid: the vector comes from one more solve after the
    # certified eigenvalue; the stopping iterate alone is off by up to 3e-10
    g_c, delta_c = critical_params(r)
    for g in make_grid(3.5, 5.5, 7, r).g_values:
        block = ed.build_parity_block(ModelParams(delta=delta_c, g=g, r=r), -1, n)
        level, vector = ed._ground_pair(block.diag, block.offdiag)
        scale = max(np.abs(block.diag).max(), 2 * np.abs(block.offdiag).max())
        residual = ed.tridiag_apply(block.diag, block.offdiag, vector) - level * vector
        assert np.linalg.norm(residual) <= 8 * np.finfo(float).eps * scale
        _, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
        stein = v[:, 0] * np.sign(v[:, 0] @ vector)
        assert np.abs(vector - stein).max() <= 1e-11


@settings(max_examples=30, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.0, 1.0),
    parity=st.sampled_from([+1, -1]),
    q=st.sampled_from([0.25, 0.75]),
    log_n=st.integers(2, 16),
)
def test_ground_eigenvalue_interlaces_under_truncation(r, delta, frac, parity, q, log_n):
    # the n/2-block is a leading principal block of the n-block, so E_0 cannot
    # rise; the slack is the kernel's certified error bound at n rows
    p = ModelParams(delta=delta, g=frac / (1.0 + r), r=r)
    n = 2**log_n
    block = ed.build_parity_block(p, parity, n, q)
    scale = max(np.abs(block.diag).max(), 2 * np.abs(block.offdiag).max())
    bound = 16 * np.finfo(float).eps * scale
    full = ed._ground_pair(block.diag, block.offdiag)[0]
    assert full <= ed._ground_pair(block.diag[:n // 2], block.offdiag[:n // 2 - 1])[0] + bound


def test_converge_climbs_rungs_until_held():
    rungs = []

    def solve(n: int, _previous: float | None) -> float:
        rungs.append(n)
        return 1.0 / n

    def held(new: float, old: float | None) -> bool:
        return old is not None and abs(new - old) < 1e-3

    # |1/n - 2/n| = 1/n < 1e-3 first holds at n = 1024
    assert ed.converge(solve, 8, 1 << 20, held) == (1 / 1024, 1 / 512, 1024, True)
    assert rungs == [8 << i for i in range(8)]


def test_converge_asks_its_gate_from_the_first_rung():
    asked = []

    def held(new: int, old: int | None) -> bool:
        asked.append((new, old))
        return new >= 32

    assert ed.converge(lambda n, _: n, 8, 1 << 20, held) == (32, 16, 32, True)
    assert asked == [(8, None), (16, 8), (32, 16)]
    rungs = []  # a gate that holds on the first rung stops the ladder there
    assert ed.converge(lambda n, _: rungs.append(n) or n, 64, 1 << 20, held) == (
        64, None, 64, True)
    assert rungs == [64]


def test_converge_never_solves_above_the_ceiling():
    rungs = []

    def solve(n: int, _previous: float | None) -> float:
        rungs.append(n)
        return 1.0 / n

    new, old, n_max, held = ed.converge(solve, 8, 100, lambda new, old: False)
    assert rungs == [8, 16, 32, 64] and (new, old, n_max, held) == (1 / 64, 1 / 32, 64, False)
    rungs.clear()
    assert ed.converge(solve, 50, 100, lambda new, old: False) == (1 / 100, 1 / 50, 100, False)
    assert rungs == [50, 100]


def test_converge_reports_no_old_when_one_rung_fits():
    # a gate that compares two rungs cannot hold on a one-rung ladder
    rungs = []
    new, old, n_max, held = ed.converge(lambda n, _: rungs.append(n) or n, 64, 127,
                                        lambda new, old: old is not None)
    assert (new, old, n_max, held) == (64, None, 64, False) and rungs == [64]


def test_converge_rejects_a_first_rung_above_its_ceiling(monkeypatch):
    # such a ladder has one rung, which could never hold, and spectrum --levels 100000
    # would ask one eigh_tridiagonal call for 100,000 vectors of a 200,000-row block:
    # the ladder raises before any solve (both patched to raise, so none can run)
    def never(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(ed, "build_parity_block", never)
    monkeypatch.setattr(ed, "eigh_tridiagonal", never)
    params = ModelParams(delta=0.5, g=0.3, r=0.25)
    for call, start in ((lambda: ed.ed_spectrum(params, k=100_000), 200_000),
                        (lambda: ed.ed_spectrum(params, n_max=2**40), 2**40),
                        (lambda: ed.qfi_spectral(params, n_max=2**20), 2**20)):
        with pytest.raises(ValueError, match=f"^first rung n_max={start} is above the ladder's "
                                             f"ceiling {ed.N_MAX_CEILING}$"):
            call()
    rungs = []
    with pytest.raises(ValueError, match="^first rung n_max=128 is above the ladder's ceiling 127$"):
        ed.converge(lambda n, _: rungs.append(n), 128, 127, lambda *_: True)
    assert rungs == []


def test_converge_hands_each_rung_the_previous_result():
    received = []

    def solve(n: int, previous: tuple | None) -> tuple:
        received.append(previous)
        return ("rung", n)

    ed.converge(solve, 8, 64, lambda new, old: False)
    assert received == [None, ("rung", 8), ("rung", 16), ("rung", 32)]


# ---------------------------------------------------------------- warm rungs

def _rung_pair(r, delta, frac, parity, n2, k):
    """A block of n2 rows and bisection's k lowest pairs of its leading n2/2 rows."""
    block = ed.build_parity_block(ModelParams(delta=delta, g=frac / (1.0 + r), r=r), parity, n2)
    n = n2 // 2
    previous = eigh_tridiagonal(block.diag[:n], block.offdiag[:n - 1], select="i",
                                select_range=(0, k - 1))
    return block, previous


def _stopping_tol(block: ed.ParityBlock) -> float:
    return 8 * np.finfo(float).eps * max(np.abs(block.diag).max(), 2 * np.abs(block.offdiag).max())


@settings(max_examples=40, deadline=None)
@given(
    # r = 0, where the padded start is already exact, has its own test below
    r=st.floats(0.01, 1.0),
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.01, 0.99),
    parity=st.sampled_from([+1, -1]),
    n2=st.sampled_from([1024, 2048, 4096, 8192]),
    k=st.sampled_from([1, 2, 6]),
)
def test_warm_rung_matches_bisection(r, delta, frac, parity, n2, k):
    block, previous = _rung_pair(r, delta, frac, parity, n2, k)
    warm = ed._warm_pairs(block.diag, block.offdiag, *previous)
    assert warm is not None
    levels, vectors = warm
    w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, k - 1))
    tol = _stopping_tol(block)
    for j in range(k):
        x = vectors[:, j]
        residual = np.linalg.norm(ed.tridiag_apply(block.diag, block.offdiag, x) - levels[j] * x)
        assert abs(levels[j] - w[j]) <= residual + tol
        assert np.abs(x - v[:, j] * np.sign(v[:, j] @ x)).max() <= 1e-12
    # Cauchy interlacing: no level of the block lies above its leading block's;
    # the slack is the stopping rule's tol
    assert np.all(levels <= previous[0] + tol)


@pytest.mark.parametrize("g", [0.2, 0.5, 0.9])
def test_warm_rung_keeps_an_exact_start_at_r_zero(monkeypatch, g):
    # at r = 0 the block splits into 2 x 2 blocks, so the padded pairs are exact
    # and a solve at their level can be singular: the rung is certified, not bisected
    params = ModelParams(delta=0.5, g=g, r=0.0)
    bisected = []
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    spectra = [ed.ed_spectrum(params, SectorSpec(0.25, parity), n_max=512, k=2)
               for parity in (+1, -1)]
    energy, coeffs, _, n_used = ed.ground_state_block(params, 512)
    assert bisected == [512, 512, 512]  # each ladder's first rung; _ground_pair bisects it
    for parity, spectrum in zip((+1, -1), spectra):
        assert spectrum.n_max_used > 512 and spectrum.converged.all()
        block = ed.build_parity_block(params, parity, spectrum.n_max_used)
        w = eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True, select="i",
                             select_range=(0, 1))
        assert np.abs(spectrum.energies - w).max() <= 1e-12
    block = ed.build_parity_block(params, -1, n_used)
    w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
    assert n_used > 512 and abs(energy - w[0]) <= 1e-12
    assert np.abs(coeffs - v[:, 0] * np.sign(v[:, 0] @ coeffs)).max() <= 1e-12


_FORGE_POINTS = [(0.25, 0.6, 0.999, -1, 4096), (0.6, 0.3, 0.5, +1, 2048),
                 (1.0, 0.0, 0.9, -1, 8192)]


@pytest.mark.parametrize("forge,i,j", [("swap_vectors", 0, 1), ("swap_pairs", 0, 1),
                                       ("swap_pairs", 1, 2), ("below_e0", 0, 0),
                                       ("below_e0", 1, 1)],
                         ids=["swap_vectors", "swap_pairs_01", "swap_pairs_12", "level_0_below_e0",
                              "level_1_below_e0"])
@pytest.mark.parametrize("r,delta,frac,parity,n2", _FORGE_POINTS)
def test_forged_start_fails_its_certificate_and_bisects(r, delta, frac, parity, n2, forge, i, j):
    # swapped vectors and levels below E_0 break interlacing; swapped pairs
    # keep it, and only the Sturm count (dpttrf for level 0, dstebz above)
    # sees level i converge to E_j
    block, (levels, vectors) = _rung_pair(r, delta, frac, parity, n2, 3)
    w, _ = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 2))
    levels, vectors = levels.copy(), vectors.copy()
    if forge == "below_e0":
        levels[i] = w[0] - 1.0
    else:
        vectors[:, [i, j]] = vectors[:, [j, i]]
        if forge == "swap_pairs":
            levels[[i, j]] = levels[[j, i]]
    assert ed._warm_pairs(block.diag, block.offdiag, levels, vectors) is None
    got, _ = ed._lowest_pairs(block.diag, block.offdiag, 3, (levels, vectors))
    assert np.array_equal(got, w)


@pytest.mark.parametrize("r,delta,frac,parity,n2", _FORGE_POINTS)
def test_forged_ground_start_fails_its_certificate_and_bisects(r, delta, frac, parity, n2):
    # a ground rung handed level 1's pair keeps interlacing; only dpttrf sees E_1
    block, (levels, vectors) = _rung_pair(r, delta, frac, parity, n2, 2)
    forged = (levels[1:], vectors[:, 1:])
    assert ed._warm_pairs(block.diag, block.offdiag, *forged) is None
    w, _ = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
    assert np.array_equal(ed._lowest_pairs(block.diag, block.offdiag, 1, forged)[0], w)


@pytest.mark.parametrize("n", [256, 512, 513, 4096])
def test_a_first_rung_ground_pair_comes_from_ground_pair(monkeypatch, n):
    # _lowest_pairs is the one door to a rung's pairs: one pair with no rung
    # below is _ground_pair's, bisection up to 512 rows and certified inverse
    # iteration (bisecting only the 512-row leading block) above
    g_c, delta_c = critical_params(0.6)
    block = ed.build_parity_block(ModelParams(delta=delta_c, g=0.99 * g_c, r=0.6), -1, n)
    bisected = []
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    levels, vectors = ed._lowest_pairs(block.diag, block.offdiag, 1, None)
    assert bisected == [min(n, 512)]
    monkeypatch.undo()
    e0, v0 = ed._ground_pair(block.diag, block.offdiag)
    assert levels.shape == (1,) and vectors.shape == (n, 1)
    assert levels[0] == e0 and np.array_equal(vectors[:, 0], v0)
    if n <= 512:
        w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
        assert np.array_equal(levels, w) and np.array_equal(vectors, v)


@pytest.mark.parametrize("r,delta,frac,parity,n2", _FORGE_POINTS)
def test_warm_rung_deflates_a_repeated_start(r, delta, frac, parity, n2):
    # level 1 starts from level 0's vector: with level 0's vector projected
    # out of every iterate it still converges to E_1
    block, (levels, vectors) = _rung_pair(r, delta, frac, parity, n2, 2)
    w, _ = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 1))
    warm = ed._warm_pairs(block.diag, block.offdiag, levels, vectors[:, [0, 0]])
    assert warm is not None and np.abs(warm[0] - w).max() <= 2 * _stopping_tol(block)


@pytest.mark.parametrize("n2", [4096, 8192])
@pytest.mark.parametrize("r", [0.25, 0.6])
def test_warm_vector_matches_stein_near_collapse(r, n2):
    # criterion 03's grid, as in the _ground_pair test above: the stopping
    # iterate alone is off by up to 4e-11 at 4096 rows, the extra solve's vector by 1e-12
    g_c, delta_c = critical_params(r)
    for g in make_grid(3.5, 5.5, 7, r).g_values:
        block, previous = _rung_pair(r, delta_c, g / g_c, -1, n2, 1)
        _, vectors = ed._warm_pairs(block.diag, block.offdiag, *previous)
        _, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
        stein = v[:, 0] * np.sign(v[:, 0] @ vectors[:, 0])
        assert np.abs(vectors[:, 0] - stein).max() <= 1e-11


def test_warm_rungs_never_fall_back_at_criteria_01_to_04(monkeypatch):
    # ed_spectrum's ladders start at 256 rows and a ground ladder's first rung
    # bisects only its 512-row leading block, so any bisection of a larger
    # block is a warm rung's fallback
    bisected, warm = [], []
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    kernel = ed._warm_pairs
    monkeypatch.setattr(ed, "_warm_pairs", lambda *args: warm.append(kernel(*args)) or warm[-1])
    for r in (0.25, 0.6):
        g_c, delta_c = critical_params(r)
        for window in ((1.5, 3.0, 9), (2.5, 4.5, 7)):
            for g in make_grid(*window, r).g_values:
                for parity in (+1, -1):
                    ed.ed_spectrum(ModelParams(delta=delta_c, g=g, r=r), SectorSpec(0.25, parity),
                                   n_max=256, tol=1e-10, k=2)
        for g in make_grid(3.5, 5.5, 7, r).g_values:
            ed.ed_ground_observables(ModelParams(delta=delta_c, g=g, r=r), 2048)
        for g in make_grid(2.5, 4.5, 7, r).g_values:
            ed.qfi_spectral(ModelParams(delta=delta_c, g=g, r=r), n_max=2048)
    for r, delta, gfrac in [(0.25, 0.6, 0.5), (0.6, None, 0.9), (0.25, None, 0.9)]:
        g_c, delta_c = critical_params(r)
        p = ModelParams(delta=delta_c if delta is None else delta, g=gfrac * g_c, r=r)
        ed.qfi_spectral(p)
        ed.qfi_fidelity_oracle(p)
    assert max(bisected) <= 512
    assert warm and all(pairs is not None for pairs in warm)


@pytest.mark.parametrize("parity", [+1, -1])
@pytest.mark.parametrize("r", [0.25, 0.6])
def test_gap_ladder_bisects_only_its_first_rung(monkeypatch, r, parity):
    # criterion 01's first point: every rung above 256 rows starts from the
    # rung below's pairs, so the 256-row first rung is the ladder's only bisection
    params = ModelParams(delta=critical_params(r)[1], g=make_grid(1.5, 3.0, 9, r).g_values[0], r=r)
    bisected = []
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    spectrum = ed.ed_spectrum(params, SectorSpec(0.25, parity), n_max=256, tol=1e-10, k=2)
    monkeypatch.undo()
    assert bisected == [256] and spectrum.n_max_used > 256 and spectrum.converged.all()
    block = ed.build_parity_block(params, parity, spectrum.n_max_used)
    assert np.abs(spectrum.energies - _block_levels(block, 2)).max() <= 1e-12


def test_warm_certificate_failures_fall_back_to_bisection(monkeypatch):
    # 1 - g/g_c = 1e-4, six levels: the warm rungs at 512 and 1,024 rows fail,
    # started from levels still far from theirs, so those rungs bisect
    g_c, delta_c = critical_params(0.6)
    params = ModelParams(delta=delta_c, g=g_c * (1 - 1e-4), r=0.6)
    bisected, warm = [], []
    _record_calls(monkeypatch, "eigh_tridiagonal", bisected)
    kernel = ed._warm_pairs
    monkeypatch.setattr(ed, "_warm_pairs",
                        lambda *args: warm.append((len(args[0]), kernel(*args))) or warm[-1][1])
    spectrum = ed.ed_spectrum(params, SectorSpec(0.25, -1), n_max=256, k=6)
    monkeypatch.undo()
    assert [n for n, pairs in warm if pairs is None] == [512, 1024]
    assert bisected == [256, 512, 1024] and spectrum.converged.all()
    block = ed.build_parity_block(params, -1, spectrum.n_max_used)
    assert np.abs(spectrum.energies - _block_levels(block, 6)).max() <= 1e-11


def test_a_warm_solve_that_fails_after_the_first_bisects(monkeypatch):
    # every dgtsv after the first reports info 1.  At 1 - g/g_c = 1e-6 the 512-row start
    # is far from the 1,024-row ground state: level 0's first solve leaves r at 1e7 tol,
    # the next one fails, and the rung is bisection's
    block, previous = _rung_pair(0.25, 0.6, 1 - 1e-6, -1, 1024, 1)
    solves = []
    _record_calls(monkeypatch, "dgtsv", solves, fail_after=1)
    assert ed._warm_pairs(block.diag, block.offdiag, *previous) is None
    assert len(solves) == 2
    w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
    levels, vectors = ed._lowest_pairs(block.diag, block.offdiag, 1, previous)
    assert np.array_equal(levels, w) and np.array_equal(vectors, v)


def test_an_iteration_that_never_settles_bisects(monkeypatch):
    # every solve's residual is forged to inf, so neither _ground_pair nor a warm
    # rung's level 0 ever stops: each runs _INVERSE_ITERATIONS solves, then bisects
    block, previous = _rung_pair(*_FORGE_POINTS[0], 1)
    w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
    solves = []
    solve_residual = ed._solve_residual

    def unsettled(*args):
        solves.append(1)
        return solve_residual(*args)[0], math.inf

    monkeypatch.setattr(ed, "_solve_residual", unsettled)
    assert ed._warm_pairs(block.diag, block.offdiag, *previous) is None
    assert len(solves) == ed._INVERSE_ITERATIONS
    solves.clear()
    e0, v0 = ed._ground_pair(block.diag, block.offdiag)
    assert len(solves) == ed._INVERSE_ITERATIONS
    assert e0 == w[0] and np.array_equal(v0, v[:, 0])


def test_a_level_read_below_the_gershgorin_floor_counts_none(monkeypatch):
    # level 1's reads of T are forged to put its Rayleigh quotient below every
    # eigenvalue's Gershgorin bound: no eigenvalue lies below it, so the count is 0
    # without a dstebz call over an empty interval, and the rung fails its certificate
    block, previous = _rung_pair(*_FORGE_POINTS[0], 2)
    scale = max(np.abs(block.diag).max(), 2.0 * np.abs(block.offdiag).max())
    floor = block.diag.min() - scale - 1.0
    reads = []
    apply = ed.tridiag_apply

    def forged(diag, off, x, *args, **kwargs):
        reads.append(1)
        return apply(diag, off, x, *args, **kwargs) if len(reads) == 1 else (floor - 1.0) * x

    def unreached(*args):
        raise AssertionError("dstebz called")

    monkeypatch.setattr(ed, "tridiag_apply", forged)
    monkeypatch.setattr(ed, "dstebz", unreached)
    assert ed._warm_pairs(block.diag, block.offdiag, *previous) is None
    assert len(reads) == 2


def test_a_failed_resolvent_solve_is_raised(monkeypatch):
    # the 256-row first rung bisects its ground pair, so its resolvent is the first dgtsv
    _record_calls(monkeypatch, "dgtsv", [], fail_after=0)
    with pytest.raises(RuntimeError, match=r"^tridiagonal solve failed \(LAPACK info=1\)$"):
        ed.qfi_spectral(at_beta(0.25, 0.5))


def test_level_zero_reads_t_once_a_warm_rung(monkeypatch):
    # level 0's residual comes from each solve; T is applied only at the stop,
    # once a rung on criteria 01-02's gap ladders (the rule that read T at every
    # step applied it 36 times on its 30 warm rungs, all above 512 rows)
    applied, warm = [], []
    apply = ed.tridiag_apply
    monkeypatch.setattr(ed, "tridiag_apply", lambda *args: applied.append(1) or apply(*args))
    kernel = ed._warm_pairs
    monkeypatch.setattr(ed, "_warm_pairs", lambda *args: warm.append(len(args[0])) or kernel(*args))
    for r in (0.25, 0.6):
        g_c, delta_c = critical_params(r)
        for window in ((1.5, 3.0, 9), (2.5, 4.5, 7)):
            for g in make_grid(*window, r).g_values:
                for parity in (+1, -1):
                    ed.ed_spectrum(ModelParams(delta=delta_c, g=g, r=r), SectorSpec(0.25, parity),
                                   n_max=256, tol=1e-10, k=1)
    assert min(warm) == 512 and len(applied) == len(warm) == 94


@settings(max_examples=20, deadline=None)
@given(
    r=st.floats(0.01, 1.0),
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.01, 0.99),
    parity=st.sampled_from([+1, -1]),
    n2=st.sampled_from([512, 1024, 4096]),
    k=st.sampled_from([1, 2, 6]),
)
def test_warm_iterates_are_read_from_t_at_the_stop(r, delta, frac, parity, n2, k):
    # without the vector solve a warm rung returns its stopping iterates; each
    # level is the Rayleigh quotient T gives that iterate, within tol of an eigenpair
    block, previous = _rung_pair(r, delta, frac, parity, n2, k)
    levels, vectors = ed._warm_pairs(block.diag, block.offdiag, *previous, False)
    tol = _stopping_tol(block)
    for j in range(k):
        x = vectors[:, j].copy()  # contiguous, as the kernel's iterate: the same dot product
        tx = ed.tridiag_apply(block.diag, block.offdiag, x)
        assert levels[j] == float(x @ tx)
        assert np.linalg.norm(tx - levels[j] * x) <= tol


@pytest.mark.parametrize("r", [0.25, 0.6])
def test_ground_ladder_vector_keeps_its_final_solve(r):
    # observables and F_Q read the ground ladders' vectors, so their warm rungs
    # still solve once more.  Criterion 03's points from 256 rows, stopped by the
    # ceiling at each rung: the 512-row rung is warm from bisection's pair, and the
    # stopping iterates alone err by up to 4.4e-11 at r = 0.25 (1024 to 4096 rows)
    g_c, delta_c = critical_params(r)
    for g in make_grid(3.5, 5.5, 7, r).g_values[2:]:
        params = ModelParams(delta=delta_c, g=g, r=r)
        n_converged, ceiling = ed.ground_state_block(params, 256)[3], 512
        assert n_converged >= 2048
        while ceiling <= n_converged:
            energy, coeffs, _, n_used = ed.ground_state_block(params, 256, n_max_ceiling=ceiling)
            block = ed.build_parity_block(params, -1, n_used)
            residual = ed.tridiag_apply(block.diag, block.offdiag, coeffs) - energy * coeffs
            assert n_used == ceiling and np.linalg.norm(residual) <= _stopping_tol(block)
            _, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
            assert np.abs(coeffs - v[:, 0] * np.sign(v[:, 0] @ coeffs)).max() <= 1e-11
            ceiling *= 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("compute", [
    lambda p, tol: ed.ed_spectrum(p, tol=tol),
    lambda p, tol: ed.full_spectrum(p, tol=tol),
    lambda p, tol: ed.ground_state_block(p, tol=tol),
    lambda p, tol: ed.ed_ground_observables(p, 64, tol),
], ids=["ed_spectrum", "full_spectrum", "ground_state_block", "ed_ground_observables"])
def test_bad_tol_rejected_by_name_before_any_solve(monkeypatch, compute, bad):
    monkeypatch.setattr(ed, "build_parity_block", None)  # any solve would fail otherwise
    with pytest.raises(ValueError, match=f"^tol={bad} must be finite and positive$"):
        compute(ModelParams(delta=0.3, g=0.2, r=0.6), bad)


def test_ground_state_block_stays_within_its_ceiling(monkeypatch):
    sizes = []
    build = ed.build_parity_block

    def recording_build(params, parity, n_max, q=0.25):
        sizes.append(n_max)
        return build(params, parity, n_max, q)

    monkeypatch.setattr(ed, "build_parity_block", recording_build)
    _, coeffs, estimate, n_used = ed.ground_state_block(at_beta(0.6, 0.5), 64, n_max_ceiling=64)
    assert sizes == [64] and n_used == 64 and len(coeffs) == 64
    assert estimate == math.inf  # one rung gives no estimate, so callers' gates trip


@given(
    r=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.0, 0.95),
    parity=st.sampled_from([+1, -1]),
    q=st.sampled_from([0.25, 0.75]),
    n=st.sampled_from([16, 32]),
)
def test_doubling_never_raises_the_lowest_levels(r, delta, frac, parity, q, n):
    # Cauchy interlacing: the n-block is a leading principal block of the
    # 2n-block, so no level rises when the truncation doubles
    p = ModelParams(delta=delta, g=frac / (1.0 + r), r=r)
    small = _block_levels(ed.build_parity_block(p, parity, n, q), 6)
    large = _block_levels(ed.build_parity_block(p, parity, 2 * n, q), 6)
    assert np.all(large - small <= 1e-12 * (1.0 + np.abs(small)))


@pytest.mark.parametrize("compute", [
    lambda p: ed.ed_ground_observables(p),
    lambda p: ed.conditional_photon_state(p, "qubit-down"),
    lambda p: ed.wigner_grid(p, points=9),
], ids=["observables", "conditional", "wigner"])
def test_ground_state_consumers_share_the_convergence_gate(compute):
    # 1 - g/g_c = 1e-8 needs more than the default 16384 ceiling
    g_c, delta_c = critical_params(0.6)
    with pytest.raises(ConvergenceError, match="ground state unconverged"):
        compute(ModelParams(delta=delta_c, g=g_c * (1 - 1e-8), r=0.6))


@pytest.mark.parametrize("compute,message", [
    (lambda p: ed.ed_spectrum(p, k=0), "k=0 must be >= "),
    (lambda p: ed.full_spectrum(p, k=0), "k=0 must be >= "),
    (lambda p: ed.qfi_spectral(p, k_states=0), "k_states=0 must be >= "),
    (lambda p: ed.wigner_grid(p, points=1), "points=1 must be >= "),
    (lambda p: ed.collapse_point_gap(p, 2, 64), "n_max=2 must be >= "),
    (lambda p: ed.lowest_level(p, -1, 65536.5), "n_max=65536.5 must be an integer"),
    (lambda p: ed.collapse_point_gap(p, 64.0, 256), "n_max=64.0 must be an integer"),
    (lambda p: ed.build_parity_block(p, -1, 1), "n_max=1 must be >= 2"),
    (lambda p: ed.ed_spectrum(p, k=True), "k=True must be an integer"),
    (lambda p: ed.wigner_grid(p, points=9.0), "points=9.0 must be an integer"),
    # a truncation below 2 rows, which the doubling ladders once raised to their floor
    (lambda p: ed.ed_spectrum(p, n_max=-5), "n_max=-5 must be >= 2"),
    (lambda p: ed.full_spectrum(p, n_max=0), "n_max=0 must be >= 2"),
    (lambda p: ed.ground_state_block(p, n_max=2.5), "n_max=2.5 must be an integer"),
    (lambda p: ed.ed_ground_observables(p, n_max=1), "n_max=1 must be >= 2"),
    (lambda p: ed.wigner_grid(p, n_max=-4), "n_max=-4 must be >= 2"),
], ids=["ed_spectrum", "full_spectrum", "qfi_spectral", "wigner_grid", "collapse_point_gap",
        "lowest_level_fraction", "collapse_point_gap_float", "build_parity_block",
        "ed_spectrum_bool", "wigner_grid_float", "ed_spectrum_n_max", "full_spectrum_n_max",
        "ground_state_block_n_max", "observables_n_max", "wigner_grid_n_max"])
def test_bad_counts_rejected_early_by_name(compute, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        compute(ModelParams(delta=0.3, g=0.2, r=0.6))


@pytest.mark.parametrize("compute", [
    lambda: ed.build_parity_block(ModelParams(delta=0.3, g=0.2, r=0.6), -1, 8, q=0.5),
    lambda: ed.block_to_spinfock(np.ones(4), -1, q=0.5),
    lambda: SectorSpec(q=0.5),
], ids=["build_parity_block", "block_to_spinfock", "SectorSpec"])
def test_a_bargmann_index_is_rejected_as_sector_spec_rejects_it(compute):
    with pytest.raises(ValueError, match="^Bargmann index q=0.5 must be 1/4 or 3/4$"):
        compute()


def test_numpy_integer_counts_accepted():
    p = ModelParams(delta=0.3, g=0.2, r=0.6)
    assert ed.lowest_level(p, -1, np.int64(64)) == ed.lowest_level(p, -1, 64)
    assert ed.ed_spectrum(p, k=np.int32(2)).energies.shape == (2,)


def test_aa_deviation_grows_away_from_critical_line():
    r, beta = 0.6, 0.1
    devs = {}
    for delta in (0.25, 1.0):
        p = at_beta(r, beta, delta)
        spec = ed.ed_spectrum(p, SectorSpec(0.25, -1), k=6)
        aa_levels = [aa_energy(n, -1, p).energy for n in range(6)]
        devs[delta] = np.abs(spec.energies - aa_levels).max()
    assert devs[1.0] > 3 * devs[0.25]


def test_spectrum_levels_property():
    spec = ed.full_spectrum(ModelParams(delta=0.5, g=0.1, r=0.5), k=3)
    assert spec.energies.shape == spec.parities.shape == spec.indices.shape == (6,)
    assert spec.parities.dtype.kind == "i" and sorted(spec.parities) == [-1] * 3 + [1] * 3
    assert list(spec.energies) == sorted(spec.energies)


# ---------------------------------------------------------------- squeezed frame

def test_squeezed_frame_zero_coupling_limit():
    p = ModelParams(delta=0.8, g=0.0, r=0.6)
    for parity in (+1, -1):
        spec = ed.squeezed_frame_spectrum(p, parity, 32, k=6)
        exact = sorted(2 * n + parity * (-1) ** n * 0.4 for n in range(8))[:6]
        assert np.abs(spec.energies - exact).max() < 1e-10


@pytest.mark.parametrize("beta", [0.5, 0.3])
def test_frame_equivalence(beta):
    p = at_beta(0.6, beta)
    for parity in (+1, -1):
        reference = ed.ed_spectrum(p, SectorSpec(0.25, parity), n_max=256, tol=1e-11, k=6)
        frame = ed.squeezed_frame_spectrum(p, parity, 480, k=6)
        diff = np.abs(frame.energies - reference.energies).max()
        # floor at the eigensolver residual scale 1e-10 ||A||
        allowed = max(frame.convergence_estimate.max(),
                      reference.convergence_estimate.max(),
                      1e-10 * np.abs(reference.energies).max())
        assert diff <= allowed
        assert diff < 1e-6


@pytest.mark.parametrize("parity", [+1, -1])
def test_squeezed_frame_memory_is_set_by_its_n_max_squared_arrays(parity):
    # one (n_max+1)^2 buffer holds S, then M, then the full solve's workspace;
    # the peak is the squeeze matrix's sweep (values and one assembly block,
    # 2.77e6 bytes at n_max = 480; at beta = 0.3 it never rescales, so it
    # allocates no rescale counts), not a second full matrix
    g_c, delta_c = critical_params(0.6)
    p = ModelParams(delta=delta_c, g=g_c * math.sqrt(1 - 0.3**2), r=0.6)  # beta = 0.3
    ed.squeezed_frame_spectrum(p, parity, 16, k=6)  # lazy imports and caches stay out of the count
    tracemalloc.start()
    try:
        ed.squeezed_frame_spectrum(p, parity, 480, k=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6


def test_squeezed_frame_wins_at_small_beta_moderate_accuracy():
    # near collapse the frame basis absorbs the squeezing: 6 levels to ~2e-2
    # at n_max=16, while bare Fock is still off by 0.14 at n_max=128
    p = at_beta(0.6, 0.05)
    reference = ed.ed_spectrum(p, SectorSpec(0.25, -1), n_max=1024, tol=1e-11, k=6)
    frame_err = np.abs(
        ed.squeezed_frame_spectrum(p, -1, 16, k=6).energies - reference.energies
    ).max()
    bare_err = np.abs(
        _block_levels(ed.build_parity_block(p, -1, 128), 6)
        - reference.energies
    ).max()
    assert frame_err < 2e-2
    assert bare_err > 2e-2


@pytest.mark.parametrize("parity", [+1, -1])
def test_squeezed_frame_builds_one_matrix(monkeypatch, parity):
    sizes = []
    build = ed.aa_matrix

    def recording_build(params, n_max):
        sizes.append(n_max)
        return build(params, n_max)

    monkeypatch.setattr(ed, "aa_matrix", recording_build)
    ed.squeezed_frame_spectrum(at_beta(0.6, 0.3), parity, 64)
    assert sizes == [64]  # the n_max/2 estimate reads the leading block


@pytest.mark.parametrize("parity", [+1, -1])
@pytest.mark.parametrize("beta", [0.3, 0.05])
def test_frame_estimate_is_the_half_size_solve_of_the_leading_block(beta, parity):
    # the estimate's half-size block must be read before the full solve overwrites M
    p = at_beta(0.6, beta)

    def levels(n):
        a = parity * ed.aa_matrix(p, 480)[:n, :n]
        a[np.diag_indices(n)] += (2 * np.arange(n) + 0.5) * geometry(p).beta - 0.5
        return np.linalg.eigvalsh(a, UPLO="L")[:6]

    frame = ed.squeezed_frame_spectrum(p, parity, 480, k=6)
    assert np.abs(frame.energies - levels(480)).max() <= 1e-12
    assert np.abs(frame.convergence_estimate - np.abs(levels(480) - levels(240))).max() <= 1e-12


@pytest.mark.parametrize("args,message", [
    ((0, 16, 2), r"parity must be \+1 or -1"),
    ((2, 16, 2), r"parity must be \+1 or -1"),
    ((-1, 16, 0), "k=0 must be >= 1"),
    ((-1, 16, -2), "k=-2 must be >= 1"),
    ((-1, 16, True), "k=True must be an integer"),
    ((-1, 16, 2.0), "k=2.0 must be an integer"),
    ((+1, 16.0, 2), "n_max=16.0 must be an integer"),
    ((+1, True, 2), "n_max=True must be an integer"),
    ((+1, 0, 2), "n_max=0 must be >= 1"),
    ((+1, 7, 4), "n_max=7 too small for k=4 levels"),
    ((+1, 3, 1), "n_max=3 too small for k=1 levels"),
])
def test_squeezed_frame_rejects_bad_inputs_by_name_before_any_work(monkeypatch, args, message):
    def unreachable(params, n_max):
        raise AssertionError("aa_matrix reached with a bad input")

    monkeypatch.setattr(ed, "aa_matrix", unreachable)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ed.squeezed_frame_spectrum(at_beta(0.6, 0.3), *args)


def test_squeezed_frame_rejects_the_collapse_point_before_s_is_built(monkeypatch):
    def unreachable(theta, n):
        raise AssertionError("squeeze_matrix reached at g = g_c")

    monkeypatch.setattr("tpqrm.aa.squeeze_matrix", unreachable)
    g_c, delta_c = critical_params(0.6)
    with pytest.raises(ValueError, match="^beta = 0 at g = g_c"):
        ed.squeezed_frame_spectrum(ModelParams(delta=delta_c, g=g_c, r=0.6), -1, 16, k=2)


def test_squeezed_frame_imaginary_parts_negligible():
    # the frame matrix is symmetric to its gate, so the levels come out real
    p = at_beta(0.6, 0.3)
    m = ed.aa_matrix(p, 240)
    assert np.abs(m - m.T).max() <= 1e-9 * np.abs(m).max()
    spec = ed.squeezed_frame_spectrum(p, -1, 240, k=6)
    assert spec.energies.dtype == np.float64
    assert spec.n_max_used == 240


@pytest.mark.parametrize("parity", [+1, -1])
@pytest.mark.parametrize("beta", [0.05, 0.5])
def test_frame_levels_match_the_general_eigensolver(beta, parity):
    # the symmetric solve of the lower triangle against general eig of the whole matrix
    p = at_beta(0.6, beta)
    a = parity * ed.aa_matrix(p, 480)
    a[np.diag_indices(480)] += (2 * np.arange(480) + 0.5) * geometry(p).beta - 0.5
    general = np.sort(eig(a, right=False).real)[:6]
    frame = ed.squeezed_frame_spectrum(p, parity, 480, k=6)
    assert np.abs(frame.energies - general).max() <= 1e-12


@pytest.mark.parametrize("estimate,converged", [(0.9e-8, True), (1.1e-8, False)])
def test_frame_levels_converge_only_below_a_1e_8_estimate(monkeypatch, estimate, converged):
    # forged solves: the half-size one (first) sits `estimate` above the full one
    levels = np.array([-0.4, 0.1, 0.6])
    solves = iter([levels + estimate, levels])
    monkeypatch.setattr(ed, "_squeezed_frame_eigs", lambda m, parity, beta, k: next(solves))
    frame = ed.squeezed_frame_spectrum(at_beta(0.6, 0.5), -1, 16, k=3)
    assert np.array_equal(frame.energies, levels)
    assert frame.convergence_estimate == pytest.approx(np.full(3, estimate), rel=1e-6)
    assert frame.converged.tolist() == [converged] * 3


@pytest.mark.parametrize("build", ["squeeze_matrix", "aa_matrix", "squeezed_frame_spectrum"])
def test_an_s_past_the_entry_budget_is_rejected_by_its_n_max(monkeypatch, build):
    # (2^20)^2 doubles are 8.8 TB: each entry point rejects its n_max before the sweep
    # (or, for the frame, aa_matrix) could allocate; aa_matrix's S would be 2^20 + 1 wide
    def unreachable(*args):
        raise AssertionError("allocating past the entry budget")

    monkeypatch.setattr(specfun, "_legendre_sweep", unreachable)
    monkeypatch.setattr(ed, "aa_matrix", unreachable)
    p = at_beta(0.6, 0.3)
    calls = {"squeeze_matrix": lambda: specfun.squeeze_matrix(0.94, 2**20),
             "aa_matrix": lambda: aa.aa_matrix(p, 2**20),
             "squeezed_frame_spectrum": lambda: ed.squeezed_frame_spectrum(p, -1, 2**20, k=6)}
    message = "n_max=1048576 needs an array of 1.1e+12 entries, above 8388608"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calls[build]()


def test_asymmetric_frame_matrix_flags_every_level(monkeypatch):
    p = at_beta(0.6, 0.5)
    assert ed.squeezed_frame_spectrum(p, -1, 480, k=6).converged.all()
    build = ed.aa_matrix

    def skewed(params, n_max):
        m = build(params, n_max)
        m[5, 2] += 1e-8 * np.abs(m).max()  # the symmetric solve reads only this triangle
        return m

    monkeypatch.setattr(ed, "aa_matrix", skewed)
    assert not ed.squeezed_frame_spectrum(p, -1, 480, k=6).converged.any()


# ---------------------------------------------------------------- observables

def test_ground_observables_zero_coupling():
    obs = ed.ed_ground_observables(ModelParams(delta=0.7, g=0.0, r=0.6), 32)
    assert obs.photon == pytest.approx(0.0, abs=1e-12)
    assert obs.sigma_x == pytest.approx(1.0, abs=1e-12)
    assert obs.dx == pytest.approx(1.0, abs=1e-12)
    assert obs.dp == pytest.approx(1.0, abs=1e-12)


def test_ground_observables_near_collapse():
    p = at_beta(0.6, 0.1)
    obs = ed.ed_ground_observables(p, 256)
    ref = aa_observables(p)
    assert abs(obs.photon - ref.photon) / ref.photon < 0.1  # O(beta)-level deviation
    assert abs(obs.sigma_x - ref.sigma_x) / ref.sigma_x < 0.1
    assert obs.dx == pytest.approx(obs.dp, rel=1e-12)  # <a^2> = 0 by parity
    assert obs.dx * obs.dp >= 1.0


# ---------------------------------------------------------------- QFI

def _eigensum(params, n_max, power=2, k_states=64):
    """4 sum_(j!=0) |<j| dH/dg |0>|^2 / (E_j - E_0)^power over the lowest excited states.

    An independent oracle from k_states excited eigenvectors: power 2 gives
    F_Q, power 3 gives 4 chi_3.  Its last quarter of terms must be below
    1e-6 of the sum, so the truncated tail cannot hide in the comparison.
    """
    block = ed.build_parity_block(params, -1, n_max)
    w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i",
                            select_range=(0, min(k_states, n_max - 1)))
    nums = v[:, 1:].T @ ed.tridiag_apply(np.zeros(n_max), block.coupling, v[:, 0])
    terms = 4.0 * nums**2 / (w[1:] - w[0]) ** power
    assert terms[-len(terms) // 4:].sum() <= 1e-6 * terms.sum()
    return float(terms.sum())


# criterion 04's points, and g = 0, where H - E_0 is diagonal with an exact zero
_CRITERION_04_POINTS = [
    (r, float(g)) for r in (0.25, 0.6) for g in make_grid(2.5, 4.5, 7, r).g_values
] + [(0.25, 0.0)]


@pytest.mark.parametrize("r,g", _CRITERION_04_POINTS)
def test_qfi_matches_the_eigenvector_sum(r, g):
    # qfi_spectral(n_max=2048) holds its gate at the first doubling, at 4096
    p = ModelParams(delta=critical_params(r)[1], g=g, r=r)
    assert ed.qfi_spectral(p, n_max=2048) == pytest.approx(_eigensum(p, 4096), rel=1e-6)


@pytest.mark.parametrize("r,frac", [(0.25, 0.99), (0.6, 0.9), (0.25, 0.5)])
def test_chi3_matches_the_eigenvector_sum(r, frac):
    g_c, delta_c = critical_params(r)
    p = ModelParams(delta=delta_c, g=frac * g_c, r=r)
    # the chi_3 ladder stops at 512 at these points; the oracle sums at 1024
    chi_3 = adiabatic_reference(p.g, 1.0, p) / p.g**2
    assert 4.0 * chi_3 == pytest.approx(_eigensum(p, 1024, power=3), rel=1e-6)


@pytest.mark.parametrize("parity", [+1, -1])
def test_dg_hamiltonian_keeps_the_ground_parity(parity):
    p = at_beta(0.6, 0.3)
    block = ed.build_parity_block(p, parity, 256)
    _, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
    dup, ddn = ed.dg_hamiltonian_apply(*ed.block_to_spinfock(v[:, 0], parity), p.r)
    other = ed.build_parity_block(p, -parity, 256)
    _, w = eigh_tridiagonal(other.diag, other.offdiag, select="i", select_range=(0, 7))
    scale = math.sqrt(float(dup @ dup + ddn @ ddn))
    for j in range(8):
        wu, wd = ed.block_to_spinfock(w[:, j], -parity)
        assert abs(float(wu @ dup + wd @ ddn)) <= 1e-12 * scale


def test_cross_parity_check_catches_a_parity_breaking_term(monkeypatch):
    p = at_beta(0.6, 0.3)
    apply = ed.dg_hamiltonian_apply

    def with_sigma_z(psi_up, psi_dn, r):
        dup, ddn = apply(psi_up, psi_dn, r)
        return dup + 1e-6 * psi_up, ddn - 1e-6 * psi_dn  # sigma_z flips the Z2 parity

    monkeypatch.setattr(ed, "dg_hamiltonian_apply", with_sigma_z)
    with pytest.raises(RuntimeError, match="cross-parity element"):
        ed.qfi_spectral(p)


def test_cross_parity_check_sees_the_fifth_opposite_level(monkeypatch):
    # a check against only the four lowest parity +1 levels lets this term through
    p = at_beta(0.6, 0.3)
    apply = ed.dg_hamiltonian_apply

    def with_fifth_level(psi_up, psi_dn, r):
        dup, ddn = apply(psi_up, psi_dn, r)
        block = ed.build_parity_block(p, +1, (len(psi_up) + 1) // 2)
        _, w = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(4, 4))
        wu, wd = ed.block_to_spinfock(w[:, 0], +1)
        return dup + 1e-6 * wu, ddn + 1e-6 * wd

    monkeypatch.setattr(ed, "dg_hamiltonian_apply", with_fifth_level)
    with pytest.raises(RuntimeError, match="cross-parity element"):
        ed.qfi_spectral(p)


def test_opposite_parity_part_is_the_projection_onto_the_whole_block():
    # Parseval over all 256 eigenvectors of the parity +1 block pins the projection's signs
    n = 256
    psi_up, psi_dn = np.random.default_rng(0).standard_normal((2, 2 * n - 1))
    block = ed.build_parity_block(at_beta(0.6, 0.3), +1, n)
    _, w = eigh_tridiagonal(block.diag, block.offdiag)
    overlaps = [wu @ psi_up + wd @ psi_dn
                for wu, wd in (ed.block_to_spinfock(w[:, j], +1) for j in range(n))]
    c = ed._opposite_parity_part(psi_up, psi_dn)
    even = psi_up[::2] @ psi_up[::2] + psi_dn[::2] @ psi_dn[::2]
    assert 0.25 * even < c @ c < 0.75 * even  # the vector has both parities
    assert abs(c @ c - np.sum(np.square(overlaps))) <= 1e-12 * even


def test_qfi_zero_coupling_single_level_formula():
    p = ModelParams(delta=0.6, g=0.0, r=0.25)
    assert ed.qfi_spectral(p) == pytest.approx(8 * 0.25**2 / (2 + 0.6) ** 2, rel=1e-10)
    assert ed.qfi_spectral(p) == pytest.approx(0.073964, rel=1e-4)


@pytest.mark.parametrize(
    "r,delta,gfrac", [(0.25, 0.6, 0.5), (0.6, None, 0.9), (0.25, None, 0.9)]
    + [(r, delta, gfrac) for r in (0.25, 0.6, 1.0) for delta in (0.3, 1.2) for gfrac in (0.4, 0.8)]
)
def test_qfi_fidelity_cross_check(r, delta, gfrac):
    g_c, delta_c = critical_params(r)
    p = ModelParams(delta=delta_c if delta is None else delta, g=gfrac * g_c, r=r)
    spectral = ed.qfi_spectral(p)
    oracle = ed.qfi_fidelity_oracle(p)
    assert abs(spectral - oracle) / spectral < 1e-3


@pytest.mark.parametrize("beta", [0.1, 0.05])
def test_qfi_matches_leading_form_near_collapse(beta):
    p = at_beta(0.6, beta)
    f_q = ed.qfi_spectral(p, n_max=512)
    assert abs(f_q - aa_qfi_leading(p)) / f_q < 3 * beta


def test_qfi_solves_the_final_ground_block_once(monkeypatch):
    p = at_beta(0.6, 0.3)
    diags = []
    solve = ed.eigh_tridiagonal

    def recording_solve(d, e, *args, **kwargs):
        diags.append(d)
        return solve(d, e, *args, **kwargs)

    monkeypatch.setattr(ed, "eigh_tridiagonal", recording_solve)
    ed.qfi_spectral(p)
    final = ed.build_parity_block(p, -1, max(len(d) for d in diags)).diag
    # the selection rule reuses the last rung's ground vector
    assert sum(np.array_equal(d, final) for d in diags) == 1


def test_qfi_ladder_raises_at_its_ceiling():
    # one rung gives no second estimate, so the 1e-6 doubling gate cannot hold
    with pytest.raises(ConvergenceError, match="^F_Q not stable to 1e-06 at truncation ceiling 64$"):
        ed.qfi_spectral(at_beta(0.6, 0.3), n_max=64, n_max_ceiling=64)


def test_fidelity_oracle_rejects_unconverged_ground_states():
    # the first state reaches the 16384 ceiling with an estimate of 6.4e-7
    g_c, delta_c = critical_params(0.6)
    p = ModelParams(delta=delta_c, g=g_c * (1 - 1e-7), r=0.6)
    with pytest.raises(ConvergenceError, match="ground state unconverged"):
        ed.qfi_fidelity_oracle(p, eps=1e-9)


def test_fidelity_oracle_rejects_a_step_across_the_collapse_point():
    g_c, delta_c = critical_params(0.6)
    p = ModelParams(delta=delta_c, g=g_c - 1e-6, r=0.6)
    with pytest.raises(ValueError, match=r"^g \+ eps crosses the collapse point$"):
        ed.qfi_fidelity_oracle(p, eps=1e-5)


@pytest.mark.parametrize("error,raises", [(1e-6, True), (1e-9, False)])
def test_qfi_residual_gate(monkeypatch, error, raises):
    # a solve off by `error` relative leaves a residual of about that size
    p = at_beta(0.6, 0.3)
    exact = ed.qfi_spectral(p)
    solve = ed.dgtsv

    def perturbed(*args):
        *rest, y, info = solve(*args)
        return (*rest, y * (1.0 + error * np.cos(np.arange(len(y)))), info)

    monkeypatch.setattr(ed, "dgtsv", perturbed)
    if raises:
        with pytest.raises(ConvergenceError, match="resolvent residual"):
            ed.qfi_spectral(p)
    else:
        assert ed.qfi_spectral(p) == pytest.approx(exact, rel=1e-8)


# ---------------------------------------------------------------- Wigner

@pytest.mark.parametrize("bad", [-12.0, 0.0, math.nan, math.inf])
def test_wigner_rejects_a_bad_half_width_before_the_ground_solve(monkeypatch, bad):
    monkeypatch.setattr(ed, "_ground_spinfock", None)  # a ground solve would raise TypeError
    with pytest.raises(ValueError, match=f"^half_width={bad} must be finite and positive$"):
        ed.wigner_grid(ModelParams(delta=0.3, g=0.2, r=0.6), half_width=bad)


@pytest.mark.parametrize("compute,message", [
    (lambda p: ed.wigner_grid(p, conditioning="bogus"), "unknown conditioning 'bogus'"),
    (lambda p: ed.conditional_photon_state(p, "reduced"),
     "conditioning must be 'qubit-up' or 'qubit-down', got 'reduced'"),
], ids=["wigner_grid", "conditional_photon_state"])
def test_an_unknown_conditioning_is_rejected_before_the_ground_solve(monkeypatch, compute, message):
    def unreached(*args, **kwargs):
        raise AssertionError("the ground state was solved")

    monkeypatch.setattr(ed, "ground_state_block", unreached)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compute(ModelParams(delta=0.3, g=0.2, r=0.6))


@pytest.mark.parametrize("half_width,points,entries", [
    (1000.0, 161, "2.05e+08"), (1e300, 161, "inf"), (None, 5000, "5e+07"),
], ids=["wide", "overflowing", "many_points"])
def test_wigner_rejects_an_oversized_lattice_before_the_ground_solve(
        monkeypatch, half_width, points, entries):
    # the lattice arrays grow as points half_width^2: 1.6 GB each at half_width 1000
    monkeypatch.setattr(ed, "_ground_spinfock", None)  # a ground solve would raise TypeError
    sizes = f"points={points}" + ("" if half_width is None else f" with half_width={half_width}")
    message = f"{sizes} needs a y-lattice of {entries} entries per array, above 8388608"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ed.wigner_grid(ModelParams(delta=0.3, g=0.2, r=0.6), half_width=half_width,
                       points=points)


def test_wigner_lattice_bound_admits_the_grids_in_use():
    # the check before a default-width solve, the far-out closed form's half_width
    # 40, and the widest 161-point grid under the bound (about 200 MB of arrays)
    for half_width in (None, 40.0, 199.0):
        ed.check_wigner_lattice(half_width, 161)
    with pytest.raises(ValueError, match="^points=161 with half_width=205.0 needs"):
        ed.check_wigner_lattice(205.0, 161)


def _hermite_psi(n, q):
    c = np.zeros(n + 1)
    c[n] = 1.0
    lognorm = -0.25 * math.log(math.pi) - 0.5 * (n * math.log(2) + gammaln(n + 1))
    return math.exp(lognorm) * hermval(q, c) * np.exp(-q * q / 2)


def _wigner_bruteforce(coeffs, x, p):
    """Position-integral Wigner of a pure Fock-superposition, same conventions.

    Coefficients below 1e-10 are dropped: hermval overflows around
    n ~ 120 at the integration range's edge, and those terms are far
    below the comparison tolerance anyway.
    """
    q, k = x / math.sqrt(2), p / math.sqrt(2)
    y = np.linspace(-12, 12, 4001)
    terms = [(n, c) for n, c in enumerate(coeffs) if abs(c) > 1e-10]
    plus = sum(c * _hermite_psi(n, q + y) for n, c in terms)
    minus = sum(c * _hermite_psi(n, q - y) for n, c in terms)
    val = np.trapezoid(np.exp(-2j * k * y) * plus * np.conj(minus), y) / np.pi
    return float(np.real(val)) / 2.0


def test_wigner_vacuum_closed_form():
    p = ModelParams(delta=0.3, g=0.0, r=0.25)
    grid = ed.wigner_grid(p, n_max=16, conditioning="reduced", half_width=7.0, points=141)
    assert grid.normalization == pytest.approx(1.0, abs=1e-3)
    centre = grid.values[70, 70]
    assert centre == pytest.approx(1.0 / (2 * math.pi), rel=1e-10)
    X, P = np.meshgrid(grid.x_axis, grid.p_axis)
    expected = np.exp(-(X**2 + P**2) / 2) / (2 * math.pi)
    assert np.abs(grid.values - expected).max() < 1e-10


def test_wigner_matches_position_integral_oracle():
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    grid = ed.wigner_grid(p, n_max=128, conditioning="qubit-down", points=41)
    cond = ed.conditional_photon_state(p, "qubit-down", 128)
    for (i, j) in [(20, 20), (10, 25), (25, 10), (30, 30), (5, 18)]:
        ref = _wigner_bruteforce(cond, grid.x_axis[j], grid.p_axis[i])
        assert grid.values[i, j] == pytest.approx(ref, abs=5e-9)


def test_wigner_moments_match_observables():
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    grid = ed.wigner_grid(p, n_max=128, conditioning="reduced")
    obs = ed.ed_ground_observables(p, 128)
    X, P = np.meshgrid(grid.x_axis, grid.p_axis)
    m2x = np.trapezoid(np.trapezoid(grid.values * X**2, grid.x_axis, axis=1), grid.p_axis)
    m2p = np.trapezoid(np.trapezoid(grid.values * P**2, grid.x_axis, axis=1), grid.p_axis)
    assert grid.normalization == pytest.approx(1.0, abs=1e-3)
    assert m2x == pytest.approx(obs.dx**2, rel=1e-2)
    assert m2p == pytest.approx(obs.dp**2, rel=1e-2)


def test_wigner_conditional_orientation():
    # qubit-down component is the x-elongated squeezed branch
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    grid = ed.wigner_grid(p, n_max=128, conditioning="qubit-down")
    X, P = np.meshgrid(grid.x_axis, grid.p_axis)
    m2x = np.trapezoid(np.trapezoid(grid.values * X**2, grid.x_axis, axis=1), grid.p_axis)
    m2p = np.trapezoid(np.trapezoid(grid.values * P**2, grid.x_axis, axis=1), grid.p_axis)
    assert m2x > 5 * m2p


def test_reduced_wigner_is_the_weighted_conditional_mixture():
    # tracing out the qubit mixes the two conditional states by their weights
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    up, dn = ed.block_to_spinfock(ed.ground_state_block(p, 128)[1], -1)
    grids = {c: ed.wigner_grid(p, n_max=128, conditioning=c, points=41, half_width=12.0).values
             for c in ("reduced", "qubit-up", "qubit-down")}
    mixture = (up @ up) * grids["qubit-up"] + (dn @ dn) * grids["qubit-down"]
    assert np.abs(grids["reduced"] - mixture).max() < 1e-13


def _wigner_laguerre(components, x_axis, p_axis):
    """Oracle: W summed over the Fock density entries with the Laguerre kernel.

    With alpha = (x + i p)/2 the contribution of |m><n| (m >= n) is
    (1/2pi) (-1)^n sqrt(n!/m!) (2 conj(alpha))^(m-n) L_n^(m-n)(4|alpha|^2)
    exp(-2|alpha|^2), plus the mirrored term for the transposed entry.
    The density is taken on the even Fock states of the support and its
    entries below 1e-18 are dropped.
    """
    weight = sum(np.abs(comp) for comp in components)
    support = max(int(np.nonzero(weight > 1e-14)[0].max()) + 1, 2)
    rho = sum(np.outer(comp[:support:2], comp[:support:2]) for comp in components)
    x = x_axis[None, :]
    p = p_axis[:, None]
    r2 = x * x + p * p  # 4|alpha|^2
    z = x - 1j * p  # 2 conj(alpha)
    total = np.zeros((len(p_axis), len(x_axis)))
    for i, j in zip(*np.nonzero(np.tril(np.abs(rho) >= 1e-18))):
        m, n = 2 * int(i), 2 * int(j)
        pref = (-1.0) ** n * math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
        lag = eval_genlaguerre(n, m - n, r2)
        # real state: |m><n| + |n><m| give 2 Re[(2 conj alpha)^(m-n)]
        angular = 1.0 if m == n else 2.0 * (z ** (m - n)).real
        total += rho[i, j] * pref * angular * lag
    return total * np.exp(-0.5 * r2) / (2.0 * math.pi)


@pytest.mark.parametrize("points", [161, 41, 21, 9])
def test_wigner_matches_the_laguerre_kernel(points):
    # the Hermite-lattice kernel against the per-density-entry Laguerre sum; on a lattice
    # tied to the output spacing (refine = 1) aliased copies of W reach the boundary of
    # the 9- and 21-point boxes (the gate raises), and the 41-point grid misses by 9e-8
    g_c, delta_c = critical_params(0.25)
    p = ModelParams(delta=delta_c, g=0.95 * g_c, r=0.25)
    grid = ed.wigner_grid(p, n_max=128, conditioning="reduced", points=points)
    up, dn = ed.block_to_spinfock(ed.ground_state_block(p, 128)[1], -1)
    rows = slice(None, None, max(1, (points - 1) // 20))  # at most 21 p-rows of the slow oracle
    oracle = _wigner_laguerre([up, dn], grid.x_axis, grid.p_axis[rows])
    assert np.abs(grid.values[rows] - oracle).max() <= 1e-13


def test_wigner_squeezed_vacuum_closed_form_far_out():
    # S(theta)|0> has W = exp(-x^2 e^(-2 theta)/2 - p^2 e^(2 theta)/2) / 2pi; at
    # half_width 40 the q-lattice reaches |q| ~ 85, where exp(-q^2/2) underflows and
    # the unscaled Hermite recurrence overflows
    theta = 1.5
    m = np.arange(600)
    log_c = (-0.5 * math.log(math.cosh(theta)) + m * math.log(math.tanh(theta))
             + 0.5 * gammaln(2 * m + 1) - m * math.log(2.0) - gammaln(m + 1))
    coeffs = np.zeros(2 * len(m))
    coeffs[::2] = np.exp(log_c)
    axis = np.linspace(-40.0, 40.0, 161)
    values = ed._wigner_from_components([coeffs], axis, axis)
    X, P = np.meshgrid(axis, axis)
    exact = np.exp(-0.5 * X**2 * math.exp(-2 * theta) - 0.5 * P**2 * math.exp(2 * theta))
    assert np.abs(values - exact / (2 * math.pi)).max() <= 1e-13


def test_joint_hermite_sum_is_bitwise_the_per_component_sums():
    # one recurrence for every row; the lattice reaches |q| ~ 40, where the
    # Gaussian is carried as a log scale and the sums are renormalized together.
    # The third row's zeros differ from the ground state's, whose odd entries vanish
    g_c, delta_c = critical_params(0.25)
    up, dn = ed.block_to_spinfock(
        ed.ground_state_block(ModelParams(delta=delta_c, g=0.95 * g_c, r=0.25), 256)[1], -1)
    other = np.random.default_rng(7).normal(size=len(up))
    other[::3] = 0.0
    rows = np.array([up, dn, other])
    q = np.linspace(-40.0, 40.0, 2001)
    joint = ed._hermite_sum(rows, q)
    for row, total in zip(rows, joint):
        assert np.array_equal(total, ed._hermite_sum(row[None, :], q)[0])
    assert np.abs(joint[2]).max() > 0.0 and np.isfinite(joint).all()


@pytest.mark.parametrize("reach,points,least", [(40.0, 2001, 100), (60.0, 1201, 250)])
def test_hermite_sum_is_bitwise_the_per_degree_rescale_oracle(reach, points, least):
    # the kernel tests for rescale only where its growth bound lets it pass, the oracle
    # at every degree; both lattices rescale at `least` degrees or more.  The rows' zero
    # patterns differ (the ground state's odd entries vanish, `other` has every third
    # zero, `sparse` every fifth nonzero), so some degrees have every row nonzero,
    # some a few rows and some none
    g_c, delta_c = critical_params(0.25)
    up, dn = ed.block_to_spinfock(
        ed.ground_state_block(ModelParams(delta=delta_c, g=0.95 * g_c, r=0.25), 256)[1], -1)
    other = np.random.default_rng(7).normal(size=len(up))
    other[::3] = 0.0
    sparse = np.zeros(len(up))
    sparse[1::5] = 1.0 / np.arange(1.0, len(sparse[1::5]) + 1.0)
    rows = np.array([up, dn, other, sparse])
    q = np.linspace(-reach, reach, points)
    rescaled = []
    want = oracles.hermite_sum(rows, q, rescaled)
    assert np.array_equal(ed._hermite_sum(rows, q).view(np.uint64), want.view(np.uint64))
    assert len(rescaled) >= least


def test_wigner_narrow_grid_rejected():
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    with pytest.raises(ValueError, match="boundary"):
        ed.wigner_grid(p, n_max=128, half_width=2.0)


def test_conditional_projection_norms():
    p = ModelParams(delta=0.6, g=0.7, r=0.25)
    _, coeffs, _, _ = ed.ground_state_block(p, 64)
    up, dn = ed.block_to_spinfock(coeffs, -1)
    assert float(up @ up) == pytest.approx(0.5, abs=1e-12)
    assert float(dn @ dn) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n_states", [64, 512])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.73, 1.5, 3.0, -0.4])
def test_squeezed_vacuum_closed_form_matches_the_squeeze_elements(theta, n_states):
    # the per-element Legendre route <2m|S(theta)|0>; both underflow at the same m
    coeffs = ed.squeezed_vacuum_coeffs(theta, n_states)
    elements = np.array([squeeze_element(m, 0, theta / 2.0, +1) for m in range(n_states)])
    assert np.array_equal(coeffs == 0.0, elements == 0.0)
    nonzero = elements != 0.0
    assert np.abs(coeffs[nonzero] / elements[nonzero] - 1.0).max() <= 1e-11


def test_squeezed_vacuum_at_zero_squeezing_is_the_vacuum():
    assert np.array_equal(ed.squeezed_vacuum_coeffs(0.0, 5), [1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^theta=nan must be finite$"):
        ed.squeezed_vacuum_coeffs(math.nan, 5)


def test_conditional_state_approaches_squeezed_vacuum():
    # fidelity to the frame squeezed vacuum is high but saturates below
    # 0.999 at g = 0.95 g_c (finite uncertainty excess); it improves with g
    r = 0.25
    g_c, delta_c = critical_params(r)
    fids = {}
    for gfrac in (0.95, 0.99):
        p = ModelParams(delta=delta_c, g=gfrac * g_c, r=r)
        theta = geometry(p).theta
        cond = ed.conditional_photon_state(p, "qubit-down", 256)
        even = np.arange(0, len(cond), 2)
        sq = ed.squeezed_vacuum_coeffs(theta, len(even))
        fids[gfrac] = abs(float(cond[even] @ sq))
    assert 0.98 < fids[0.95] < 0.999
    assert fids[0.99] > fids[0.95]


def _qubit_down_fidelity(r: float, distance: float):
    """(theta, F) at Delta_c, g = g_c (1 - distance): F(a) = |<S(a) 0|qubit-down state>|."""
    g_c, delta_c = critical_params(r)
    p = ModelParams(delta=delta_c, g=g_c * (1.0 - distance), r=r)
    even = ed.conditional_photon_state(p, "qubit-down", 256)[::2]
    return geometry(p).theta, lambda a: abs(float(even @ ed.squeezed_vacuum_coeffs(a, len(even))))


@pytest.mark.parametrize("r,least", [(0.25, 0.99998), (0.6, 0.99999)])
def test_qubit_down_state_is_squeezed_by_the_renormalized_angle(r, least):
    # at Delta = Delta_c the qubit-down state's squeeze angle is the frame's theta less
    # the limit (1/4) ln[1/(1 - Delta_c^2)]: at 1 - g/g_c = 1e-4 the fidelity with
    # S(theta_r)|0> reads 0.9999857 (r = 0.25) and 0.9999983 (r = 0.6).  The best angle's
    # distance from that limit shrinks 5.6 to 5.8 times a decade from 1e-2 to 1e-4
    limit = 0.25 * math.log(1.0 / (1.0 - critical_params(r)[1] ** 2))
    theta, fidelity = _qubit_down_fidelity(r, 1e-4)
    assert fidelity(theta - limit) >= least
    misses = []
    for distance in (1e-2, 1e-3, 1e-4):
        theta, fidelity = _qubit_down_fidelity(r, distance)
        best = minimize_scalar(lambda a: -fidelity(a), bounds=(0.0, theta), method="bounded",
                               options={"xatol": 1e-10})
        misses.append(abs(theta - best.x - limit))
    assert misses[0] >= 4.0 * misses[1] and misses[1] >= 4.0 * misses[2]
