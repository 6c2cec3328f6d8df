import math
import re

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_hermite

from tpqrm import collapse1d
from tpqrm.collapse1d import (
    BoundStateLadder,
    Collapse1DProblem,
    bound_states,
    collapse_hamiltonian_check,
    effective_potential,
    geometric_ratio_theory,
)
from tpqrm.errors import CollapseMappingError
from tpqrm.model import ModelParams


def test_effective_potential_values():
    assert effective_potential(0.0, 1.7) == 0.0
    assert effective_potential(2.0, 0.0) == -1.0
    x = 1e4
    assert effective_potential(3.0, x) == pytest.approx(-9.0 / (4 * x * x), rel=1e-6)
    xs = effective_potential(3.0, np.array([0.0, 1.0]))
    assert xs == pytest.approx([-2.25, -1.125])


def test_problem_validation():
    with pytest.raises(ValueError):
        Collapse1DProblem(delta=-1.0)
    with pytest.raises(ValueError):
        Collapse1DProblem(delta=1.0, L=1.0, h=2.0)
    for field, bad in (("L", math.nan), ("h", math.inf), ("delta", math.nan)):
        with pytest.raises(ValueError, match=f"{field}={bad} must be finite"):
            Collapse1DProblem(**{"delta": 1.0, field: bad})


def test_problem_validation_counts_nodes_of_the_mapped_grid():
    # h < L holds, but asinh(2) / 1.5 rounds to one u-step: no interior node
    with pytest.raises(ValueError, match=r"^h=1\.5 is too coarse for L=2\.0: .* 1 steps leave 0$"):
        Collapse1DProblem(delta=1.0, L=2.0, h=1.5)
    with pytest.raises(ValueError, match=r"^h=0\.6 is too coarse for L=2\.0: .* 2 steps leave 1$"):
        Collapse1DProblem(delta=1.0, L=2.0, h=0.6)  # round(2.41) = 2 steps
    Collapse1DProblem(delta=1.0, L=2.0, h=0.5)  # round(2.89) = 3 steps: 2 interior nodes


def test_mapped_grid_matches_the_free_box_at_second_order():
    # Delta = 0 leaves a free particle in [-L, L]: E_n = (n pi / 2L)^2
    L = 100.0
    exact = (np.arange(1, 4) * math.pi / (2 * L)) ** 2
    errors = []
    for h in (0.05, 0.025, 0.0125):
        levels, _ = collapse1d._solve_grid(0.0, L, h, 3)
        errors.append(np.abs(levels / exact - 1.0))
    assert errors[0].max() < 2e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert np.all((coarse / fine > 3.8) & (coarse / fine < 4.2))


def test_bound_states_rejects_a_zero_level_count():
    with pytest.raises(ValueError, match="^k=0 must be >= 1"):
        bound_states(Collapse1DProblem(delta=3.0, L=50.0, h=0.2), k=0)


def test_no_bound_states_without_qubit_coupling():
    ladder = bound_states(Collapse1DProblem(delta=0.0, L=50.0, h=0.05), k=4)
    assert np.isnan(ladder.binding_energies).all()
    assert not ladder.converged.any()
    assert math.isnan(ladder.ratio_plateau)


def test_ladder_structure_delta_three():
    ladder = bound_states(Collapse1DProblem(delta=3.0, L=200.0, h=0.05), k=4)
    assert ladder.converged.all()
    # fine-grid reference values; h = 0.05 carries O(h^2) offsets ~ 3e-4
    assert ladder.binding_energies[0] == pytest.approx(1.2575411, rel=1e-3)
    assert ladder.binding_energies[1] == pytest.approx(0.18100806, rel=1e-3)
    assert ladder.binding_energies[3] == pytest.approx(2.3328081e-3, rel=2e-3)
    assert list(ladder.parities) == [+1, -1, +1, -1]
    assert np.all((ladder.ratios > 0) & (ladder.ratios < 1))


def test_bound_state_count_nondecreasing_in_delta():
    counts = []
    for delta in (0.0, 0.5, 1.5, 3.0):
        ladder = bound_states(Collapse1DProblem(delta=delta, L=200.0, h=0.05), k=6)
        counts.append(int(np.sum(ladder.binding_energies > 1e-8)))
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] >= 4


def test_geometric_ratio_theory_value():
    assert geometric_ratio_theory(3.0) == pytest.approx(
        math.exp(-2 * math.pi / math.sqrt(2.0)), rel=1e-14
    )
    with pytest.raises(ValueError):
        geometric_ratio_theory(1.0)


def test_same_parity_ratios_accumulate_geometrically():
    # the tower is two interleaved geometric ladders: ratios of alternate
    # levels plateau on the inverse-square-tail value, consecutive ones
    # alternate around its square root
    ladder = bound_states(Collapse1DProblem(delta=3.0, L=3200.0, h=0.0125), k=7)
    k4 = ladder.binding_energies
    assert ladder.converged[:6].all()
    same_parity = k4[2:6] / k4[:4]
    plateau = same_parity[2:]  # n = 2, 3
    theory = geometric_ratio_theory(3.0)
    assert np.abs(plateau / plateau.mean() - 1.0).max() < 0.01
    assert plateau.mean() == pytest.approx(theory, rel=0.02)
    consecutive = ladder.ratios[2:5]
    assert consecutive.max() / consecutive.min() > 1.05  # persistent alternation


def test_deep_tower_closes_on_the_tail_theory():
    # ten rungs in a box of half width 1e9: the same-parity ratios of rungs
    # 6-9 sit on the inverse-square-tail value, so the 0.7% gap criterion 09
    # reads at n in {3, 4, 5} is pre-asymptotic
    ladder = bound_states(Collapse1DProblem(delta=3.0, L=1e9, h=0.0125), k=10)
    assert ladder.converged.all()
    k4 = ladder.binding_energies
    same_parity = k4[6:10] / k4[4:8]
    assert np.abs(same_parity / geometric_ratio_theory(3.0) - 1.0).max() < 1e-3


def test_ladder_reports_its_refinement_and_grid_size():
    ladder = bound_states(Collapse1DProblem(delta=3.0, L=200.0, h=0.05), k=4)
    ref = bound_states(Collapse1DProblem(delta=3.0, L=400.0, h=0.025), k=4)
    assert ladder.rows == 2 * round(math.asinh(200.0) / 0.05) - 1
    change = np.abs(ladder.binding_energies / ref.binding_energies - 1.0)
    assert ladder.refinement == pytest.approx(change, rel=1e-9)


def _recorded_solves(monkeypatch, *keys):
    """(rows, *those keywords) of every collapse1d.eigh_tridiagonal call from now on."""
    calls, original = [], collapse1d.eigh_tridiagonal

    def recording(d, e, **kwargs):
        calls.append((len(d), *(kwargs.get(key) for key in keys)))
        return original(d, e, **kwargs)

    monkeypatch.setattr(collapse1d, "eigh_tridiagonal", recording)
    return calls


@pytest.mark.parametrize("delta,L,h,k", [(3.0, 3200.0, 0.0125, 7), (3.0, 6400.0, 0.0125, 7),
                                         (0.0, 100.0, 0.05, 4)])
def test_the_refinement_solve_asks_for_eigenvalues_only(monkeypatch, delta, L, h, k):
    # criterion 09's ladders: the (2L, h/2) solve computes no vectors, and its
    # levels are bitwise those of the solve that does
    calls = _recorded_solves(monkeypatch, "eigvals_only")
    ladder = bound_states(Collapse1DProblem(delta=delta, L=L, h=h), k=k)
    assert calls == [(ladder.rows, False), (2 * round(math.asinh(2 * L) / (h / 2)) - 1, True)]
    monkeypatch.undo()
    levels = collapse1d._solve_grid(delta, 2 * L, h / 2, k, eigvals_only=True)
    assert levels.tobytes() == collapse1d._solve_grid(delta, 2 * L, h / 2, k)[0].tobytes()


def test_collapse_check_continuum_at_zero_delta():
    report = collapse_hamiltonian_check(0.0, n_max=8192)
    assert report.consistent
    assert report.spacings_by_n_max == sorted(report.spacings_by_n_max, reverse=True)
    assert report.degeneracy_gap < 1e-10


@pytest.mark.parametrize("parity", [+1, -1])
@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("q", [0.25, 0.75])
def test_zero_delta_collapse_block_is_x_squared_on_hermite_zeros(q, n, parity):
    # r = 1, g = g_c = 1/2, Delta = 0: H_c = x^2 - 1/2 with p free.  On the even
    # (odd) Fock states below 2n (2n + 1) it is the square of x truncated to
    # 2n (2n + 1) states, whose eigenvalues are the zeros xi of H_2n (H_2n+1):
    # the block's levels are xi^2 - 1/2 over the n positive zeros
    block = collapse1d.ed.build_parity_block(ModelParams(delta=0.0, g=0.5, r=1.0), parity, n, q)
    levels = eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True)
    zeros = roots_hermite(2 * n if q == 0.25 else 2 * n + 1)[0]
    exact = np.sort(zeros[zeros > 0.0] ** 2) - 0.5
    assert len(exact) == n
    assert np.abs(levels - exact).max() <= 1e-13 * np.abs(levels).max()


@pytest.mark.parametrize("field", ["diag", "offdiag"])
def test_collapse_check_catches_a_parity_block_that_differs(monkeypatch, field):
    # the degeneracy is read off the two blocks entrywise: perturbing one
    # entry of the parity +1 block by 1e-9 must fail the 1e-10 gate
    assert collapse_hamiltonian_check(0.0, n_max=256).degeneracy_gap == 0.0
    build = collapse1d.ed.build_parity_block

    def perturbed(params, parity, n_max, q=0.25):
        block = build(params, parity, n_max, q)
        if parity == +1:
            getattr(block, field)[n_max // 3] += 1e-9
        return block

    monkeypatch.setattr(collapse1d.ed, "build_parity_block", perturbed)
    with pytest.raises(CollapseMappingError) as caught:
        collapse_hamiltonian_check(0.0, n_max=256)
    assert caught.value.report.degeneracy_gap == pytest.approx(1e-9, rel=1e-3)
    assert not caught.value.report.consistent


def test_collapse_check_bound_levels_match_1d_mapping():
    report = collapse_hamiltonian_check(3.0, n_max=16384)
    assert report.consistent
    assert len(report.matched_even) == 3
    assert len(report.matched_odd) >= 2
    for e_block, e_mapped, rel in report.matched_even + report.matched_odd:
        assert e_block < -0.5
        assert rel < 1e-3
    # ground level of the collapse Hamiltonian, cross-solved two ways
    assert report.matched_even[0][0] == pytest.approx(-1.621399, abs=2e-5)


@pytest.mark.parametrize("rows", [20, 80, 512, 2048, 8192])
def test_the_continuum_ladder_widest_spacing_is_its_top_pair(rows):
    # the levels are xi_j^2 - 1/2 over the positive zeros of H_2rows, whose
    # squared spacings grow with j: the top pair alone gives the widest spacing,
    # to the bisection's width eps |T|_1 on each of the four levels compared
    block = collapse1d.ed.build_parity_block(ModelParams(delta=0.0, g=0.5, r=1.0), -1, rows)
    top = collapse1d._CONTINUUM_LEVELS
    lowest = eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True, select="i",
                              select_range=(0, top - 1))
    pair = eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True, select="i",
                            select_range=(top - 2, top - 1))
    width = np.finfo(float).eps * (np.abs(block.diag).max() + 2 * np.abs(block.offdiag).max())
    assert abs(pair[1] - pair[0] - np.diff(lowest).max()) <= 4 * width
    zeros = roots_hermite(2 * rows)[0]
    assert np.all(np.diff(np.diff(np.sort(zeros[zeros > 0.0])[:top] ** 2)) > 0.0)


def test_the_continuum_ladder_bisects_two_levels_a_rung(monkeypatch):
    calls = _recorded_solves(monkeypatch, "select", "select_range")
    collapse_hamiltonian_check(0.0, n_max=256)
    top = collapse1d._CONTINUUM_LEVELS
    assert calls == [(rows, "i", (top - 2, top - 1)) for rows in (64, 128, 256)]


@pytest.mark.parametrize("n_max,rungs", [
    (16384, {+1: 4096, -1: 2048}),
    (3000, {+1: 2048, -1: 2048}),  # the next rung, 4,096, would pass the ceiling
    (1024, {+1: 1024, -1: 1024}),  # a start at n_max is one rung
    (512, {+1: 512, -1: 512}),
])
def test_the_bound_tower_ladder_climbs_to_n_max_at_most(monkeypatch, n_max, rungs):
    calls = _recorded_solves(monkeypatch, "select")
    report = collapse_hamiltonian_check(3.0, n_max=n_max)
    assert report.n_max == n_max and report.n_max_used == rungs
    block_rows = [rows for rows, select in calls if select == "v"]
    assert max(block_rows) == max(rungs.values()) <= n_max
    if n_max <= 1024:
        assert block_rows == [n_max] * 4  # two parity blocks in each of two sectors


def test_the_bound_tower_ladder_matches_a_fixed_ceiling_solve():
    report = collapse_hamiltonian_check(3.0, n_max=16384)
    for rows, q in ((report.matched_even, 0.25), (report.matched_odd, 0.75)):
        fixed = collapse1d._collapse_levels(3.0, 16384, q)[:len(rows)]
        assert np.abs(np.array([row[0] for row in rows]) - fixed).max() <= 1e-10


@pytest.mark.parametrize("n_max,held", [
    (2048, {+1: False, -1: True}),  # the even ladder stops at its ceiling still moving
    (16384, {+1: True, -1: True}),
])
def test_the_bound_tower_report_says_whether_each_ladder_held(n_max, held):
    report = collapse_hamiltonian_check(3.0, n_max=n_max)
    assert report.held == held and report.consistent
    assert collapse_hamiltonian_check(0.0, n_max=256).held == {}


def test_collapse_check_rejects_intermediate_delta():
    with pytest.raises(ValueError):
        collapse_hamiltonian_check(0.7)


@pytest.mark.parametrize("delta,n_max,message", [
    (0.5, 256, "delta=0.5: check defined for delta == 0"),
    (math.nan, 256, "delta=nan must be finite"),
    (0.0, 8, "n_max=8 must be >= 80"),
    (0.0, 3, "n_max=3 must be >= 80"),
    (3.0, 1, "n_max=1 must be >= 2"),
])
def test_collapse_check_rejects_its_inputs_by_name_before_any_solve(monkeypatch, delta, n_max,
                                                                     message):
    monkeypatch.setattr(collapse1d, "eigh_tridiagonal", None)  # any solve would raise
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        collapse_hamiltonian_check(delta, n_max=n_max)
