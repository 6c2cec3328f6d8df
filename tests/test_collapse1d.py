import math

import numpy as np
import pytest

from tpqrm.collapse1d import (
    BoundStateLadder,
    Collapse1DProblem,
    bound_states,
    collapse_hamiltonian_check,
    effective_potential,
    geometric_ratio_theory,
)
from tpqrm.errors import CollapseMappingError


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


@pytest.mark.slow
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


def test_collapse_check_continuum_at_zero_delta():
    report = collapse_hamiltonian_check(0.0, n_max=8192)
    assert report.consistent
    assert report.spacings_by_n_max == sorted(report.spacings_by_n_max, reverse=True)
    assert report.degeneracy_gap < 1e-10


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


def test_collapse_check_rejects_intermediate_delta():
    with pytest.raises(ValueError):
        collapse_hamiltonian_check(0.7)
