import dataclasses
import math

import numpy as np
import pytest

from splitvar import (
    BVCandidate,
    CandidateInvariantError,
    EnergyOverflowError,
    Grid,
    GridFunction,
    JumpSegment,
    eval_J,
    eval_J_delta,
    eval_K,
    gradient,
    lift_to_candidate,
    make_hencky,
    make_pair,
    make_phi_nu,
    power_density2,
)
from tests.conftest import affine_field


def gauss_line_integral(fn, n_nodes=128):
    """High-order reference for integrals over (-1, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return float(np.sum(weights * np.asarray(fn(nodes))))


# ---------------------------------------------------------------------------
# plain energy
# ---------------------------------------------------------------------------


def test_eval_j_affine_closed_form(pair_std):
    g = Grid(8, 8)
    u = affine_field(g, 2.0, -1.0)
    bd = eval_J(u, pair_std)
    assert bd.j_f1 == pytest.approx(4.0 * float(pair_std.f1.eval(2.0)), rel=1e-12)
    assert bd.j_f2 == pytest.approx(4.0 * float(pair_std.f2.eval(-1.0)), rel=1e-12)
    assert bd.k_singular == 0.0 and bd.k_boundary == 0.0 and bd.delta_term == 0.0
    assert bd.j_total == bd.j_f1 + bd.j_f2


def test_eval_j_quadrature_oracle():
    # u interpolates x1^2, so the cell gradient is exactly (2*xc, 0) and the
    # energy is the midpoint rule for f1(2*x1); check against 128-point Gauss
    d = make_pair(make_hencky(1.0, 1.0), power_density2(2.0))
    g = Grid(32, 32)
    u = GridFunction.from_callable(g, lambda x1, x2: x1**2 + 0.0 * x2)
    field = gradient(u)
    xc, _ = g.cell_centers()
    assert np.allclose(field.comp1, 2.0 * xc[:, None], atol=1e-14)
    assert np.array_equal(field.comp2, np.zeros((32, 32)))
    bd = eval_J(u, d)
    ref = 2.0 * gauss_line_integral(lambda x: d.f1.eval(2.0 * x))
    assert bd.j_f1 == pytest.approx(ref, rel=1e-3)
    assert bd.j_f2 == 0.0


def test_eval_j_overflow():
    d = make_pair(make_phi_nu(1.5), power_density2(2.0))
    g = Grid(4, 4)
    u = affine_field(g, 0.0, 1e200)
    with pytest.raises(EnergyOverflowError):
        eval_J(u, d)


# ---------------------------------------------------------------------------
# regularized energy
# ---------------------------------------------------------------------------


def test_eval_j_delta_zero_field(pair_std):
    g = Grid(8, 8)
    u = GridFunction(g, np.zeros(g.node_shape))
    bd = eval_J_delta(u, pair_std, delta=0.1, p_reg=2.0)
    # (1+0)^1 integrates to the domain area 4
    assert bd.delta_term == pytest.approx(0.4, abs=1e-14)
    assert bd.j_total == pytest.approx(0.4, abs=1e-14)


def test_eval_j_delta_linear_in_delta(pair_std, affine_config):
    u = affine_config.u0
    t1 = eval_J_delta(u, pair_std, delta=1e-2, p_reg=2.0).delta_term
    t2 = eval_J_delta(u, pair_std, delta=2e-2, p_reg=2.0).delta_term
    assert t2 == pytest.approx(2.0 * t1, rel=1e-15)


def test_eval_j_delta_dominates_j(pair_std):
    g = Grid(6, 6)
    rng = np.random.default_rng(2)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    plain = eval_J(u, pair_std).j_total
    for delta in (1e-3, 1e-2, 1e-1):
        assert eval_J_delta(u, pair_std, delta, 2.0).j_total > plain


def test_eval_j_delta_validation(pair_std):
    u = affine_field(Grid(4, 4), 1.0, 1.0)
    for bad_delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            eval_J_delta(u, pair_std, bad_delta, 2.0)
    with pytest.raises(ValueError):
        eval_J_delta(u, pair_std, 0.1, 1.5)


def test_eval_j_delta_none_p_reg_is_f2_default(phi15):
    # None resolves as the solver's exponent does: power:3 regularizes with 3
    pair = make_pair(phi15, power_density2(3.0))
    u = affine_field(Grid(4, 4), 1.0, 1.0)
    assert eval_J_delta(u, pair, 0.1, None) == eval_J_delta(u, pair, 0.1, 3.0)


@pytest.mark.parametrize("field", ["zero", "affine"])
def test_eval_j_delta_rejects_nan_p_reg(pair_std, field):
    # a NaN exponent is an input error on every field, not a value of 2.0 on
    # a zero field and an overflow on any other
    g = Grid(4, 4)
    u = GridFunction(g, np.zeros(g.node_shape)) if field == "zero" else affine_field(g, 1.0, 1.0)
    with pytest.raises(ValueError, match="p_reg"):
        eval_J_delta(u, pair_std, 0.5, math.nan)


# ---------------------------------------------------------------------------
# jump candidates
# ---------------------------------------------------------------------------


def zero_candidate_with_unit_jump(n=8):
    g = Grid(n, n)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    return BVCandidate(smooth, jumps=(JumpSegment(n // 2, 0, n, 1.0),))


def step_boundary(grid):
    return GridFunction.from_callable(grid, lambda x1, x2: np.where(x1 > 0.0, 1.0, 0.0))


def test_candidate_rejects_boundary_jump_line():
    g = Grid(4, 4)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    for bad in (0, 4, 7):
        with pytest.raises(CandidateInvariantError):
            BVCandidate(smooth, jumps=(JumpSegment(bad, 0, 4, 1.0),))


def test_candidate_rejects_bad_cell_range():
    g = Grid(4, 4)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    for start, end in ((2, 2), (3, 1), (-1, 2), (0, 5)):
        with pytest.raises(CandidateInvariantError):
            BVCandidate(smooth, jumps=(JumpSegment(2, start, end, 1.0),))


@pytest.mark.parametrize(
    "seg",
    [(3.5, 0, 8, 1.0), (True, 0, 8, 1.0), (3, 0.0, 8, 1.0), (3, 0, 8.0, 1.0), (3, False, 8, 1.0)],
)
def test_candidate_rejects_non_integer_indices(seg):
    # 3.5 passed the range checks and boundary() then raised TypeError on a
    # float slice index; True was read as line 1.  Grid's rule: Integral, no bool
    smooth = GridFunction(Grid(8, 8), np.zeros((9, 9)))
    with pytest.raises(CandidateInvariantError, match="jump indices must be integers"):
        BVCandidate(smooth, jumps=(JumpSegment(*seg),))
    # a numpy integer is an Integral
    BVCandidate(smooth, jumps=(JumpSegment(np.int64(3), np.int32(0), np.int64(8), 1.0),))


def test_candidate_rejects_nonfinite_height():
    g = Grid(4, 4)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    with pytest.raises(CandidateInvariantError):
        BVCandidate(smooth, jumps=(JumpSegment(2, 0, 4, math.inf),))


def test_candidate_default_traces():
    w = zero_candidate_with_unit_jump(4)
    ring = w.boundary().values
    assert np.array_equal(ring[0, :], np.zeros(5))
    # full-span jump shifts the right trace by its height
    assert np.array_equal(ring[-1, :], np.ones(5))


def test_candidate_edge_values():
    g = Grid(4, 4)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    w = BVCandidate(smooth, jumps=(JumpSegment(2, 0, 4, 0.5),))
    top = w.boundary().values[:, -1]
    assert np.array_equal(top, [0.0, 0.0, 0.0, 0.5, 0.5])
    # a jump stopping short of the top edge does not shift the top trace
    ring = BVCandidate(smooth, jumps=(JumpSegment(2, 0, 3, 0.5),)).boundary().values
    assert np.array_equal(ring[:, -1], np.zeros(5))
    assert np.array_equal(ring[:, 0], [0.0, 0.0, 0.0, 0.5, 0.5])


# ---------------------------------------------------------------------------
# relaxed energy
# ---------------------------------------------------------------------------


def test_eval_k_unit_jump_exact(pair_std):
    w = zero_candidate_with_unit_jump(8)
    bd = eval_K(w, pair_std, step_boundary(w.smooth_part.grid))
    assert bd.k_singular == 2.0
    assert bd.k_boundary == 0.0
    assert bd.j_f1 == 0.0 and bd.j_f2 == 0.0
    assert bd.j_total == 2.0


def test_eval_k_lateral_detachment(pair_std):
    # u0 = 1 on the vertical sides only; zero candidate detaches there
    g = Grid(4, 4)
    u0 = np.zeros(g.node_shape)
    u0[0, :] = 1.0
    u0[-1, :] = 1.0
    w = lift_to_candidate(GridFunction(g, np.zeros(g.node_shape)))
    bd = eval_K(w, pair_std, GridFunction(g, u0))
    assert bd.k_boundary == 4.0
    assert bd.k_singular == 0.0


def test_eval_k_jump_free_matches_j(pair_std):
    g = Grid(6, 6)
    rng = np.random.default_rng(12)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    w = lift_to_candidate(u)
    bd_k = eval_K(w, pair_std, u)
    bd_j = eval_J(u, pair_std)
    assert bd_k.j_f1 == bd_j.j_f1 and bd_k.j_f2 == bd_j.j_f2
    assert bd_k.k_singular == 0.0 and bd_k.k_boundary == 0.0


def test_eval_k_signed_recession(pair_std):
    # negative jump priced with the f1 recession slope at -1 (also 1 here)
    g = Grid(8, 8)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    w = BVCandidate(smooth, jumps=(JumpSegment(4, 0, 8, -0.75),))
    x1, _ = g.node_coords()
    u0 = np.broadcast_to(np.where(x1 > 0.0, -0.75, 0.0)[:, None], g.node_shape)
    bd = eval_K(w, pair_std, GridFunction(g, u0))
    assert bd.k_singular == pytest.approx(1.5, abs=1e-15)


def test_eval_k_partial_span_prices_by_length(pair_std):
    g = Grid(8, 8)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    # half-height jump segment: it misses the top edge, so top traces stay 0
    w = BVCandidate(smooth, jumps=(JumpSegment(4, 0, 4, 1.0),))
    x1, _ = g.node_coords()
    u0 = np.zeros(g.node_shape)
    u0[:, 0] = (x1 > 0.0).astype(float)  # bottom must match the shifted trace
    bd = eval_K(w, pair_std, GridFunction(g, u0))
    assert bd.k_singular == pytest.approx(1.0, abs=1e-15)


def test_eval_k_trace_violation(pair_std):
    w = zero_candidate_with_unit_jump(8)
    # plain floats in the message, not numpy reprs
    with pytest.raises(CandidateInvariantError, match="1.0 vs 0.0"):
        eval_K(w, pair_std, w.smooth_part)  # the zero field


def test_eval_k_boundary_data_is_finite_by_type(pair_std):
    # a nan at top-edge node 6 compared false against the trace, so it
    # passed the match and K = 2.0 came back; now the data cannot be built
    w = zero_candidate_with_unit_jump(8)
    u0 = step_boundary(w.smooth_part.grid)
    assert eval_K(w, pair_std, u0).j_total == 2.0
    # one array per case: a field freezes the array it is built on
    wrong, missing = u0.values.copy(), u0.values.copy()
    wrong[6, -1] = 5.0
    with pytest.raises(CandidateInvariantError, match="top trace mismatches .* node 6"):
        eval_K(w, pair_std, GridFunction(u0.grid, wrong))
    missing[6, -1] = np.nan
    with pytest.raises(ValueError, match="holds a non-finite value$"):
        GridFunction(u0.grid, missing)


def test_candidate_is_frozen_and_reads_its_jumps_once(pair_std):
    # the check must not use up a one-pass iterable of segments, or K would
    # price none: the candidate stores the tuple it checked
    g = Grid(8, 8)
    zero = GridFunction(g, np.zeros(g.node_shape))
    w = BVCandidate(zero, (s for s in [JumpSegment(4, 2, 6, 1.0)]))
    assert w.jumps == (JumpSegment(4, 2, 6, 1.0),)
    assert eval_K(w, pair_std, zero).j_total == 2.25
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.jumps = ()
    # a lifted field is shared, not copied: its values are read-only
    assert lift_to_candidate(zero).smooth_part is zero


def test_eval_k_boundary_grid_mismatch(pair_std):
    w = zero_candidate_with_unit_jump(8)
    other = GridFunction(Grid(4, 4), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        eval_K(w, pair_std, other)
