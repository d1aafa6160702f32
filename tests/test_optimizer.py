import math

import numpy as np
import pytest

from fracmeasure import (
    Ball,
    CandidateLimitExceeded,
    HausdorffFunction,
    INF,
    InvalidInput,
    Premeasure,
    SOLVER_TOL,
    SizeLimit,
    brute_force_oracle,
    build_cover_instance,
    build_product_cover_instance,
    cantor_net,
    cycle_metric,
    delta_profile,
    hausdorff_premeasure,
    noncentered_weighted_premeasure,
    point_measure,
    product_measure,
    product_premeasure,
    product_premeasure_values,
    product_space,
    random_cloud,
    solve_fractional,
    solve_integer,
    uniform_measure,
    validate_space,
    weighted_premeasure,
)


def test_two_point_frozen_values(two_points, linear_gauge):
    space, measure = two_points
    for delta in (0.6, 1.0):
        h = hausdorff_premeasure(space, measure, 1.0, linear_gauge, space.point_ids, delta)
        w = weighted_premeasure(space, measure, 1.0, linear_gauge, space.point_ids, delta)
        assert h.value == pytest.approx(0.2, abs=1e-12)
        assert w.value == pytest.approx(0.2, abs=1e-9)
        assert h.status == "optimal" and w.status == "optimal"
    # at delta=0.6 the only cover is the two resolution balls
    h = hausdorff_premeasure(space, measure, 1.0, linear_gauge, space.point_ids, 0.6)
    inst = build_cover_instance(space, measure, 1.0, linear_gauge, space.point_ids, 0.6)
    assert [inst.candidates[i] for i in h.chosen] == [Ball("a", 0.1), Ball("b", 0.1)]


def test_two_point_oracle_agreement(two_points, linear_gauge):
    space, measure = two_points
    inst = build_cover_instance(space, measure, 1.0, linear_gauge, space.point_ids, 0.6)
    int_opt, frac_opt = brute_force_oracle(inst)
    assert int_opt == pytest.approx(0.2, abs=1e-12)
    assert frac_opt == pytest.approx(0.2, abs=1e-9)


def test_five_cycle_frozen_values(five_cycle, unit_constant):
    space, measure = five_cycle
    h = hausdorff_premeasure(space, measure, 0.0, unit_constant, space.point_ids, 1.0)
    w = weighted_premeasure(space, measure, 0.0, unit_constant, space.point_ids, 1.0)
    assert h.value == pytest.approx(2.0, abs=1e-12)
    assert w.value == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert h.value > w.value + 0.3
    for point in space.point_ids:
        assert w.dual[point] == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert w.gap <= 1e-9


def test_five_cycle_oracle_agreement(five_cycle, unit_constant):
    space, measure = five_cycle
    inst = build_cover_instance(space, measure, 0.0, unit_constant, space.point_ids, 1.0)
    int_opt, frac_opt = brute_force_oracle(inst)
    assert int_opt == pytest.approx(2.0, abs=1e-12)
    assert frac_opt == pytest.approx(5.0 / 3.0, abs=1e-9)


def test_empty_target_is_zero(two_points, linear_gauge):
    space, measure = two_points
    h = hausdorff_premeasure(space, measure, 1.0, linear_gauge, (), 0.6)
    w = weighted_premeasure(space, measure, 1.0, linear_gauge, (), 0.6)
    assert h.value == 0.0 and w.value == 0.0
    assert h.chosen == () and w.weights == ()


def test_infeasible_gives_infinity():
    space = validate_space(
        coords=np.array([[0.0], [0.5], [3.0]]), epsilon_net=0.25
    )
    measure = point_measure(space, {"0": 0.5, "1": 0.5, "2": 0.0})
    xi = Premeasure.from_gauge(HausdorffFunction.linear())
    # the isolated zero-mass point only fits in zero-mass balls: with
    # q = 0 every such ball costs infinity
    h = hausdorff_premeasure(space, measure, 0.0, xi, space.point_ids, 0.6)
    w = weighted_premeasure(space, measure, 0.0, xi, space.point_ids, 0.6)
    assert math.isinf(h.value) and h.status == "infeasible-infinite"
    assert math.isinf(w.value) and w.status == "infeasible-infinite"
    inst = build_cover_instance(space, measure, 0.0, xi, space.point_ids, 0.6)
    int_opt, frac_opt = brute_force_oracle(inst)
    assert math.isinf(int_opt) and math.isinf(frac_opt)


def test_zero_cost_candidates_are_free(two_points):
    space, measure = two_points
    xi = Premeasure.constant_nonempty(0.0)
    h = hausdorff_premeasure(space, measure, 1.0, xi, space.point_ids, 0.6)
    assert h.value == 0.0 and h.status == "optimal"
    w = weighted_premeasure(space, measure, 1.0, xi, space.point_ids, 0.6)
    assert w.value == 0.0


def test_delta_profile_monotone(two_points, linear_gauge):
    space, measure = two_points
    prof = delta_profile(space, measure, 1.0, linear_gauge, space.point_ids, [1.0, 0.6])
    assert [row.delta for row in prof.rows] == [1.0, 0.6]
    for row in prof.rows:
        assert row.h_value == pytest.approx(0.2, abs=1e-12)
        assert row.w_value == pytest.approx(0.2, abs=1e-9)
        assert row.noncentered_w_value == pytest.approx(0.2, abs=1e-9)
    with pytest.raises(Exception):
        delta_profile(space, measure, 1.0, linear_gauge, space.point_ids, [0.6, 1.0])


def test_product_frozen_values(two_points, linear_gauge):
    space, measure = two_points
    prod = product_space(space, space)
    pm = product_measure(measure, measure)
    xi0 = product_premeasure(linear_gauge, linear_gauge)
    h, w = product_premeasure_values(
        prod, pm, 1.0, xi0, space.point_ids, space.point_ids, 0.6
    )
    assert h.value == pytest.approx(0.04, abs=1e-12)
    assert w.value == pytest.approx(0.04, abs=1e-9)
    inst = build_product_cover_instance(
        prod, pm, 1.0, xi0, space.point_ids, space.point_ids, 0.6
    )
    int_opt, frac_opt = brute_force_oracle(inst)
    assert int_opt == pytest.approx(0.04, abs=1e-12)
    assert frac_opt == pytest.approx(0.04, abs=1e-9)


def test_noncentered_never_exceeds_centered(line3, linear_gauge):
    space, measure = line3
    target = ("0", "2")
    w = weighted_premeasure(space, measure, 0.0, linear_gauge, target, 0.45)
    wn = noncentered_weighted_premeasure(space, measure, 0.0, linear_gauge, target, 0.45)
    assert w.value == pytest.approx(0.4, abs=1e-9)
    assert wn.value <= w.value + 1e-9


def test_node_budget_exhaustive_fallback(five_cycle, unit_constant):
    space, measure = five_cycle
    inst = build_cover_instance(space, measure, 0.0, unit_constant, space.point_ids, 1.0)
    assert len(inst.candidates) <= 20
    sol = solve_integer(inst, node_limit=1)
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert sol.status == "optimal"


def test_node_budget_reports_bounds():
    # odd cycle: the fractional optimum 25/3 sits strictly below the
    # integer optimum 9, so the root cannot prune and the budget trips
    space = cycle_metric(25)
    measure = uniform_measure(space)
    xi = Premeasure.constant_nonempty(1.0)
    inst = build_cover_instance(space, measure, 0.0, xi, space.point_ids, 1.0)
    assert len(inst.candidates) > 20
    with pytest.raises(CandidateLimitExceeded) as exc:
        solve_integer(inst, node_limit=1)
    err = exc.value
    assert err.lower <= err.upper
    assert err.upper < INF
    assert err.lower >= 25.0 / 3.0 - 1e-6


def test_oracle_size_limit(five_cycle, unit_constant):
    space, measure = five_cycle
    inst = build_cover_instance(space, measure, 0.0, unit_constant, space.point_ids, 1.0)
    sizes = np.tile(np.diff(inst.indptr), 3)
    big = inst.__class__(
        space=inst.space,
        target=inst.target,
        candidates=inst.candidates * 3,
        indptr=np.concatenate([[0], np.cumsum(sizes)]),
        indices=np.tile(inst.indices, 3),
        costs=np.tile(inst.costs, 3),
    )
    assert big.covered == inst.covered * 3
    with pytest.raises(SizeLimit):
        brute_force_oracle(big)


def test_oracle_agreement_random_instances():
    """Both optima agree with the independent oracle on seeded draws."""
    rng = np.random.default_rng(20240817)
    xi_pool = [
        Premeasure.from_gauge(HausdorffFunction.linear()),
        Premeasure.from_gauge(HausdorffFunction.power_law(0.5)),
        Premeasure.constant_nonempty(1.0),
    ]
    for trial in range(25):
        n = int(rng.integers(3, 7))
        coords = rng.random((n, 1)) * 2.0
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        pos = dist[dist > 0]
        if pos.size == 0 or pos.min() < 1e-4:
            continue
        space = validate_space(coords=coords, epsilon_net=float(pos.min()) / 2.0)
        masses = rng.random(n) + 0.05
        if trial % 4 == 0:
            masses[int(rng.integers(0, n))] = 0.0
        total = masses.sum()
        measure = point_measure(space, dict(zip(space.point_ids, masses / total)))
        q = float(rng.choice([-1.0, 0.0, 1.0]))
        xi = xi_pool[trial % 3]
        delta = max(space.epsilon_net, float(np.quantile(pos, 0.4)))
        inst = build_cover_instance(space, measure, q, xi, space.point_ids, delta)
        if len(inst.candidates) > 14:
            inst = build_cover_instance(
                space, measure, q, xi, space.point_ids, space.epsilon_net
            )
        int_opt, frac_opt = brute_force_oracle(inst)
        sol_i = solve_integer(inst)
        sol_f = solve_fractional(inst)
        if math.isinf(int_opt):
            assert math.isinf(sol_i.value)
        else:
            assert sol_i.value == pytest.approx(int_opt, abs=1e-9)
        if math.isinf(frac_opt):
            assert math.isinf(sol_f.value)
        else:
            assert sol_f.value == pytest.approx(frac_opt, abs=1e-7)


# --- 1-D instances: an exact oracle far beyond the brute-force limit -----
#
# On a line every candidate ball meets the target in a contiguous run, so
# the incidence matrix is an interval matrix, totally unimodular: the LP
# optimum is integral and equals the integer optimum.  Branch and bound
# must then close at the root, taking the LP solution as its incumbent.

_CANTOR_GAUGE = Premeasure.from_gauge(HausdorffFunction.power_law(math.log(2) / math.log(3)))


def _line_space(name):
    if name == "cloud1d":
        space = random_cloud(30, 1, 11)
        return space, uniform_measure(space)
    return cantor_net(int(name.removeprefix("cantor")))


@pytest.mark.parametrize("name", ["cantor3", "cantor4", "cantor5", "cloud1d"])
@pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_line_integer_matches_fractional_at_root(name, q):
    space, measure = _line_space(name)
    target = set(space.point_ids)
    for delta in (0.5, 0.2, 0.1):
        inst = build_cover_instance(space, measure, q, _CANTOR_GAUGE, space.point_ids, delta)
        h = solve_integer(inst)
        w = solve_fractional(inst)
        assert abs(h.value - w.value) <= SOLVER_TOL
        assert h.nodes == 1
        # the chosen candidates form a cover, valued by the plain cost sum
        assert set().union(*(inst.covered[i] for i in h.chosen)) >= target
        assert sum(inst.costs[i] for i in h.chosen) == h.value


@pytest.mark.parametrize(
    "cloud, q, delta",
    [((16, 2, 3), 0.0, 0.5), ((12, 2, 1), 1.0, 0.5)],
)
def test_integer_search_is_scale_invariant(cloud, q, delta):
    """Scaling every cost by 1e6 scales H and leaves the search unchanged."""
    space = random_cloud(*cloud)
    measure = uniform_measure(space)
    sols = [
        solve_integer(
            build_cover_instance(
                space, measure, q, Premeasure.constant_nonempty(c), space.point_ids, delta
            )
        )
        for c in (1.0, 1e6)
    ]
    assert sols[0].nodes == sols[1].nodes
    assert sols[1].value / sols[0].value == pytest.approx(1e6, rel=1e-12)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "solve", [hausdorff_premeasure, weighted_premeasure, noncentered_weighted_premeasure]
)
def test_nonfinite_q_is_rejected(two_points, linear_gauge, solve, q):
    space, measure = two_points
    with pytest.raises(InvalidInput):
        solve(space, measure, q, linear_gauge, space.point_ids, 0.6)
