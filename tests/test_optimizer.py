import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fracmeasure import (
    Ball,
    CandidateLimitExceeded,
    DeltaBelowResolution,
    HausdorffFunction,
    INF,
    InvalidInput,
    NumericalFailure,
    Premeasure,
    SOLVER_TOL,
    SizeLimit,
    brute_force_oracle,
    build_cover_instance,
    build_product_cover_instance,
    cantor_net,
    cycle_metric,
    delta_profile,
    density_upper_bound_check,
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
from fracmeasure import metric, optimizer
from fracmeasure.verify import build_mixed_corpus, build_product_corpus


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


def _empty_target_entry_points(space, measure, xi):
    """Every public value on an empty target, as a function of (q, delta)."""
    prod, pair = product_space(space, space), product_measure(measure, measure)
    pxi, ids = product_premeasure(xi, xi), space.point_ids
    return {
        "H": lambda q, d: hausdorff_premeasure(space, measure, q, xi, (), d),
        "W": lambda q, d: weighted_premeasure(space, measure, q, xi, (), d),
        "Wtilde": lambda q, d: noncentered_weighted_premeasure(space, measure, q, xi, (), d),
        "product-left": lambda q, d: product_premeasure_values(prod, pair, q, pxi, (), ids, d),
        "product-right": lambda q, d: product_premeasure_values(prod, pair, q, pxi, ids, (), d),
        "profile": lambda q, d: delta_profile(space, measure, q, xi, (), [d]),
        "density": lambda q, d: density_upper_bound_check(space, measure, q, xi, measure, (), d),
    }


_ENTRY_POINTS = ["H", "W", "Wtilde", "product-left", "product-right", "profile", "density"]


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_empty_target_is_validated_like_any_other(two_points, linear_gauge, entry):
    call = _empty_target_entry_points(*two_points, linear_gauge)[entry]
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput):
            call(q, 0.6)
    for delta in (math.nan, 1e-9):  # the resolution floor is 0.1
        with pytest.raises(DeltaBelowResolution):
            call(1.0, delta)


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_a_valid_empty_target_is_zero_on_every_entry_point(two_points, linear_gauge, entry):
    out = _empty_target_entry_points(*two_points, linear_gauge)[entry](1.0, 0.6)
    if entry == "profile":
        (row,) = out.rows
        assert (row.h_value, row.w_value, row.noncentered_w_value) == (0.0, 0.0, 0.0)
        return
    if entry == "density":
        assert (out.nu_total, out.density_sup, out.h_value, out.bound, out.slack) == (0,) * 5
        assert out.ok
        return
    for sol in out if isinstance(out, tuple) else (out,):
        assert (sol.value, sol.status) == (0.0, "optimal")
        if isinstance(sol, optimizer.IntegerCoverSolution):
            assert (sol.chosen, sol.nodes) == ((), 0)
        else:
            assert set(sol.weights) <= {0.0} and sol.dual == {}
    if entry == "Wtilde":  # one weight per candidate: a resolution ball at each point
        assert len(out.weights) == 2


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


def test_a_product_solve_leaves_the_combined_matrix_unbuilt():
    left, right = random_cloud(6, 2, 7), random_cloud(5, 1, 8)
    prod = product_space(left, right)
    pair = product_measure(uniform_measure(left), uniform_measure(right))
    power = Premeasure.from_gauge(HausdorffFunction.power_law(0.5))
    h, w = product_premeasure_values(
        prod, pair, 0.0, product_premeasure(power, power), left.point_ids, right.point_ids, 0.4
    )
    assert h.status == "optimal" and w.status == "optimal"
    assert "space" not in prod.__dict__


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


def test_node_budget_brackets_the_five_cycle(five_cycle, unit_constant):
    # the root LP (5/3) cannot prune the cover rounded from it, so the
    # first child trips the budget; the bracket holds the optimum 2
    space, measure = five_cycle
    inst = build_cover_instance(space, measure, 0.0, unit_constant, space.point_ids, 1.0)
    with pytest.raises(CandidateLimitExceeded) as exc:
        solve_integer(inst, node_limit=1)
    assert exc.value.lower <= 2.0 <= exc.value.upper


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


def test_deep_search_needs_no_recursion():
    # 60 disjoint unit 5-cycles: W = 60 * 5/3 = 100 < H = 60 * 2 = 120, so
    # the root cannot prune, and the first dive of the search goes deeper
    # than the 30 frames the lowered recursion limit leaves it.
    blocks = 60
    dist = np.full((5 * blocks, 5 * blocks), 10.0)
    for b in range(blocks):
        dist[5 * b : 5 * b + 5, 5 * b : 5 * b + 5] = cycle_metric(5).dist
    space = validate_space(dist=dist, epsilon_net=0.5)
    xi = Premeasure.constant_nonempty(1.0)
    inst = build_cover_instance(space, uniform_measure(space), 0.0, xi, space.point_ids, 1.0)
    assert inst._root is not None  # priced at full depth; the limit is for the search
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        with pytest.raises(CandidateLimitExceeded) as exc:
            solve_integer(inst, node_limit=150)
    finally:
        sys.setrecursionlimit(limit)
    assert exc.value.lower <= 120.0 <= exc.value.upper


def _rounded_covers(monkeypatch):
    """Record every cover ``_round_to_cover`` offers, with the node LP it came from."""
    offered = []
    rounding = optimizer._round_to_cover

    def record(x, cost, col_ptr, col_rows, m):
        cover = rounding(x, cost, col_ptr, col_rows, m)
        offered.append((x, cost, col_ptr, col_rows, m, cover))
        return cover

    monkeypatch.setattr(optimizer, "_round_to_cover", record)
    return offered


def test_an_integral_root_lp_is_the_incumbent_and_decides_h(monkeypatch):
    space, measure = cantor_net(5)
    inst = build_cover_instance(space, measure, 0.0, _CANTOR_GAUGE, space.point_ids, 0.5)
    offered = _rounded_covers(monkeypatch)
    h = solve_integer(inst)
    root = inst._root
    assert np.array_equal(root.weights, np.round(root.weights))  # integral
    assert h.nodes == 1 and len(offered) == 1
    assert h.chosen == tuple(sorted(root.free.tolist() + root.support.tolist()))
    assert h.value == sum(inst.costs[i] for i in h.chosen)


@pytest.mark.parametrize("n, h_value", [(5, 2.0), (25, 9.0)])
def test_every_rounded_cover_covers_its_node(monkeypatch, unit_constant, n, h_value):
    # odd cycles: W = n/3 sits below H, so the root LP is fractional
    # and the search branches, rounding every node's LP
    space = cycle_metric(n)
    inst = build_cover_instance(
        space, uniform_measure(space), 0.0, unit_constant, space.point_ids, 1.0
    )
    offered = _rounded_covers(monkeypatch)
    h = solve_integer(inst)
    assert h.value == h_value and h.nodes > 1
    assert not np.array_equal(offered[0][0], np.round(offered[0][0]))
    for x, cost, col_ptr, col_rows, m, cover in offered:
        assert cover is not None and set(cover) <= set(np.flatnonzero(x > 0.0).tolist())
        hits = np.zeros(m, dtype=int)
        for j in cover:
            hits[col_rows[col_ptr[j] : col_ptr[j + 1]]] += 1
        assert hits.all()
        # no column of the cover is redundant
        assert all(hits[col_rows[col_ptr[j] : col_ptr[j + 1]]].min() == 1 for j in cover)


def test_oracle_size_limit(five_cycle, unit_constant):
    space, measure = five_cycle
    inst = build_cover_instance(space, measure, 0.0, unit_constant, space.point_ids, 1.0)
    assert len(inst.costs) <= 20 and len(inst.target) <= 10
    assert brute_force_oracle(inst) == pytest.approx((2.0, 5.0 / 3.0))
    # Three copies of every cost: more than 20 columns on 5 points.  The
    # oracle counts columns by ``costs`` and checks its limits first.
    big = dataclasses.replace(inst, costs=np.tile(inst.costs, 3))
    assert len(big.costs) > 20 and len(big.target) <= 10
    with pytest.raises(SizeLimit):
        brute_force_oracle(big)
    # One resolution ball at each of 11 points of a line: more than 10 points.
    line = validate_space(coords=np.arange(11.0), epsilon_net=0.5)
    wide = build_cover_instance(
        line, uniform_measure(line), 0.0, unit_constant, line.point_ids, 0.5
    )
    assert len(wide.costs) <= 20 and len(wide.target) > 10
    with pytest.raises(SizeLimit):
        brute_force_oracle(wide)


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
# must then close at the root, taking the LP solution as its incumbent,
# and both optima equal the shortest cover of the sorted target by runs.

_CANTOR_GAUGE = Premeasure.from_gauge(HausdorffFunction.power_law(math.log(2) / math.log(3)))


def _line_space(name):
    if name == "cloud1d":
        space = random_cloud(30, 1, 11)
        return space, uniform_measure(space)
    return cantor_net(int(name.removeprefix("cantor")))


def _interval_dp(inst):
    """Cheapest cover of a 1-D target by runs, by dynamic programming over its sorted points.

    ``cover[k]`` is the least cost of covering the ``k`` leftmost
    points; a run over positions ``lo..hi`` extends any cover of at
    least ``lo`` of them to one of ``hi + 1``.
    """
    x = inst.space.coords[[inst.space.index_of(p) for p in inst.target], 0]
    rank = np.empty(len(x), dtype=int)
    rank[np.argsort(x, kind="stable")] = np.arange(len(x))
    sizes = np.diff(inst.indptr)
    use = (sizes > 0) & np.isfinite(inst.costs)
    pos = rank[inst.indices]
    lo = np.minimum.reduceat(pos, inst.indptr[:-1][use])
    hi = np.maximum.reduceat(pos, inst.indptr[:-1][use])
    assert np.array_equal(hi - lo + 1, sizes[use])  # a ball on a line meets the target in a run
    cost = inst.costs[use]
    cover = np.full(len(x) + 1, INF)
    cover[0] = 0.0
    for k in range(len(x)):
        runs = hi == k
        if runs.any():
            # A cover of at least lo points costs at least the least cover[j], lo <= j <= k.
            least = np.minimum.accumulate(cover[k::-1])[::-1]
            cover[k + 1] = np.min(least[lo[runs]] + cost[runs])
    return float(cover[-1])


def _covers(inst, chosen):
    """Whether the candidates ``chosen`` cover the whole target."""
    hit = np.zeros(len(inst.target), dtype=bool)
    for i in chosen:
        hit[inst.indices[inst.indptr[i] : inst.indptr[i + 1]]] = True
    return bool(hit.all())


@pytest.mark.parametrize(
    "name", ["cantor3", "cantor4", "cantor5", "cantor6", "cantor7", "cantor8", "cloud1d"]
)
@pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_line_integer_matches_fractional_at_root(name, q):
    space, measure = _line_space(name)
    for delta in (0.5, 0.2, 0.1):
        inst = build_cover_instance(space, measure, q, _CANTOR_GAUGE, space.point_ids, delta)
        h = solve_integer(inst)
        w = solve_fractional(inst)
        exact = _interval_dp(inst)
        assert abs(h.value - w.value) <= SOLVER_TOL
        assert abs(h.value - exact) <= SOLVER_TOL
        assert abs(w.value - exact) <= SOLVER_TOL
        assert h.nodes == 1
        # the chosen candidates form a cover, valued by the plain cost sum
        assert _covers(inst, h.chosen)
        assert sum(inst.costs[i] for i in h.chosen) == h.value


# --- an exact oracle at scale: HiGHS's MIP ----------------------------------
#
# scipy.optimize.milp shares none of the reduction, incumbent or branching
# code, so it checks H on instances far past the brute-force oracle's 20
# candidates.  It shares HiGHS's LP engine with W, so it is no proof of W.


def _milp_value(inst):
    """H by HiGHS's MIP over the 0/1 finite-cost columns, its cover rechecked."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    cols = np.flatnonzero(np.isfinite(inst.costs))
    ones = np.ones(len(inst.indices))
    shape = (len(inst.target), len(inst.costs))
    a = sparse.csc_array((ones, inst.indices, inst.indptr), shape=shape)[:, cols]
    res = milp(
        inst.costs[cols],
        integrality=np.ones(len(cols)),
        bounds=Bounds(0.0, 1.0),
        constraints=LinearConstraint(a, lb=1.0),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    chosen = cols[res.x > 0.5]
    assert _covers(inst, chosen)
    return sum(inst.costs[chosen].tolist())  # the plain sum, in candidate order


# The factor clouds of the product cells.  In "deep-product" node LPs,
# not the root, decide the search: it takes 1,565 nodes.
_MIP_PRODUCTS = {"product": ((10, 2, 7), (8, 1, 5)), "deep-product": ((12, 2, 7), (6, 1, 1))}


def _mip_cell(cell):
    if cell[0] in _MIP_PRODUCTS:
        kind, q, delta = cell
        left, right = (random_cloud(*factor) for factor in _MIP_PRODUCTS[kind])
        pair = product_measure(uniform_measure(left), uniform_measure(right))
        return build_product_cover_instance(
            product_space(left, right), pair, q,
            product_premeasure(_CANTOR_GAUGE, _CANTOR_GAUGE),
            left.point_ids, right.point_ids, delta,
        )
    n, q, delta = cell
    space = random_cloud(n, 2, 7)
    return build_cover_instance(
        space, uniform_measure(space), q, _CANTOR_GAUGE, space.point_ids, delta
    )


# Each cell's node count with the greedy incumbent that the LP rounding
# replaced; a change to the search must never raise one.
_MIP_NODES = {
    **{(n, q, d): 1 for n in (40, 80) for q in (-1.0, 0.0, 1.0) for d in (0.5, 0.2)},
    (40, -1.0, 0.5): 8,
    (80, -1.0, 0.5): 7,
    ("product", -1.0, 0.5): 9,
    ("deep-product", -1.0, 0.5): 1565,
}


@pytest.mark.parametrize("cell", list(_MIP_NODES), ids=str)
def test_integer_value_matches_the_mip(cell):
    inst = _mip_cell(cell)
    h = solve_integer(inst)
    assert h.status == "optimal" and _covers(inst, h.chosen)
    assert h.nodes <= _MIP_NODES[cell]
    # Tied optima may sum their costs in a different order; H is exact
    # to within its prune margin.
    assert abs(h.value - _milp_value(inst)) <= optimizer._PRUNE_REL * max(1.0, h.value)


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


# --- the lossless reduction ------------------------------------------------


def _reduction_instances():
    """The mixed and product corpora and level 3-6 nets, as cover instances."""
    for case in build_mixed_corpus(7, 40):
        yield build_cover_instance(
            case.space, case.measure, case.q, case.xi, case.target, case.delta
        )
    for case in build_product_corpus(7, 15):
        yield build_product_cover_instance(
            product_space(case.left, case.right),
            product_measure(case.left_measure, case.right_measure),
            case.q,
            product_premeasure(case.left_xi, case.right_xi),
            case.left_target,
            case.right_target,
            case.delta,
        )
    for level in (3, 4, 5, 6):
        space, measure = cantor_net(level)
        for q in (-1.0, 0.0, 1.0, 2.0):
            for delta in (0.5, 0.2):
                yield build_cover_instance(
                    space, measure, q, _CANTOR_GAUGE, space.point_ids, delta
                )


@pytest.fixture(scope="module")
def reduction_instances():
    return list(_reduction_instances())


def _full_problem(inst):
    """The finite-cost columns, their costs and their incidence on the whole target."""
    cols = np.flatnonzero(np.isfinite(inst.costs))
    rows = np.ones(len(inst.target), dtype=bool)
    return cols, inst.costs[cols], optimizer._incidence(inst.indptr, inst.indices, cols, rows)


def _coverable(inc):
    return len(inc.row_ptr) > 1 and bool(np.all(np.diff(inc.row_ptr)))


def _lp_value(cost, inc):
    """The covering LP value of an incidence, posed by its columns."""
    return optimizer._covering_lp(cost, inc.col_ptr, inc.col_rows, len(inc.row_ptr) - 1)[0]


def test_reduction_drops_only_dominated_columns_and_rows(reduction_instances):
    dropped_cols = dropped_rows = 0
    for inst in reduction_instances:
        _, cost, inc = _full_problem(inst)
        if not _coverable(inc):
            continue
        kept, rows = optimizer._reduce(inc, cost)
        cols = np.zeros(len(cost), dtype=bool)
        cols[kept] = True
        col_sets = [
            {r for r in inc.col_rows[inc.col_ptr[j] : inc.col_ptr[j + 1]].tolist() if rows[r]}
            for j in range(len(cost))
        ]
        row_sets = [
            {j for j in inc.row_cols[inc.row_ptr[r] : inc.row_ptr[r + 1]].tolist() if cols[j]}
            for r in range(len(rows))
        ]
        for j in np.flatnonzero(~cols).tolist():
            # equal to, or inside, a kept column of equal or lower cost
            assert any(col_sets[j] <= col_sets[i] and cost[i] <= cost[j] for i in kept.tolist())
        for r in np.flatnonzero(~rows).tolist():
            # holds every kept column of some kept row
            assert any(row_sets[k] <= row_sets[r] for k in np.flatnonzero(rows).tolist())
        # the reduced LP has the full LP's value
        lp = optimizer._incidence(inc.col_ptr, inc.col_rows, kept, rows)
        full, reduced = _lp_value(cost, inc), _lp_value(cost[kept], lp)
        assert abs(reduced - full) <= SOLVER_TOL * max(1.0, full)
        dropped_cols += int((~cols).sum())
        dropped_rows += int((~rows).sum())
    assert dropped_cols > 1000 and dropped_rows > 100


def _check_containment_on_128_rows(shift):
    # On 128 rows each column is two words, and rows 1 and 65 take the
    # same bit of their words, as do 2 and 66.  Column 1 = {2, 65, 66}
    # holds the rarest row 66 of column 0 = {1, 66} but not row 1, and
    # only the first words show it; with every row shifted by 64, only
    # the second words do.  Columns 2 and 3 make row 1 the commoner, and
    # every row has a dear singleton column.
    members = [[1, 66], [2, 65, 66], [1, 3], [1, 4]] + [[r] for r in range(128)]
    members = [[(r + shift) % 128 for r in c] for c in members]
    cost = np.array([1.0, 1.0, 10.0, 10.0] + [10.0] * 128)
    indptr = np.cumsum([0] + [len(c) for c in members])
    indices = np.concatenate(members)
    inc = optimizer._incidence(indptr, indices, np.arange(len(cost)), np.ones(128, dtype=bool))
    kept, rows = optimizer._reduce(inc, cost)
    assert 0 in kept and 1 in kept
    lp = optimizer._incidence(inc.col_ptr, inc.col_rows, kept, rows)
    assert _lp_value(cost[kept], lp) == pytest.approx(_lp_value(cost, inc))


def test_containment_compares_members_beyond_64_rows():
    _check_containment_on_128_rows(0)


def test_containment_compares_the_second_word():
    _check_containment_on_128_rows(64)


def _fresh(inst):
    """A copy of ``inst`` with nothing cached: its solves reduce and solve anew."""
    return dataclasses.replace(inst)


def _check_reduced_solves(inst, plain_h):
    """H and W of the reduced path against the plain H value and the full instance."""
    fresh = _fresh(inst)
    h, w = solve_integer(fresh), solve_fractional(fresh)
    if math.isinf(plain_h):
        assert math.isinf(h.value) and math.isinf(w.value)
        return
    assert abs(h.value - plain_h) <= SOLVER_TOL * max(1.0, plain_h)
    assert _covers(inst, h.chosen)
    assert sum(inst.costs[i] for i in h.chosen) == h.value
    _, cost, inc = _full_problem(inst)
    full = _lp_value(cost, inc)
    assert abs(w.value - full) <= SOLVER_TOL * max(1.0, full)
    _check_certified_on_the_full_instance(inst, w)


def _check_certified_on_the_full_instance(inst, w):
    """W's weights cover and its dual is feasible and closes the gap, on all finite-cost candidates."""
    cols, cost, inc = _full_problem(inst)
    x = np.array(w.weights)
    assert not np.any(x[~np.isfinite(inst.costs)])
    coverage = np.bincount(inc.row_of, weights=x[cols][inc.row_cols], minlength=len(inst.target))
    assert np.all(coverage >= 1.0 - SOLVER_TOL)
    y = np.array([w.dual[p] for p in inst.target])
    loads = np.bincount(inc.row_cols, weights=y[inc.row_of], minlength=len(cols))
    assert np.all(loads <= cost + SOLVER_TOL)
    assert abs(y.sum() - w.value) <= SOLVER_TOL * max(1.0, w.value)


@pytest.mark.parametrize("always", [False, True], ids=["size-rule", "always"])
def test_reduced_solves_cover_and_certify_on_the_full_instance(
    monkeypatch, reduction_instances, always
):
    plain = []
    with monkeypatch.context() as mp:
        mp.setattr(optimizer, "_REDUCE_MIN_COLS", 2**62)
        plain = [solve_integer(_fresh(inst)).value for inst in reduction_instances]
    if always:
        monkeypatch.setattr(optimizer, "_REDUCE_MIN_COLS", 0)
    for inst, plain_h in zip(reduction_instances, plain):
        _check_reduced_solves(inst, plain_h)


def _reference_reduction(inc, cost):
    """``_reduce`` on frozensets, in its pass order, until no row drops.

    Of identical columns the cheapest stays (ties to the lowest index);
    a nonempty column strictly inside a kept column of equal or lower
    cost drops; a row drops when the nonempty column set of another row
    lies strictly inside its own, or equals it at a lower index.
    """
    n, m = len(cost), len(inc.row_ptr) - 1
    bounds = inc.col_ptr.tolist()
    members = [frozenset(inc.col_rows[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    cols, rows = set(range(n)), set(range(m))
    while True:
        col_sets = {j: members[j] & rows for j in cols}
        cheapest = {}
        for j in sorted(cols, key=lambda j: (cost[j], j)):
            cheapest.setdefault(col_sets[j], j)
        cols = set(cheapest.values())
        cols -= {
            j
            for j in cols
            if col_sets[j] and any(col_sets[j] < col_sets[i] and cost[i] <= cost[j] for i in cols)
        }
        row_sets = {r: frozenset(j for j in cols if r in col_sets[j]) for r in rows}
        covering = {
            b
            for b in rows
            if any(
                row_sets[a] < row_sets[b] or (row_sets[a] == row_sets[b] and a < b)
                for a in rows
                if row_sets[a]
            )
        }
        if not covering:
            return sorted(cols), [r in rows for r in range(m)]
        rows -= covering


def test_reduction_equals_the_frozenset_reference(reduction_instances):
    checked = 0
    for inst in reduction_instances:
        _, cost, inc = _full_problem(inst)
        if not _coverable(inc):
            continue
        kept, rows = optimizer._reduce(inc, cost)
        assert (kept.tolist(), rows.tolist()) == _reference_reduction(inc, cost)
        checked += 1
    assert checked > 80


def _cloud(n):
    space = random_cloud(n, 2, 7)
    return space, uniform_measure(space)


@pytest.fixture(scope="module")
def multi_word_problems():
    """Reductions with two to four words per column, and the reference's output."""
    problems = []
    for (space, measure), q, delta in (
        (cantor_net(7), 0.0, 0.5),  # 128 rows
        (_cloud(80), -1.0, 0.5),  # 80 rows, 72 of them dropped
        (_cloud(80), 0.0, 0.2),
        (cantor_net(8), 0.0, 0.05),  # 256 rows
    ):
        inst = build_cover_instance(space, measure, q, _CANTOR_GAUGE, space.point_ids, delta)
        _, cost, inc = _full_problem(inst)
        problems.append((inc, cost, _reference_reduction(inc, cost)))
    return problems


@pytest.mark.parametrize("chunk", [1, 7, optimizer._CHUNK])
def test_multi_word_reduction_equals_the_reference_at_any_chunk_size(
    monkeypatch, multi_word_problems, chunk
):
    monkeypatch.setattr(optimizer, "_CHUNK", chunk)
    for inc, cost, want in multi_word_problems:
        kept, rows = optimizer._reduce(inc, cost)
        assert (kept.tolist(), rows.tolist()) == want


# --- one prepared instance for H and W ------------------------------------


def _shared_instances():
    """(instance, whether it lies on a line) pairs.

    Mixed-corpus cases with q > 0 and partial support, where zero-cost
    candidates occur; the product corpus; level 3-8 nets.
    """
    for case in build_mixed_corpus(5, 120):
        if case.q > 0:
            inst = build_cover_instance(
                case.space, case.measure, case.q, case.xi, case.target, case.delta
            )
            yield inst, False
    for case in build_product_corpus(5, 15):
        yield build_product_cover_instance(
            product_space(case.left, case.right),
            product_measure(case.left_measure, case.right_measure),
            case.q,
            product_premeasure(case.left_xi, case.right_xi),
            case.left_target,
            case.right_target,
            case.delta,
        ), False
    for level in (3, 4, 5, 6, 7, 8):
        space, measure = cantor_net(level)
        for q, delta in ((0.0, 0.5), (1.0, 0.2)) if level < 8 else ((0.0, 0.5),):
            yield build_cover_instance(
                space, measure, q, _CANTOR_GAUGE, space.point_ids, delta
            ), True


def test_h_and_w_agree_whichever_solves_first_on_a_shared_instance():
    zero_cost = 0
    for inst, line in _shared_instances():
        h_alone, w_alone = solve_integer(_fresh(inst)), solve_fractional(_fresh(inst))
        first_h = _fresh(inst)
        h1, w1 = solve_integer(first_h), solve_fractional(first_h)
        first_w = _fresh(inst)
        w2, h2 = solve_fractional(first_w), solve_integer(first_w)
        if math.isinf(h_alone.value):
            assert all(math.isinf(s.value) for s in (h1, h2, w_alone, w1, w2))
            continue
        for h in (h1, h2):
            assert abs(h.value - h_alone.value) <= optimizer._PRUNE_REL * max(1.0, h_alone.value)
            assert _covers(inst, h.chosen)
            assert sum(inst.costs[i] for i in h.chosen) == h.value
        for w in (w1, w2):
            assert abs(w.value - w_alone.value) <= SOLVER_TOL * max(1.0, w_alone.value)
            assert w.value <= h_alone.value + SOLVER_TOL
            _check_certified_on_the_full_instance(inst, w)
        if line:
            exact = _interval_dp(inst)
            assert abs(h1.value - exact) <= SOLVER_TOL and abs(w1.value - exact) <= SOLVER_TOL
        zero_cost += bool(np.any((inst.costs == 0.0) & (np.diff(inst.indptr) > 0)))
    assert zero_cost > 10


def test_zero_cost_candidates_get_weight_one_and_their_points_dual_zero():
    # Point "a" has no mass, so at q = 1 every ball holding only it costs 0.
    space = validate_space(coords=np.array([[0.0], [1.0], [2.0]]), epsilon_net=0.25)
    a, b, c = space.point_ids
    measure = point_measure(space, {a: 0.0, b: 0.5, c: 0.5})
    xi = Premeasure.from_gauge(HausdorffFunction.linear())
    inst = build_cover_instance(space, measure, 1.0, xi, space.point_ids, 0.6)
    free = np.flatnonzero(inst.costs == 0.0)
    assert len(free)
    w, h = solve_fractional(inst), solve_integer(inst)
    assert np.all(np.array(w.weights)[free] == 1.0)
    assert w.dual[a] == 0.0
    assert set(free.tolist()) <= set(h.chosen)
    assert w.value == pytest.approx(h.value, abs=1e-12)
    _check_certified_on_the_full_instance(inst, w)


# --- the priced root LP and its certificate --------------------------------


def _check_priced_w(inst):
    """W against the LP over every finite-cost candidate, and certified on all of them."""
    w = solve_fractional(_fresh(inst))
    _, cost, inc = _full_problem(inst)
    if not _coverable(inc):
        assert math.isinf(w.value) and w.status == "infeasible-infinite"
        return w
    full = _lp_value(cost, inc)
    assert w.status == "optimal"
    assert abs(w.value - full) <= SOLVER_TOL * max(1.0, w.value)
    _check_certified_on_the_full_instance(inst, w)
    return w


def test_a_priced_dual_raised_past_feasibility_is_rejected(monkeypatch):
    space, measure = cantor_net(5)
    inst = build_cover_instance(space, measure, 0.0, _CANTOR_GAUGE, space.point_ids, 0.5)
    assert solve_fractional(_fresh(inst)).status == "optimal"
    optimum = optimizer._optimum

    def raised(model):
        # One entry raised by 1e-6 and the same taken off another, so the
        # dual objective stays put and only the pricing pass can see it.
        x, y = optimum(model)
        y = y.copy()
        low, high = np.argsort(y)[-2:]
        y[high] += 1e-6
        y[low] -= 1e-6
        return x, y

    monkeypatch.setattr(optimizer, "_optimum", raised)
    with pytest.raises(NumericalFailure):
        solve_fractional(_fresh(inst))


def _net7_cell():
    # The level-7 net at q = 0: W is 1.199, the cheapest candidates cost
    # 0.012, and pricing takes several rounds.
    space, measure = cantor_net(7)
    return build_cover_instance(space, measure, 0.0, _CANTOR_GAUGE, space.point_ids, 0.5)


def test_pricing_over_costs_far_below_w_keeps_its_value(monkeypatch):
    inst = _net7_cell()
    runs = []
    optimum = optimizer._optimum
    monkeypatch.setattr(optimizer, "_optimum", lambda model: runs.append(1) or optimum(model))
    w = _check_priced_w(inst)
    assert len(runs) >= 5 and inst.costs.min() < w.value / 50


def test_a_priced_dual_within_tolerance_on_costs_far_below_w_is_accepted(monkeypatch):
    inst = _net7_cell()
    value = solve_fractional(_fresh(inst)).value
    optimum = optimizer._optimum

    def raised(model):
        # The load of every candidate holding the point of largest dual
        # rises by 5e-10, within SOLVER_TOL.  The tight ones cost far
        # less than W, so a dual scaled to fit them would miss W by more.
        x, y = optimum(model)
        y = y.copy()
        y[np.argmax(y)] += 5e-10
        return x, y

    monkeypatch.setattr(optimizer, "_optimum", raised)
    w = solve_fractional(_fresh(inst))
    assert w.status == "optimal" and w.value == value
    _check_certified_on_the_full_instance(inst, w)


@pytest.mark.parametrize("reach", [0.3, 3.0], ids=["covered", "isolated"])
def test_a_zero_mass_point_at_negative_q_keeps_its_value(reach):
    # At q = -1 every ball of zero mass costs infinity.  The zero-mass
    # point lies 0.3 from the line's other points, which cover it, or 3.0
    # away, which leaves it without a finite-cost candidate.
    space = validate_space(coords=np.array([0.0, 0.2, 0.4, 0.6, 0.6 + reach]), epsilon_net=0.1)
    measure = point_measure(space, dict(zip(space.point_ids, [0.25] * 4 + [0.0])))
    inst = build_cover_instance(space, measure, -1.0, _CANTOR_GAUGE, space.point_ids, 0.5)
    assert np.isinf(inst.costs).any()
    w = _check_priced_w(inst)
    h = solve_integer(_fresh(inst))
    if reach > 1.0:
        assert w.status == h.status == "infeasible-infinite"
    else:
        assert w.status == "optimal"
        assert abs(h.value - _milp_value(inst)) <= optimizer._PRUNE_REL * max(1.0, h.value)


def test_a_zero_cost_cell_keeps_its_value():
    cloud = random_cloud(30, 2, 5)
    masses = np.where(np.arange(30) % 3 == 0, 0.0, 1.0)
    measure = point_measure(cloud, dict(zip(cloud.point_ids, masses / masses.sum())))
    inst = build_cover_instance(cloud, measure, 1.0, _CANTOR_GAUGE, cloud.point_ids, 0.3)
    free = np.flatnonzero(inst.costs == 0.0)
    assert len(free)
    w = _check_priced_w(inst)
    assert np.all(np.array(w.weights)[free] == 1.0)


def test_a_noncentered_w_on_a_proper_subset_keeps_its_value():
    cloud = random_cloud(40, 2, 3)
    target = cloud.point_ids[::3]
    for q in (-1.0, 0.0, 1.0):
        inst = build_cover_instance(
            cloud, uniform_measure(cloud), q, _CANTOR_GAUGE, target, 0.3,
            centers=cloud.point_ids,
        )
        w = _check_priced_w(inst)
        wn = noncentered_weighted_premeasure(
            cloud, uniform_measure(cloud), q, _CANTOR_GAUGE, target, 0.3
        )
        assert wn.value == w.value


@pytest.mark.parametrize("q", [-1.0, 0.0, 1.0])
def test_a_product_cell_keeps_its_value(q):
    left, right = random_cloud(9, 2, 4), random_cloud(7, 1, 6)
    inst = build_product_cover_instance(
        product_space(left, right),
        product_measure(uniform_measure(left), uniform_measure(right)),
        q,
        product_premeasure(_CANTOR_GAUGE, _CANTOR_GAUGE),
        left.point_ids[1:],
        right.point_ids,
        0.4,
    )
    _check_priced_w(inst)


@pytest.mark.parametrize("cell", list(_MIP_NODES), ids=str)
def test_priced_w_matches_the_full_lp(cell):
    _check_priced_w(_mip_cell(cell))


def test_a_net_cell_decided_at_the_root_builds_no_incidence():
    # A level-8 net cell of the example-zero chain: 39,322 candidates.
    space, mu = cantor_net(8, 1.0 / 3.0, 0.5)
    xi = Premeasure.measure_power(mu, 1.0, HausdorffFunction.linear(), 1.0, 1.0)
    inst = build_cover_instance(space, mu, 0.0, xi, space.point_ids, 1.0 / 9.0)
    h, w = solve_integer(inst), solve_fractional(inst)
    assert h.nodes == 1 and abs(h.value - w.value) <= SOLVER_TOL * max(1.0, w.value)
    # the incidence (indptr, indices) is cached as _csr once read
    assert "_csr" not in inst.__dict__ and "_residual" not in inst.__dict__


def test_building_and_solving_never_make_the_candidate_objects(monkeypatch):
    def refuse(grid):
        raise AssertionError("a build or a solve made the candidate objects")

    monkeypatch.setattr(metric.BallGrid, "balls", refuse)
    monkeypatch.setattr(metric.RectangleGrid, "rectangles", refuse)
    space, measure = cantor_net(5)
    left, right = cantor_net(2)[0], cycle_metric(4)
    insts = [
        build_cover_instance(space, measure, 0.0, _CANTOR_GAUGE, space.point_ids, 0.5),
        build_cover_instance(
            space, measure, 1.0, _CANTOR_GAUGE, space.point_ids[:9], 0.2,
            centers=space.point_ids,
        ),
        build_product_cover_instance(
            product_space(left, right),
            product_measure(uniform_measure(left), uniform_measure(right)),
            0.0,
            product_premeasure(_CANTOR_GAUGE, _CANTOR_GAUGE),
            left.point_ids,
            right.point_ids,
            0.5,
        ),
    ]
    for inst in insts:
        assert solve_integer(inst).value >= solve_fractional(inst).value - SOLVER_TOL
    monkeypatch.undo()
    for inst in insts:  # the view, built on first read
        assert len(inst.candidates) == len(inst.costs)
    assert insts[0].candidates == tuple(insts[0].grid.balls())
    assert insts[2].candidates == tuple(insts[2].grid.rectangles())


def test_the_integer_search_builds_no_incidence_of_its_own(monkeypatch):
    # The root LP of this cell leaves H undecided, so the search runs.
    inst = _mip_cell((80, -1.0, 0.5))
    assert np.count_nonzero(inst.costs > 0.0) >= optimizer._REDUCE_MIN_COLS
    calls = []
    incidence = optimizer._incidence
    monkeypatch.setattr(optimizer, "_incidence", lambda *a: calls.append(a) or incidence(*a))
    w = solve_fractional(inst)
    assert not calls and "_csr" not in inst.__dict__  # W is priced on the grid
    h = solve_integer(inst)
    assert h.nodes > 1
    assert len(calls) == 2  # the residual problem and its reduction, nothing in the search
    cols = inst._residual.cols
    assert len(cols) < np.count_nonzero(inst.costs > 0.0) and np.all(np.diff(cols) > 0)
    assert h.value >= w.value - SOLVER_TOL


def test_stable_order_in_small_keys_equals_the_int64_order(monkeypatch):
    # Row counts on both sides of the uint8 and uint16 limits, and above.
    rng = np.random.default_rng(9)
    cases = []
    for m in (200, 256, 257, 60000, 65536, 65537, 70000):
        sizes = rng.integers(0, min(m, 400), 120)
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        indices = np.concatenate([rng.choice(m, k, replace=False) for k in sizes])
        cols = rng.permutation(120)[:100]
        for rows in (np.ones(m, dtype=bool), rng.random(m) < 0.9):
            cases.append((indptr, indices, cols, rows))
    got = [optimizer._incidence(*case) for case in cases]
    for inc in got:
        # The column side runs by (column, row), and holds the row side's entries.
        n = len(inc.col_ptr) - 1
        assert np.array_equal(inc.col_of, np.repeat(np.arange(n), np.diff(inc.col_ptr)))
        by_col = inc.col_of * len(inc.row_ptr) + inc.col_rows
        assert np.all(np.diff(by_col) > 0)
        by_row = np.sort(inc.col_rows * n + inc.col_of)
        assert np.array_equal(by_row, inc.row_of * n + inc.row_cols)
    monkeypatch.setattr(
        optimizer, "_stable_order", lambda ids, n: np.argsort(ids.astype(np.int64), kind="stable")
    )
    for case, inc in zip(cases, got):
        want = optimizer._incidence(*case)
        assert all(np.array_equal(a, b) for a, b in zip(inc, want))
    assert {np.min_scalar_type(int(rows.sum()) - 1) for *_, rows in cases} == {
        np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)
    }


# --- the LP adapter ---------------------------------------------------------
#
# _covering_lp hands the covering LP straight to scipy's bundled HiGHS
# bindings.  It must give what linprog gives, bit for bit.


def _linprog_reference(costs, col_ptr, col_rows, m):
    """The covering LP as the solvers posed it to linprog before the direct adapter.

    ``A_ub`` is the CSR matrix scipy.sparse builds from the column form.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    res = linprog(
        c=costs,
        A_ub=sparse.csc_matrix(
            (np.full(len(col_rows), -1.0), col_rows, col_ptr), shape=(m, len(costs))
        ).tocsr(),
        b_ub=-np.ones(m),
        bounds=(0, None),
        method="highs",
        options={
            "presolve": True,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 2:
        return None
    assert res.status == 0
    x = np.clip(res.x, 0.0, None)
    y = np.clip(-np.asarray(res.ineqlin.marginals), 0.0, None)
    return float(costs @ x), x, y


def _seeded_instances():
    power = Premeasure.from_gauge(HausdorffFunction.power_law(math.log(2) / math.log(3)))
    for seed in (3, 8, 13, 21):
        space = random_cloud(14, 2, seed)
        for q in (-1.0, 0.0, 1.0):
            yield build_cover_instance(
                space, uniform_measure(space), q, power, space.point_ids, 0.5
            )
        yield build_cover_instance(
            space, uniform_measure(space), 0.0, power, space.point_ids, 0.5,
            centers=space.point_ids[::2],
        )
    space, measure = cantor_net(5)
    for q in (0.0, 2.0):
        yield build_cover_instance(space, measure, q, power, space.point_ids, 0.2)
    # odd cycles: on most the root LP sits below H, so the search branches
    for n in (7, 11, 13, 15, 17, 19, 23, 25, 29, 31, 35):
        space = cycle_metric(n)
        yield build_cover_instance(
            space, uniform_measure(space), 0.0, Premeasure.constant_nonempty(1.0),
            space.point_ids, 1.0,
        )
    # clouds at q = -1 whose searches take 7 and 8 nodes
    for n in (40, 80):
        space = random_cloud(n, 2, 7)
        yield build_cover_instance(space, uniform_measure(space), -1.0, power, space.point_ids, 0.5)
    left, right = random_cloud(4, 1, 5), random_cloud(3, 1, 6)
    prod = product_space(left, right)
    pair = product_measure(uniform_measure(left), uniform_measure(right))
    xi = product_premeasure(power, power)
    yield build_product_cover_instance(
        prod, pair, 0.5, xi, left.point_ids, right.point_ids, 0.6
    )


@pytest.fixture(scope="module")
def recorded_lps():
    """Every node LP that seeded H and W solves pose, in call order."""
    lps = []
    solve = optimizer.linprog

    def record(costs, col_ptr, col_rows, m):
        lps.append((costs.copy(), col_ptr.copy(), col_rows.copy(), m))
        return solve(costs, col_ptr, col_rows, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "linprog", record)
        for inst in _seeded_instances():
            solve_integer(inst)
            solve_fractional(inst)
    return lps


@pytest.fixture(params=["direct"])
def lp_route(request):
    """The route covering LPs take: the direct HiGHS call is the only one."""
    return request.param


def test_adapter_equals_linprog_bit_for_bit(lp_route, recorded_lps):
    assert len(recorded_lps) > 40
    for lp in recorded_lps:
        got, want = optimizer._covering_lp(*lp), _linprog_reference(*lp)
        assert want is not None
        value, x, y = got
        assert value == want[0]
        assert np.array_equal(x, want[1]) and np.array_equal(y, want[2])


def test_adapter_reports_an_empty_row_infeasible(lp_route):
    # both columns hold row 0 only, so nothing can cover row 1
    assert optimizer._covering_lp(np.ones(2), np.array([0, 1, 2]), np.array([0, 0]), 2) is None


def test_adapter_raises_on_an_unbounded_lp(lp_route):
    with pytest.raises(NumericalFailure) as failure:
        optimizer._covering_lp(np.array([-1.0, 1.0]), np.array([0, 1, 2]), np.array([0, 0]), 1)
    # a status failure has no primal/dual bracket and is not worded as a gap
    assert "kUnbounded" in str(failure.value)
    assert "duality gap" not in str(failure.value)


def test_every_node_lp_goes_through_the_linprog_name(monkeypatch):
    # Wrapping ``optimizer.linprog`` sees each node LP the search solves;
    # the root LP is one priced HiGHS model of its own.
    seen, models = [], []
    route = optimizer.linprog
    assert route is optimizer._covering_lp

    def spy(*lp):
        seen.append(lp)
        return route(*lp)

    class Spy(optimizer._highs._Highs):
        def __init__(self):
            super().__init__()
            models.append(self)

    monkeypatch.setattr(optimizer, "linprog", spy)
    monkeypatch.setattr(optimizer._highs, "_Highs", Spy)
    space, measure = cantor_net(4)
    power = Premeasure.from_gauge(HausdorffFunction.power_law(math.log(2) / math.log(3)))
    inst = build_cover_instance(space, measure, 1.0, power, space.point_ids, 0.2)
    solve_integer(inst)
    solve_fractional(inst)
    assert len(models) == 1 and not seen  # H and W share the priced root
    # an odd cycle: the search branches, and every node LP is seen
    space = cycle_metric(25)
    inst = build_cover_instance(
        space, uniform_measure(space), 0.0, Premeasure.constant_nonempty(1.0),
        space.point_ids, 1.0,
    )
    solve_integer(inst)
    assert len(seen) > 1 and len(models) == 2 + len(seen)


def _python(code, *path):
    """Run ``code`` in a fresh interpreter with ``path`` and src first on its path."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, path), src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_a_scipy_without_the_highs_bindings_fails_the_import(tmp_path):
    # No silent fallback: a scipy with no optimize/_highspy, which is what
    # a scipy older than 1.15 looks like, makes the import raise.
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "1.14.1"\n')
    code = (
        "import sys\n"
        "try:\n"
        "    import fracmeasure.optimizer\n"
        "except ImportError as exc:\n"
        "    print('ImportError:', exc)\n"
        "else:\n"
        "    sys.exit('imported without the HiGHS bindings')\n"
    )
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ImportError:") and "_highspy" in proc.stdout


def test_the_cli_starts_without_scipy_optimize_or_process_pools():
    code = (
        "import sys\n"
        "import fracmeasure.cli\n"
        "print([m for m in ('scipy.optimize', 'concurrent.futures.process') if m in sys.modules])\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_bindings_are_scipys_own_module_in_either_import_order():
    # One seeded W solve, printed as the bits of its value and weights.
    solve = (
        "import hashlib, math\n"
        "import numpy as np\n"
        "from fracmeasure import HausdorffFunction, Premeasure, random_cloud, uniform_measure\n"
        "from fracmeasure import weighted_premeasure\n"
        "space = random_cloud(40, 2, 7)\n"
        "power = Premeasure.from_gauge(HausdorffFunction.power_law(math.log(2) / math.log(3)))\n"
        "w = weighted_premeasure(space, uniform_measure(space), -1.0, power, space.point_ids, 0.3)\n"
        "print(w.value.hex(), hashlib.sha256(np.array(w.weights).tobytes()).hexdigest())\n"
    )
    default = _python(solve)
    assert default.returncode == 0, default.stderr
    first = _python(
        "import sys\n"
        "import scipy.optimize\n"
        "from fracmeasure import optimizer\n"
        "assert optimizer._highs is sys.modules['scipy.optimize._highspy._core']\n" + solve
    )
    assert first.returncode == 0, first.stderr
    assert first.stdout == default.stdout


def test_adapter_passes_the_options_linprog_passes(monkeypatch):
    core = optimizer._highs
    seen = []

    class Spy(core._Highs):
        def run(self):
            seen.append(self.getOptions())
            return super().run()

    monkeypatch.setattr(core, "_Highs", Spy)  # the class linprog's wrapper and the adapter make
    lp = (np.ones(2), np.array([0, 1, 2]), np.array([0, 0]), 1)
    _linprog_reference(*lp)
    optimizer._covering_lp(*lp)
    via_linprog, direct = seen
    names = [n for n in dir(direct) if not n.startswith("_")]
    assert len(names) > 50
    assert {n: getattr(direct, n) for n in names} == {n: getattr(via_linprog, n) for n in names}
