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
from fracmeasure import optimizer
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


def test_node_budget_brackets_the_five_cycle(five_cycle, unit_constant):
    # the root LP (5/3) cannot prune the greedy incumbent, so the first
    # child trips the budget; the bracket holds the optimum 2
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
    for case in build_mixed_corpus(7, 40, full_support=False):
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


def _reduction(inst):
    _, cost, inc = _full_problem(inst)
    return optimizer._reduce(inc, cost)


def _coverable(inc):
    return len(inc.row_ptr) > 1 and bool(np.all(np.diff(inc.row_ptr)))


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
        full = optimizer._covering_lp(cost, inc.row_ptr, inc.row_cols)[0]
        lp = optimizer._incidence(inc.col_ptr, inc.col_rows, kept, rows)
        reduced = optimizer._covering_lp(cost[kept], lp.row_ptr, lp.row_cols)[0]
        assert abs(reduced - full) <= SOLVER_TOL * max(1.0, full)
        dropped_cols += int((~cols).sum())
        dropped_rows += int((~rows).sum())
    assert dropped_cols > 1000 and dropped_rows > 100


def test_containment_compares_members_beyond_64_rows():
    # On 128 rows, rows 1 and 65 share a signature bit, as do 2 and 66:
    # column 0 = {1, 66} passes the signature test against column
    # 1 = {2, 65, 66}, which holds its rarest row 66 but not row 1.
    # Columns 2 and 3 make row 1 the commoner, and every row has a dear
    # singleton column.
    members = [[1, 66], [2, 65, 66], [1, 3], [1, 4]] + [[r] for r in range(128)]
    cost = np.array([1.0, 1.0, 10.0, 10.0] + [10.0] * 128)
    indptr = np.cumsum([0] + [len(c) for c in members])
    indices = np.concatenate(members)
    inc = optimizer._incidence(indptr, indices, np.arange(len(cost)), np.ones(128, dtype=bool))
    kept, rows = optimizer._reduce(inc, cost)
    assert 0 in kept and 1 in kept
    full = optimizer._covering_lp(cost, inc.row_ptr, inc.row_cols)[0]
    lp = optimizer._incidence(inc.col_ptr, inc.col_rows, kept, rows)
    assert optimizer._covering_lp(cost[kept], lp.row_ptr, lp.row_cols)[0] == pytest.approx(full)


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
    full = optimizer._covering_lp(cost, inc.row_ptr, inc.row_cols)[0]
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


def test_reduction_is_exact_when_every_set_key_collides(monkeypatch, reduction_instances):
    # Distinct sets of one size then share a bucket, and only the member
    # comparison can tell them apart.
    insts = [inst for inst in reduction_instances if len(inst.candidates) >= 64]
    assert len(insts) > 10
    want = [(solve_integer(inst), solve_fractional(inst)) for inst in map(_fresh, insts)]
    reductions = [_reduction(inst) for inst in insts]
    monkeypatch.setattr(
        optimizer, "_set_keys", lambda member, ptr, n: np.zeros(len(ptr) - 1, dtype=np.uint64)
    )
    for inst, (h, w), (kept, rows) in zip(insts, want, reductions):
        got_kept, got_rows = _reduction(inst)
        assert np.array_equal(got_kept, kept) and np.array_equal(got_rows, rows)
        inst = _fresh(inst)
        assert solve_integer(inst) == h
        assert solve_fractional(inst) == w


# --- one prepared instance for H and W ------------------------------------


def _shared_instances():
    """(instance, whether it lies on a line) pairs.

    Mixed-corpus cases with q > 0 and partial support, where zero-cost
    candidates occur; the product corpus; level 3-8 nets.
    """
    for case in build_mixed_corpus(5, 120, full_support=False):
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


def _linprog_reference(costs, row_ptr, row_cols):
    """The covering LP as the solvers posed it to linprog before the direct adapter."""
    from scipy import sparse
    from scipy.optimize import linprog

    m = len(row_ptr) - 1
    res = linprog(
        c=costs,
        A_ub=sparse.csr_matrix(
            (np.full(len(row_cols), -1.0), row_cols, row_ptr), shape=(m, len(costs))
        ),
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
    for n in (7, 11, 13, 15, 17, 19, 25):
        space = cycle_metric(n)
        yield build_cover_instance(
            space, uniform_measure(space), 0.0, Premeasure.constant_nonempty(1.0),
            space.point_ids, 1.0,
        )
    left, right = random_cloud(4, 1, 5), random_cloud(3, 1, 6)
    prod = product_space(left, right)
    pair = product_measure(uniform_measure(left), uniform_measure(right))
    xi = product_premeasure(power, power)
    yield build_product_cover_instance(
        prod, pair, 0.5, xi, left.point_ids, right.point_ids, 0.6
    )


@pytest.fixture(scope="module")
def recorded_lps():
    """Every covering LP that seeded H and W solves pose, in call order."""
    lps = []
    solve = optimizer.linprog

    def record(*lp):
        lps.append(tuple(a.copy() for a in lp))
        return solve(*lp)

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
    # row 1 has no column, so nothing can cover it
    assert optimizer._covering_lp(np.ones(2), np.array([0, 2, 2]), np.array([0, 1])) is None


def test_adapter_raises_on_an_unbounded_lp(lp_route):
    with pytest.raises(NumericalFailure) as failure:
        optimizer._covering_lp(np.array([-1.0, 1.0]), np.array([0, 2]), np.array([0, 1]))
    # a status failure has no primal/dual bracket and is not worded as a gap
    assert "kUnbounded" in str(failure.value)
    assert "duality gap" not in str(failure.value)


def test_every_covering_lp_goes_through_the_linprog_name(monkeypatch):
    # Wrapping ``optimizer.linprog`` sees each HiGHS solve the solvers run.
    seen, runs = [], []
    route = optimizer.linprog
    assert route is optimizer._covering_lp

    def spy(*lp):
        seen.append(lp)
        return route(*lp)

    class Spy(optimizer._highs._Highs):
        def run(self):
            runs.append(self)
            return super().run()

    monkeypatch.setattr(optimizer, "linprog", spy)
    monkeypatch.setattr(optimizer._highs, "_Highs", Spy)
    space, measure = cantor_net(4)
    power = Premeasure.from_gauge(HausdorffFunction.power_law(math.log(2) / math.log(3)))
    inst = build_cover_instance(space, measure, 1.0, power, space.point_ids, 0.2)
    solve_integer(inst)
    solve_fractional(inst)
    assert len(runs) == 1 and len(seen) == 1  # H and W share the root LP
    # an odd cycle: the search branches, and every node LP is seen too
    space = cycle_metric(25)
    inst = build_cover_instance(
        space, uniform_measure(space), 0.0, Premeasure.constant_nonempty(1.0),
        space.point_ids, 1.0,
    )
    solve_integer(inst)
    assert len(runs) > 2 and len(seen) == len(runs)


def test_a_scipy_without_the_highs_bindings_fails_the_import():
    # No silent fallback: blocking the bindings makes the import raise.
    code = (
        "import sys\n"
        "sys.modules['scipy.optimize._highspy'] = None\n"
        "try:\n"
        "    import fracmeasure.optimizer\n"
        "except ImportError as exc:\n"
        "    print('ImportError:', exc)\n"
        "else:\n"
        "    sys.exit('imported without the HiGHS bindings')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ImportError:") and "_highspy" in proc.stdout


def test_adapter_passes_the_options_linprog_passes(monkeypatch):
    core = optimizer._highs
    seen = []

    class Spy(core._Highs):
        def run(self):
            seen.append(self.getOptions())
            return super().run()

    monkeypatch.setattr(core, "_Highs", Spy)  # the class linprog's wrapper and the adapter make
    lp = (np.ones(2), np.array([0, 2]), np.array([0, 1]))
    _linprog_reference(*lp)
    optimizer._covering_lp(*lp)
    via_linprog, direct = seen
    names = [n for n in dir(direct) if not n.startswith("_")]
    assert len(names) > 50
    assert {n: getattr(direct, n) for n in names} == {n: getattr(via_linprog, n) for n in names}
