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
    for seed in (3, 8):
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
    assert len(runs) >= 2 and len(seen) == len(runs)


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
