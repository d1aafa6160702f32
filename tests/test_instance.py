"""The array-native cover instance against the per-candidate scalar functions.

Differential tests: every candidate's CSR members and cost must match
``ball_members`` and the scalar cost of ``scalar_reference`` on seeded 2-D
clouds, Cantor nets, a grid, the 5-cycle and products, for every
premeasure kind.

Metamorphic tests, which need no oracle: permuting the points leaves H, W
and Wtilde unchanged; scaling a space by t scales every value of a power
gauge s by t^s and keeps the member sets; values do not decrease as delta
shrinks.
"""

import math

import numpy as np
import pytest

from fracmeasure import (
    HausdorffFunction,
    Premeasure,
    SOLVER_TOL,
    ball_members,
    build_cover_instance,
    build_product_cover_instance,
    cantor_net,
    cycle_metric,
    delta_profile,
    enumerate_centered_balls,
    enumerate_centered_rectangles,
    hausdorff_premeasure,
    hxh_premeasure,
    noncentered_weighted_premeasure,
    point_measure,
    product_measure,
    product_premeasure,
    product_space,
    random_cloud,
    uniform_grid,
    validate_space,
    weighted_premeasure,
)

import scalar_reference
from conftest import covered

_S = math.log(2.0) / math.log(3.0)
_SWEEP_DELTAS = (0.5, 0.2, 0.1)


def _spaces():
    """(name, space) pairs: clouds, nets, a grid and the 5-cycle."""
    return [
        ("cloud-a", random_cloud(9, 2, 3)),
        ("cloud-b", random_cloud(12, 2, 8)),
        ("cantor3", cantor_net(3, 1.0 / 3.0, 0.3)[0]),
        ("cantor4", cantor_net(4)[0]),
        ("grid", uniform_grid(4, 2)),
        ("cycle5", cycle_metric(5)),
    ]


def _random_measure(space, seed, zero_one=True):
    rng = np.random.default_rng(seed)
    masses = rng.random(space.n) + 0.05
    if zero_one:
        masses[int(rng.integers(0, space.n))] = 0.0
    return point_measure(space, dict(zip(space.point_ids, masses / masses.sum())))


def _deltas(space):
    pos = space.dist[space.dist > 0.0]
    return sorted(
        {max(space.epsilon_net, float(np.quantile(pos, f))) for f in (0.0, 0.3, 0.7)},
        reverse=True,
    )


def _single_premeasures(mu):
    return {
        "hausdorff-nominal": Premeasure.from_gauge(HausdorffFunction.power_law(0.5)),
        "hausdorff-realized": Premeasure.from_gauge(HausdorffFunction.linear(), "realized"),
        "hausdorff-table": Premeasure.from_gauge(
            HausdorffFunction.from_table([(0.25, 0.5), (1.0, 1.0), (2.0, 1.5)])
        ),
        "measure_power": Premeasure.measure_power(
            mu, 0.5, HausdorffFunction.power_law(_S), 1.0, 3.0
        ),
        "measure_power-p0": Premeasure.measure_power(
            mu, 0.0, HausdorffFunction.linear(), 2.0, 2.0
        ),
        "constant_nonempty": Premeasure.constant_nonempty(1.5),
        "constant-zero": Premeasure.constant_nonempty(0.0),
        "gauge_pair": hxh_premeasure(HausdorffFunction.linear(), HausdorffFunction.power_law(0.5)),
        "gauge_pair-realized": hxh_premeasure(
            HausdorffFunction.linear(), HausdorffFunction.power_law(0.5), "realized"
        ),
    }


def _check_against_scalars(space, measure, q, xi, inst, target):
    """Members and costs of every candidate against the scalar reference."""
    tset = set(target)
    assert len(inst.indptr) == len(inst.candidates) + 1 == len(inst.costs) + 1
    member_sets = covered(inst)
    for j, cand in enumerate(inst.candidates):
        seg = inst.indices[inst.indptr[j] : inst.indptr[j + 1]]
        members = {inst.target[k] for k in seg.tolist()}
        assert len(members) == len(seg)
        assert members == ball_members(space, cand) & tset, cand
        assert member_sets[j] == members
        expected = scalar_reference.weight_term(space, measure, q, xi, cand)
        got = float(inst.costs[j])
        if math.isinf(expected) or math.isinf(got):
            assert got == expected, cand
        else:
            assert abs(got - expected) <= 1e-12 * abs(expected), (cand, got, expected)


@pytest.mark.parametrize("name, space", _spaces(), ids=[n for n, _ in _spaces()])
@pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 2.0])
def test_instance_matches_scalar_functions(name, space, q):
    rng = np.random.default_rng(len(name))
    measure = _random_measure(space, 1)
    mu = _random_measure(space, 2, zero_one=False)
    ids = space.point_ids
    picked = rng.choice(space.n, size=space.n // 2 + 1, replace=False)
    subset = tuple(ids[int(i)] for i in sorted(picked))
    for xi in _single_premeasures(mu).values():
        for delta in _deltas(space):
            for target, centers in ((ids, None), (subset, None), (subset, ids)):
                inst = build_cover_instance(space, measure, q, xi, target, delta, centers=centers)
                grid = enumerate_centered_balls(
                    space, target if centers is None else centers, delta
                )
                assert list(inst.candidates) == grid
                _check_against_scalars(space, measure, q, xi, inst, target)


def _products():
    left = random_cloud(4, 1, 5)
    net, net_mu = cantor_net(2, 1.0 / 3.0, 0.4)
    cycle = cycle_metric(5)
    return [
        ("cloud-x-net", left, _random_measure(left, 3), net, net_mu),
        ("net-x-cycle", net, net_mu, cycle, _random_measure(cycle, 4, zero_one=False)),
    ]


@pytest.mark.parametrize(
    "name, left, lmu, right, rmu", _products(), ids=[p[0] for p in _products()]
)
@pytest.mark.parametrize("q", [-1.0, 0.0, 1.0])
def test_product_instance_matches_scalar_functions(name, left, lmu, right, rmu, q):
    prod = product_space(left, right)
    pm = product_measure(lmu, rmu)
    lin, half = HausdorffFunction.linear(), HausdorffFunction.power_law(0.5)
    premeasures = [
        product_premeasure(Premeasure.from_gauge(lin), Premeasure.from_gauge(half, "realized")),
        product_premeasure(
            Premeasure.measure_power(lmu, 1.0, lin, 1.0, 1.0), Premeasure.constant_nonempty(2.0)
        ),
        hxh_premeasure(lin, half),
        hxh_premeasure(lin, half, "realized"),
        Premeasure.from_gauge(half),
        Premeasure.from_gauge(lin, "realized"),
        Premeasure.measure_power(pm, 0.5, lin, 1.0, 1.0),
        Premeasure.constant_nonempty(1.0),
    ]
    lt = left.point_ids[1:]
    rt = right.point_ids[::2]
    delta = max(prod.epsilon_net, 0.4)
    for xi in premeasures:
        inst = build_product_cover_instance(prod, pm, q, xi, lt, rt, delta)
        assert inst.target == tuple((a, b) for a in lt for b in rt)
        lex = lambda r: (  # noqa: E731
            left.index_of(r.left.center),
            right.index_of(r.right.center),
            r.left.radius,
            r.right.radius,
        )
        assert list(inst.candidates) == sorted(
            enumerate_centered_rectangles(prod, lt, rt, delta), key=lex
        )
        _check_against_scalars(prod, pm, q, xi, inst, inst.target)


# --- metamorphic relations ---------------------------------------------------


def _values(space, measure, q, xi, target, delta):
    return (
        hausdorff_premeasure(space, measure, q, xi, target, delta).value,
        weighted_premeasure(space, measure, q, xi, target, delta).value,
        noncentered_weighted_premeasure(space, measure, q, xi, target, delta).value,
    )


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= SOLVER_TOL * max(1.0, abs(b))


def _permuted(space, perm):
    return validate_space(
        dist=space.dist[np.ix_(perm, perm)],
        epsilon_net=space.epsilon_net,
        point_ids=[space.point_ids[i] for i in perm],
    )


def _premeasures_on(measure):
    return (
        Premeasure.from_gauge(HausdorffFunction.power_law(_S)),
        Premeasure.from_gauge(HausdorffFunction.linear(), "realized"),
        Premeasure.measure_power(measure, 1.0, HausdorffFunction.linear(), 1.0, 1.0),
    )


@pytest.mark.parametrize("name, space", _spaces(), ids=[n for n, _ in _spaces()])
def test_permuting_points_keeps_values(name, space):
    """Relisting the points reorders every argsort and breaks its ties differently."""
    rng = np.random.default_rng(17)
    measure = _random_measure(space, 6)
    target = space.point_ids[: max(2, space.n - 2)]
    for _ in range(2):
        other = _permuted(space, rng.permutation(space.n))
        other_measure = point_measure(other, measure.mass)
        pairs = zip(_premeasures_on(measure), _premeasures_on(other_measure))
        for xi, other_xi in pairs:
            for q in (-1.0, 0.0, 1.0):
                for delta in _deltas(space):
                    a = _values(space, measure, q, xi, target, delta)
                    b = _values(other, other_measure, q, other_xi, target, delta)
                    assert all(map(_close, a, b)), (q, delta, a, b)
                    ia = build_cover_instance(space, measure, q, xi, target, delta)
                    ib = build_cover_instance(other, other_measure, q, other_xi, target, delta)
                    members_a = dict(zip(ia.candidates, covered(ia)))
                    assert members_a == dict(zip(ib.candidates, covered(ib)))


@pytest.mark.parametrize("name, space", _spaces(), ids=[n for n, _ in _spaces()])
@pytest.mark.parametrize("t", [0.25, 8.0])
def test_scaling_distances_scales_power_gauge_values(name, space, t):
    s = 0.5 if name.startswith("cloud") else _S
    scaled = validate_space(
        dist=space.dist * t, epsilon_net=space.epsilon_net * t, point_ids=space.point_ids
    )
    measure = _random_measure(space, 7)
    scaled_measure = point_measure(scaled, measure.mass)
    target = space.point_ids
    for mode in ("nominal", "realized"):
        xi = Premeasure.from_gauge(HausdorffFunction.power_law(s), mode)
        for q in (-1.0, 0.0, 1.0):
            for delta in _deltas(space):
                a = _values(space, measure, q, xi, target, delta)
                b = _values(scaled, scaled_measure, q, xi, target, delta * t)
                assert all(_close(vb, t**s * va) for va, vb in zip(a, b)), (q, delta, a, b)
                ia = build_cover_instance(space, measure, q, xi, target, delta)
                ib = build_cover_instance(scaled, scaled_measure, q, xi, target, delta * t)
                assert covered(ib) == covered(ia)
                assert [c.radius for c in ib.candidates] == [t * c.radius for c in ia.candidates]


@pytest.mark.parametrize("name, space", _spaces(), ids=[n for n, _ in _spaces()])
def test_values_do_not_decrease_as_delta_shrinks(name, space):
    measure = _random_measure(space, 8)
    deltas = [d for d in _SWEEP_DELTAS if d >= space.epsilon_net] or _deltas(space)
    xi = Premeasure.from_gauge(HausdorffFunction.power_law(_S))
    for q in (-1.0, 0.0, 0.5, 1.0, 2.0):
        rows = delta_profile(space, measure, q, xi, space.point_ids, deltas).rows
        for big, small in zip(rows, rows[1:]):
            for field in ("h_value", "w_value", "noncentered_w_value"):
                assert getattr(small, field) >= getattr(big, field) - SOLVER_TOL
