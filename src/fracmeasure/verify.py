"""Theorem verification suites over seeded corpora.

Each suite draws a deterministic corpus from its seed, checks one
relation between computed quantities on every case, and reports the
violations verbatim (one line per failed case, both sides included).
A suite passes exactly when no case violates its relation.  Every report
lists the fixed tolerance each relation applied: ``CHECK_TOL``,
``SOLVER_TOL`` or 0.0 for an exact comparison.

Suites and their relations:

* ``wh-order``       weighted <= integer value, plus the strict-gap witness
                     on the 5-cycle (5/3 against 2);
* ``subadd``         union subadditivity of the weighted value, with exact
                     additivity when the parts are separated beyond 2 delta;
* ``product-w``      multiplicativity of the weighted value on products;
* ``sandwich``       W(E) H(F) <= H(E x F) <= H(E) H(F);
* ``zero-infinite``  an infinite factor paired with a null factor gives a
                     product value of exactly zero;
* ``noncentered``    freeing the centers never increases the weighted value;
* ``hxh``            the joint-gauge premeasure dominates the product of
                     the factor gauge premeasures;
* ``density``        nu(E) <= s * H(E) with s the candidate density sup;
* ``vitali``         greedy 5r packings verify exhaustively;
* ``besicovitch``    bounded-overlap families verify exhaustively;
* ``lemma-8c``       integer value <= 8 * C3 * weighted value on doubling
                     corpora, C3 the 3r dilation cost ratio;
* ``example-zero``   the vanishing-value chain on the level-8 net of the
                     middle-thirds contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covering import (
    besicovitch_families,
    check_besicovitch,
    check_vitali,
    vitali_5r_packing,
)
from .diagnostics import density_upper_bound_check
from .errors import InvalidInput, SuiteUnknown
from .extended import CHECK_TOL, INF, SOLVER_TOL, xdiv_array
from .generators import cantor_net, cycle_metric, random_cloud, uniform_grid
from .metric import (
    Ball,
    FiniteMetricSpace,
    PointMeasure,
    ball_mass,
    point_measure,
    product_measure,
    product_space,
    uniform_measure,
    validate_space,
)
# Solvers are looked up on the module at call time, so a wrapper
# installed there (perfbench/tracer.py) sees every call.
from . import optimizer
from .optimizer import (
    hausdorff_premeasure,
    noncentered_weighted_premeasure,
    product_premeasure_values,
    weighted_premeasure,
)
from .premeasure import (
    HausdorffFunction,
    Premeasure,
    hxh_premeasure,
    product_premeasure,
    weight_terms,
)

__all__ = [
    "AppliedTolerance",
    "SuiteReport",
    "SUITE_NAMES",
    "FIXED_SUITES",
    "run_suite",
    "build_mixed_corpus",
    "build_product_corpus",
    "SingleCase",
    "ProductCase",
]

_Q_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
_LOG23 = math.log(2.0) / math.log(3.0)


class AppliedTolerance(NamedTuple):
    """The tolerance one relation of a suite applied (0.0: exact comparison)."""

    relation: str
    tol: float = SOLVER_TOL


@dataclass
class SuiteReport:
    name: str
    cases: int
    violations: list[str] = field(default_factory=list)
    tolerances: list[AppliedTolerance] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)
class SingleCase:
    cid: str
    space: FiniteMetricSpace
    measure: PointMeasure
    q: float
    xi: Premeasure
    target: tuple
    delta: float


@dataclass(frozen=True, eq=False)
class ProductCase:
    cid: str
    left: FiniteMetricSpace
    right: FiniteMetricSpace
    left_measure: PointMeasure
    right_measure: PointMeasure
    q: float
    left_xi: Premeasure
    right_xi: Premeasure
    left_target: tuple
    right_target: tuple
    delta: float


# --- corpus builders ----------------------------------------------------


def _draw_space(rng: np.random.Generator):
    kind = rng.choice(["cloud", "grid", "cycle", "cantor"])
    if kind == "cloud":
        n = int(rng.integers(4, 8))
        d = int(rng.integers(1, 3))
        return random_cloud(n, d, int(rng.integers(0, 2**31))), None
    if kind == "grid":
        n = int(rng.integers(3, 5))
        d = int(rng.integers(1, 3))
        return uniform_grid(n, d), None
    if kind == "cycle":
        return cycle_metric(int(rng.integers(3, 9))), None
    level = int(rng.integers(2, 5))
    space, mass = cantor_net(level, 1.0 / 3.0, float(rng.uniform(0.25, 0.75)))
    return space, mass


def _draw_measure(
    rng: np.random.Generator,
    space: FiniteMetricSpace,
    natural: PointMeasure | None,
    full_support: bool,
) -> PointMeasure:
    mode = rng.choice(["uniform", "random", "natural"])
    if mode == "natural" and natural is not None:
        return natural
    if mode == "uniform":
        masses = np.ones(space.n)
    else:
        masses = rng.random(space.n) + 0.05
    if not full_support and space.n >= 3 and rng.random() < 0.5:
        masses[int(rng.integers(0, space.n))] = 0.0
    masses = masses / masses.sum()
    return point_measure(space, dict(zip(space.point_ids, masses)))


def _draw_gauge(rng: np.random.Generator) -> HausdorffFunction:
    pick = rng.choice(["linear", "half", "log23", "table"])
    if pick == "linear":
        return HausdorffFunction.linear()
    if pick == "half":
        return HausdorffFunction.power_law(0.5)
    if pick == "log23":
        return HausdorffFunction.power_law(_LOG23)
    return HausdorffFunction.from_table([(0.25, 0.5), (1.0, 1.0), (2.0, 1.5)])


def _draw_premeasure(
    rng: np.random.Generator, measure: PointMeasure
) -> Premeasure:
    pick = rng.choice(["gauge", "gauge", "constant", "measure_power"])
    if pick == "gauge":
        mode = "realized" if rng.random() < 0.15 else "nominal"
        return Premeasure.from_gauge(_draw_gauge(rng), diam_mode=mode)
    if pick == "constant":
        return Premeasure.constant_nonempty(float(rng.uniform(0.5, 2.0)))
    p = float(rng.choice([0.5, 1.0]))
    return Premeasure.measure_power(measure, p, HausdorffFunction.linear(), 1.0, 1.0)


def _draw_delta(rng: np.random.Generator, space: FiniteMetricSpace) -> float:
    pos = space.dist[space.dist > 0.0]
    low, high = np.quantile(pos, [0.3, 0.7]).tolist()
    options = [space.epsilon_net, low, high, float(pos.max())]
    return max(space.epsilon_net, float(rng.choice(options)))


def _draw_target(rng: np.random.Generator, space: FiniteMetricSpace) -> tuple:
    k = int(rng.integers(1, space.n + 1))
    picked = rng.choice(space.n, size=k, replace=False)
    return tuple(space.point_ids[int(i)] for i in sorted(picked))


def build_mixed_corpus(seed: int, count: int) -> list[SingleCase]:
    """Cases across all generators, the full q grid and premeasure catalog.

    On three or more points, about half the uniform and random measures
    put mass 0 on one point.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        space, natural = _draw_space(rng)
        measure = _draw_measure(rng, space, natural, full_support=False)
        xi = _draw_premeasure(rng, measure)
        cases.append(
            SingleCase(
                cid=f"mix-{i}",
                space=space,
                measure=measure,
                q=float(rng.choice(_Q_GRID)),
                xi=xi,
                target=_draw_target(rng, space),
                delta=_draw_delta(rng, space),
            )
        )
    return cases


def _draw_factor(rng: np.random.Generator):
    kind = rng.choice(["cloud", "cycle", "cantor", "grid"])
    if kind == "cloud":
        space = random_cloud(int(rng.integers(3, 7)), 1, int(rng.integers(0, 2**31)))
        natural = None
    elif kind == "cycle":
        space = cycle_metric(int(rng.integers(3, 7)))
        natural = None
    elif kind == "grid":
        space = uniform_grid(int(rng.integers(3, 6)), 1)
        natural = None
    else:
        space, natural = cantor_net(2, 1.0 / 3.0, float(rng.uniform(0.3, 0.7)))
    measure = _draw_measure(rng, space, natural, full_support=True)
    return space, measure


def build_product_corpus(seed: int, count: int) -> list[ProductCase]:
    """Full-support product cases with factors of at most 6 points."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        ls, lm = _draw_factor(rng)
        rs, rm = _draw_factor(rng)
        delta = max(
            ls.epsilon_net, rs.epsilon_net, _draw_delta(rng, ls), _draw_delta(rng, rs)
        )
        cases.append(
            ProductCase(
                cid=f"prod-{i}",
                left=ls,
                right=rs,
                left_measure=lm,
                right_measure=rm,
                q=float(rng.choice(_Q_GRID)),
                left_xi=Premeasure.from_gauge(_draw_gauge(rng)),
                right_xi=Premeasure.from_gauge(_draw_gauge(rng)),
                left_target=_draw_target(rng, ls),
                right_target=_draw_target(rng, rs),
                delta=delta,
            )
        )
    return cases


# --- individual suites ---------------------------------------------------


def _le(a: float, b: float, tol: float) -> bool:
    if math.isinf(b):
        return True
    if math.isinf(a):
        return False
    return a <= b + tol


def _w_and_h(space, measure, q, xi, target, delta) -> tuple[float, float]:
    """W and H from one cover instance, which shares its reduction and root LP."""
    instance = optimizer.build_cover_instance(space, measure, q, xi, target, delta)
    return optimizer.solve_fractional(instance).value, optimizer.solve_integer(instance).value


def _product_instance(prod, pair_measure, case: ProductCase, xi: Premeasure):
    """The rectangle cover instance of a product case's target under ``xi``."""
    return optimizer.build_product_cover_instance(
        prod, pair_measure, case.q, xi, case.left_target, case.right_target, case.delta
    )


def suite_wh_order(count: int = 500, seed: int = 0) -> SuiteReport:
    report = SuiteReport(
        name="wh-order",
        cases=0,
        tolerances=[
            AppliedTolerance("W <= H + tol"),
            AppliedTolerance("gap witness: |W - 5/3| <= tol and |H - 2| <= tol"),
        ],
    )
    for case in build_mixed_corpus(seed, count):
        report.cases += 1
        w, h = _w_and_h(case.space, case.measure, case.q, case.xi, case.target, case.delta)
        if not _le(w, h, SOLVER_TOL):
            report.violations.append(f"{case.cid}: W={w!r} exceeds H={h!r}")

    # Strict gap witness: the unit 5-cycle at q=0 with the unit constant
    # premeasure and delta=1 has W = 5/3 < 2 = H.
    space = cycle_metric(5)
    measure = uniform_measure(space)
    xi = Premeasure.constant_nonempty(1.0)
    w, h = _w_and_h(space, measure, 0.0, xi, space.point_ids, 1.0)
    report.cases += 1
    if abs(w - 5.0 / 3.0) > SOLVER_TOL or abs(h - 2.0) > SOLVER_TOL:
        report.violations.append(f"gap witness: expected (5/3, 2), got ({w!r}, {h!r})")
    return report


def _two_cluster_case(rng: np.random.Generator, i: int):
    d = int(rng.integers(1, 3))
    na, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    a = rng.random((na, d))
    b = rng.random((nb, d))
    b[:, 0] += 6.0  # clusters at least 5 apart in the first axis
    coords = np.vstack([a, b])
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    eps = float(dist[dist > 0.0].min()) / 2.0
    space = validate_space(coords=coords, epsilon_net=eps)
    masses = rng.random(space.n) + 0.05
    measure = point_measure(space, dict(zip(space.point_ids, masses / masses.sum())))
    e = tuple(space.point_ids[:na])
    f = tuple(space.point_ids[na:])
    within = dist[:na, :na][dist[:na, :na] > 0.0]
    delta = max(eps, float(np.quantile(within, 0.5)) if within.size else eps)
    return space, measure, e, f, min(delta, 2.0)


def suite_subadd(count: int = 100, seed: int = 0) -> SuiteReport:
    report = SuiteReport(
        name="subadd",
        cases=0,
        tolerances=[
            AppliedTolerance("W(E u F) <= W(E) + W(F) + tol"),
            AppliedTolerance("separated parts: |W(E u F) - W(E) - W(F)| <= tol"),
        ],
    )
    rng = np.random.default_rng(seed)
    for i in range(count):
        separated = i % 2 == 0
        if separated:
            space, measure, e, f, delta = _two_cluster_case(rng, i)
            xi = _draw_premeasure(rng, measure)
            q = float(rng.choice(_Q_GRID))
        else:
            space, natural = _draw_space(rng)
            measure = _draw_measure(rng, space, natural, full_support=True)
            xi = _draw_premeasure(rng, measure)
            q = float(rng.choice(_Q_GRID))
            ids = list(space.point_ids)
            rng.shuffle(ids)
            cut = int(rng.integers(1, len(ids)))
            e, f = tuple(ids[:cut]), tuple(ids[cut:])
            delta = _draw_delta(rng, space)
        report.cases += 1
        wu = weighted_premeasure(space, measure, q, xi, e + f, delta).value
        we = weighted_premeasure(space, measure, q, xi, e, delta).value
        wf = weighted_premeasure(space, measure, q, xi, f, delta).value
        total = we + wf if not (math.isinf(we) or math.isinf(wf)) else INF
        if not _le(wu, total, SOLVER_TOL):
            report.violations.append(
                f"sub-{i}: W(union)={wu!r} exceeds W(E)+W(F)={total!r}"
            )
        idx_e = [space.index_of(p) for p in e]
        idx_f = [space.index_of(p) for p in f]
        gap = float(space.dist[np.ix_(idx_e, idx_f)].min())
        if gap > 2.0 * delta:
            both_inf = math.isinf(wu) and math.isinf(total)
            if not both_inf and abs(wu - total) > SOLVER_TOL:
                report.violations.append(
                    f"sub-{i}: separated parts, W(union)={wu!r} != W(E)+W(F)={total!r}"
                )
    return report


def suite_product_w(count: int = 100, seed: int = 0) -> SuiteReport:
    report = SuiteReport(
        name="product-w",
        cases=0,
        tolerances=[
            AppliedTolerance("|W(ExF) - W(E)W(F)| <= tol * max(1, |W(E)W(F)|)", CHECK_TOL)
        ],
    )
    for case in build_product_corpus(seed, count):
        report.cases += 1
        prod = product_space(case.left, case.right)
        pm = product_measure(case.left_measure, case.right_measure)
        xi0 = product_premeasure(case.left_xi, case.right_xi)
        w = optimizer.solve_fractional(_product_instance(prod, pm, case, xi0))
        wl = weighted_premeasure(
            case.left, case.left_measure, case.q, case.left_xi, case.left_target, case.delta
        ).value
        wr = weighted_premeasure(
            case.right, case.right_measure, case.q, case.right_xi, case.right_target, case.delta
        ).value
        expect = wl * wr
        if abs(w.value - expect) > CHECK_TOL * max(1.0, abs(expect)):
            report.violations.append(
                f"{case.cid}: W(ExF)={w.value!r} vs W(E)W(F)={expect!r}"
            )
    return report


def suite_sandwich(count: int = 100, seed: int = 0) -> SuiteReport:
    report = SuiteReport(
        name="sandwich",
        cases=0,
        tolerances=[
            AppliedTolerance("W(E)H(F) <= H(ExF) + tol", CHECK_TOL),
            AppliedTolerance("H(ExF) <= H(E)H(F) + tol", CHECK_TOL),
        ],
    )
    for case in build_product_corpus(seed, count):
        report.cases += 1
        prod = product_space(case.left, case.right)
        pm = product_measure(case.left_measure, case.right_measure)
        xi0 = product_premeasure(case.left_xi, case.right_xi)
        h_prod = optimizer.solve_integer(_product_instance(prod, pm, case, xi0)).value
        wl, hl = _w_and_h(
            case.left, case.left_measure, case.q, case.left_xi, case.left_target, case.delta
        )
        hr = hausdorff_premeasure(
            case.right, case.right_measure, case.q, case.right_xi, case.right_target, case.delta
        ).value
        lower = wl * hr
        upper = hl * hr
        if not _le(lower, h_prod, CHECK_TOL):
            report.violations.append(f"{case.cid}: W(E)H(F)={lower!r} exceeds H(ExF)={h_prod!r}")
        if not _le(h_prod, upper, CHECK_TOL):
            report.violations.append(f"{case.cid}: H(ExF)={h_prod!r} exceeds H(E)H(F)={upper!r}")
    return report


def suite_zero_infinite(count: int = 20, seed: int = 0) -> SuiteReport:
    """An infinite-value factor times a null-premeasure factor covers to zero.

    The left factor isolates a zero-mass point beyond the reach of any
    candidate ball, so with q <= 0 no finite-cost cover exists; the right
    factor carries the null premeasure, so its value is zero; on the
    product, every rectangle cost vanishes by the 0 * inf convention.
    """
    report = SuiteReport(
        name="zero-infinite",
        cases=0,
        tolerances=[
            AppliedTolerance("H(E) = W(E) = inf, H(F) = 0, H(ExF) = W(ExF) = 0 (exact)", 0.0)
        ],
    )
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(2, 5))
        xs = np.sort(rng.random(k))
        coords = np.concatenate([xs, [3.0 + rng.random()]])[:, None]
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        eps = float(dist[dist > 0.0].min()) / 2.0
        left = validate_space(coords=coords, epsilon_net=min(eps, 0.4))
        masses = np.concatenate([rng.random(k) + 0.1, [0.0]])
        lmeasure = point_measure(
            left, dict(zip(left.point_ids, masses / masses.sum()))
        )
        q = float(rng.choice([-1.0, -0.5, 0.0]))
        lxi = Premeasure.from_gauge(_draw_gauge(rng))
        delta = min(0.5, max(left.epsilon_net, 0.3))

        right, rnatural = _draw_factor(rng)
        rmeasure = rnatural if rnatural is not None else uniform_measure(right)
        rxi = Premeasure.constant_nonempty(0.0)
        delta = max(delta, right.epsilon_net)

        report.cases += 1
        w_left, h_left = _w_and_h(left, lmeasure, q, lxi, left.point_ids, delta)
        h_right = hausdorff_premeasure(
            right, rmeasure, q, rxi, right.point_ids, delta
        )
        prod = product_space(left, right)
        pm = product_measure(lmeasure, rmeasure)
        xi0 = product_premeasure(lxi, rxi)
        h_prod, w_prod = product_premeasure_values(
            prod, pm, q, xi0, left.point_ids, right.point_ids, delta
        )
        if not math.isinf(h_left) or not math.isinf(w_left):
            report.violations.append(
                f"zi-{i}: expected infinite left values, got H={h_left!r} W={w_left!r}"
            )
        if h_right.value != 0.0:
            report.violations.append(
                f"zi-{i}: expected null right value, got {h_right.value!r}"
            )
        if h_prod.value != 0.0 or w_prod.value != 0.0:
            report.violations.append(
                f"zi-{i}: expected zero product values, got H={h_prod.value!r} W={w_prod.value!r}"
            )
    return report


def suite_noncentered(count: int = 200, seed: int = 0) -> SuiteReport:
    report = SuiteReport(
        name="noncentered", cases=0, tolerances=[AppliedTolerance("Wtilde <= W + tol")]
    )
    for case in build_mixed_corpus(seed, count):
        report.cases += 1
        w = weighted_premeasure(
            case.space, case.measure, case.q, case.xi, case.target, case.delta
        ).value
        wn = noncentered_weighted_premeasure(
            case.space, case.measure, case.q, case.xi, case.target, case.delta
        ).value
        if not _le(wn, w, SOLVER_TOL):
            report.violations.append(f"{case.cid}: free centers {wn!r} exceed centered {w!r}")
    return report


def suite_hxh(count: int = 50, seed: int = 0) -> SuiteReport:
    gauges = (
        HausdorffFunction.linear(),
        HausdorffFunction.power_law(0.5),
        HausdorffFunction.power_law(_LOG23),
    )
    report = SuiteReport(
        name="hxh",
        cases=0,
        tolerances=[AppliedTolerance("W(product gauge) <= W(joint gauge) + tol")],
    )
    rng = np.random.default_rng(seed)
    for case in build_product_corpus(seed + 1, count):
        report.cases += 1
        h = gauges[int(rng.integers(0, 3))]
        hp = gauges[int(rng.integers(0, 3))]
        prod = product_space(case.left, case.right)
        pm = product_measure(case.left_measure, case.right_measure)
        plain = product_premeasure(Premeasure.from_gauge(h), Premeasure.from_gauge(hp))
        joint = hxh_premeasure(h, hp)
        w_plain = optimizer.solve_fractional(_product_instance(prod, pm, case, plain)).value
        w_joint = optimizer.solve_fractional(_product_instance(prod, pm, case, joint)).value
        if not _le(w_plain, w_joint, SOLVER_TOL):
            report.violations.append(
                f"{case.cid}: joint gauge {w_joint!r} below plain product {w_plain!r}"
            )
    return report


def suite_density(count: int = 500, seed: int = 0) -> SuiteReport:
    """nu(E) <= s * H(E) with nu = mu, skipping targets outside the support."""
    report = SuiteReport(
        name="density", cases=0, tolerances=[AppliedTolerance("nu(E) <= s * H(E) + tol")]
    )
    for case in build_mixed_corpus(seed, count):
        supp = case.measure.support
        target = tuple(p for p in case.target if p in supp)
        if not target:
            continue
        report.cases += 1
        rep = density_upper_bound_check(
            case.space, case.measure, case.q, case.xi, case.measure, target, case.delta
        )
        if not rep.ok:
            report.violations.append(
                f"{case.cid}: nu(E)={rep.nu_total!r} exceeds s*H={rep.bound!r}"
            )
    return report


def _random_ball_family(rng: np.random.Generator, space: FiniteMetricSpace):
    pos = space.dist[space.dist > 0.0]
    top = float(pos.max()) if pos.size else 1.0
    k = int(rng.integers(2, 2 * space.n + 1))
    balls = []
    for _ in range(k):
        c = space.point_ids[int(rng.integers(0, space.n))]
        r = float(rng.uniform(space.epsilon_net, top))
        balls.append(Ball(center=c, radius=r))
    return balls


def suite_vitali(count: int = 100, seed: int = 0) -> SuiteReport:
    report = SuiteReport(
        name="vitali", cases=0, tolerances=[AppliedTolerance("5r packing checks (exact)", 0.0)]
    )
    rng = np.random.default_rng(seed)
    for i in range(count):
        space, _ = _draw_space(rng)
        balls = _random_ball_family(rng, space)
        report.cases += 1
        result = vitali_5r_packing(space, balls)
        problems = check_vitali(space, balls, result)
        again = vitali_5r_packing(space, balls)
        if again.packing != result.packing:
            problems.append("packing changed between identical runs")
        for msg in problems:
            report.violations.append(f"vit-{i}: {msg}")
    return report


def suite_besicovitch(count: int = 100, seed: int = 0) -> SuiteReport:
    report = SuiteReport(
        name="besicovitch",
        cases=0,
        tolerances=[AppliedTolerance("bounded-overlap family checks (exact)", 0.0)],
    )
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(1, 3))
        if rng.random() < 0.5:
            space = random_cloud(int(rng.integers(4, 9)), d, int(rng.integers(0, 2**31)))
        else:
            space = uniform_grid(int(rng.integers(3, 5)), d)
        k = int(rng.integers(2, space.n + 1))
        picked = sorted(int(j) for j in rng.choice(space.n, size=k, replace=False))
        centers = [space.point_ids[j] for j in picked]
        radii = [float(rng.uniform(space.epsilon_net, 1.0)) for _ in centers]
        report.cases += 1
        families = besicovitch_families(space, centers, radii)
        problems = check_besicovitch(space, centers, families)
        again = besicovitch_families(space, centers, radii)
        if [[(b.center, b.radius) for b in fam] for fam in families] != [
            [(b.center, b.radius) for b in fam] for fam in again
        ]:
            problems.append("families changed between identical runs")
        for msg in problems:
            report.violations.append(f"bes-{i}: {msg}")
    return report


def _doubling_corpus(seed: int, count: int) -> list[SingleCase]:
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        if i % 2 == 0:
            level = int(rng.integers(2, 5))
            space, natural = cantor_net(level, 1.0 / 3.0, float(rng.uniform(0.3, 0.7)))
            measure = natural if rng.random() < 0.7 else uniform_measure(space)
        else:
            space = uniform_grid(int(rng.integers(3, 5)), int(rng.integers(1, 3)))
            measure = uniform_measure(space)
        xi = Premeasure.from_gauge(
            HausdorffFunction.power_law(float(rng.choice([0.5, _LOG23, 1.0])))
        )
        cases.append(
            SingleCase(
                cid=f"dbl-{i}",
                space=space,
                measure=measure,
                q=float(rng.choice(_Q_GRID)),
                xi=xi,
                target=_draw_target(rng, space),
                delta=_draw_delta(rng, space),
            )
        )
    return cases


def suite_lemma_8c(count: int = 40, seed: int = 0) -> SuiteReport:
    """H <= 8 * C3 * W with C3 the worst 3r dilation cost ratio per instance."""
    report = SuiteReport(
        name="lemma-8c", cases=0, tolerances=[AppliedTolerance("H <= 8 * C3 * W + tol")]
    )
    for case in _doubling_corpus(seed, count):
        report.cases += 1
        inst = optimizer.build_cover_instance(
            case.space, case.measure, case.q, case.xi, case.target, case.delta
        )
        num = weight_terms(inst.grid.dilate(3.0), case.measure, case.q, case.xi)
        c3 = float(xdiv_array(num, inst.costs).max(initial=0.0))
        w = optimizer.solve_fractional(inst).value
        h = optimizer.solve_integer(inst).value
        bound = INF if (c3 == INF or math.isinf(w)) else 8.0 * c3 * w
        if not _le(h, bound, SOLVER_TOL):
            report.violations.append(
                f"{case.cid}: H={h!r} exceeds 8*C3*W={bound!r} (C3={c3!r})"
            )
    return report


def suite_example_zero(seed: int = 0) -> SuiteReport:
    """Vanishing-value chain on the level-8 middle-thirds net.

    With the mass-linear premeasure mu(B) * phi(2r), phi the identity,
    the integer value at scale delta stays below
    phi(delta) * gamma^q * mu(B(0, 2R))^(q+1), gamma the family count of
    the bounded-overlap construction at radius delta; the values are
    nonincreasing as delta grows and the bound forces them toward zero
    across the grid.
    """
    report = SuiteReport(
        name="example-zero",
        cases=0,
        tolerances=[
            AppliedTolerance("H <= chain bound + tol * max(1, bound)", CHECK_TOL),
            AppliedTolerance("H does not fall as delta shrinks, less tol"),
        ],
    )
    space, mu = cantor_net(8, 1.0 / 3.0, 0.5)
    phi = HausdorffFunction.linear()
    xi = Premeasure.measure_power(mu, 1.0, phi, 1.0, 1.0)
    deltas = [3.0**-k for k in range(2, 7)]  # descending
    leftmost = space.point_ids[0]
    big_mass = ball_mass(space, mu, Ball(center=leftmost, radius=2.0))
    gammas = {
        d: len(besicovitch_families(space, list(space.point_ids), [d] * space.n))
        for d in deltas
    }
    for q in (0.0, 1.0):
        values = []
        for d in deltas:
            report.cases += 1
            h = hausdorff_premeasure(space, mu, q, xi, space.point_ids, d).value
            bound = phi(d) * gammas[d] ** q * big_mass ** (q + 1.0)
            values.append((d, h, bound))
            if not _le(h, bound, CHECK_TOL * max(1.0, bound)):
                report.violations.append(
                    f"ez-q{q}-d{d!r}: H={h!r} exceeds chain bound {bound!r}"
                )
        for (da, ha, _), (db, hb, _) in zip(values, values[1:]):
            if hb < ha - SOLVER_TOL:  # db < da: smaller delta cannot shrink H
                report.violations.append(
                    f"ez-q{q}: H fell from {ha!r} at delta={da!r} to {hb!r} at delta={db!r}"
                )
    return report


_SUITES = {
    "wh-order": suite_wh_order,
    "subadd": suite_subadd,
    "product-w": suite_product_w,
    "sandwich": suite_sandwich,
    "zero-infinite": suite_zero_infinite,
    "noncentered": suite_noncentered,
    "hxh": suite_hxh,
    "density": suite_density,
    "vitali": suite_vitali,
    "besicovitch": suite_besicovitch,
    "lemma-8c": suite_lemma_8c,
    "example-zero": suite_example_zero,
}

SUITE_NAMES = tuple(_SUITES)

# Suites with a fixed case set; they take no count.
FIXED_SUITES = frozenset({"example-zero"})


def run_suite(name: str, count: int | None = None, seed: int = 0) -> SuiteReport:
    """Run one suite by name; ``count`` falls back to the suite default."""
    if name not in _SUITES:
        raise SuiteUnknown(name, SUITE_NAMES)
    fn = _SUITES[name]
    if count is None:
        return fn(seed=seed)
    if name in FIXED_SUITES:
        raise InvalidInput(f"{name} runs its fixed 10-case chain and takes no count")
    return fn(count=count, seed=seed)
