"""Covering constructions: 5r packings, bounded-overlap families, 3r subfamilies.

These are the finite-space renderings of the classical covering tools.
Each construction is deterministic under its fixed tie-breaking rule and
returns enough structure to be re-checked exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionUnsupported,
    InvalidInput,
    InvalidWeightedCover,
    OptimizerInternalError,
)
from .extended import INF, SOLVER_TOL, xdiv, xmul
from .metric import (
    Ball,
    FiniteMetricSpace,
    PointMeasure,
    ball_members,
    candidate_grid,
    dilate,
)
from .premeasure import Premeasure, weight_terms

__all__ = [
    "VitaliPacking",
    "vitali_5r_packing",
    "check_vitali",
    "besicovitch_families",
    "check_besicovitch",
    "subfamily_3r_reduction",
]


@dataclass(frozen=True, eq=False)
class VitaliPacking:
    """Greedy disjoint subfamily plus, per input ball, its blocker."""

    packing: tuple[Ball, ...]
    blocker: dict


def _ball_order_key(space: FiniteMetricSpace, b: Ball):
    return (-b.radius, space.index_of(b.center), b.radius)


def vitali_5r_packing(space: FiniteMetricSpace, balls: Iterable[Ball]) -> VitaliPacking:
    """Greedy 5r packing: process by descending radius, keep member-disjoint.

    Every input ball intersects (in members) a chosen ball of at least
    its radius, namely its blocker, so the 5-fold dilations of the
    packing swallow every input member.  Both facts are verified on the
    output before returning.  A NaN or negative radius raises InvalidInput.
    """
    balls = set(balls)
    for b in balls:
        if not b.radius >= 0.0:  # also rejects NaN
            raise InvalidInput(f"ball radii must be nonnegative, got {b.radius!r}")
    ordered = sorted(balls, key=lambda b: _ball_order_key(space, b))
    chosen: list[Ball] = []
    chosen_members: list[frozenset] = []
    blocker: dict = {}
    for b in ordered:
        mb = ball_members(space, b)
        hit = None
        for c, mc in zip(chosen, chosen_members):
            if mc & mb:
                hit = c
                break
        if hit is None:
            chosen.append(b)
            chosen_members.append(mb)
            blocker[b] = b
        else:
            blocker[b] = hit
    result = VitaliPacking(packing=tuple(chosen), blocker=blocker)
    problems = check_vitali(space, ordered, result)
    if problems:
        raise OptimizerInternalError("; ".join(problems))
    return result


def check_vitali(
    space: FiniteMetricSpace, balls: Iterable[Ball], result: VitaliPacking
) -> list[str]:
    """Exhaustive re-check of the packing guarantees; empty means clean."""
    problems: list[str] = []
    members = {b: ball_members(space, b) for b in set(balls) | set(result.packing)}
    pk = result.packing
    for i in range(len(pk)):
        for j in range(i + 1, len(pk)):
            if members[pk[i]] & members[pk[j]]:
                problems.append(f"packing balls {pk[i]} and {pk[j]} share members")
    for b in set(balls):
        blk = result.blocker.get(b)
        if blk is None:
            problems.append(f"ball {b} has no blocker")
            continue
        if blk not in set(pk):
            problems.append(f"blocker of {b} is not in the packing")
        if blk.radius < b.radius:
            problems.append(f"blocker of {b} has smaller radius")
        if not (members[b] & members[blk]):
            problems.append(f"ball {b} does not intersect its blocker")
        if not members[b] <= ball_members(space, dilate(blk, 5.0)):
            problems.append(f"members of {b} escape the 5-fold dilation of its blocker")
    return problems


def besicovitch_families(
    space: FiniteMetricSpace, centers: Sequence, radii: Sequence[float]
) -> list[list[Ball]]:
    """Bounded-overlap covering families for centers in dimension 1 or 2.

    Selection walks the centers by descending radius and keeps a ball
    whenever its center is not yet inside an earlier kept ball, so the
    kept balls cover every center.  The kept balls are then greedily
    colored on their geometric intersection graph; each color class is a
    family of pairwise disjoint balls.  The family count is whatever the
    coloring produces; no fixed bound is asserted.
    """
    if space.coords is None:
        raise DimensionUnsupported(None)
    dim = space.coords.shape[1]
    if dim not in (1, 2):
        raise DimensionUnsupported(dim)
    if len(centers) != len(radii):
        raise InvalidInput("centers and radii lengths differ")
    for r in radii:
        if not r > 0.0:
            raise InvalidInput("radii must be positive")

    at = np.array([space.index_of(c) for c in centers], dtype=np.intp)
    rad = np.array(radii, dtype=float)
    walk = np.lexsort((at, -rad)).tolist()
    # A center is inside a kept ball when its distance to the kept center
    # is within the kept radius: a column of dist.
    covered = np.zeros(space.n, dtype=bool)
    kept = []
    for i in walk:
        if not covered[at[i]]:
            kept.append(i)
            covered |= space.dist[:, at[i]] <= rad[i]

    # Ball i clashes with an earlier ball j when dist[i, j] <= r_i + r_j;
    # it takes the first color that no earlier clashing ball holds.
    k_at, k_rad = at[kept], rad[kept]
    clash = space.dist[np.ix_(k_at, k_at)] <= k_rad[:, None] + k_rad[None, :]
    color = np.zeros(len(kept), dtype=np.intp)
    for i in range(1, len(kept)):
        held = np.zeros(i + 1, dtype=bool)
        held[color[:i][clash[i, :i]]] = True
        color[i] = held.argmin()
    families: list[list[Ball]] = [[] for _ in range(color.max(initial=-1) + 1)]
    for i, f in zip(kept, color.tolist()):
        families[f].append(Ball(center=centers[i], radius=float(rad[i])))
    return families


def check_besicovitch(
    space: FiniteMetricSpace,
    centers: Sequence,
    families: list[list[Ball]],
) -> list[str]:
    """Centers covered, and geometric disjointness inside each family."""
    problems: list[str] = []
    balls = [b for fam in families for b in fam]
    for c in centers:
        ci = space.index_of(c)
        if not any(space.dist[ci, space.index_of(b.center)] <= b.radius for b in balls):
            problems.append(f"center {c!r} is not covered by any family ball")
    for k, fam in enumerate(families):
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                bi = space.index_of(fam[i].center)
                bj = space.index_of(fam[j].center)
                if space.dist[bi, bj] <= fam[i].radius + fam[j].radius:
                    problems.append(f"family {k} holds two overlapping balls")
    return problems


def subfamily_3r_reduction(
    space: FiniteMetricSpace,
    weights: Sequence[float],
    balls: Sequence[Ball],
    target: Iterable,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
) -> tuple[list[int], float]:
    """Pick a subfamily whose 3-fold dilations cover the target.

    Input must be a valid weighted cover of the target (total weight at
    least 1 on every target point).  Selection is greedy by descending
    weight times cost, ties by (center, radius); a ball is kept when its
    3-fold dilation adds an uncovered target point.  Returns the kept
    indexes and the cost ratio

        sum of weight_term over kept balls
        ----------------------------------------
        sum of weight * weight_term over inputs

    which is reported, never asserted against any fixed constant.  A
    weight that is NaN, infinite or negative raises InvalidInput.
    """
    if len(weights) != len(balls):
        raise InvalidInput("weights and balls lengths differ")
    for w in weights:
        if not 0.0 <= w < INF:  # also rejects NaN
            raise InvalidInput(f"weights must be finite and nonnegative, got {w!r}")
    tgt = set(target)
    member_sets = [ball_members(space, b) for b in balls]
    for p in tgt:
        total = sum(w for w, mem in zip(weights, member_sets) if p in mem)
        if total < 1.0 - SOLVER_TOL:
            raise InvalidWeightedCover(f"target point {p!r} has cover weight {total!r}")

    terms = weight_terms(candidate_grid(space, balls), measure, q, xi).tolist()
    order = sorted(
        range(len(balls)),
        key=lambda i: (
            -xmul(float(weights[i]), terms[i]),
            space.index_of(balls[i].center),
            balls[i].radius,
        ),
    )
    kept: list[int] = []
    covered: set = set()
    for i in order:
        if covered >= tgt:
            break
        gain = (ball_members(space, dilate(balls[i], 3.0)) & tgt) - covered
        if gain:
            kept.append(i)
            covered |= gain
    if not covered >= tgt:
        raise OptimizerInternalError("3r dilations failed to cover a covered target")

    numer = sum(terms[i] for i in kept)
    denom = sum(xmul(float(w), t) for w, t in zip(weights, terms))
    return sorted(kept), xdiv(numer, denom)
