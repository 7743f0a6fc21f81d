"""NSGA-II variation and constrained ranking.

`offspring` is the one variation step (tournaments, SBX, polynomial
mutation), and both epoch kinds draw children from it: `generate` runs
NSGA-II generations on surrogate predictions, and an epoch without a
surrogate varies the true-evaluated parents directly.

Constraint handling is feasibility-first: predicted-feasible candidates
(every constraint probability >= 0.5, see `ranking_inputs`) always rank
ahead of predicted-infeasible ones; within each group candidates are sorted
into non-dominated fronts by objectives. Candidates with NaN predictions
are parked in a final worst front. Crossover and mutation share one
per-parameter distribution index array ``eta``, with entries in
[ETA_MIN, ETA_MAX], so sensitivity information can shape the search per
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParameterSpace, dominance_matrix

__all__ = [
    "RankedPopulation",
    "fast_nondominated_sort",
    "crowding_distance",
    "constrained_tournament",
    "sbx_crossover",
    "polynomial_mutation",
    "rank_population",
    "offspring",
    "ranking_inputs",
    "generate",
    "ETA_DEFAULT",
    "FEASIBILITY_THRESHOLD",
]

ETA_DEFAULT = 20.0
ETA_MIN, ETA_MAX = 1.0, 30.0
FEASIBILITY_THRESHOLD = 0.5
CROSSOVER_PROB = 0.9


def fast_nondominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Split points into non-dominated fronts F0, F1, ...

    Returns index arrays; F_i is the non-dominated set once F_0..F_{i-1}
    are removed. NaN objectives are an error here (filter upstream).
    """
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    if n == 0:
        return []
    dom = dominance_matrix(objs, objs)
    counts = dom.sum(axis=0)
    fronts: list[np.ndarray] = []
    assigned = np.zeros(n, dtype=bool)
    while not assigned.all():
        current = np.nonzero((counts == 0) & ~assigned)[0]
        fronts.append(current)
        assigned[current] = True
        counts = counts - dom[current].sum(axis=0)
    return fronts


def crowding_distance(front_objectives: np.ndarray) -> np.ndarray:
    """Crowding distance within one front.

    Boundary points get +inf per objective; interior points accumulate the
    normalized gap between their neighbors. The range is taken over the
    finite values (padded members carry inf), a gap between equal values,
    inf and inf included, is 0, and objectives with zero range contribute
    nothing.
    """
    objs = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    n, q = objs.shape
    if n == 0:
        return np.empty(0)
    dist = np.zeros(n)
    for j in range(q):
        order = np.argsort(objs[:, j], kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        ranked = objs[order, j]
        finite = ranked[np.isfinite(ranked)]
        span = finite[-1] - finite[0] if finite.size else 0.0
        if span <= 0.0 or n <= 2:
            continue
        upper, lower = ranked[2:], ranked[:-2]
        gaps = np.subtract(upper, lower, out=np.zeros(n - 2), where=upper != lower)
        dist[order[1:-1]] += gaps / span
    return dist


@dataclass
class RankedPopulation:
    """Candidate rows with per-member front index and crowding."""

    members: np.ndarray
    front_index: np.ndarray
    crowding: np.ndarray
    order: np.ndarray = field(init=False)

    def __post_init__(self):
        # rank-then-crowding order, best first
        keys = np.lexsort((-self.crowding, self.front_index))
        self.order = keys

    @property
    def size(self) -> int:
        return self.members.shape[0]

    def sorted_members(self) -> np.ndarray:
        return self.members[self.order]


def rank_population(
    members: np.ndarray,
    objectives: np.ndarray,
    feasible: np.ndarray,
) -> RankedPopulation:
    """Feasibility-first constrained ranking.

    Feasible candidates occupy the leading fronts; infeasible ones are
    ranked below them by their own objective fronts. NaN-predicted
    candidates form the very last front with zero crowding.
    """
    members = np.atleast_2d(members)
    objectives = np.atleast_2d(objectives)
    feasible = np.asarray(feasible, dtype=bool)
    n = members.shape[0]
    front_index = np.zeros(n, dtype=int)
    crowding = np.zeros(n)
    valid = ~np.any(np.isnan(objectives), axis=1)

    next_front = 0
    for group_mask in (feasible & valid, ~feasible & valid):
        idx = np.nonzero(group_mask)[0]
        if idx.size == 0:
            continue
        for front in fast_nondominated_sort(objectives[idx]):
            original = idx[front]
            front_index[original] = next_front
            crowding[original] = crowding_distance(objectives[original])
            next_front += 1
    bad = np.nonzero(~valid)[0]
    if bad.size:
        front_index[bad] = next_front
        crowding[bad] = 0.0
    return RankedPopulation(members, front_index, crowding)


def constrained_tournament(
    index_a: int,
    index_b: int,
    ranked: RankedPopulation,
    rng: np.random.Generator,
) -> int:
    """Binary tournament: lower front, then larger crowding, then a fair
    coin. `rank_population` puts every feasible, NaN-free member in a lower
    front than any other, so feasible beats infeasible (Deb et al.'s
    constrained domination, IEEE TEC 2002)."""
    ra, rb = ranked.front_index[index_a], ranked.front_index[index_b]
    if ra != rb:
        return index_a if ra < rb else index_b
    ca, cb = ranked.crowding[index_a], ranked.crowding[index_b]
    if ca != cb:
        return index_a if ca > cb else index_b
    return index_a if rng.random() < 0.5 else index_b


def sbx_crossover(
    parent1: np.ndarray,
    parent2: np.ndarray,
    eta: np.ndarray,
    space: ParameterSpace,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover with per-dimension spread exponents
    1/(eta_j + 1); children are clipped to the bounds."""
    u = rng.random(len(parent1))
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)),
    )
    child1 = 0.5 * ((1.0 + beta) * parent1 + (1.0 - beta) * parent2)
    child2 = 0.5 * ((1.0 - beta) * parent1 + (1.0 + beta) * parent2)
    return space.clip(child1), space.clip(child2)


def polynomial_mutation(
    point: np.ndarray,
    eta: np.ndarray,
    space: ParameterSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """Polynomial mutation with per-dimension exponents 1/(eta_j + 1).

    Each coordinate mutates with probability 1/n; the bounded kernel delta
    in (-1, 1) is scaled by the dimension span and the result clipped to the
    bounds.
    """
    n = len(point)
    mutate = rng.random(n) < 1.0 / n
    u = rng.random(n)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)),
    )
    mutated = np.where(mutate, point + delta * space.span, point)
    return space.clip(mutated)


def generate(
    members: np.ndarray,
    predictor,
    generations: int,
    eta: np.ndarray,
    space: ParameterSpace,
    stream,
) -> np.ndarray:
    """Run ``generations`` elitist NSGA-II generations entirely against
    surrogate predictions, starting from the (N, n) parameter rows
    ``members``, and return the final N rows.

    ``predictor`` maps an (N, n) parameter batch to (objectives, constraint
    probabilities), as `JointSurrogate.predict` does; `ranking_inputs` reads
    an absent head.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    rng = stream.generator()
    m_pop = members.shape[0]

    objs, feas = ranking_inputs(predictor, members)
    for _ in range(generations):
        children = offspring(rank_population(members, objs, feas), eta, space, rng)
        off_objs, off_feas = ranking_inputs(predictor, children)
        combined = np.vstack([members, children])
        combined_objs = np.vstack([objs, off_objs])
        combined_feas = np.concatenate([feas, off_feas])
        ranked_all = rank_population(combined, combined_objs, combined_feas)
        keep = ranked_all.order[:m_pop]
        members = combined[keep]
        objs = combined_objs[keep]
        feas = combined_feas[keep]
    return members


def ranking_inputs(predictor, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(objectives, feasibility) ranking inputs from a predictor's output.
    Absent objectives (None) give one zero column; a candidate is feasible
    when every constraint probability is at least ``FEASIBILITY_THRESHOLD``,
    or when there are none."""
    objs, probs = predictor(members)
    if objs is None:
        objs = np.zeros((members.shape[0], 1))
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    if probs is None or np.asarray(probs).size == 0:
        feas = np.ones(members.shape[0], dtype=bool)
    else:
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        feas = np.all(probs >= FEASIBILITY_THRESHOLD, axis=1)
    return objs, feas


def offspring(
    ranked: RankedPopulation,
    eta: np.ndarray,
    space: ParameterSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """``ranked.size`` children by NSGA-II variation: two constrained
    binary tournaments pick each parent pair, SBX crosses it with
    probability ``CROSSOVER_PROB`` (else the parents are copied), and
    polynomial mutation at rate 1/n perturbs each child."""
    m_pop = ranked.size
    children: list[np.ndarray] = []
    while len(children) < m_pop:
        i1 = constrained_tournament(
            rng.integers(m_pop), rng.integers(m_pop), ranked, rng
        )
        i2 = constrained_tournament(
            rng.integers(m_pop), rng.integers(m_pop), ranked, rng
        )
        p1, p2 = ranked.members[i1], ranked.members[i2]
        if rng.random() < CROSSOVER_PROB:
            c1, c2 = sbx_crossover(p1, p2, eta, space, rng)
        else:
            c1, c2 = p1.copy(), p2.copy()
        children.append(polynomial_mutation(c1, eta, space, rng))
        if len(children) < m_pop:
            children.append(polynomial_mutation(c2, eta, space, rng))
    return np.array(children)
