"""Multilevel Monte Carlo: pilot runs, rate fits, sample allocation, and the
telescoping estimator.

The estimator targets the finest-level mean E[Q_L] by summing independent
per-level correction means: E[Q_L] = E[Q_0] + sum_l E[Q_l - Q_(l-1)].  A
pilot run solves every level once at one shared input set, so level l's
correction samples are the differences of adjacent levels' outputs, and
measures per-level moments; the allocation then minimizes total declared
cost subject to the summed sampling variance staying within epsilon^2 / 2,
which gives counts proportional to sqrt(V_l / C_l).  Pilot samples are
replayed at the start of each level's main run so their cost is not paid
twice; the cost ledger still charges each pilot sample as a coupled pair.
One level loop runs both estimators: plain MLMC is the control-variate
estimator of ``control_variates`` with no controlled level.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .errors import ConfigError, DataError, DimensionError
from .models import LevelHierarchy
from .streams import PURPOSE_MAIN_Y, PURPOSE_ORACLE, PURPOSE_PILOT, draw_inputs

# Minimum per-level sample count: variance estimates need at least two
# samples, so plans never drop below this floor.
N_MIN = 2


@dataclass(frozen=True)
class LevelStats:
    """Per-level pilot moments and declared unit costs.

    The moments are over the ``PilotRun.n_pilot`` shared pilot inputs.
    """

    level: int
    mean_y: float
    var_y: float
    mean_q: float
    var_q: float
    cost_fine: float
    cost_coarse: float
    dofs: int
    output_dim: int

    @property
    def unit_cost(self) -> float:
        """Declared cost of one coupled sample at this level."""
        return self.cost_fine + self.cost_coarse


@dataclass
class PilotLevel:
    """One level evaluated at the shared pilot inputs.

    ``y`` is level ell's correction ``qoi - levels[ell - 1].qoi`` (``qoi``
    itself at level 0).  ``q`` holds the output snapshots of a live pilot
    and is None on a pilot loaded from the cache, which stores none.
    """

    q: np.ndarray | None
    qoi: np.ndarray
    y: np.ndarray


@dataclass
class PilotRun:
    """Pilot evaluations plus the derived per-level statistics.

    The same input set (purpose ``pilot``, indices 0..n_pilot-1) is applied
    on every level, so the coarse half of level ell's coupled pilot samples
    is level ell-1's output and each level is solved once.  The quantities
    of interest are kept so the main runs can replay them without
    re-solving.  Only the reduced-basis construction reads the output
    snapshots, and it runs on the live pilot alone: a pilot loaded from the
    cache comes with its stored control-variate setup instead.
    """

    master_seed: int
    n_pilot: int
    levels: list[PilotLevel]
    stats: list[LevelStats] = field(default_factory=list)

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def _build_pilot(
    hierarchy: LevelHierarchy, master_seed: int, n_pilot: int, outputs
) -> PilotRun:
    """Assemble a PilotRun from per-level ``(q, qoi)`` at the shared pilot
    inputs (``q`` None when the snapshots were not kept).

    The live pilot and the cache loader both build here, so their levels and
    statistics cannot drift apart.
    """
    run = PilotRun(master_seed=master_seed, n_pilot=n_pilot, levels=[])
    for ell, (q, qoi) in enumerate(outputs):
        y = qoi - run.levels[ell - 1].qoi if ell > 0 else qoi
        run.levels.append(PilotLevel(q=q, qoi=qoi, y=y))
        my, mq = stats.RunningMoments.of(y), stats.RunningMoments.of(qoi)
        run.stats.append(
            LevelStats(
                level=ell,
                mean_y=my.mean,
                var_y=my.variance,
                mean_q=mq.mean,
                var_q=mq.variance,
                cost_fine=hierarchy.cost(ell),
                cost_coarse=hierarchy.cost(ell - 1) if ell > 0 else 0.0,
                dofs=hierarchy.dofs(ell),
                output_dim=hierarchy.output_dim(ell),
            )
        )
    return run


def pilot_mlmc(hierarchy: LevelHierarchy, n_pilot: int, master_seed: int) -> PilotRun:
    """Evaluate every level once at ``n_pilot`` shared inputs and keep the
    outputs.

    The pilot shares one input set across levels; the main runs use separate
    per-level streams, so the cached samples can be replayed there as the
    first samples of each level.
    """
    if n_pilot < N_MIN:
        raise ConfigError(f"n_pilot must be at least {N_MIN}, got {n_pilot}")
    xi = draw_inputs(master_seed, PURPOSE_PILOT, 0, 0, n_pilot, hierarchy.input_dim)
    outputs = [hierarchy.evaluate(ell, xi) for ell in range(hierarchy.n_levels)]
    return _build_pilot(hierarchy, master_seed, n_pilot, [(o.q, o.qoi) for o in outputs])


@dataclass(frozen=True)
class RateFit:
    """Power-law fits mean|Y| ~ M^-alpha, V[Y] ~ M^-beta, cost ~ M^gamma,
    with the root-mean-square residual of each fit on log-log axes."""

    alpha: float
    beta: float
    gamma: float
    alpha_residual: float
    beta_residual: float
    gamma_residual: float


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


def fit_rates(level_stats: list[LevelStats]) -> RateFit:
    """Least-squares slopes on log-log axes.

    Correction levels (ell >= 1) with nonzero mean feed the bias rate and
    with nonzero variance the variance rate; the cost rate uses every
    level's fine-solve cost.  Fewer than two usable points is an error.
    """
    corr = [s for s in level_stats if s.level >= 1]
    a_pts = [(s.dofs, abs(s.mean_y)) for s in corr if abs(s.mean_y) > 0]
    b_pts = [(s.dofs, s.var_y) for s in corr if s.var_y > 0]
    g_pts = [(s.dofs, s.cost_fine) for s in level_stats if s.cost_fine > 0]
    if len(a_pts) < 2 or len(b_pts) < 2 or len(g_pts) < 2:
        raise DataError("rate fit needs at least two usable levels per rate")
    sa, ra = _loglog_fit(*np.array(a_pts, dtype=np.float64).T)
    sb, rb = _loglog_fit(*np.array(b_pts, dtype=np.float64).T)
    sg, rg = _loglog_fit(*np.array(g_pts, dtype=np.float64).T)
    return RateFit(
        alpha=-sa,
        beta=-sb,
        gamma=sg,
        alpha_residual=ra,
        beta_residual=rb,
        gamma_residual=rg,
    )


def bias_check(level_stats: list[LevelStats], rates: RateFit, epsilon: float) -> dict:
    """Extrapolated remaining discretization bias versus the epsilon budget.

    |mean Y_L| / (s^alpha - 1) estimates |E[Q - Q_L]| under the fitted decay;
    comparing it against epsilon / sqrt(2) flags hierarchies that likely
    need another level.  A fitted alpha <= 0 means the corrections do not
    decay, so no finite extrapolation exists: the estimate is None and the
    warning is raised.  Advisory only: nothing is changed automatically.
    """
    last = level_stats[-1]
    prev = level_stats[-2]
    s_ratio = last.dofs / prev.dofs
    denom = s_ratio**rates.alpha - 1.0
    estimate = abs(last.mean_y) / denom if denom > 0 else None
    budget = epsilon / math.sqrt(2.0)
    return {
        "bias_estimate": estimate,
        "bias_budget": budget,
        "bias_warning": estimate is None or bool(estimate > budget),
    }


@dataclass(frozen=True)
class AllocationPlan:
    """Per-level sample counts meeting the epsilon^2 / 2 variance budget.

    ``n_prime`` is present for control-variate plans only and gives the
    per-level auxiliary coarse-sample counts.  The tolerance itself is not
    kept: callers that need it hold it beside the plan.
    """

    n_samples: tuple[int, ...]
    n_prime: tuple[int, ...] | None = None


def _check_epsilon(epsilon: float) -> float:
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    epsilon = float(epsilon)
    if not 0.0 < epsilon * epsilon < math.inf:
        raise ConfigError(
            f"epsilon {epsilon} is out of range: its square must be positive and finite"
        )
    return epsilon


# Largest planned sample count.  Above it a float no longer holds every count
# exactly, and no run of that size would finish.
_MAX_COUNT = 2**53


def _ceil_count(value: float, epsilon: float) -> int:
    """A planned sample count rounded up; a tolerance so tight that the count
    is not finite or exceeds ``_MAX_COUNT`` is a configuration error."""
    if not value <= _MAX_COUNT:
        raise ConfigError(
            f"epsilon {epsilon} is out of range: it plans {value:.3g} samples, "
            f"more than 2**53"
        )
    return math.ceil(value)


def allocate_samples(variances, unit_costs, epsilon: float) -> tuple[int, ...]:
    """Cost-optimal integer counts for a summed-variance budget epsilon^2 / 2.

    Lagrange stationarity of sum(N_l C_l) + mu * sum(V_l / N_l) gives
    N_l proportional to sqrt(V_l / C_l); the budget pins the constant to
    (2 / epsilon^2) * sum_k sqrt(V_k C_k).  Rounding those values up makes
    the plan feasible but can leave it several samples above the best
    integer plan, so a deterministic refinement walks the excess off: slack
    levels are trimmed down, and single-sample reductions of an expensive
    level are bought by raising cheaper levels whenever that shrinks total
    cost.  The budget constraint is never violated.  No count falls below
    ``N_MIN``, which is the whole plan when every variance is zero.
    """
    epsilon = _check_epsilon(epsilon)
    v = np.asarray(variances, dtype=np.float64)
    c = np.asarray(unit_costs, dtype=np.float64)
    if v.shape != c.shape or v.ndim != 1 or v.size == 0:
        raise DimensionError("variances and unit_costs must be matching 1-D arrays")
    if np.any(v < 0) or np.any(c <= 0) or not (np.all(np.isfinite(v)) and np.all(np.isfinite(c))):
        raise DataError("variances must be >= 0 and unit costs > 0")
    total = float(np.sum(np.sqrt(v * c)))
    if total == 0.0:
        return (N_MIN,) * v.size
    raw = (2.0 / epsilon**2) * total * np.sqrt(v / c)
    counts = [max(N_MIN, _ceil_count(r, epsilon)) for r in raw]
    budget = epsilon**2 / 2.0
    _trim_counts(counts, v, c, budget)
    if max(counts) <= _EXCHANGE_COUNT_CAP:
        for _ in range(_MAX_EXCHANGES):
            if not _exchange_once(counts, v, c, budget):
                break
            _trim_counts(counts, v, c, budget)
    return tuple(counts)


# The exchange polish matters only while single samples are a visible
# fraction of the plan; above this count the ceil + trim plan is already
# optimal to a relative granularity below 1e-5 and the scan is skipped.
_EXCHANGE_COUNT_CAP = 100_000
_MAX_EXCHANGES = 60
_MAX_BUY_STEPS = 200


def _trim_counts(counts, v, c, budget) -> None:
    """Lower counts in place wherever the budget has slack, most expensive
    level first, jumping each level straight to its lowest feasible value."""
    order = sorted(range(len(counts)), key=lambda k: (-c[k], k))
    changed = True
    while changed:
        changed = False
        for k in order:
            if counts[k] <= N_MIN:
                continue
            slack = budget - float(np.sum(v / counts))
            if slack <= 0.0:
                continue
            lowest = max(N_MIN, math.ceil(v[k] / (v[k] / counts[k] + slack)))
            while lowest < counts[k]:
                load = float(np.sum(v / counts)) - v[k] / counts[k] + v[k] / lowest
                if load <= budget:
                    counts[k] = lowest
                    changed = True
                    break
                lowest += 1


def _solo_finish(u, n_cur, v, c, rem):
    """Raise count of level ``u`` alone until it frees ``rem`` of budget;
    returns (new_count, price) or (None, inf) when no finite raise works."""
    denom = v[u] / n_cur[u] - rem
    if denom <= 0.0:
        return None, math.inf
    n_new = math.ceil(v[u] / denom)
    if n_new <= n_cur[u]:
        n_new = n_cur[u] + 1
    return n_new, (n_new - n_cur[u]) * c[u]


def _buy_budget(need, d, counts, v, c):
    """Cheapest raise of levels other than ``d`` freeing ``need`` of budget.

    Expands increments along the best freed-per-cost level while tracking
    the cost of finishing in one jump from every intermediate state, so a
    lumpy final increment does not hide a cheaper mixed raise.
    """
    n_levels = len(counts)
    n_cur = list(counts)
    price, got = 0.0, 0.0
    best_price, best_plan = math.inf, None
    for _ in range(_MAX_BUY_STEPS):
        rem = need - got
        for u in range(n_levels):
            if u == d or v[u] == 0.0:
                continue
            n_new, p = _solo_finish(u, n_cur, v, c, rem)
            if price + p < best_price:
                plan = list(n_cur)
                plan[u] = n_new
                best_price, best_plan = price + p, plan
        best_u, best_eff = -1, 0.0
        for u in range(n_levels):
            if u == d or v[u] == 0.0:
                continue
            eff = (v[u] / n_cur[u] - v[u] / (n_cur[u] + 1)) / c[u]
            if eff > best_eff:
                best_u, best_eff = u, eff
        if best_u < 0:
            break
        got += v[best_u] / n_cur[best_u] - v[best_u] / (n_cur[best_u] + 1)
        n_cur[best_u] += 1
        price += c[best_u]
        if got >= need:
            if price < best_price:
                best_price, best_plan = price, list(n_cur)
            break
        if price >= best_price:
            break
    return best_plan, best_price


_MAX_EXCHANGE_DEPTH = 64


def _exchange_once(counts, v, c, budget) -> bool:
    """Apply the first cost-reducing exchange: take ``k`` samples off some
    level, paid for by raising other levels within the budget.  Depths up to
    ``_MAX_EXCHANGE_DEPTH`` are scanned because a single-sample reduction can
    be unprofitable while a deeper one is not.  Returns whether a move was
    applied."""
    order = sorted(range(len(counts)), key=lambda k: (-c[k], k))
    load = float(np.sum(v / counts))
    for d in order:
        if counts[d] <= N_MIN or v[d] == 0.0:
            continue
        best_rate = max(
            (
                (v[u] / counts[u] - v[u] / (counts[u] + 1)) / c[u]
                for u in range(len(counts))
                if u != d and v[u] > 0.0
            ),
            default=0.0,
        )
        if best_rate <= 0.0:
            continue
        depth_cap = min(counts[d] - N_MIN, _MAX_EXCHANGE_DEPTH)
        for depth in range(1, depth_cap + 1):
            lowered = counts[d] - depth
            need = load - v[d] / counts[d] + v[d] / lowered - budget
            if need <= 0.0:
                continue
            # financing rates only fall as counts rise, so need / best_rate
            # is a lower bound on the price of any raise.  Python floats give
            # numpy's quotient bit for bit, +inf when a subnormal rate makes
            # it overflow, but without numpy's overflow warning.
            if float(need) / float(best_rate) >= depth * c[d]:
                continue
            plan, price = _buy_budget(need, d, counts, v, c)
            if plan is None:
                break
            if price < depth * c[d]:
                plan[d] = lowered
                if float(np.sum(v / np.asarray(plan, dtype=np.float64))) <= budget:
                    counts[:] = plan
                    return True
    return False


def allocate_mlmc(level_stats: list[LevelStats], epsilon: float) -> AllocationPlan:
    """Standard multilevel plan from pilot variances and declared costs."""
    v = [s.var_y for s in level_stats]
    c = [s.unit_cost for s in level_stats]
    return AllocationPlan(n_samples=allocate_samples(v, c, epsilon))


def mc_cost_reference(finest_stats: LevelStats, epsilon: float) -> float:
    """Cost of plain Monte Carlo on the finest level at the same sampling
    budget: N = ceil(2 V[Q_L] / epsilon^2) fine solves (at least one, so a
    deterministic output prices one evaluation)."""
    epsilon = _check_epsilon(epsilon)
    n = _ceil_count(2.0 * finest_stats.var_q / epsilon**2, epsilon)
    return max(n, 1) * finest_stats.cost_fine


@dataclass(frozen=True)
class LevelEvalCounts:
    """Logged solve counts for one level of a run (pilot solves included)."""

    level: int
    fine_evals: int
    coarse_evals: int
    aux_coarse_evals: int = 0


@dataclass(frozen=True)
class EstimatorResult:
    """Outcome of one estimator run, with one entry per sampled level in
    each tuple.

    ``level_estimates`` are the per-level correction means whose sum is the
    estimate, and ``sample_variances`` their realized sample variances.
    ``zbar_values`` are the auxiliary surrogate means, 0.0 on every level
    without a control variate.  ``sampling_error`` is the planned variance
    of the estimator, computed from the frozen pilot variances and the plan,
    so it is deterministic given the pilot.  ``total_cost`` is recomputed
    from the logged per-level evaluation counts and declared unit costs.
    The result does not name its method: a control-variate run with no
    controlled level equals the plain multilevel run.
    """

    estimate: float
    level_estimates: tuple[float, ...]
    n_samples: tuple[int, ...]
    sampling_error: float
    total_cost: float
    eval_counts: tuple[LevelEvalCounts, ...]
    sample_variances: tuple[float, ...]
    zbar_values: tuple[float, ...]


def counted_cost(counts, level_stats: list[LevelStats]) -> float:
    """Cost of logged per-level solve counts under a cost table.

    ``level_stats`` is indexed by level and carries the declared unit costs.
    Fine solves and then coarse plus auxiliary solves are added level by
    level, so the total is the exact count-times-cost ledger that the reports
    and the cost-identity check recompute.
    """
    total = 0.0
    for c in counts:
        st = level_stats[c.level]
        total += c.fine_evals * st.cost_fine
        total += (c.coarse_evals + c.aux_coarse_evals) * st.cost_coarse
    return total


def pair_counts(level: int, n: int, aux: int = 0) -> LevelEvalCounts:
    """Counts for ``n`` coupled samples at a level (fine solves only at
    level 0) plus ``aux`` auxiliary coarse solves."""
    return LevelEvalCounts(
        level=level,
        fine_evals=n,
        coarse_evals=n if level > 0 else 0,
        aux_coarse_evals=aux,
    )


# Fresh draws are evaluated in fixed-size batches so runs with sample counts
# in the millions keep bounded memory.  Each batch is solved through
# ``qoi_of`` wherever its output vectors go unread, so a plain MC or MLMC
# batch holds n quantities of interest per level, not an (m, n) solution.
# Per-sample stream addressing makes the drawn inputs independent of the
# batch split, but model outputs depend on batch width in their last bits
# (measured in ``LevelHierarchy``'s docstring).  The batch boundaries, like
# the reduction order they fix, are therefore part of the result.  Each batch
# is evaluated once, at the width of the longest run, and a shorter run
# reduces a prefix of its values, so only the longest run keeps its lone-run
# bits.
_BATCH = 1 << 16


def _one_or_many(items) -> tuple[tuple, bool]:
    """``(runs, single)``: a plan, tolerance or count gives one run and
    ``single`` set; a sequence gives one run per entry."""
    if isinstance(items, (AllocationPlan, numbers.Real)):
        return (items,), True
    return tuple(items), False


def _stream_moments(
    hierarchy: LevelHierarchy,
    master_seed: int,
    purpose: str,
    level: int,
    counts,
    values_of,
    replay=None,
) -> list[stats.RunningMoments]:
    """Moments of one run per count ``n`` in ``counts``: the first ``n``
    samples of ``replay``, if given, and then as many fresh samples as the
    replay lacks, stream indices 0, 1, ... of the (seed, purpose, level)
    stream mapped by ``values_of``.

    The stream is walked once, in ``_BATCH`` slices, up to the largest
    fresh count.  Each slice is drawn and mapped once, and every run that
    reaches into it reduces its prefix of those values (see ``_BATCH``).
    """
    runs, fresh = [], []
    for n in counts:
        moments = stats.RunningMoments()
        head = replay[:n] if replay is not None else ()
        if len(head):
            moments.update(head)
        runs.append(moments)
        fresh.append(n - len(head))
    n_max = max(fresh, default=0)
    for start in range(0, n_max, _BATCH):
        b = min(_BATCH, n_max - start)
        full = values_of(
            draw_inputs(master_seed, purpose, level, start, b, hierarchy.input_dim)
        )
        for moments, f in zip(runs, fresh):
            if f > start:
                moments.update(full[: f - start])
        # freed before the next draw, so memory is reused as with one run
        del full
    return runs


def _correction(hierarchy: LevelHierarchy, level: int):
    """Per-batch map from inputs to the level's correction Y = Q_l - Q_(l-1)
    (Y = Q_0 at level 0)."""
    if level == 0:
        return lambda xi: hierarchy.qoi_of(0, xi)

    def y(xi):
        return hierarchy.qoi_of(level, xi) - hierarchy.qoi_of(level - 1, xi)

    return y


def _telescope(
    hierarchy: LevelHierarchy,
    plans: Sequence[AllocationPlan],
    pilot: PilotRun,
    controls: dict,
) -> list[EstimatorResult]:
    """The multilevel estimator, one result per plan in ``plans``: the sum
    over levels of mean corrections.

    Each level reduces the first ``n`` samples of its replay, then fresh
    draws from its main stream; the stream is walked once for all plans.
    ``controls`` maps a controlled level to ``(values_of, replay, theta,
    aux, mse_factor)``: the per-batch map to Y - theta Z, its pilot replay,
    the control-variate weight, one ``(n_prime, zbar)`` per plan (the
    auxiliary coarse solves and the mean they give), and the factor
    shrinking the level's variance term.  The level mean of plan k is
    mean(Y - theta Z) + theta zbar_k, which is mean(Y - theta (Z - zbar_k))
    with the constant added once.  A level without an entry replays its
    pilot Y and samples ``_correction`` with theta 0, so with no controls
    this is plain MLMC.  Logged counts include the pilot solves.
    """
    n_levels = hierarchy.n_levels
    if pilot.n_levels != n_levels:
        raise DimensionError("pilot and hierarchy level counts differ")
    if not plans:
        return []
    for plan in plans:
        if len(plan.n_samples) != n_levels:
            raise DimensionError(
                f"plan has {len(plan.n_samples)} levels, hierarchy {n_levels}"
            )
        for ell, n in enumerate(plan.n_samples):
            if n < 1:
                raise ConfigError(f"plan requests {n} samples at level {ell}")
    # per plan, one (mean, variance, counts, zbar, error term) per level
    levels = [[] for _ in plans]
    for ell in range(n_levels):
        ns = [plan.n_samples[ell] for plan in plans]
        values_of, replay, theta, aux, mse_factor = controls.get(
            ell,
            (_correction(hierarchy, ell), pilot.levels[ell].y, 0.0, [(0, 0.0)] * len(ns), 1.0),
        )
        moments = _stream_moments(
            hierarchy, pilot.master_seed, PURPOSE_MAIN_Y, ell, ns, values_of, replay
        )
        for row, m, n, (n_prime, zbar) in zip(levels, moments, ns, aux):
            counts = pair_counts(ell, pilot.n_pilot + max(0, n - replay.size), n_prime)
            error = (pilot.stats[ell].var_y / n) * mse_factor
            row.append((m.mean + theta * zbar, m.variance, counts, zbar, error))
    results = []
    for plan, row in zip(plans, levels):
        level_means, variances, counts, zbars, error_terms = zip(*row)
        results.append(
            EstimatorResult(
                estimate=float(sum(level_means)),
                level_estimates=level_means,
                n_samples=plan.n_samples,
                sampling_error=float(sum(error_terms)),
                total_cost=counted_cost(counts, pilot.stats),
                eval_counts=counts,
                sample_variances=variances,
                zbar_values=zbars,
            )
        )
    return results


def run_mlmc(
    hierarchy: LevelHierarchy,
    plans: AllocationPlan | Sequence[AllocationPlan],
    pilot: PilotRun,
) -> EstimatorResult | list[EstimatorResult]:
    """Telescoping estimate under each plan of ``plans``, replaying cached
    pilot samples: the control-variate estimator with no controlled level.

    Each level's stream is walked once for all plans; at each level only
    the plan with the largest count is sure to match its lone run bit for
    bit (see ``_BATCH``).  A sequence of plans gives a list of results in
    the same order; a single plan gives its one result.  Logged evaluation
    counts include the pilot solves, so the reported cost covers everything
    actually spent; when every planned count is at least the pilot size
    this equals the plan's nominal cost sum(N_l C_l).
    """
    plans, single = _one_or_many(plans)
    results = _telescope(hierarchy, plans, pilot, {})
    return results[0] if single else results


def run_mc(
    hierarchy: LevelHierarchy,
    epsilons: float | Sequence[float],
    pilot: PilotRun,
) -> EstimatorResult | list[EstimatorResult]:
    """Plain Monte Carlo on the finest level, sized from the pilot variance,
    at each tolerance of ``epsilons`` (one tolerance gives one result).

    Draws fresh finest-level samples (no coupling, no pilot replay) so the
    cost is exactly N fine solves; the stream is walked once for all
    tolerances, and only the largest count is sure to match its lone run
    bit for bit (see ``_BATCH``).
    """
    epsilons, single = _one_or_many(epsilons)
    epsilons = [_check_epsilon(eps) for eps in epsilons]
    finest = hierarchy.finest_level
    var_q = pilot.stats[finest].var_q
    if var_q <= 0:
        raise DataError("plain MC needs a positive finest-level pilot variance")
    ns = [max(_ceil_count(2.0 * var_q / eps**2, eps), N_MIN) for eps in epsilons]
    runs = _stream_moments(
        hierarchy,
        pilot.master_seed,
        PURPOSE_MAIN_Y,
        finest,
        ns,
        lambda xi: hierarchy.qoi_of(finest, xi),
    )
    results = []
    for n, moments in zip(ns, runs):
        counts = (LevelEvalCounts(level=finest, fine_evals=n, coarse_evals=0),)
        results.append(
            EstimatorResult(
                estimate=moments.mean,
                level_estimates=(moments.mean,),
                n_samples=(n,),
                sampling_error=var_q / n,
                total_cost=counted_cost(counts, pilot.stats),
                eval_counts=counts,
                sample_variances=(moments.variance,),
                zbar_values=(0.0,),
            )
        )
    return results[0] if single else results


def mc_oracle_mean(
    hierarchy: LevelHierarchy,
    n: int,
    master_seed: int,
    level: int | None = None,
) -> float:
    """Reference mean from n independent samples on a dedicated stream.

    Used to validate estimators against a large fixed-seed Monte Carlo run;
    the stream purpose is distinct from pilot and main purposes so the
    reference never shares randomness with the estimators under test.
    """
    if n < 1:
        raise ConfigError(f"oracle sample count must be positive, got {n}")
    ell = hierarchy.finest_level if level is None else level
    hierarchy.check_level(ell)
    (moments,) = _stream_moments(
        hierarchy,
        master_seed,
        PURPOSE_ORACLE,
        ell,
        [n],
        lambda xi: hierarchy.qoi_of(ell, xi),
    )
    return moments.mean
