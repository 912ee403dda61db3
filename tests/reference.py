"""Exact references that the tests compare the library against.

pytest does not collect this module, because its name does not match
test_*.py.  Test modules import references from here and from no other
test module.  There are two kinds:

- Spec references compute what the paper or a docstring states, by the
  plainest means and without the library's solvers: the optimal water fill,
  the exhaustive assignment, the greedy as specified, the per-pair signaling
  slot, the per-pair seeding and the collision model.
- Frozen copies keep code that a same-bits rewrite replaced, so that the
  rewrite stays pinned to it byte for byte.  Each names the PR that froze it.
"""

from dataclasses import replace
from itertools import product
import math
from math import comb

import numpy as np

from smallcell.baselines import IWFA_EPS_MW
from smallcell.channel import GAIN_SAMPLES, MIN_DISTANCE_M, drop_topology, pathloss_db
from smallcell.signaling import decode_levels, encode_powers
from smallcell.tssolver import (LAM_FLOOR, WATER_FILL_MIN_SNR, TSProblem, _water_fill_core,
                                default_multipliers)


def random_problem(rng, num_links, num_tones, gain_scale=1.0):
    gains = gain_scale * rng.lognormal(0.0, 1.0, (num_links, num_tones))
    return TSProblem(gains=gains, weights=np.ones(num_links),
                     budgets=np.full(num_links, 2.0))


# ---- spec references ----

def classic_water_fill(gains, budget):
    """The reference water fill of one gain row: a vectorized level search
    over every count of wet tones, the fix-up summed over the whole row."""
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    usable = np.where(g > 0.0)[0]
    gu = g[usable]
    gmax = gu.max()
    if budget * gmax >= WATER_FILL_MIN_SNR:
        floors = 1.0 / gu
    else:
        with np.errstate(over="ignore"):
            floors = np.minimum((gmax / gu - 1.0) / gmax, budget)
    order = np.argsort(floors, kind="stable")
    floors_sorted = floors[order]
    nu_candidates = (budget + np.cumsum(floors_sorted)) / np.arange(1, usable.size + 1)
    m = int(np.where(nu_candidates > floors_sorted)[0][-1]) + 1
    out = np.zeros(g.shape)
    out[usable[order[:m]]] = nu_candidates[m - 1] - floors_sorted[:m]
    out[usable[order[0]]] += budget - out.sum()
    return out


def product_scan_oracle(prob):
    """Reference Oracle: water-fill every link's set for every enumerated assignment."""
    g, w, b = prob.gains, prob.weights, prob.budgets
    I, K = g.shape
    best_obj, best_assign = -np.inf, None
    for assign in product(range(-1, I), repeat=K):
        obj = 0.0
        for i in range(I):
            tones = [k for k in range(K) if assign[k] == i and g[i, k] > 0.0]
            if tones:
                p = classic_water_fill(g[i, tones], float(b[i]))
                obj += w[i] * np.log1p(g[i, tones] * p).sum()
        if obj > best_obj:
            best_obj, best_assign = obj, assign
    share = np.zeros((I, K))
    power = np.zeros((I, K))
    for i in range(I):
        tones = [k for k in range(K) if best_assign[k] == i and g[i, k] > 0.0]
        if tones:
            share[i, tones] = 1.0
            power[i, tones] = classic_water_fill(g[i, tones], float(b[i]))
    return share, power, float(w @ np.log1p(g * power).sum(axis=1))


def marginal_rate(theta: float, budget: float, gains, acs, cta: int) -> float:
    """Rate gained by adding tone cta to a link holding the tones in acs.

    Equal power split is assumed before (budget/|acs|) and after
    (budget/(|acs|+1)) the addition; with an empty acs the baseline is zero
    rate.  Natural-log units.
    """
    g = np.asarray(gains, dtype=float)
    held = list(acs)
    if cta in held:
        raise ValueError("candidate tone already assigned to this link")
    m = len(held)
    after = np.log1p(budget * g[held + [cta]] / (m + 1)).sum()
    before = np.log1p(budget * g[held] / m).sum() if m else 0.0
    return float(theta * (after - before))


def reference_greedy(problem):
    """The greedy loop as the soa docstring states it, built on marginal_rate.

    Each link nominates its best untaken tone (largest gain, lowest index on
    ties); the largest strictly positive bid wins, lowest link on ties.
    """
    g, w, b = problem.gains, problem.weights, problem.budgets
    I, K = g.shape
    held = [[] for _ in range(I)]
    free = list(range(K))
    while free:
        best, winner = 0.0, None
        for i in range(I):
            tone = max(free, key=lambda k: (g[i, k], -k))
            bid = marginal_rate(w[i], b[i], g[i], held[i], tone)
            if bid > best:
                best, winner = bid, (i, tone)
        if winner is None:
            break
        held[winner[0]].append(winner[1])
        free.remove(winner[1])
    return held


def per_pair_views(realization, table, p0_mw, loss_mask):
    """Reference signaling slot: one encode_powers -> decode_levels per (sender, receiver, tone)."""
    I, K = realization.num_links, realization.num_tones
    views = []
    for j in range(I):
        gains = np.zeros((I, K))
        missing = np.ones((I, K), dtype=bool)
        for i in range(I):
            for k in range(K):
                if loss_mask[i, j, k]:
                    continue
                h = realization.cross_gain[i, j, k]
                tx1, tx2 = encode_powers(realization.direct_gain[i, k], table, p0_mw)
                gains[i, k] = decode_levels(h * tx1, h * tx2, table)
                missing[i, k] = False
        views.append((gains, missing))
    return views


def keyed_reference(cfg, positions, key):
    """The cross gains of a keyed draw, pair (i, j) shadowed by its own
    default_rng(key + (i, j)).  ROADMAP item 8 (one channel stream) retires it."""
    I, K = cfg.num_links, cfg.num_tones
    key = (key,) if isinstance(key, int) else tuple(key)
    shadow = np.empty((I, I, K))
    for i in range(I):
        for j in range(I):
            shadow[i, j] = np.random.default_rng(key + (i, j)).normal(0.0, cfg.shadow_sigma_db, K)
    dist = np.linalg.norm(positions[0::2, None, :] - positions[None, 1::2, :], axis=2)
    pl = pathloss_db(cfg, np.maximum(dist, MIN_DISTANCE_M))
    return 10.0 ** (-(pl[:, :, None] + shadow) / 10.0)


def _expected_resolution_slots(n, q):
    """Mean slots until <= 1 claimant remains, each leaving i.i.d. w.p. q per slot."""
    E = {0: 0.0, 1: 0.0}
    for m in range(2, n + 1):
        stay = (1 - q) ** m
        acc = 1.0
        for s in range(2, m):      # s survivors out of m claimants
            acc += comb(m, s) * ((1 - q) ** s) * (q ** (m - s)) * E[s]
        E[m] = acc / (1 - stay)
    return E[n]


# ---- frozen copies ----

def one_problem_greedy(problem):
    """The greedy loop for one problem, with the running sums and float ops of soa's loop.

    One link wins per step; its shifted sum is a 1-D .sum() over its held
    tones in greedy order.  Frozen at PR 8, which replaced it by soa._assign_stack.
    """
    g, w, p0 = problem.gains, problem.weights, problem.budgets
    I, K = g.shape
    free = g.copy()
    links = np.arange(I)
    assigned = [[] for _ in range(I)]
    base, shifted, counts = np.zeros(I), np.zeros(I), np.zeros(I, dtype=int)
    for _ in range(K):
        nominee = np.argmax(free, axis=1)
        bid = np.log1p(p0 * free[links, nominee] / (counts + 1))
        margin = w * (shifted + bid - base)
        i = int(np.argmax(margin))
        if not margin[i] > 0.0:
            break
        k = int(nominee[i])
        free[:, k] = -1.0
        assigned[i].append(k)
        counts[i] += 1
        base[i] = shifted[i] + bid[i]
        shifted[i] = np.log1p(p0[i] * g[i, assigned[i]] / (counts[i] + 1)).sum()
    return assigned


def frozen_gain_samples(cfg, rng):
    """The codebook's scenario gain samples as harness drew them with its own
    path-gain lines, before channel._path_gains drew them and the cross gains
    alike.  Frozen when scenario_gain_samples moved into channel."""
    pos = drop_topology(replace(cfg, num_links=GAIN_SAMPLES), rng)
    dist = np.maximum(np.linalg.norm(pos[0::2] - pos[1::2], axis=-1), MIN_DISTANCE_M)
    pl = pathloss_db(cfg, dist) + rng.normal(0.0, cfg.shadow_sigma_db, size=GAIN_SAMPLES)
    return 10.0 ** (-pl / 10.0) / cfg.noise_power_mw


def reference_iwfa(realization, budgets, max_rounds=200):
    """IWFA with the running per-link delta and classic_water_fill, every round run:
    (power, rounds, converged, deltas).  Frozen at PR 6; it pins every IWFA rewrite since."""
    cross = realization.cross_gain
    noise = realization.noise_power_mw
    own_gain = np.einsum("iik->ik", cross)
    power = np.vstack([classic_water_fill(own_gain[i] / noise, float(budgets[i]))
                       for i in range(realization.num_links)])
    deltas = []
    for rounds in range(1, max_rounds + 1):
        delta = 0.0
        for i in range(realization.num_links):
            floor = noise + np.einsum("jk,jk->k", cross[:, i, :], power) - cross[i, i, :] * power[i]
            new_p = classic_water_fill(own_gain[i] / floor, float(budgets[i]))
            delta = max(delta, float(np.max(np.abs(new_p - power[i]))))
            power[i] = new_p
        deltas.append(delta)
        if delta < IWFA_EPS_MW:
            return power, rounds, True, deltas
    return power, max_rounds, False, deltas


def per_entry_subset_values(problem):
    """The Oracle's value table as one _water_fill_core call per (link, mask) entry.
    Frozen at PR 16, which replaced it by the stacked fill _water_fill_rows."""
    g, w, b = problem.gains, problem.weights, problem.budgets
    I, K = g.shape
    bits = 1 << np.arange(K)
    positive = (g > 0.0) @ bits
    value = np.zeros((I, 2 ** K))
    for m in range(1, 2 ** K):
        tones = np.flatnonzero(m & bits)
        for i in range(I):
            if m & positive[i] == m:
                gt = g[i].take(tones)
                p = np.zeros(tones.size)
                _water_fill_core(p, gt, None, float(b[i]))
                value[i, m] = w[i] * np.log1p(gt * p).sum()
    return np.take_along_axis(value, np.arange(2 ** K) & positive[:, None], axis=1)


def _reference_bid(theta, g, lam):
    """Bid xi and power density d at floored lam, over every entry (the earlier kernel)."""
    tg = theta * g
    active = tg > lam
    g_safe = np.where(g > 0, g, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(active, tg / lam, 1.0)
        xi = np.where(active, theta * (np.log(ratio) - 1.0) + lam / g_safe, 0.0)
        d = np.where(active, (ratio - 1.0) / g_safe, 0.0)
    return xi, d


def _reference_dual(problem, lam):
    lam_e = np.maximum(lam, LAM_FLOOR)
    xi, dens = _reference_bid(problem.weights[:, None], problem.gains, lam_e[:, None])
    winner = np.argmax(xi, axis=0)
    cols = np.arange(xi.shape[1])
    value = float(xi[winner, cols].sum() + lam_e @ problem.budgets)
    drawn = np.bincount(winner, weights=dens[winner, cols], minlength=xi.shape[0])
    return value, problem.budgets - drawn, winner


def _reference_solve(problem, max_iters):
    """The subgradient loop as first written, run for all max_iters iterations.

    Clip, a floor on every evaluation, array traces; it has no stop rule, so
    a shorter run is a prefix of a longer one.  Also keeps each iteration's
    winners.  Frozen at PR 7, with _reference_bid and _reference_dual, when
    _dual_kernel and the lean loop of subgradient_solve replaced them.
    """
    a, b = 1.0, 10.0
    lam_max = problem.num_tones * problem.weights / problem.budgets
    lam = np.clip(default_multipliers(problem), LAM_FLOOR, lam_max)
    scale = lam / problem.budgets
    radius2 = float(np.sum(np.maximum(lam, lam_max - lam) ** 2 / scale))
    best_tr = np.empty(max_iters)
    bound_tr = np.empty(max_iters)
    winners = []
    best, best_lam = np.inf, lam.copy()
    gmax2 = sum_a = sum_a2 = 0.0
    for t in range(1, max_iters + 1):
        value, subgrad, winner = _reference_dual(problem, lam)
        if value < best:
            best, best_lam = value, lam.copy()
        alpha = a / (b + t)
        sum_a += alpha
        sum_a2 += alpha * alpha
        gmax2 = max(gmax2, float(np.sum(scale * subgrad ** 2)))
        best_tr[t - 1] = best
        bound_tr[t - 1] = (radius2 + gmax2 * sum_a2) / sum_a
        winners.append(winner)
        lam = np.clip(lam - alpha * scale * subgrad, LAM_FLOOR, lam_max)
    return dict(best_dual=best, best_multipliers=best_lam, best_trace=best_tr,
                bound_trace=bound_tr, winners=np.array(winners))


def _reference_shares(problem, winners, t):
    """Time-sharing shares after t iterations: each link's fraction of the
    tones it won over iterations t//2 + 1 .. t."""
    window = winners[t // 2:t]
    return np.array([(window == i).mean(axis=0) for i in range(problem.num_links)])


def _reference_ts_value(problem, share):
    """Weighted sum rate of the share-weighted water fill, link by link.

    Link i puts p = T (nu - 1/g) on its wet entries, with nu found by
    dropping the weakest floor until every kept floor lies under the level.
    """
    total = 0.0
    for gains, shares, weight, budget in zip(problem.gains, share, problem.weights,
                                             problem.budgets):
        with np.errstate(divide="ignore", over="ignore"):
            floors = 1.0 / gains
        kept = sorted((f, s, g) for f, s, g in zip(floors, shares, gains)
                      if s > 0.0 and np.isfinite(f))
        while kept:
            level = (budget + sum(s * f for f, s, _ in kept)) / sum(s for _, s, _ in kept)
            if level > kept[-1][0]:
                break
            kept.pop()
        total += weight * sum(s * math.log(g * level) for _, s, g in kept)
    return total


def _reference_stop(problem, ref, tol):
    """First multiple of 10 at which the reference run's gap is within tol
    times the best dual value plus LAM_FLOOR * sum(budgets), with its
    relative gap; (None, None) if no check certifies.  Frozen at PR 11, which
    added the certified stop, as are _reference_shares and _reference_ts_value."""
    slack = LAM_FLOOR * problem.budgets.sum()
    for t in range(10, len(ref["best_trace"]) + 1, 10):
        best = ref["best_trace"][t - 1]
        value = _reference_ts_value(problem, _reference_shares(problem, ref["winners"], t))
        if abs(best - value) <= tol * max(abs(best), 1e-30) + slack:
            return t, (best - value) / max(abs(best), 1e-30)
    return None, None
