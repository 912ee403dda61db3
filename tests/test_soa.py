import numpy as np
import pytest

from smallcell.tssolver import TSProblem
from smallcell.soa import assign_channels, soa_allocate, _assign_stack
from smallcell.baselines import oracle_orthogonal
from reference import marginal_rate, one_problem_greedy, random_problem, reference_greedy


class TestMarginalRate:
    def test_first_tone(self):
        assert marginal_rate(1.0, 1.0, [1.0], [], 0) == pytest.approx(np.log(2.0))

    def test_second_tone_dilutes_the_first(self):
        # 2 log(1 + 2/2) - log(1 + 2) = log(4/3)
        got = marginal_rate(1.0, 2.0, [1.0, 1.0], [0], 1)
        assert got == pytest.approx(np.log(4.0 / 3.0))

    def test_weak_tone_can_be_a_loss(self):
        assert marginal_rate(1.0, 1.0, [10.0, 0.01], [0], 1) < 0.0

    def test_weight_scales_linearly(self):
        base = marginal_rate(1.0, 2.0, [1.0, 3.0], [1], 0)
        assert marginal_rate(2.5, 2.0, [1.0, 3.0], [1], 0) == pytest.approx(2.5 * base)

    def test_duplicate_candidate_rejected(self):
        with pytest.raises(ValueError):
            marginal_rate(1.0, 1.0, [1.0, 2.0], [1], 1)


class TestAssignChannels:
    def test_single_link_takes_strong_tones_in_order(self):
        # third tone would dilute the two strong ones, so it stays unassigned
        prob = TSProblem(gains=[[1.0, 0.9, 0.05, 0.04]], weights=[1.0], budgets=[1.0])
        assert assign_channels(prob) == [[0, 1]]

    def test_two_links_contest_the_strong_tone(self):
        prob = TSProblem(gains=[[2.0, 0.4], [1.9, 0.5]],
                         weights=[1.0, 1.0], budgets=[1.0, 1.0])
        assert assign_channels(prob) == [[0], [1]]

    def test_weight_decides_the_contest(self):
        gains = [[2.0, 0.1], [2.0, 0.1]]
        prob = TSProblem(gains=gains, weights=[1.0, 5.0], budgets=[1.0, 1.0])
        sets = assign_channels(prob)
        assert 0 in sets[1] and 0 not in sets[0]

    def test_assignments_are_disjoint(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            prob = random_problem(rng, num_links=4, num_tones=12)
            sets = assign_channels(prob)
            flat = [k for tones in sets for k in tones]
            assert len(flat) == len(set(flat))
            assert all(0 <= k < 12 for k in flat)

    def test_deterministic(self):
        prob = random_problem(np.random.default_rng(1), num_links=3, num_tones=8)
        assert assign_channels(prob) == assign_channels(prob)

    def test_every_accepted_tone_improved_its_link(self):
        # replay each link's acceptance order: equal-split rate must rise strictly
        rng = np.random.default_rng(2)
        for _ in range(10):
            prob = random_problem(rng, num_links=4, num_tones=16)
            for i, tones in enumerate(assign_channels(prob)):
                prev = 0.0
                for m in range(1, len(tones) + 1):
                    g = prob.gains[i, tones[:m]]
                    cur = np.log1p(prob.budgets[i] * g / m).sum()
                    assert cur > prev
                    prev = cur

    def test_zero_gain_link_gets_nothing(self):
        gains = np.vstack([np.zeros(4), [1.0, 2.0, 3.0, 4.0]])
        prob = TSProblem(gains=gains, weights=[1.0, 1.0], budgets=[1.0, 1.0])
        sets = assign_channels(prob)
        assert sets[0] == []
        # the weakest tone dilutes a 1 mW budget split four ways, so it stays out
        assert sorted(sets[1]) == [1, 2, 3]


class TestGreedyReference:
    @pytest.mark.parametrize("num_links,num_tones", [(1, 1), (1, 12), (3, 8), (5, 5),
                                                     (8, 3), (16, 64)])
    def test_matches_marginal_rate_greedy(self, num_links, num_tones):
        rng = np.random.default_rng(num_links * 100 + num_tones)
        for _ in range(4):
            prob = TSProblem(gains=rng.lognormal(0.0, 2.0, (num_links, num_tones)),
                             weights=rng.uniform(0.5, 2.0, num_links),
                             budgets=rng.uniform(0.1, 10.0, num_links))
            assert assign_channels(prob) == reference_greedy(prob)


def stack_matches_each_problem(gains, weights, budgets):
    """Run the stacked greedy and check every problem against its own solve."""
    got = _assign_stack(gains, np.asarray(weights, float), np.asarray(budgets, float))
    assert len(got) == gains.shape[0]
    for b, sets in enumerate(got):
        prob = TSProblem(gains=gains[b], weights=weights, budgets=budgets)
        assert sets == assign_channels(prob)
        assert sets == one_problem_greedy(prob)
        assert sets == reference_greedy(prob)
    return got


class TestGreedyStack:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 10), (6, 1, 12), (5, 4, 1),
                                       (3, 16, 64), (16, 4, 10)])
    def test_random_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        I = shape[1]
        for _ in range(3):
            stack_matches_each_problem(rng.lognormal(0.0, 2.0, shape), np.ones(I),
                                       np.full(I, 10.0))

    def test_integer_tied_gains(self):
        rng = np.random.default_rng(11)
        for shape in ((8, 3, 6), (4, 5, 12)):
            stack_matches_each_problem(rng.integers(0, 3, shape).astype(float),
                                       np.ones(shape[1]), np.full(shape[1], 2.0))

    def test_zero_entries_rows_and_columns(self):
        rng = np.random.default_rng(12)
        gains = rng.exponential(1.0, (6, 4, 9)) * (rng.random((6, 4, 9)) < 0.6)
        gains[1, 2, :] = 0.0          # a link that knows nothing
        gains[2, :, 3] = 0.0          # a tone nobody can use
        gains[3] = 0.0                # a problem where nobody gains at all
        got = stack_matches_each_problem(gains, np.ones(4), np.full(4, 3.0))
        assert got[1][2] == [] and 3 not in sum(got[2], []) and got[3] == [[]] * 4

    def test_all_equal_gains(self):
        for value in (0.5, 1.0, 7.0):
            stack_matches_each_problem(np.full((3, 4, 8), value), np.ones(4), np.full(4, 2.0))

    def test_mixed_weights_and_budgets(self):
        rng = np.random.default_rng(13)
        for I, K in ((3, 8), (7, 20)):
            stack_matches_each_problem(rng.lognormal(0.0, 1.5, (5, I, K)),
                                       rng.uniform(0.5, 2.0, I), rng.uniform(0.1, 10.0, I))

    def test_problems_stop_at_different_steps(self):
        # scaling a problem's gains moves the step where its bids stop paying
        rng = np.random.default_rng(14)
        gains = rng.lognormal(0.0, 1.0, (6, 3, 16)) * np.logspace(-3, 2, 6)[:, None, None]
        got = stack_matches_each_problem(gains, np.ones(3), np.full(3, 1.0))
        handed_out = [sum(len(tones) for tones in sets) for sets in got]
        assert len(set(handed_out)) >= 4
        assert handed_out[-1] == 16 > handed_out[0]


class TestSoaAllocate:
    def test_equal_split_power(self):
        prob = TSProblem(gains=[[1.0, 0.9, 0.8, 0.004]], weights=[1.0], budgets=[25.0])
        alloc = soa_allocate(prob, power_mode="equal")
        tones = alloc.power[0] > 0
        assert tones.sum() == 3
        assert np.allclose(alloc.power[0][tones], 25.0 / 3.0)
        assert alloc.power.sum() == pytest.approx(25.0)

    def test_waterfill_beats_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            prob = random_problem(rng, num_links=3, num_tones=8)
            eq = soa_allocate(prob, power_mode="equal")
            wf = soa_allocate(prob, power_mode="waterfill")
            assert np.array_equal(eq.share, wf.share)  # same assignment
            assert wf.objective >= eq.objective - 1e-12

    def test_never_beats_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            prob = random_problem(rng, num_links=2, num_tones=4)
            _, best = oracle_orthogonal(prob)
            assert soa_allocate(prob, "equal").objective <= best + 1e-9
            assert soa_allocate(prob, "waterfill").objective <= best + 1e-9

    def test_share_matches_power_support(self):
        prob = random_problem(np.random.default_rng(5), num_links=3, num_tones=8)
        alloc = soa_allocate(prob, "equal")
        assert np.all(alloc.share.sum(axis=0) <= 1.0)
        assert np.all((alloc.power > 0) <= (alloc.share == 1.0))

    def test_unknown_power_mode(self):
        prob = random_problem(np.random.default_rng(6), num_links=3, num_tones=8)
        with pytest.raises(ValueError):
            soa_allocate(prob, power_mode="peak")

    def test_objective_is_weighted(self):
        gains = [[1.0, 2.0], [0.0, 0.0]]
        prob = TSProblem(gains=gains, weights=[3.0, 1.0], budgets=[1.0, 1.0])
        alloc = soa_allocate(prob, "equal")
        assert alloc.objective == pytest.approx(3.0 * alloc.rate[0])
