import numpy as np
import pytest

from fedslice.errors import ConfigError
from fedslice.selection import (
    SelectionResult,
    apportion,
    select,
    select_by_score,
    select_clients,
)


def random_chi(rng, n_clients, n_features=3):
    raw = rng.uniform(0.01, 1.0, (n_clients, n_features))
    return raw / raw.sum(axis=1, keepdims=True)


# Feature 0 has the larger column mean (0.575 against 0.425), so it picks
# first and takes client 2; feature 1's top client is also 2, so its slot
# falls to the next-ranked client 0.
HAND_TRACE_CHI = np.array([
    [0.20, 0.75],
    [0.55, 0.05],
    [0.95, 0.80],
    [0.60, 0.10],
])


def brute_force_score_ranking(chi, tau, m):
    """The m clients of highest cosine similarity to tau, ties to the lower id."""
    scores = []
    for k in range(chi.shape[0]):
        num = float(chi[k] @ tau)
        den = float(np.linalg.norm(chi[k]) * np.linalg.norm(tau))
        scores.append(num / den if den else 0.0)
    return [k for k, _ in sorted(enumerate(scores), key=lambda kv: (-kv[1], kv[0]))][:m]


def select_quotas(chi, m):
    return select("intelliselect", chi, m, chi.shape[0]).per_feature_quota


class TestAggregateImportance:
    # The global importance tau, the column mean of |chi|, is seen through
    # the quotas `select` apportions from it.
    def test_single_client_is_identity(self):
        chi = np.array([[0.2, 0.5, 0.3]])
        assert select_quotas(chi, 1) == tuple(apportion(chi[0], 1)) == (0, 1, 0)

    def test_two_clients_mean(self):
        # tau = (0.5, 0.5, 0.0): one slot each for features 0 and 1.
        chi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert select_quotas(chi, 2) == (1, 1, 0)

    def test_normalized_rows_give_unit_total(self, rng):
        # Rows summing to one give a tau summing to one, so the m slots are
        # split exactly, each quota within one of m times the column mean.
        for _ in range(20):
            chi = random_chi(rng, 8)
            m = int(rng.integers(1, 9))
            quotas = np.array(select_quotas(chi, m))
            assert quotas.sum() == m
            assert np.all(np.abs(quotas - m * chi.mean(axis=0)) < 1.0)


class TestApportion:
    def test_exact_proportionality(self):
        assert list(apportion(np.array([1, 1, 1]) / 3.0, 3)) == [1, 1, 1]

    def test_largest_remainder_trace(self):
        # raw = (2.5, 1.5, 1.0); floors (2, 1, 1); one slot left; remainders
        # (0.5, 0.5, 0.0) tie toward the lower feature index.
        assert list(apportion(np.array([0.5, 0.3, 0.2]), 5)) == [3, 1, 1]

    def test_all_mass_on_one_feature(self):
        assert list(apportion(np.array([1.0, 0.0, 0.0]), 5)) == [5, 0, 0]

    def test_quota_conservation_and_proportionality(self, rng):
        for _ in range(2000):
            n_features = int(rng.integers(1, 8))
            raw = rng.uniform(0.0, 1.0, n_features) + 1e-12
            tau = raw / raw.sum()
            m = int(rng.integers(1, 10000))
            quotas = apportion(tau, m)
            assert quotas.sum() == m
            assert np.all(quotas >= 0)
            assert np.all(np.abs(quotas - m * tau) < 1.0)


class TestSelect:
    def test_no_policy_takes_every_client_without_chi(self):
        result = select("no_policy", None, 3, 10)
        assert result.selected == tuple(range(10))

    def test_score_matches_brute_force_cosine_against_column_mean(self, rng):
        for _ in range(30):
            chi = random_chi(rng, 8)
            m = int(rng.integers(1, 9))
            result = select("score", chi, m, 8)

            tau = chi.mean(axis=0)
            assert list(result.selected) == brute_force_score_ranking(chi, tau, m)

    def test_intelliselect_skip_rule_hand_trace(self):
        # Two slots over those column means give one to each feature.
        result = select("intelliselect", HAND_TRACE_CHI, 2, 4)
        assert result.per_feature_quota == (1, 1)
        assert result.selected == (2, 0)
        assert [(a.client_id, a.feature) for a in result.audit] == [(2, 0), (0, 1)]


class TestSelectClients:
    def test_selecting_everyone_ignores_chi(self, rng):
        chi = random_chi(rng, 6)
        result = select("intelliselect", chi, 6, 6)
        assert sorted(result.selected) == list(range(6))

    def test_skip_rule_hand_trace(self):
        chi = HAND_TRACE_CHI
        result = select_clients(chi, chi.mean(axis=0), np.array([1, 1]))
        assert result.selected == (2, 0)
        assert [(a.client_id, a.feature) for a in result.audit] == [(2, 0), (0, 1)]
        assert result.audit[0].chi_value == 0.95
        assert result.audit[1].chi_value == 0.75

    def test_client_rank_ties_break_to_lower_id(self):
        chi = np.array([
            [0.5, 0.5],
            [0.5, 0.5],
            [0.5, 0.5],
        ])
        result = select_clients(chi, chi.mean(axis=0), np.array([1, 1]))
        assert result.selected == (0, 1)

    def test_permutation_equivariance(self, rng):
        for _ in range(50):
            chi = random_chi(rng, 7)
            base = select("intelliselect", chi, 4, 7)

            perm = rng.permutation(7)
            permuted = select("intelliselect", chi[perm], 4, 7)
            assert sorted(base.selected) == sorted(int(perm[k]) for k in permuted.selected)

    def test_always_m_distinct_ids(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n + 1))
            chi = random_chi(rng, n)
            result = select("intelliselect", chi, m, n)
            assert len(result.selected) == m
            assert len(set(result.selected)) == m

    def test_determinism(self, rng):
        chi = random_chi(rng, 9)
        results = {select("intelliselect", chi, 5, 9).selected for _ in range(100)}
        assert len(results) == 1

    def test_more_than_population_rejected(self, rng):
        # Four slots over three clients fill three: the quotas no longer sum
        # to the selection, which `SelectionResult` refuses as a program fault.
        chi = random_chi(rng, 3)
        with pytest.raises(ValueError, match="feature quotas must sum") as info:
            select_clients(chi, chi.mean(axis=0), np.array([2, 1, 1]))
        assert not isinstance(info.value, ConfigError)


class TestNoPolicy:
    def test_all_ten(self):
        result = select("no_policy", None, 10, 10)
        assert result.selected == tuple(range(10))
        assert result.per_feature_quota is None
        assert result.audit == ()

    def test_single_client(self):
        assert select("no_policy", None, 1, 1).selected == (0,)

    def test_idempotent_across_rounds(self):
        assert all(select("no_policy", None, 10, 10).selected == tuple(range(10))
                   for _ in range(5))


class TestScorePolicy:
    def test_identical_vector_scores_one_and_wins(self):
        tau = np.array([0.5, 0.3, 0.2])
        chi = np.vstack([tau, [0.1, 0.2, 0.7]])
        result = select_by_score(chi, tau, 1)
        assert result.selected == (0,)
        assert result.audit[0].chi_value == pytest.approx(1.0)

    def test_parallel_beats_orthogonal(self):
        tau = np.array([0.0, 1.0, 0.0])
        chi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert select_by_score(chi, tau, 1).selected == (1,)

    def test_zero_row_scores_zero(self):
        tau = np.array([0.5, 0.5, 0.0])
        chi = np.array([[0.0, 0.0, 0.0], [0.4, 0.3, 0.3]])
        result = select_by_score(chi, tau, 2)
        assert result.selected[0] == 1
        assert result.audit[-1].chi_value == 0.0

    def test_matches_brute_force_sort(self, rng):
        for _ in range(30):
            chi = random_chi(rng, 8)
            tau = chi.mean(axis=0)
            m = int(rng.integers(1, 9))
            result = select_by_score(chi, tau, m)

            assert list(result.selected) == brute_force_score_ranking(chi, tau, m)


class TestScaleInvariance:
    def test_raw_attribution_scale_cancels(self, rng):
        # chi rows are raw absolute-mean attributions normalized per client;
        # scaling every raw value by the same c must not move the selection.
        for _ in range(20):
            raw = rng.uniform(0.01, 5.0, (8, 3))
            chi = raw / raw.sum(axis=1, keepdims=True)
            scaled_raw = raw * 37.5
            chi_scaled = scaled_raw / scaled_raw.sum(axis=1, keepdims=True)

            a = select("intelliselect", chi, 4, 8)
            b = select("intelliselect", chi_scaled, 4, 8)
            assert a.per_feature_quota == b.per_feature_quota
            assert a.selected == b.selected


class TestSelectionResult:
    # No input reaches these checks (`n_selected <= n_clients` is a config
    # rule), so a failure is a program fault: not a ConfigError, which the
    # CLI reports as bad input.
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError) as info:
            SelectionResult(selected=(1, 1), per_feature_quota=None)
        assert not isinstance(info.value, ConfigError)

    def test_quota_total_must_match_selection(self):
        with pytest.raises(ValueError) as info:
            SelectionResult(selected=(0, 1), per_feature_quota=(3, 0))
        assert not isinstance(info.value, ConfigError)
