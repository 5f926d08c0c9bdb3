import numpy as np
import pytest

from fedslice.errors import ConfigError
from fedslice.selection import (
    SelectionResult,
    aggregate_importance,
    apportion,
    select_by_score,
    select_clients,
    select_no_policy,
)


def random_chi(rng, n_clients, n_features=3):
    raw = rng.uniform(0.01, 1.0, (n_clients, n_features))
    return raw / raw.sum(axis=1, keepdims=True)


class TestAggregateImportance:
    def test_single_client_is_identity(self):
        chi = np.array([[0.2, 0.5, 0.3]])
        assert np.array_equal(aggregate_importance(chi), chi[0])

    def test_two_clients_mean(self):
        chi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(aggregate_importance(chi), [0.5, 0.5, 0.0])

    def test_normalized_rows_give_unit_total(self, rng):
        for _ in range(20):
            tau = aggregate_importance(random_chi(rng, 8))
            assert tau.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            aggregate_importance(np.zeros((0, 3)))


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


class TestSelectClients:
    def test_selecting_everyone_ignores_chi(self, rng):
        chi = random_chi(rng, 6)
        result = select_clients(chi, apportion(aggregate_importance(chi), 6))
        assert sorted(result.selected) == list(range(6))

    def test_skip_rule_hand_trace(self):
        # Feature 0 has the larger column mean so it picks first and takes
        # client 2; feature 1's top client is also 2, so its slot falls to the
        # next-ranked client 0.
        chi = np.array([
            [0.20, 0.75],
            [0.55, 0.05],
            [0.95, 0.80],
            [0.60, 0.10],
        ])
        result = select_clients(chi, np.array([1, 1]))
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
        result = select_clients(chi, np.array([1, 1]))
        assert result.selected == (0, 1)

    def test_permutation_equivariance(self, rng):
        for _ in range(50):
            chi = random_chi(rng, 7)
            quotas = apportion(aggregate_importance(chi), 4)
            base = select_clients(chi, quotas)

            perm = rng.permutation(7)
            permuted = select_clients(chi[perm], quotas)
            assert sorted(base.selected) == sorted(int(perm[k]) for k in permuted.selected)

    def test_always_m_distinct_ids(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n + 1))
            chi = random_chi(rng, n)
            result = select_clients(chi, apportion(aggregate_importance(chi), m))
            assert len(result.selected) == m
            assert len(set(result.selected)) == m

    def test_determinism(self, rng):
        chi = random_chi(rng, 9)
        quotas = apportion(aggregate_importance(chi), 5)
        results = {select_clients(chi, quotas).selected for _ in range(100)}
        assert len(results) == 1

    def test_more_than_population_rejected(self, rng):
        # Four slots over three clients fill three: the quotas no longer sum
        # to the selection, which `SelectionResult` refuses.
        chi = random_chi(rng, 3)
        with pytest.raises(ConfigError, match="feature quotas must sum"):
            select_clients(chi, np.array([2, 1, 1]))


class TestNoPolicy:
    def test_all_ten(self):
        result = select_no_policy(10)
        assert result.selected == tuple(range(10))
        assert result.per_feature_quota is None
        assert result.audit == ()

    def test_single_client(self):
        assert select_no_policy(1).selected == (0,)

    def test_idempotent_across_rounds(self):
        assert all(select_no_policy(10).selected == tuple(range(10)) for _ in range(5))


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
            tau = aggregate_importance(chi)
            m = int(rng.integers(1, 9))
            result = select_by_score(chi, tau, m)

            scores = []
            for k in range(8):
                num = float(chi[k] @ tau)
                den = float(np.linalg.norm(chi[k]) * np.linalg.norm(tau))
                scores.append(num / den if den else 0.0)
            expected = [k for k, _ in sorted(enumerate(scores), key=lambda kv: (-kv[1], kv[0]))][:m]
            assert list(result.selected) == expected


class TestScaleInvariance:
    def test_raw_attribution_scale_cancels(self, rng):
        # chi rows are raw absolute-mean attributions normalized per client;
        # scaling every raw value by the same c must not move the selection.
        for _ in range(20):
            raw = rng.uniform(0.01, 5.0, (8, 3))
            chi = raw / raw.sum(axis=1, keepdims=True)
            scaled_raw = raw * 37.5
            chi_scaled = scaled_raw / scaled_raw.sum(axis=1, keepdims=True)

            quotas = apportion(aggregate_importance(chi), 4)
            quotas_scaled = apportion(aggregate_importance(chi_scaled), 4)
            assert np.array_equal(quotas, quotas_scaled)
            a = select_clients(chi, quotas)
            b = select_clients(chi_scaled, quotas_scaled)
            assert a.selected == b.selected


class TestSelectionResult:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            SelectionResult(selected=(1, 1), per_feature_quota=None)

    def test_quota_total_must_match_selection(self):
        with pytest.raises(ConfigError):
            SelectionResult(selected=(0, 1), per_feature_quota=(3, 0))
