"""Tests for the IOS baseline (Wardrop equilibrium, Kameda et al.)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import DistributedSystem
from repro.schemes.individual_optimal import (
    IndividualOptimalScheme,
    flow_deviation_loads,
    wardrop_loads,
    wardrop_response_time,
)
from repro.schemes.proportional import proportional_response_time
from repro.workloads.configs import paper_table1_system


class TestWardropLoads:
    def test_loads_conserve_demand(self, table1_medium):
        loads = wardrop_loads(table1_medium)
        assert loads.sum() == pytest.approx(table1_medium.total_arrival_rate)

    def test_equal_times_on_used_computers(self, table1_medium):
        loads = wardrop_loads(table1_medium)
        mu = table1_medium.service_rates
        used = loads > 0.0
        # reprolint: allow=R003 independent oracle for the waterfill result
        times = 1.0 / (mu[used] - loads[used])
        np.testing.assert_allclose(times, times[0], rtol=1e-9)

    def test_unused_computers_slower_even_idle(self, table1_medium):
        loads = wardrop_loads(table1_medium)
        mu = table1_medium.service_rates
        tau = wardrop_response_time(table1_medium)
        idle = loads == 0.0  # reprolint: allow=R002 exact-sentinel mask
        assert np.all(1.0 / mu[idle] >= tau - 1e-12)

    def test_tau_matches_used_times(self, table1_medium):
        loads = wardrop_loads(table1_medium)
        mu = table1_medium.service_rates
        used = loads > 0.0
        tau = wardrop_response_time(table1_medium)
        assert tau == pytest.approx(float(1.0 / (mu[used] - loads[used]).max()))

    def test_high_load_matches_ps_closed_form(self):
        """Once every computer is used, IOS time == PS time (exactly)."""
        system = paper_table1_system(utilization=0.9)
        loads = wardrop_loads(system)
        assert np.all(loads > 0.0)
        tau = wardrop_response_time(system)
        assert tau == pytest.approx(proportional_response_time(system), rel=1e-9)

    def test_low_load_better_than_ps(self):
        system = paper_table1_system(utilization=0.2)
        tau = wardrop_response_time(system)
        assert tau < proportional_response_time(system)


class TestFlowDeviation:
    def test_matches_closed_form(self, table1_medium):
        closed = wardrop_loads(table1_medium)
        iterated, iterations = flow_deviation_loads(table1_medium, tolerance=1e-9)
        np.testing.assert_allclose(iterated, closed, atol=1e-4)
        assert iterations > 0

    def test_is_paper_noted_inefficient(self, table1_medium):
        """The iterative method takes many more steps than the closed form
        (which is a single sort) — the paper's 'not very efficient' remark."""
        _, iterations = flow_deviation_loads(table1_medium, tolerance=1e-8)
        assert iterations > 50

    def test_respects_stability(self, table1_medium):
        loads, _ = flow_deviation_loads(table1_medium)
        assert np.all(loads < table1_medium.service_rates)
        assert np.all(loads >= 0.0)


class TestScheme:
    def test_fairness_exactly_one(self, table1_medium):
        result = IndividualOptimalScheme().allocate(table1_medium)
        assert result.fairness == pytest.approx(1.0)

    def test_all_users_experience_tau(self, table1_medium):
        result = IndividualOptimalScheme().allocate(table1_medium)
        tau = wardrop_response_time(table1_medium)
        np.testing.assert_allclose(result.user_times, tau, rtol=1e-9)

    def test_overall_time_is_tau(self, table1_medium):
        result = IndividualOptimalScheme().allocate(table1_medium)
        assert result.overall_time == pytest.approx(
            result.extra["tau"], rel=1e-9
        )

    def test_flow_deviation_method(self, table1_medium):
        result = IndividualOptimalScheme(method="flow_deviation").allocate(
            table1_medium
        )
        closed = IndividualOptimalScheme().allocate(table1_medium)
        assert result.overall_time == pytest.approx(
            closed.overall_time, rel=1e-4
        )
        assert result.extra["iterations"] > 0

    def test_unknown_method_rejected(self, table1_medium):
        with pytest.raises(ValueError):
            IndividualOptimalScheme(method="bogus").allocate(table1_medium)

    def test_profile_feasible(self, table1_medium):
        result = IndividualOptimalScheme().allocate(table1_medium)
        result.profile.validate(table1_medium)

    def test_scheme_name(self, table1_medium):
        assert IndividualOptimalScheme().allocate(table1_medium).scheme == "IOS"

    @pytest.mark.parametrize(
        ("rates", "demand", "fastest"),
        [([2.0, 2.0, 2.0], 1e-16, [0, 1, 2]), ([4.0, 4.0], 1e-300, [0, 1]),
         ([3.0, 2.0], 1e-17, [0])],
    )
    def test_demand_below_round_off(self, rates, demand, fastest):
        system = DistributedSystem(service_rates=rates, arrival_rates=[demand])
        result = IndividualOptimalScheme().allocate(system)
        result.profile.validate(system)
        expected = np.zeros(len(rates))
        expected[fastest] = 1.0 / len(fastest)
        np.testing.assert_allclose(result.profile.fractions[0], expected)
        assert result.extra["tau"] == pytest.approx(1.0 / rates[0], rel=1e-12)
        assert result.user_times[0] == pytest.approx(1.0 / rates[0], rel=1e-12)
