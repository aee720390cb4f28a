"""Integration tests for the model extensions (EXT4/EXT5)."""

from __future__ import annotations

import pytest

from repro.core.comm_delay import DelayedGame, DelayedNashSolver
from repro.experiments import ext_models
from repro.workloads.configs import paper_table1_system


class TestCommDelay:
    @pytest.fixture(scope="class")
    def artifact(self):
        return ext_models.run_comm_delay(
            n_users=4, delay_scales=(0.0, 0.02, 0.1)
        )

    def test_zero_delay_recovers_plain_game(self, artifact):
        row = artifact.rows[0]
        # Without delays nearly all traffic rides the faster classes.
        assert row["fast_computer_share"] > 0.99
        assert row["nash_cost"] < row["ps_cost"]

    def test_costs_grow_with_delay(self, artifact):
        costs = artifact.column("nash_cost")
        assert costs == sorted(costs)

    def test_traffic_retreats_from_fast_computers(self, artifact):
        shares = artifact.column("fast_computer_share")
        assert shares[-1] < shares[0]


class TestCommDelayPinned:
    """The default EXT4 table and its solves, pinned to six digits.

    The delayed game's replies and sweeps run on the class engine's fill
    and sweep loop; these are the numbers and sweep counts of the
    equilibria EXT4 reports.
    """

    SCALES = (0.0, 0.01, 0.05, 0.1, 0.2)

    def test_default_table(self):
        artifact = ext_models.run_comm_delay()
        assert artifact.column("delay_scale") == list(self.SCALES)
        expected = {
            "nash_cost": ["0.0626943", "0.116072", "0.368655", "0.635599", "1.08875"],
            "ps_cost": ["0.0784314", "0.127451", "0.323529", "0.568627", "1.05882"],
            "fast_computer_share": ["1", "0.96197", "0.857464", "0.836296", "0.824157"],
        }
        for column, values in expected.items():
            assert [f"{v:.6g}" for v in artifact.column(column)] == values, column

    def test_sweep_counts(self):
        system = paper_table1_system(utilization=0.6, n_users=10)
        distance = system.service_rates / system.service_rates.min() - 1.0
        solver = DelayedNashSolver(tolerance=1e-8)
        sweeps = []
        for scale in self.SCALES:
            result = solver.solve(DelayedGame(system, scale * distance))
            assert result.converged
            sweeps.append(result.iterations)
        assert sweeps == [104, 80, 160, 238, 356]


class TestMisspecification:
    @pytest.fixture(scope="class")
    def artifact(self):
        return ext_models.run_misspecification(
            n_users=4, scvs=(0.0, 1.0, 4.0), horizon=900.0, warmup=90.0
        )

    def test_simulation_tracks_pk_prediction(self, artifact):
        for row in artifact.rows:
            assert row["nash_simulated"] == pytest.approx(
                row["nash_pk_predicted"], rel=0.12
            )

    def test_mm1_model_exact_only_at_scv_one(self, artifact):
        by_scv = {row["scv"]: row for row in artifact.rows}
        exact = by_scv[1.0]
        assert exact["nash_pk_predicted"] == pytest.approx(
            exact["nash_mm1_model"], rel=1e-6
        )
        assert by_scv[0.0]["nash_pk_predicted"] < by_scv[0.0]["nash_mm1_model"]
        assert by_scv[4.0]["nash_pk_predicted"] > by_scv[4.0]["nash_mm1_model"]

    def test_nash_beats_ps_at_every_scv(self, artifact):
        for row in artifact.rows:
            assert row["nash_simulated"] < row["ps_simulated"]

    def test_latency_grows_with_scv(self, artifact):
        simulated = artifact.column("nash_simulated")
        assert simulated == sorted(simulated)


class TestBurstyArrivals:
    @pytest.fixture(scope="class")
    def artifact(self):
        return ext_models.run_bursty_arrivals(
            n_users=4, burst_ratios=(1.0, 10.0), horizon=250.0, warmup=25.0
        )

    def test_poisson_point_matches_model(self, artifact):
        row = artifact.rows[0]
        assert row["nash_simulated"] == pytest.approx(
            row["nash_mm1_model"], rel=0.15
        )
        assert row["nash_simulated"] < row["ps_simulated"]

    def test_burstiness_inflates_latency(self, artifact):
        nash = artifact.column("nash_simulated")
        ps = artifact.column("ps_simulated")
        assert nash[-1] > nash[0]
        assert ps[-1] > ps[0]

    def test_bursts_hurt_nash_more_than_ps(self, artifact):
        """The headline reversal: NASH's hot fast machines absorb bursts
        worse than PS's uniformly loaded ones."""
        first, last = artifact.rows[0], artifact.rows[-1]
        nash_inflation = last["nash_simulated"] / first["nash_simulated"]
        ps_inflation = last["ps_simulated"] / first["ps_simulated"]
        assert nash_inflation > ps_inflation
