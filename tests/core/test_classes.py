"""Tests for user-class aggregation and the class-space NASH solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import classes
from repro.core.classes import (
    ClassAggregation,
    ClassNashSolver,
    aggregate_users,
    class_best_response_regrets,
)
from repro.core.equilibrium import best_response_regrets
from repro.core.model import DistributedSystem
from repro.core.nash import NashSolver
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import InfeasibleDemand
from repro.workloads.configs import paper_table1_system, random_system


class TestAggregateUsers:
    def test_uniform_population_collapses_to_one_class(self):
        system = paper_table1_system(n_users=10)
        agg = aggregate_users(system)
        assert agg.n_classes == 1
        assert agg.n_users == 10
        assert agg.compression == 10.0
        np.testing.assert_allclose(agg.total_demand, system.total_arrival_rate)

    def test_exact_grouping_by_rate(self):
        system = DistributedSystem(
            service_rates=[20.0, 10.0],
            arrival_rates=[2.0, 1.0, 2.0, 3.0, 1.0, 2.0],
        )
        agg = aggregate_users(system)
        assert agg.n_classes == 3
        np.testing.assert_array_equal(agg.class_rates, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(agg.counts, [2, 3, 1])
        # class_of maps each user to the class holding its exact rate
        assert agg.class_of is not None
        np.testing.assert_array_equal(
            agg.class_rates[agg.class_of], system.arrival_rates
        )

    def test_demands_account_for_every_user(self):
        system = random_system(np.random.default_rng(7), n_computers=5, n_users=40)
        agg = aggregate_users(system)
        np.testing.assert_allclose(
            agg.total_demand, system.total_arrival_rate, rtol=1e-12
        )
        assert int(agg.counts.sum()) == system.n_users

    def test_tolerance_grouping_merges_near_rates(self):
        system = DistributedSystem(
            service_rates=[50.0],
            arrival_rates=[1.0, 1.005, 1.009, 2.0, 2.004],
        )
        exact = aggregate_users(system)
        coarse = aggregate_users(system, tol=0.01)
        assert exact.n_classes == 5
        assert coarse.n_classes == 2
        np.testing.assert_array_equal(coarse.counts, [3, 2])
        # weighted demand is conserved under merging
        np.testing.assert_allclose(
            coarse.total_demand, system.total_arrival_rate, rtol=1e-12
        )

    def test_exact_grouping_demands_are_member_sums(self):
        rng = np.random.default_rng(11)
        phi = np.repeat(rng.uniform(0.5, 2.0, size=6), 4)
        rng.shuffle(phi)
        system = DistributedSystem(service_rates=[200.0], arrival_rates=phi)
        agg = aggregate_users(system)
        np.testing.assert_array_equal(
            agg.demands, np.bincount(agg.class_of, weights=phi)
        )

    def test_boundary_feasibility_survives_grouping(self):
        # Regression: demands were re-derived as ``class_rates * counts``,
        # whose rounding can exceed the true member-rate sum — a feasible
        # system with total capacity between the two sums then failed
        # aggregation with "aggregate demand must be strictly below total
        # capacity" even though the *system itself* was stable.
        for seed in range(400):
            rng = np.random.default_rng(seed)
            anchors = np.array([1.0, 2.0, 3.0])
            jitter = rng.uniform(0.0, 0.004, size=(3, 7))
            phi = (anchors[:, None] * (1.0 + jitter)).ravel()
            rng.shuffle(phi)
            probe = DistributedSystem(
                service_rates=[100.0], arrival_rates=phi
            )
            agg = aggregate_users(probe, tol=0.01)
            # Reconstruct the true member-rate segment sums independently
            # of the library (classes are the sorted-rate segments), then
            # the drifted re-derivation the old code used.
            sorted_phi = np.sort(phi, kind="stable")
            offsets = np.concatenate(([0], np.cumsum(agg.counts)))
            true_sums = np.array(
                [
                    float(sorted_phi[offsets[k]: offsets[k + 1]].sum())
                    for k in range(agg.n_classes)
                ]
            )
            rederived = float(((true_sums / agg.counts) * agg.counts).sum())
            member_sum = float(true_sums.sum())
            if rederived > max(member_sum, float(phi.sum())):
                break
        else:  # pragma: no cover - depends on float summation scheme
            pytest.skip("no drifting instance found")
        # Capacity sits exactly at the re-derived sum: the system and the
        # member-sum aggregation are feasible, the drifted one was not.
        boundary = DistributedSystem(
            service_rates=[rederived], arrival_rates=phi
        )
        agg = aggregate_users(boundary, tol=0.01)
        assert float(agg.demands.sum()) < rederived

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            aggregate_users(paper_table1_system(n_users=4), tol=-0.1)

    def test_rejects_unstable_demand(self):
        with pytest.raises(ValueError):
            ClassAggregation(
                service_rates=np.array([1.0]),
                class_rates=np.array([2.0]),
                counts=np.array([1]),
                demands=np.array([2.0]),
            )


class TestExpandContract:
    def test_expand_contract_roundtrip(self):
        system = random_system(np.random.default_rng(3), n_computers=4, n_users=12)
        agg = aggregate_users(system)
        f = agg.proportional_fractions()
        profile = agg.expand(f)
        assert isinstance(profile, StrategyProfile)
        assert profile.fractions.shape == (system.n_users, system.n_computers)
        np.testing.assert_allclose(agg.contract(profile), f, atol=1e-12)

    def test_expand_assigns_class_row_to_each_member(self):
        system = paper_table1_system(n_users=6)
        agg = aggregate_users(system)
        f = agg.proportional_fractions()
        profile = agg.expand(f)
        for j in range(system.n_users):
            np.testing.assert_array_equal(profile.fractions[j], f[0])

    def test_synthetic_aggregation_cannot_expand(self):
        agg = ClassAggregation(
            service_rates=np.array([10.0]),
            class_rates=np.array([1.0]),
            counts=np.array([3]),
            demands=np.array([3.0]),
        )
        with pytest.raises(ValueError, match="no user mapping"):
            agg.expand(np.array([[1.0]]))


class TestSingletonBitParity:
    """Singleton classes reduce to the per-user solver bit-for-bit."""

    @pytest.mark.parametrize("order", ["roundrobin", "random"])
    @pytest.mark.parametrize("init", ["zero", "proportional"])
    def test_bit_identical_to_per_user(self, order, init):
        base = random_system(np.random.default_rng(11), n_computers=4, n_users=8)
        # Distinct rates -> every class is a singleton.  Rates are sorted
        # so class index == user index (np.unique sorts): the class-space
        # Gauss-Seidel then visits the same schedule as the per-user one
        # and the trajectories must agree to the last bit.
        system = DistributedSystem(
            service_rates=base.service_rates,
            arrival_rates=np.sort(base.arrival_rates),
        )
        assert np.unique(system.arrival_rates).size == system.n_users
        agg = aggregate_users(system)
        assert agg.n_classes == system.n_users

        per_user = NashSolver(order=order, seed=5).solve(system, init)
        per_class = ClassNashSolver(order=order, seed=5).solve(agg, init)

        assert per_class.converged
        assert per_class.iterations == per_user.iterations
        np.testing.assert_array_equal(
            per_class.expand().fractions, per_user.profile.fractions
        )
        np.testing.assert_array_equal(
            np.asarray(per_class.norm_history),
            np.asarray(per_user.norm_history),
        )

    def test_simultaneous_order_bit_identical(self):
        base = random_system(np.random.default_rng(2), n_computers=4, n_users=6)
        system = DistributedSystem(
            service_rates=base.service_rates,
            arrival_rates=np.sort(base.arrival_rates),
        )
        agg = aggregate_users(system)
        per_user = NashSolver(order="simultaneous").solve(system, "zero")
        per_class = ClassNashSolver(order="simultaneous").solve(agg, "zero")
        assert per_class.iterations == per_user.iterations
        np.testing.assert_array_equal(
            per_class.expand().fractions, per_user.profile.fractions
        )

    @pytest.mark.parametrize("order", ["roundrobin", "random", "simultaneous"])
    def test_sampled_bit_identical_to_per_user(self, order):
        # sample_k=3 < n: sampled replies take one kernel per shape in
        # both spaces (the Jacobi sweep one sampled batch call).
        base = random_system(np.random.default_rng(11), n_computers=6, n_users=8)
        system = DistributedSystem(
            service_rates=base.service_rates,
            arrival_rates=np.sort(base.arrival_rates),
        )
        agg = aggregate_users(system)
        assert agg.n_classes == system.n_users
        config = dict(order=order, seed=5, sample_k=3, max_sweeps=60)
        per_user = NashSolver(**config).solve(system, "proportional")
        per_class = ClassNashSolver(**config).solve(agg, "proportional")

        assert per_class.iterations == per_user.iterations
        np.testing.assert_array_equal(
            per_class.expand().fractions, per_user.profile.fractions
        )
        np.testing.assert_array_equal(
            np.asarray(per_class.norm_history),
            np.asarray(per_user.norm_history),
        )
        assert per_class.sample.polls == per_user.sample.polls


class TestGroupedParity:
    def test_uniform_class_solve_matches_per_user_equilibrium(self):
        system = paper_table1_system(n_users=10, utilization=0.6)
        per_user = NashSolver(tolerance=1e-9).solve(system, "proportional")
        agg = aggregate_users(system)
        per_class = ClassNashSolver(tolerance=1e-9).solve(agg, "proportional")
        assert per_class.converged
        # Same equilibrium (it is unique), certified in user space.
        cert = best_response_regrets(system, per_class.expand())
        assert cert.epsilon <= 1e-6
        np.testing.assert_allclose(
            per_class.expand().fractions,
            per_user.profile.fractions,
            atol=1e-6,
        )

    def test_tolerance_grouping_epsilon_within_slack(self):
        rng = np.random.default_rng(9)
        base = rng.uniform(0.5, 2.0, size=6)
        phi = np.repeat(base, 4) * rng.uniform(1.0, 1.0005, size=24)
        system = DistributedSystem(
            service_rates=[40.0, 25.0, 15.0], arrival_rates=phi
        )
        agg = aggregate_users(system, tol=1e-3)
        assert agg.n_classes < system.n_users
        result = ClassNashSolver().solve(agg, "proportional")
        assert result.converged
        # user-space certificate degrades by O(tol), not more
        cert = best_response_regrets(system, result.expand())
        assert cert.epsilon <= 1e-2

    def test_class_certificate_matches_user_certificate_exact_grouping(self):
        system = random_system(np.random.default_rng(21), n_computers=4, n_users=10)
        agg = aggregate_users(system)
        result = ClassNashSolver().solve(agg, "proportional")
        class_cert = class_best_response_regrets(agg, result.class_fractions)
        user_cert = best_response_regrets(system, result.expand())
        np.testing.assert_allclose(
            class_cert.epsilon, user_cert.epsilon, atol=1e-12
        )
        assert class_cert.is_equilibrium(1e-6)


class TestMultiMemberClasses:
    def test_converges_and_certifies(self):
        system = paper_table1_system(n_users=32, utilization=0.7)
        agg = aggregate_users(system)
        assert agg.n_classes == 1  # uniform rates -> a genuinely fat class
        result = ClassNashSolver().solve(agg, "zero")
        assert result.converged
        cert = class_best_response_regrets(agg, result.class_fractions)
        assert cert.epsilon <= 1e-6

    def test_mixed_counts_reach_user_space_equilibrium(self):
        phi = np.array([1.0] * 5 + [2.5] * 3 + [0.4])
        system = DistributedSystem(
            service_rates=[30.0, 20.0, 10.0], arrival_rates=phi
        )
        agg = aggregate_users(system)
        np.testing.assert_array_equal(np.sort(agg.counts), [1, 3, 5])
        result = ClassNashSolver().solve(agg, "proportional")
        assert result.converged
        cert = best_response_regrets(system, result.expand())
        assert cert.epsilon <= 1e-6

    def test_infeasible_class_fill_raises(self):
        from repro.core.classes import _symmetric_class_fill

        with pytest.raises(InfeasibleDemand):
            _symmetric_class_fill(np.array([1.0, 0.5]), 2.0, 3)

    def test_symmetric_fill_degenerates_to_waterfill_for_count_one(self):
        from repro.core.best_response import optimal_fractions
        from repro.core.classes import _symmetric_class_fill

        m = np.array([9.0, 4.0, 1.0])
        demand = 2.5
        y, d = _symmetric_class_fill(m, demand, 1)
        reply = optimal_fractions(m, demand)
        np.testing.assert_allclose(y, reply.fractions * demand, atol=1e-12)

    def test_symmetric_fill_conserves_demand(self):
        from repro.core.classes import _symmetric_class_fill

        m = np.array([12.0, 7.0, 3.0, 0.5])
        for count in (1, 2, 5, 100):
            y, d = _symmetric_class_fill(m, 4.0, count)
            np.testing.assert_allclose(y.sum(), 4.0, rtol=1e-10)
            assert np.all(y >= 0.0)
            assert np.all(y <= m + 1e-12)
            assert d > 0.0


def _class_structured_system(
    n_users: int, n_computers: int, n_classes: int, utilization: float, seed: int
) -> DistributedSystem:
    """``n_users`` users drawn from ``n_classes`` distinct job rates."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(50.0, 150.0, size=n_computers)
    rates = rng.uniform(0.5, 2.0, size=n_classes)
    phi = rates[np.arange(n_users) % n_classes]
    phi = phi * (utilization * mu.sum() / phi.sum())
    return DistributedSystem(service_rates=mu, arrival_rates=phi)


class TestNewtonStop:
    """High-utilization exact class solves certify on the Newton polish.

    Both ran out the 500-sweep budget before the polish: the certificate
    shrank by about 0.08% per sweep and ended at 1.8e-6 and 1.2e-6.
    """

    @pytest.mark.parametrize(
        "shape",
        [(10_000, 64, 8, 0.95), (100_000, 128, 256, 0.9)],
        ids=["m1e4-n64-c8-u0.95", "m1e5-n128-c256-u0.9"],
    )
    def test_certifies_within_a_few_sweeps(self, shape):
        from repro.telemetry.sinks import InMemorySink
        from repro.telemetry.trace import Tracer

        aggregation = aggregate_users(_class_structured_system(*shape, 42))
        sink = InMemorySink()
        solver = ClassNashSolver()
        result = solver.solve(aggregation, tracer=Tracer(sink))
        assert result.converged
        assert result.iterations <= 8
        certificate = class_best_response_regrets(
            aggregation, result.class_fractions
        )
        assert certificate.epsilon <= solver.tolerance
        (done,) = [e for e in sink.events if e.name == "solver.done"]
        assert done.fields["stopped_by"] == "newton"
        polishes = [e for e in sink.events if e.name == "solver.polish"]
        assert polishes[-1].fields["outcome"] == "certified"
        assert polishes[-1].fields["epsilon"] == certificate.epsilon

    def test_failed_polish_falls_back_to_the_sweeps(self, monkeypatch):
        aggregation = aggregate_users(
            _class_structured_system(10_000, 64, 8, 0.95, 42)
        )
        monkeypatch.setattr(classes, "newton_polish", lambda *args: None)
        result = ClassNashSolver(max_sweeps=20).solve(aggregation)
        assert not result.converged
        assert result.iterations == 20

    def test_sampled_solves_never_polish(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a sample_k solve reached the polish")

        monkeypatch.setattr(classes, "newton_polish", unreachable)
        aggregation = aggregate_users(
            _class_structured_system(10_000, 64, 8, 0.95, 42)
        )
        for k in (2, aggregation.n_computers):
            ClassNashSolver(max_sweeps=4, sample_k=k).solve(aggregation)


class TestCertificateStop:
    """Multi-member exact solves also stop on the epsilon-Nash certificate."""

    @pytest.fixture
    def fat_classes(self) -> ClassAggregation:
        # Without the certificate stop this solve runs the whole 500-sweep
        # budget: its norm stalls around 1e-5 while epsilon stays < 1e-6.
        return aggregate_users(_class_structured_system(10_000, 64, 8, 0.9, 42))

    def test_stops_early_on_the_certificate(self, fat_classes):
        solver = ClassNashSolver()
        result = solver.solve(fat_classes)
        assert result.converged
        assert result.iterations <= 2
        assert result.final_norm > solver.tolerance  # not the norm rule
        certificate = class_best_response_regrets(
            fat_classes, result.class_fractions
        )
        assert certificate.epsilon <= solver.tolerance

    def test_only_truncates_the_budget_run(self, fat_classes, monkeypatch):
        solver = ClassNashSolver(max_sweeps=500, record_history=True)
        early = solver.solve(fat_classes)

        def unstable(aggregation, class_fractions):
            raise ValueError("class profile violates per-computer stability")

        # A ValueError counts as "not certified", so the run falls back to
        # the norm rule and spends the budget.
        monkeypatch.setattr(classes, "class_best_response_regrets", unstable)
        full = solver.solve(fat_classes)
        assert not full.converged
        assert full.iterations == 500

        np.testing.assert_array_equal(
            early.class_fractions, full.history[early.iterations - 1]
        )
        np.testing.assert_array_equal(
            early.norm_history, full.norm_history[: early.iterations]
        )
        for row, full_row in zip(early.history, full.history):
            np.testing.assert_array_equal(row, full_row)

    @pytest.mark.parametrize("case", ["per_user", "distinct_rates", "sampled"])
    def test_never_checked_where_it_must_not_be(
        self, case, fat_classes, monkeypatch
    ):
        calls: list[np.ndarray] = []
        real = classes.class_best_response_regrets

        def spy(aggregation, class_fractions):
            calls.append(np.array(class_fractions, copy=True))
            return real(aggregation, class_fractions)

        monkeypatch.setattr(classes, "class_best_response_regrets", spy)
        fat = fat_classes
        # Positive control: the spy sees the check of an exact fat solve.
        ClassNashSolver().run_sweeps(fat, fat.proportional_fractions())
        assert calls
        calls.clear()

        if case == "sampled":
            # Nor does the observed-regret stop use any full-information
            # quantity: no certificate, batch best reply or polish.
            def unreachable(*args, **kwargs):
                raise AssertionError("a sampled solve left its reply sets")

            monkeypatch.setattr(classes, "optimal_fractions_batch", unreachable)
            monkeypatch.setattr(classes, "newton_polish", unreachable)
            run = ClassNashSolver(sample_k=2).run_sweeps(
                fat, fat.proportional_fractions()
            )
            assert run.sample.sampled_epsilon is not None
            # The one certificate is the sample certificate's true
            # epsilon, taken once the sweeps have stopped.
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], run.fractions)
            return

        distinct = random_system(np.random.default_rng(3), n_computers=5, n_users=9)
        agg = aggregate_users(distinct)
        assert (agg.counts == 1).all()

        def sweep_iterates(stop):
            if case == "per_user":
                result = NashSolver(record_history=True, stop=stop).solve(
                    distinct
                )
                return [p.fractions for p in result.profile_history]
            solver = ClassNashSolver(record_history=True, stop=stop)
            return solver.run_sweeps(agg, agg.proportional_fractions()).history

        # The paper's rule never consults the certificate ...
        assert len(sweep_iterates("norm")) > 1
        assert calls == []
        # ... and the default checks it first on the sweep-1 iterate.
        history = sweep_iterates("certificate")
        assert calls
        np.testing.assert_array_equal(calls[0], history[0])


class TestSampledStop:
    """``sample_k < n`` solves with fat classes stop on the regret their
    classes observe over their reply sets.

    With the norm rule alone the shape below (a sampled op of the
    ``solve`` benchmark) runs out the 500-sweep budget: its norm stalls
    at 3-5e-6 while the true epsilon is below 1e-6 from sweep 1 on.
    """

    @pytest.fixture
    def sampled_shape(self) -> ClassAggregation:
        return aggregate_users(_class_structured_system(3162, 45, 4, 0.575, 1))

    def test_certifies_within_four_sweeps(self, sampled_shape):
        from repro.telemetry.sinks import InMemorySink
        from repro.telemetry.trace import Tracer

        sink = InMemorySink()
        solver = ClassNashSolver(sample_k=5)
        result = solver.solve(sampled_shape, tracer=Tracer(sink))
        assert result.converged
        assert result.iterations <= 4
        assert result.final_norm > solver.tolerance  # not the norm rule
        certificate = class_best_response_regrets(
            sampled_shape, result.class_fractions
        )
        assert certificate.epsilon <= solver.tolerance
        sample = result.sample
        assert sample.epsilon == certificate.epsilon
        assert sample.sampled_epsilon <= solver.tolerance
        (done,) = [e for e in sink.events if e.name == "solver.done"]
        assert done.fields["stopped_by"] == "observed"
        (event,) = [e for e in sink.events if e.name == "solver.sample"]
        assert event.fields["sampled_epsilon"] == sample.sampled_epsilon

    @pytest.mark.parametrize("order", ["roundrobin", "random"])
    def test_iterates_are_a_prefix_of_the_norm_run(self, sampled_shape, order):
        config = dict(sample_k=5, order=order, seed=1, record_history=True)
        stopped = ClassNashSolver(**config).solve(sampled_shape)
        full = ClassNashSolver(max_sweeps=40, stop="norm", **config).solve(
            sampled_shape
        )
        assert stopped.converged and stopped.iterations < full.iterations
        assert full.sample.sampled_epsilon is None
        np.testing.assert_array_equal(
            stopped.norm_history, full.norm_history[: stopped.iterations]
        )
        for row, full_row in zip(stopped.history, full.history):
            np.testing.assert_array_equal(row, full_row)
        np.testing.assert_array_equal(
            stopped.class_fractions, full.history[stopped.iterations - 1]
        )

    def test_observed_over_every_computer_is_the_certificate(
        self, sampled_shape
    ):
        agg = sampled_shape
        fractions = agg.proportional_fractions()
        flows = fractions * agg.demands[:, None]
        lam = flows.sum(axis=0)
        certificate = class_best_response_regrets(agg, fractions)
        everything = np.arange(agg.n_computers)
        for k in range(agg.n_classes):
            avail = agg.service_rates - lam + flows[k]
            regret = classes._observed_regret(
                avail, flows[k], agg.demands[k], agg.counts[k], everything
            )
            assert regret == pytest.approx(certificate.regrets[k], rel=1e-9)
        # A class with no flow yet (a cold start) has nothing to measure.
        cold = classes._observed_regret(
            avail, np.zeros(agg.n_computers), agg.demands[0], 2.0, everything
        )
        assert cold == np.inf

    @pytest.mark.parametrize("stop", ["certificate", "norm"])
    def test_simultaneous_sampled_classes_rejected(self, sampled_shape, stop):
        # Sampled Jacobi replies of multi-member classes oscillate and
        # used to run out the sweep budget unconverged.
        solver = ClassNashSolver(sample_k=5, order="simultaneous", stop=stop)
        with pytest.raises(ValueError, match="order='simultaneous'.*sample_k=5"):
            solver.solve(sampled_shape)
        # Without sampling, or with k >= n, the Jacobi order still runs.
        n = sampled_shape.n_computers
        for k in (None, n):
            ClassNashSolver(sample_k=k, order="simultaneous", max_sweeps=2).solve(
                sampled_shape
            )

    def test_per_user_sampled_solves_keep_the_norm_rule(self):
        system = random_system(np.random.default_rng(3), n_computers=8, n_users=9)
        default = NashSolver(sample_k=3).solve(system)
        paper = NashSolver(sample_k=3, stop="norm").solve(system)
        assert default.sample.sampled_epsilon is None
        assert default.iterations == paper.iterations
        np.testing.assert_array_equal(
            default.profile.fractions, paper.profile.fractions
        )


class TestSolverConfig:
    @pytest.mark.parametrize("seed", [-3, 1.5])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ClassNashSolver(seed=seed)
        with pytest.raises(ValueError, match="seed"):
            NashSolver(seed=seed)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            ClassNashSolver(tolerance=0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ClassNashSolver(order="sideways")

    def test_record_history(self):
        agg = aggregate_users(paper_table1_system(n_users=4))
        result = ClassNashSolver(record_history=True).solve(agg, "zero")
        assert result.history is not None
        assert len(result.history) == result.iterations


class TestTracing:
    def test_traced_run_reconstructs_norm_history(self, tmp_path):
        from repro.telemetry.analysis import reconstruct_norm_history
        from repro.telemetry.sinks import JsonlSink, read_trace
        from repro.telemetry.trace import Tracer

        path = tmp_path / "class.trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        agg = aggregate_users(paper_table1_system(n_users=10))
        result = ClassNashSolver().solve(agg, "zero", tracer=tracer)
        tracer.close()
        events = read_trace(path)
        assert reconstruct_norm_history(events) == list(result.norm_history)
        names = [event.name for event in events]
        assert names.count("solver.start") == 1
        assert names.count("solver.done") == 1

    @pytest.mark.parametrize(
        ("case", "stop", "stopped_by"),
        [
            ("distinct", "norm", "norm"),
            ("distinct", "certificate", "newton"),
            ("fat", "certificate", "certificate"),
            ("short", "norm", "budget"),
        ],
        ids=["distinct-norm", "distinct-newton", "fat-certificate", "short-budget"],
    )
    def test_done_event_says_why_the_solve_stopped(
        self, case, stop, stopped_by
    ):
        from repro.telemetry.sinks import InMemorySink
        from repro.telemetry.trace import Tracer

        if case == "fat":
            system = _class_structured_system(10_000, 64, 8, 0.9, 42)
        else:
            system = random_system(
                np.random.default_rng(3), n_computers=5, n_users=9
            )
        max_sweeps = 1 if case == "short" else 500
        sink = InMemorySink()
        result = ClassNashSolver(max_sweeps=max_sweeps, stop=stop).solve(
            aggregate_users(system), tracer=Tracer(sink)
        )
        (done,) = [e for e in sink.events if e.name == "solver.done"]
        assert done.fields["stopped_by"] == stopped_by
        assert done.fields["converged"] == result.converged

    def test_solver_summary_of_a_class_solve(self, tmp_path):
        from repro.telemetry.analysis import solver_summary
        from repro.telemetry.sinks import JsonlSink, read_trace
        from repro.telemetry.trace import Tracer

        path = tmp_path / "class.trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        agg = aggregate_users(paper_table1_system(n_users=10))
        result = ClassNashSolver().solve(agg, "zero", tracer=tracer)
        tracer.close()
        summary = solver_summary(read_trace(path))
        assert summary["n_solves"] == 1
        assert summary["classes"] == 1
        assert summary["users"] == 10
        assert summary["computers"] == agg.n_computers
        assert summary["compression"] == 10.0
        assert len(summary["sweeps"]) == result.iterations
        assert summary["norm_history"] == list(result.norm_history)
        assert summary["outcome"]["converged"] is result.converged
