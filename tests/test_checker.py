"""Value iteration, scheduler extraction, and threshold verdicts."""

import gc
import math
import random
import sys
import weakref
from pathlib import Path

import pytest

from mdpdiag import (Atom, BudgetError, DomainError, Mdp, ParseError,
                     PathFormula, PropertySpec, Scheduler, ValueVector,
                     build_mdp, check_property, compute_pmax,
                     eval_state_formula, build_mipcx, extract_max_scheduler,
                     induce_dtmc, mass_exceeds, parse_explicit_model,
                     parse_program, parse_property)

from fixtures import MODELS, demo_mdp, demo_property, slow_exit_mdp
from oracles import (bounded_pmax_exact, dtmc_reach_exact, exhaustive_pmax,
                     random_mdp)

# the benchmark's input generators and its LP reference, read only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402
import workloads  # noqa: E402

PQ = PathFormula(Atom("p"), Atom("q"))


def sat_sets(m, psi):
    labels = m.label_map()
    sat1 = {s for s in m.states if eval_state_formula(labels, s, psi.left)}
    sat2 = {s for s in m.states if eval_state_formula(labels, s, psi.right)}
    return sat1, sat2


def coin_mdp():
    """pmax is exactly 0.5 and settles in one sweep."""
    return Mdp(3, 0, {
        (0, "flip"): [(1, 0.5), (2, 0.5)],
        (1, "stay"): [(1, 1.0)],
        (2, "stay"): [(2, 1.0)],
    }, labels={0: {"p"}, 1: {"q"}})


def trap_mdp():
    """A value-preserving self-loop competes with the real move."""
    return Mdp(2, 0, {
        (0, "loop"): [(0, 1.0)],
        (0, "go"): [(1, 1.0)],
        (1, "stay"): [(1, 1.0)],
    }, labels={0: {"p"}, 1: {"q"}})


def ring_mdp(n=9):
    """n `p` states in a cycle, each moving on with 0.9 and to the `q`
    goal with 0.1: one strongly connected component too large to solve
    exactly, so it is swept, and sweep k raises every state's value by
    0.1 * 0.9 ** (k - 1)."""
    transitions = {(s, "a"): [((s + 1) % n, 0.9), (n, 0.1)]
                   for s in range(n)}
    transitions[(n, "b")] = [(n, 1.0)]
    labels = {s: {"p"} for s in range(n)}
    labels[n] = {"q"}
    return Mdp(n + 1, 0, transitions, labels)


class TestComputePmax:
    def test_demo_value(self):
        vv = compute_pmax(demo_mdp(), demo_property().path)
        assert vv.values[0] == pytest.approx(0.882, abs=1e-9)

    def test_demo_per_state_values(self):
        vv = compute_pmax(demo_mdp(), demo_property().path)
        assert vv.values[1] == pytest.approx(1.0, abs=1e-9)
        assert vv.values[2] == pytest.approx(0.88, abs=1e-9)
        assert vv.values[4] == pytest.approx(0.8, abs=1e-9)
        for s in (3, 5, 7):
            assert vv.values[s] == 1.0

    def test_demo_target_and_zero_sets(self):
        vv = compute_pmax(demo_mdp(), demo_property().path)
        assert vv.target_states == {3, 5, 7}
        assert vv.zero_states == {6}
        assert vv.values[6] == 0.0

    def test_residual_below_epsilon(self):
        vv = compute_pmax(demo_mdp(), demo_property().path, epsilon=1e-10)
        assert vv.residual < 1e-10

    def test_zero_states_block_unreachable_mass(self):
        # q exists but is fenced off behind a non-p state
        m = Mdp(3, 0, {
            (0, "a"): [(1, 1.0)],
            (1, "a"): [(2, 1.0)],
            (2, "a"): [(2, 1.0)],
        }, labels={0: {"p"}, 2: {"q"}})
        vv = compute_pmax(m, PQ)
        assert vv.values[0] == 0.0
        assert vv.zero_states == {0, 1}

    def test_bounded_two_steps(self):
        psi = PathFormula(demo_property().path.left,
                          demo_property().path.right, bound=2)
        vv = compute_pmax(demo_mdp(), psi)
        assert vv.iterations == 2
        assert vv.values[0] == pytest.approx(0.642, abs=1e-9)

    def test_bounded_matches_step_dp_oracle(self):
        m = demo_mdp()
        interior, targets = sat_sets(m, demo_property().path)
        for bound in range(6):
            psi = PathFormula(demo_property().path.left,
                              demo_property().path.right, bound=bound)
            got = compute_pmax(m, psi).values
            want = bounded_pmax_exact(m, interior, targets, bound)
            assert got == pytest.approx(want, abs=1e-12)

    def test_bounded_zero_steps(self):
        psi = PathFormula(demo_property().path.left,
                          demo_property().path.right, bound=0)
        assert compute_pmax(demo_mdp(), psi).values[0] == 0.0

    def test_bound_three_already_saturates_demo(self):
        psi = PathFormula(demo_property().path.left,
                          demo_property().path.right, bound=3)
        assert compute_pmax(demo_mdp(), psi).values[0] == pytest.approx(
            0.882, abs=1e-12)

    def test_bounded_state_without_actions_gets_zero(self):
        # state 1 is a `p` state with no enabled action: the bounded
        # sweep used to take max() of no backups
        m = Mdp(3, 0, {(0, "a"): [(1, .5), (2, .5)]},
                {0: {"p"}, 1: {"p"}, 2: {"q"}})
        unbounded = compute_pmax(m, PQ)
        assert unbounded.values == [0.5, 0.0, 1.0]
        for bound in (1, 3):
            vv = compute_pmax(m, PathFormula(Atom("p"), Atom("q"),
                                             bound=bound))
            assert vv.values == unbounded.values
            assert vv.zero_states == unbounded.zero_states == {1}
        verdict = check_property(m, parse_property("P<=0.4 [ p U<=3 q ]"))
        assert not verdict.holds and verdict.pmax == 0.5
        witness = extract_max_scheduler(m, verdict.value_vector)
        assert witness.action_for(0) == m.action_id("a")

    def test_weak_until_rejected(self):
        # a path formula is an until; weak until does not parse
        with pytest.raises(ParseError, match="column 12: expected 'U'"):
            parse_property("P<=0.5 [ a W c ]")

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.inf, -math.inf,
                                     math.nan, 1.0, 2.0])
    def test_bad_epsilon_rejected(self, eps):
        # inf, 1 and 2 would stop after one sweep (a residual of
        # probabilities never exceeds 1), nan would never stop
        with pytest.raises(DomainError, match="epsilon"):
            compute_pmax(demo_mdp(), demo_property().path, epsilon=eps)
        with pytest.raises(DomainError, match="epsilon"):
            check_property(demo_mdp(), demo_property(), epsilon=eps)

    def test_iteration_budget(self):
        with pytest.raises(BudgetError):
            compute_pmax(ring_mdp(), PQ, epsilon=1e-12, max_iterations=5)

    def test_iteration_budget_reports_residual_reached(self):
        with pytest.raises(BudgetError) as info:
            compute_pmax(ring_mdp(), PQ, epsilon=1e-12, max_iterations=5)
        assert info.value.partial == pytest.approx(0.1 * 0.9 ** 4, abs=1e-15)
        assert "within 5 sweeps" in str(info.value)
        assert f"residual reached: {info.value.partial:.6g}" in str(info.value)

    def test_budget_spans_every_swept_component(self):
        # ring 0..8 leaks into ring 9..17, which leaks to the goal: two
        # swept components, whose sweeps share one budget
        transitions = {(s, "a"): [(s + 1 if s % 9 < 8 else s - 8, 0.9),
                                  (9 if s < 9 else 18, 0.1)]
                       for s in range(18)}
        transitions[(18, "b")] = [(18, 1.0)]
        labels = {s: {"p"} for s in range(18)}
        labels[18] = {"q"}
        m = Mdp(19, 0, transitions, labels)
        need = compute_pmax(m, PQ).iterations
        assert need > compute_pmax(ring_mdp(), PQ).iterations
        assert compute_pmax(m, PQ, max_iterations=need).iterations == need
        with pytest.raises(BudgetError, match=f"within {need - 1} sweeps"):
            compute_pmax(m, PQ, max_iterations=need - 1)

    def test_lone_state_needs_no_sweep(self):
        # a self-loop left with 0.1 is solved in closed form: no sweep
        # runs, so no budget binds, and the value is exact
        m = Mdp(2, 0, {
            (0, "a"): [(0, 0.9), (1, 0.1)],
            (1, "b"): [(1, 1.0)],
        }, labels={0: {"p"}, 1: {"q"}})
        vv = compute_pmax(m, PQ, epsilon=1e-12, max_iterations=0)
        assert vv.values == [1.0, 1.0]
        assert vv.iterations == 0 and vv.residual == 0.0

    @pytest.mark.parametrize("bad", [5, -1])
    def test_successor_out_of_range_is_a_domain_error(self, bad):
        # -1 once read the last state's value and reported Pmax = 1; the
        # Mdp constructor now rejects it before any value iteration
        needle = f"^state 0 has successor {bad} outside the states 0..1$"
        with pytest.raises(DomainError, match=needle):
            Mdp(2, 0, {(0, "a"): [(1, 0.5), (bad, 0.5)],
                       (1, "b"): [(1, 1.0)]},
                labels={0: {"p"}, 1: {"q"}})

    def test_zero_sweep_budget_still_raises(self):
        with pytest.raises(BudgetError) as info:
            compute_pmax(ring_mdp(), PQ, max_iterations=0)
        assert info.value.partial == float("inf")
        assert "within 0 sweeps" in str(info.value)

    @pytest.mark.parametrize("bad", [2.5, 5.0, True, False, -1, -3, None,
                                     "5"])
    def test_bad_iteration_budget_rejected(self, bad):
        # 2.5 ran 3 sweeps and then blamed "within 2.5 sweeps"; True read
        # "within True sweeps", -3 "within -3 sweeps"
        m = coin_mdp()
        with pytest.raises(DomainError, match="^max_iterations must be a "
                           "nonnegative int, got "):
            compute_pmax(m, PQ, max_iterations=bad)
        with pytest.raises(DomainError, match="max_iterations"):
            compute_pmax(m, PathFormula(Atom("p"), Atom("q"), bound=2),
                         max_iterations=bad)

    def test_matches_exhaustive_oracle_on_random_models(self):
        rng = random.Random(411)
        for _ in range(20):
            m = random_mdp(rng, max_states=5, max_actions=2)
            interior, targets = sat_sets(m, PQ)
            got = compute_pmax(m, PQ, epsilon=1e-9).values[m.init]
            want = exhaustive_pmax(m, interior, targets)
            # every component of at most 5 states is solved exactly
            assert got == pytest.approx(want, abs=1e-12)


class TestPmaxMemo:
    def test_second_call_returns_an_equal_private_copy(self, pmax_runs):
        m, psi = demo_mdp(), demo_property().path
        first = compute_pmax(m, psi)
        second = compute_pmax(m, psi)
        assert len(pmax_runs) == 1
        assert second == first
        assert second.values is not first.values
        first.values[0] = -1.0
        third = compute_pmax(m, psi)
        assert third.values == second.values
        assert third.values[0] == pytest.approx(0.882, abs=1e-9)

    def test_other_arguments_or_model_recompute(self, pmax_runs):
        m, psi = demo_mdp(), demo_property().path
        compute_pmax(m, psi)
        compute_pmax(m, psi, epsilon=1e-9)
        compute_pmax(m, psi, max_iterations=500)
        compute_pmax(m, PathFormula(psi.left, psi.right, bound=2))
        compute_pmax(demo_mdp(), psi)
        assert len(pmax_runs) == 5
        compute_pmax(m, PathFormula(psi.left, psi.right))
        compute_pmax(m, psi, epsilon=1e-9)
        assert len(pmax_runs) == 5

    def test_budget_error_is_not_memoized(self, pmax_runs):
        m = ring_mdp()
        for _ in range(2):
            with pytest.raises(BudgetError):
                compute_pmax(m, PQ, epsilon=1e-12, max_iterations=1)
        assert len(pmax_runs) == 2

    def test_check_then_build_shares_one_run(self, pmax_runs):
        m = demo_mdp()
        check_property(m, demo_property())
        build_mipcx(m, demo_property())
        assert len(pmax_runs) == 1

    def test_entry_dies_with_its_model(self):
        m = demo_mdp()
        check_property(m, demo_property())
        cx = build_mipcx(m, demo_property())
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None
        assert cx.total_mass == pytest.approx(0.6, abs=1e-12)


class TestSchedulerExtraction:
    def test_avoids_value_preserving_self_loop(self):
        m = trap_mdp()
        vv = compute_pmax(m, PQ)
        assert vv.values[0] == pytest.approx(1.0)
        sched = extract_max_scheduler(m, vv)
        assert sched.action_for(0) == m.action_id("go")
        d = induce_dtmc(m, sched)
        assert d.choices[0] == ((m.action_id("go"), ((1, 1.0),)),)

    def test_tie_breaks_to_lowest_action_id(self):
        m = Mdp(2, 0, {
            (0, "x"): [(1, 1.0)],
            (0, "y"): [(1, 1.0)],
            (1, "stay"): [(1, 1.0)],
        }, labels={0: {"p"}, 1: {"q"}})
        sched = extract_max_scheduler(m, compute_pmax(m, PQ))
        assert sched.action_for(0) == m.action_id("x") == 0

    def test_target_state_takes_lowest_enabled_action(self):
        m = Mdp(2, 0, {
            (0, "go"): [(1, 1.0)],
            (1, "b"): [(1, 1.0)],
            (1, "a"): [(0, 1.0)],
        }, labels={0: {"p"}, 1: {"q"}})
        sched = extract_max_scheduler(m, compute_pmax(m, PQ))
        assert sched.action_for(1) == m.action_id("b")

    def test_induced_chain_attains_pmax_on_random_models(self):
        rng = random.Random(900913)
        for _ in range(40):
            m = random_mdp(rng)
            interior, targets = sat_sets(m, PQ)
            vv = compute_pmax(m, PQ, epsilon=1e-9)
            sched = extract_max_scheduler(m, vv)
            d = induce_dtmc(m, sched)
            trans = {s: dist for s in d.states for _, dist in d.choices[s]}
            exact = dtmc_reach_exact(trans, targets, interior, m.num_states)
            assert exact[m.init] == pytest.approx(vv.values[m.init], abs=1e-6)

    def test_state_without_actions_gets_no_choice(self):
        m = Mdp(3, 0, {(0, "a"): [(1, 0.5), (2, 0.5)]},
                {0: {"p"}, 1: {"p"}, 2: {"q"}})
        vv = ValueVector([0.5, 0.25, 1.0], 0, 0.0, PQ, frozenset({2}),
                         frozenset())
        sched = extract_max_scheduler(m, vv)
        assert sched.choice == {0: m.action_id("a")}
        with pytest.raises(DomainError, match="undefined at state 1"):
            induce_dtmc(m, sched)


class TestCheckProperty:
    def test_demo_violated(self):
        m = demo_mdp()
        verdict = check_property(m, demo_property())
        assert not verdict.holds
        assert verdict.pmax == pytest.approx(0.882, abs=1e-9)
        assert verdict.threshold == 0.5
        assert verdict.comparison == "<="
        assert isinstance(extract_max_scheduler(m, verdict.value_vector),
                          Scheduler)
        assert "violated" in str(verdict)

    def test_holds_leaves_no_witness(self):
        m = demo_mdp()
        spec = parse_property("P<=0.9 [ (a|b) U (c&d) ]")
        verdict = check_property(m, spec)
        assert verdict.holds
        assert "holds" in str(verdict)
        with pytest.raises(DomainError, match="no counterexample to build"):
            build_mipcx(m, spec)

    def test_exact_threshold_boundary(self):
        m = coin_mdp()
        le = check_property(m, PropertySpec("<=", 0.5, PQ))
        lt = check_property(m, PropertySpec("<", 0.5, PQ))
        assert le.pmax == 0.5
        assert le.holds
        assert not lt.holds

    def test_threshold_printed_in_full(self):
        # a sure reach against a threshold just below 1: rounded to ten
        # digits, the threshold would read 1, like Pmax
        m = Mdp(2, 0, {(0, "a"): [(1, 1.0)], (1, "b"): [(1, 1.0)]},
                labels={1: {"g"}})
        verdict = check_property(
            m, parse_property("P<=0.99999999999 [ true U g ]"))
        assert not verdict.holds
        assert str(verdict) == "violated: Pmax = 1 vs <= 0.99999999999"

    def test_lower_threshold_comparison_rejected(self):
        with pytest.raises(DomainError, match="comparison"):
            PropertySpec(">=", 0.5, PQ)
        with pytest.raises(ParseError, match="column 2: .* after 'P'"):
            parse_property("P>=0.5 [ p U q ]")


class TestKnownWrongVerdicts:
    """Properties the checker once wrongly called holding: value iteration
    stopped at a small residual below Pmax where mass circulates in a
    cycle or self-loop that leaves it slowly. Each test asserts the right
    verdict; a strict xfail marks one still wrong, and a change that fixes
    one removes its mark. (i), (ii), (iv) and (vi) are solved exactly
    since the unbounded until is solved one strongly connected component
    at a time; (v) is one component of 751 states, which is swept."""

    def test_slow_self_loop(self):
        m = Mdp(3, 0, {(0, "a"): [(0, 1 - 1e-4), (1, 5e-5), (2, 5e-5)],
                       (1, "s"): [(1, 1.0)], (2, "s"): [(2, 1.0)]},
                labels={1: {"goal"}})
        spec = parse_property("P<=0.495 [ true U goal ]")
        assert not check_property(m, spec).holds

    def test_two_state_cycle(self):
        m = Mdp(3, 0, {(0, "a"): [(1, 0.95), (2, 0.05)],
                       (1, "b"): [(0, 1.0)], (2, "s"): [(2, 1.0)]},
                labels={0: {"ok"}, 1: {"ok"}, 2: {"goal"}})
        spec = parse_property("P<=0.999999 [ ok U goal ]")
        assert not check_property(m, spec).holds

    def test_slow_exit(self):
        spec = parse_property("P<=0.4999 [ ok U goal ]")
        assert not check_property(slow_exit_mdp(), spec).holds

    def test_csma(self):
        program = parse_program((MODELS / "csma.pm").read_text(), "csma")
        m, _ = build_mdp(program, {"K": 20})
        spec = parse_property('P<=0.9999995 [ !"gave_up" U "delivered_all" ]',
                              defined_labels=m.ap_names)
        assert not check_property(m, spec).holds

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="Pmax 0.8033756, LP reference 0.8033946")
    def test_random_sparse(self, tmp_path):
        # the benchmark's random-sparse input at seed 1019; the LP answer
        # must lie above the threshold, or this pins nothing
        tra, lab, _ = workloads.random_sparse(str(tmp_path), 1019)
        tra_text, lab_text = Path(tra).read_text(), Path(lab).read_text()
        exact = reference.pmax_lp(
            reference.parse_explicit(tra_text, lab_text),
            reference.Until(lambda aps: "ok" in aps,
                            lambda aps: "goal" in aps))
        if not exact > 0.803385:
            pytest.fail(f"LP reference {exact} is not above the threshold")
        m = parse_explicit_model(tra_text, lab_text)
        spec = parse_property("P<=0.803385 [ ok U goal ]")
        assert not check_property(m, spec).holds


class TestMassExceeds:
    def test_weak_inequality(self):
        spec = PropertySpec("<=", 0.5, PQ)
        assert not mass_exceeds(spec, 0.5)
        assert mass_exceeds(spec, 0.5 + 1e-9)

    def test_strict_inequality(self):
        spec = PropertySpec("<", 0.5, PQ)
        assert mass_exceeds(spec, 0.5)
        assert not mass_exceeds(spec, 0.5 - 1e-9)

    def test_lower_comparison_rejected(self):
        # so mass_exceeds never sees one
        with pytest.raises(DomainError):
            PropertySpec(">", 0.5, PQ)
