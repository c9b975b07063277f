"""Integration tests for the ready-made workflow specifications."""

from repro.constraints.algebra import absent, must, order
from repro.constraints.klein import klein_order
from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.core.engine import WorkflowEngine
from repro.core.verify import is_redundant, verify_property
from repro.ctr.formulas import atoms, event_names
from repro.ctr.pretty import pretty
from repro.db.state import Database
from repro.workflows.figure1 import (
    example_5_7,
    figure1_constraints,
    figure1_goal,
    figure1_graph,
)
from repro.workflows.orders import INVENTORY, PAYMENT, SHIPPING, orders_specification
from repro.workflows.registration import registration_specification
from repro.workflows.trip import trip_specification


class TestFigure1:
    def test_graph_terminals(self):
        g = figure1_graph()
        assert g.initial == "a" and g.final == "k"

    def test_goal_matches_formula_1(self):
        text = pretty(figure1_goal())
        assert text == (
            "a * (cond1? * b * (e + d * cond3? * h) * j"
            " | cond2? * c * (g * cond5? + f * i * cond4?)) * k"
        )

    def test_compiles_consistently(self):
        compiled = compile_workflow(figure1_goal(), figure1_constraints())
        assert compiled.consistent

    def test_all_schedules_satisfy_constraints(self):
        compiled = compile_workflow(figure1_goal(), figure1_constraints())
        for schedule in compiled.schedules():
            for constraint in figure1_constraints():
                assert satisfies(schedule, constraint)

    def test_example_5_7_excises_to_gamma_eta(self):
        goal, constraints = example_5_7()
        compiled = compile_workflow(goal, constraints)
        gamma, eta = atoms("gamma eta")
        assert compiled.goal == gamma >> eta
        assert list(compiled.schedules()) == [("gamma", "eta")]


class TestTrip:
    def test_consistent(self):
        goal, constraints = trip_specification()
        assert compile_workflow(goal, constraints).consistent

    def test_no_car_without_flight(self):
        goal, constraints = trip_specification()
        prop = klein_order("reserve_flight", "rent_car")
        # Weaker than the constraint set implies; verify it holds.
        assert verify_property(goal, constraints, prop).holds

    def test_train_forbids_refundable_upgrade(self):
        goal, constraints = trip_specification()
        for schedule in compile_workflow(goal, constraints).schedules():
            assert not (
                "book_train" in schedule and "upgrade_refundable" in schedule
            )

    def test_hotel_always_before_charge(self):
        goal, constraints = trip_specification()
        assert verify_property(goal, constraints, order("book_hotel", "charge_card")).holds

    def test_payment_is_contiguous(self):
        goal, constraints = trip_specification()
        for schedule in compile_workflow(goal, constraints).schedules():
            i = schedule.index("charge_card")
            assert schedule[i + 1] == "issue_voucher"


class TestOrders:
    def test_consistent(self):
        goal, constraints = orders_specification()
        assert compile_workflow(goal, constraints).consistent

    def test_no_shipping_after_payment_abort(self):
        goal, constraints = orders_specification()
        prop = absent(SHIPPING.commit)
        # Not universally true; but with payment aborted it must be.
        for schedule in compile_workflow(goal, constraints).schedules(limit=100_000):
            if PAYMENT.abort in schedule:
                assert SHIPPING.commit not in schedule

    def test_shipping_waits_for_both_commits(self):
        goal, constraints = orders_specification()
        for schedule in compile_workflow(goal, constraints).schedules(limit=100_000):
            if SHIPPING.start in schedule:
                assert schedule.index(PAYMENT.commit) < schedule.index(SHIPPING.start)
                assert schedule.index(INVENTORY.commit) < schedule.index(SHIPPING.start)

    def test_trigger_gated_at_runtime(self):
        goal, constraints = orders_specification(with_triggers=True)
        compiled = compile_workflow(goal, constraints)

        db = Database()  # stock not low: restock must not fire
        engine = WorkflowEngine(compiled, db=db)
        report = engine.run()
        assert "restock" not in report.schedule

        db_low = Database()
        db_low.insert("stock_low", "yes")
        engine2 = WorkflowEngine(compiled, db=db_low)
        report2 = engine2.run()
        if INVENTORY.commit in report2.schedule:
            assert "restock" in report2.schedule


class TestRegistration:
    def test_consistent(self):
        goal, constraints, rules = registration_specification()
        assert compile_workflow(goal, constraints, rules=rules).consistent

    def test_subworkflows_expanded(self):
        goal, constraints, rules = registration_specification()
        compiled = compile_workflow(goal, constraints, rules=rules)
        assert "meet_advisor" in event_names(compiled.source)
        assert "advising" not in event_names(compiled.source)

    def test_ra_holders_never_pay_late_fee(self):
        goal, constraints, rules = registration_specification()
        compiled = compile_workflow(goal, constraints, rules=rules)
        for schedule in compiled.schedules(limit=100_000):
            assert not ("apply_ra" in schedule and "pay_late_fee" in schedule)

    def test_tuition_always_paid(self):
        goal, constraints, rules = registration_specification()
        assert verify_property(goal, constraints, must("pay_tuition"), rules=rules).holds

    def test_plan_signed_before_funding(self):
        goal, constraints, rules = registration_specification()
        # Klein's conditional order: accept_offer need not occur (the
        # self-funded path), but when it does, the plan was signed first.
        assert verify_property(
            goal, constraints, klein_order("sign_plan", "accept_offer"), rules=rules
        ).holds

    def test_self_funded_path_exists(self):
        goal, constraints, rules = registration_specification()
        compiled = compile_workflow(goal, constraints, rules=rules)
        assert any(
            "self_funded" in s for s in compiled.schedules(limit=100_000)
        )
