"""The BiGreedy repair sweep finds its closing price by bisection.

``_joint_precision_repair`` used to walk the sorted shadow-price breakpoints
from 0 upwards and stop at the first whose precision-maximising allocation
closes the deficit.  It now bisects for that breakpoint.  ``scan_repair``
below is the walk, kept as the oracle: the bisection must hand back the very
allocation the walk does — same keys, same floats — and the same ``None`` /
``InfeasibleProblemError`` outcomes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bigreedy
from repro.resilience.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.solvers.linear import InfeasibleProblemError


def closing_index(entries, target, required, alpha, retrieval_cost, evaluation_cost):
    """Index of the first price whose precision-rich optimum closes the deficit."""
    prices = [0.0] + bigreedy._precision_price_breakpoints(
        entries, alpha, retrieval_cost, evaluation_cost
    )
    for index, price in enumerate(prices):
        _, precision, _ = bigreedy._cheapest_recall_allocation(
            entries, price, target, alpha, retrieval_cost, evaluation_cost, True
        )
        if precision >= required - bigreedy._PRECISION_SLACK:
            return index, prices
    return None, prices


def scan_repair(
    entries, target, required, ceiling, alpha, retrieval_cost, evaluation_cost, offset=0
):
    """The linear sweep; ``offset=1`` answers from the closing price's upper neighbour."""
    if ceiling < required - 1e-7:
        raise InfeasibleProblemError("precision constraint unsatisfiable")
    index, prices = closing_index(
        entries, target, required, alpha, retrieval_cost, evaluation_cost
    )
    if index is None:
        return None
    price = prices[min(index + offset, len(prices) - 1)]
    high, high_precision, _ = bigreedy._cheapest_recall_allocation(
        entries, price, target, alpha, retrieval_cost, evaluation_cost, True
    )
    low, low_precision, _ = bigreedy._cheapest_recall_allocation(
        entries, price, target, alpha, retrieval_cost, evaluation_cost, False
    )
    if low_precision > required + 1e-6:
        return None
    if high_precision - low_precision <= bigreedy._EPS:
        return high
    theta = (required - low_precision) / (high_precision - low_precision)
    return bigreedy._blend(low, high, min(1.0, max(0.0, theta)))


def repair_arguments(entries, alpha, costs, recall_share, deficit_share):
    """Arguments as ``solve_bigreedy`` would pass them, deficit guaranteed."""
    retrieval_cost, evaluation_cost = costs
    target = recall_share * sum(rem * sel for _, rem, sel in entries)
    _, phase_one, _ = bigreedy._cheapest_recall_allocation(
        entries, 0.0, target, alpha, retrieval_cost, evaluation_cost, False
    )
    ceiling = sum(rem * sel * (1.0 - alpha) for _, rem, sel in entries)
    required = phase_one + deficit_share * (ceiling - phase_one)
    return entries, target, required, ceiling, alpha, retrieval_cost, evaluation_cost


def outcome(repair, arguments):
    try:
        return repair(*arguments)
    except InfeasibleProblemError:
        return "infeasible"


def corpus(seed=2015, size=400):
    """Seeded repair problems: every group count, tied selectivities, free evaluation."""
    rng = random.Random(seed)
    problems = []
    while len(problems) < size:
        k = rng.randint(1, 8)
        entries = [
            (key, float(rng.randint(1, 3000)),
             rng.choice([rng.random(), rng.random(), 0.0, 1.0, 0.5]))
            for key in range(k)
        ]
        alpha = rng.choice([0.5, 0.8, 0.01 + 0.98 * rng.random()])
        costs = rng.choice([(1.0, 3.0), (1.0, 0.0), (0.1 + rng.random(), 5 * rng.random())])
        arguments = repair_arguments(
            entries, alpha, costs, rng.random(), rng.choice([rng.random(), 1.0, 1e-9])
        )
        if arguments[3] > arguments[2] - 1e-7 and arguments[2] > 0.0:
            problems.append(arguments)
    return problems


CORPUS = corpus()


def disagreements(repair):
    return [
        arguments
        for arguments in CORPUS
        if outcome(repair, arguments) != outcome(scan_repair, arguments)
    ]


class TestBisectionReturnsTheScansAllocation:
    def test_on_the_seeded_corpus(self):
        assert disagreements(bigreedy._joint_precision_repair) == []

    def test_the_corpus_closes_at_price_zero_in_the_middle_and_at_the_last_breakpoint(self):
        where = set()
        for entries, target, required, _ceiling, alpha, o_r, o_e in CORPUS:
            index, prices = closing_index(entries, target, required, alpha, o_r, o_e)
            where.add(
                "first" if index == 0 else "last" if index == len(prices) - 1 else "middle"
            )
        assert where == {"first", "middle", "last"}

    def test_an_upper_neighbour_mutant_is_caught(self):
        # The off-by-one a bisection invites: answer from the breakpoint just
        # above the first closing one.  It still closes the deficit, it is
        # just not the cheapest — the corpus must tell the two apart, often.
        def mutant(*arguments):
            return scan_repair(*arguments, offset=1)

        assert len(disagreements(mutant)) > len(CORPUS) // 2

    def test_deficit_closing_at_price_zero(self):
        # Free evaluation: at price 0 evaluating ties with not evaluating, so
        # the precision-rich optimum already closes what the poor one leaves.
        arguments = repair_arguments(
            [("a", 100.0, 0.9), ("b", 100.0, 0.3)], 0.8, (1.0, 0.0), 0.9, 0.5
        )
        index, _ = closing_index(*arguments[:3], *arguments[4:])
        assert index == 0
        repaired = bigreedy._joint_precision_repair(*arguments)
        assert repaired == scan_repair(*arguments) and repaired is not None

    def test_deficit_closing_at_the_last_breakpoint(self):
        arguments = repair_arguments(
            [("a", 100.0, 0.6), ("b", 100.0, 0.3)], 0.8, (1.0, 3.0), 0.5, 1.0
        )
        index, prices = closing_index(*arguments[:3], *arguments[4:])
        assert index == len(prices) - 1 > 3
        repaired = bigreedy._joint_precision_repair(*arguments)
        assert repaired == scan_repair(*arguments)
        assert all(evaluated == 1.0 for _key, (_unevaluated, evaluated) in repaired.items())

    def test_tied_breakpoints(self):
        # Equal selectivities collapse many crossings onto a few prices.
        entries = [(key, 100.0 + key, 0.6) for key in range(6)] + [("low", 400.0, 0.2)]
        for deficit_share in (1e-9, 0.3, 0.7, 1.0):
            arguments = repair_arguments(entries, 0.7, (1.0, 3.0), 0.8, deficit_share)
            assert bigreedy._joint_precision_repair(*arguments) == scan_repair(*arguments)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=5000.0),
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=10,
        ),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        costs=st.sampled_from([(1.0, 3.0), (1.0, 0.0), (0.5, 0.5), (2.0, 7.0)]),
        recall_share=st.floats(min_value=0.0, max_value=1.0),
        deficit_share=st.one_of(
            st.sampled_from([1e-9, 1.0, 1.5]), st.floats(min_value=0.0, max_value=1.0)
        ),
    )
    def test_on_random_entries(self, entries, alpha, costs, recall_share, deficit_share):
        keyed = [(key, rem, sel) for key, (rem, sel) in enumerate(entries)]
        arguments = repair_arguments(keyed, alpha, costs, recall_share, deficit_share)
        assert outcome(bigreedy._joint_precision_repair, arguments) == outcome(
            scan_repair, arguments
        )


class TestOutcomesOtherThanAnAllocation:
    ENTRIES = [("a", 100.0, 0.9), ("b", 100.0, 0.3)]

    def test_a_ceiling_below_the_requirement_is_infeasible_before_any_evaluation(
        self, monkeypatch
    ):
        def no_evaluations(*args):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(bigreedy, "_cheapest_recall_allocation", no_evaluations)
        with pytest.raises(InfeasibleProblemError, match="precision constraint unsatisfiable"):
            bigreedy._joint_precision_repair(self.ENTRIES, 50.0, 30.0, 29.0, 0.8, 1.0, 3.0)

    def test_none_when_no_price_closes_the_deficit(self, monkeypatch):
        monkeypatch.setattr(
            bigreedy, "_cheapest_recall_allocation", lambda *args: ({}, 1.0, 0.0)
        )
        assert bigreedy._joint_precision_repair(self.ENTRIES, 50.0, 5.0, 9.0, 0.8, 1.0, 3.0) is None

    def test_none_when_rounding_broke_the_bracket(self, monkeypatch):
        # Every price closes, but even the precision-poor optimum overshoots.
        monkeypatch.setattr(
            bigreedy, "_cheapest_recall_allocation", lambda *args: ({"a": (1.0, 0.0)}, 7.0, 0.0)
        )
        assert bigreedy._joint_precision_repair(self.ENTRIES, 50.0, 5.0, 9.0, 0.8, 1.0, 3.0) is None

    def test_the_high_allocation_itself_when_the_face_is_a_point(self, monkeypatch):
        allocation = {"a": (0.25, 0.75)}
        monkeypatch.setattr(
            bigreedy, "_cheapest_recall_allocation", lambda *args: (allocation, 5.0, 0.0)
        )
        repaired = bigreedy._joint_precision_repair(self.ENTRIES, 50.0, 5.0, 9.0, 0.8, 1.0, 3.0)
        assert repaired is allocation


class TestTheSweepStaysCancellable:
    def test_a_deadline_check_sits_before_every_evaluation(self, monkeypatch):
        arguments = repair_arguments(
            [(key, 100.0 + key, 0.1 + 0.1 * key) for key in range(8)], 0.8, (1.0, 3.0), 0.6, 0.9
        )
        clock = [0.0]
        evaluations = []
        allocate = bigreedy._cheapest_recall_allocation

        def ticking(*args):
            evaluations.append(args[1])
            clock[0] += 1.0  # each evaluation "takes" a second
            return allocate(*args)

        monkeypatch.setattr(bigreedy, "_cheapest_recall_allocation", ticking)
        with deadline_scope(Deadline.after(2.5, clock=lambda: clock[0])):
            with pytest.raises(DeadlineExceeded) as expired:
                bigreedy._joint_precision_repair(*arguments)
        assert expired.value.where == "solve"
        assert len(evaluations) == 3  # cut off between evaluations, not after the sweep

        del evaluations[:]
        clock[0] = 0.0
        assert bigreedy._joint_precision_repair(*arguments) == scan_repair(*arguments)

    def test_the_search_is_logarithmic_in_the_breakpoints(self, monkeypatch):
        arguments = repair_arguments(
            [(key, 100.0 + key, 0.1 + 0.1 * key) for key in range(8)], 0.8, (1.0, 3.0), 0.6, 0.9
        )
        prices = bigreedy._precision_price_breakpoints(arguments[0], 0.8, 1.0, 3.0)
        calls = []
        allocate = bigreedy._cheapest_recall_allocation

        def counting(*args):
            calls.append(args[1])
            return allocate(*args)

        monkeypatch.setattr(bigreedy, "_cheapest_recall_allocation", counting)
        bigreedy._joint_precision_repair(*arguments)
        assert len(prices) > 60
        assert len(calls) <= (len(prices) + 1).bit_length() + 1  # bisection + the low optimum
