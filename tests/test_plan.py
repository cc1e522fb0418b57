"""Receptive-field arithmetic and plan enumeration, including the published
sequence/RF pairs the implementation must reproduce exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsknet.errors import PlanError, ShapeError
from lsknet.ops import ConvSpec
from lsknet.plan import enumerate_plans, validate_plan


class TestValidate:
    def test_two_stage_rf_23(self):
        plan = validate_plan([(5, 1), (7, 3)])
        assert plan.rf_per_stage == (5, 23)

    def test_three_stage_rf_29(self):
        plan = validate_plan([(3, 1), (5, 2), (7, 3)])
        assert plan.rf_per_stage == (3, 11, 29)

    def test_two_stage_rf_29(self):
        plan = validate_plan([(5, 1), (7, 4)])
        assert plan.rf_per_stage == (5, 29)  # 5 + 4*6

    def test_single_large_kernel(self):
        assert validate_plan([(23, 1)]).rf_per_stage == (23,)
        assert validate_plan([(29, 1)]).rf_per_stage == (29,)

    def test_dilation_exceeding_previous_rf(self):
        with pytest.raises(PlanError, match=r"d_2=4 > RF_1=3"):
            validate_plan([(3, 1), (5, 4)])

    def test_first_dilation_must_be_one(self):
        with pytest.raises(PlanError, match="d_1"):
            validate_plan([(3, 2)])

    def test_decreasing_kernel_rejected(self):
        with pytest.raises(PlanError, match="non-decreasing"):
            validate_plan([(5, 1), (3, 2)])

    def test_non_increasing_dilation_rejected(self):
        with pytest.raises(PlanError, match="strictly increasing"):
            validate_plan([(3, 1), (5, 1)])

    def test_even_kernel_rejected(self):
        with pytest.raises(PlanError, match="odd"):
            validate_plan([(4, 1)])

    def test_empty_rejected(self):
        with pytest.raises(PlanError, match="at least one"):
            validate_plan([])

    def test_accepts_convspec_instances(self):
        plan = validate_plan([ConvSpec(3, 1), ConvSpec(3, 2)])
        assert plan.rf == 7
        # a valid conv spec is not always a valid plan stage
        with pytest.raises(PlanError, match="odd integer >= 3"):
            validate_plan([ConvSpec(1, 1)])


class TestEnumerate:
    def test_target_23_contains_table_rows(self):
        plans = enumerate_plans(23, max_stages=2, max_k=23)
        seqs = [p.sequence() for p in plans]
        assert ((23, 1),) in seqs
        assert ((5, 1), (7, 3)) in seqs
        # the decomposed sequence must rank cheaper than the single kernel
        assert seqs.index(((5, 1), (7, 3))) < seqs.index(((23, 1),))

    def test_single_kernel_never_cheapest_at_23_or_more(self):
        for target in (23, 29, 35):
            plans = enumerate_plans(target, max_stages=3, max_k=target)
            assert plans[0].n_kernels > 1

    def test_minimal_target(self):
        plans = enumerate_plans(3, max_stages=1, max_k=3)
        assert [p.sequence() for p in plans] == [((3, 1),)]

    def test_target_29_contains_all_three_studied_sequences(self):
        plans = enumerate_plans(29, max_stages=3, max_k=29)
        seqs = {p.sequence() for p in plans}
        assert ((29, 1),) in seqs
        assert ((5, 1), (7, 4)) in seqs
        assert ((3, 1), (5, 2), (7, 3)) in seqs

    def test_infeasible_even_target_is_empty(self):
        assert enumerate_plans(2, max_stages=3, max_k=23) == []
        assert enumerate_plans(4, max_stages=3, max_k=23) == []

    def test_every_result_is_valid_and_hits_target(self):
        for plan in enumerate_plans(29, max_stages=3, max_k=29):
            revalidated = validate_plan(plan.stages)
            assert revalidated.rf == 29

    def test_deterministic_order(self):
        a = enumerate_plans(23, 3, 23)
        b = enumerate_plans(23, 3, 23)
        assert [p.sequence() for p in a] == [p.sequence() for p in b]


@settings(max_examples=60, deadline=None)
@given(
    k1=st.sampled_from([3, 5, 7]),
    dk=st.sampled_from([0, 2]),
    d2=st.integers(min_value=2, max_value=7),
)
def test_rf_recursion_is_exact_integer_math(k1, dk, d2):
    """Whenever the constraints admit the pair, RF_2 = d2*(k2-1) + k1 exactly."""
    k2 = k1 + dk
    if d2 > k1:  # would violate the dilation upper bound
        with pytest.raises(PlanError):
            validate_plan([(k1, 1), (k2, d2)])
    else:
        plan = validate_plan([(k1, 1), (k2, d2)])
        assert plan.rf_per_stage == (k1, d2 * (k2 - 1) + k1)


# stages that are not (k, d) pairs: no iterable, or one of another length
NOT_PAIRS = st.one_of(
    st.none(),
    st.integers(),
    st.floats(),
    st.text(max_size=1),
    st.tuples(st.integers(3, 9)),
    st.tuples(st.integers(3, 9), st.integers(1, 3), st.integers(1, 3)),
)


@settings(max_examples=90, deadline=None)
@given(
    bad=st.one_of(st.floats(), st.booleans()),
    slot=st.sampled_from(["k", "d", "pair"]),
    not_pair=NOT_PAIRS,
    second=st.booleans(),
)
def test_non_integer_stage_values_are_refused(bad, slot, not_pair, second):
    """A float (3.0 included) or a bool as a kernel size or a dilation, in the
    first or a later stage, is a PlanError naming the slot, and a ConvSpec
    refuses it with a ShapeError.  A stage that is not a (k, d) pair is a
    PlanError naming the stage, and a plan that is no sequence at all one
    saying so."""
    if slot == "pair":
        plan = [(3, 1), not_pair] if second else [not_pair]
        with pytest.raises(PlanError, match=rf"^stage {len(plan)} must be a \(k, d\) pair or a ConvSpec, got "):
            validate_plan(plan)
        if not isinstance(not_pair, (str, tuple)):
            with pytest.raises(PlanError, match="^a decomposition plan must be a sequence of stages, got "):
                validate_plan(not_pair)
        return
    stage = (bad, 2 if second else 1) if slot == "k" else (5 if second else 3, bad)
    with pytest.raises(PlanError, match=f"must be an integer, got {slot}="):
        validate_plan([(3, 1), stage] if second else [stage])
    with pytest.raises(ShapeError, match="must be an integer"):
        ConvSpec(*((bad, 1) if slot == "k" else (3, bad)))


def test_numpy_integer_stage_values_are_stored_as_ints():
    plan = validate_plan([(np.int64(3), np.int32(1)), (np.int16(5), np.uint8(2))])
    assert [type(v) for spec in plan.stages for v in (spec.kernel, spec.dilation)] == [int] * 4
    assert plan.rf_per_stage == (3, 11) and str(plan) == "(3,1) -> (5,2)"


def test_plan_logic_is_input_independent():
    """Plan search depends only on the integer arguments; calling twice (or
    after unrelated numeric work) changes nothing."""
    import numpy as np

    before = [p.sequence() for p in enumerate_plans(23, 2, 23)]
    np.random.default_rng(0).standard_normal(100) * 3.7
    after = [p.sequence() for p in enumerate_plans(23, 2, 23)]
    assert before == after
