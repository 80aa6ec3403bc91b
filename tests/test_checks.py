import dataclasses
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmann import checks
from tmann.checks import Row, Section, settle_indices, worst_row
from tmann.iterate import BoundCheck
from tmann.rates import certify_rate
from tmann.sequences import builtin_example_schedule, validate_schedule_moduli

from conftest import row_bits

EXCESS = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([0.0, 1e-9, -1e-9, math.nan, math.inf, -math.inf]),
)


NAME = st.text(alphabet="abdnpux_(), <=", min_size=1, max_size=12)


def bound_check(name, worst_value, bound, at):
    return BoundCheck(name, worst_value - bound, at, bound=bound, worst_value=worst_value)


ROWS = st.one_of(
    st.builds(Row, NAME, EXCESS, st.none()),
    st.builds(Row, NAME, EXCESS, st.integers(0, 10**6)),
    st.builds(
        bound_check,
        NAME,
        st.floats(min_value=0.0, max_value=4.0),
        st.sampled_from([1.0, 2.0]),
        st.integers(0, 10**6),
    ),
)


@given(
    rows=st.lists(ROWS, min_size=1, max_size=6),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
)
def test_section_fails_exactly_when_a_rendered_row_is_violated(rows, tol):
    section = Section("title", tuple(rows), tol)
    title, *lines = section.summary().splitlines()
    assert title == "title" and len(lines) == len(rows)
    violated = [line.endswith("  VIOLATED") for line in lines]
    assert all(v or line.endswith("  ok") for v, line in zip(violated, lines))
    assert section.passed == (not any(violated))
    assert violated == [not row.worst_excess <= tol for row in rows]


def test_nan_row_fails_its_section():
    section = Section("t", (Row("a", -1.0, 3), Row("b", math.nan, 4)), 1e-9)
    assert not section.passed
    assert section.summary().splitlines()[2] == "  b  worst excess  nan (at n=4)  VIOLATED"


def test_worst_row_keeps_the_first_nan_and_its_place():
    row = worst_row("r", ([0.5, math.nan, 2.0, math.nan],))
    assert math.isnan(row.worst_excess) and row.at == 1
    assert worst_row("r", ([0.5, 2.0, 2.0],), at=lambda i: ("sample", i)).at == ("sample", 1)


#: Entries that tie, and that a running worst must order as ``argmax`` does.
TIES = st.sampled_from([math.nan, math.inf, -math.inf, 1.0, 0.0, -0.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(
    excess=st.lists(st.one_of(TIES, EXCESS), min_size=1, max_size=30),
    cuts=st.sets(st.integers(1, 29), max_size=8),
)
def test_worst_row_in_blocks_is_the_first_nan_or_first_largest_of_the_whole(excess, cuts):
    whole = np.array(excess)
    blocks = np.split(whole, sorted(c for c in cuts if c < len(whole)))
    nans = np.flatnonzero(np.isnan(whole))
    i = int(nans[0]) if nans.size else int(np.argmax(whole))
    assert row_bits(worst_row("r", iter(blocks))) == row_bits(Row("r", float(whole[i]), i))


def backward_scan(values, level) -> int:
    """Plain reference: step back from the end while the entry is at or
    below ``level``; where it stops is one past the last entry above it."""
    n = len(values)
    while n > 0 and values[n - 1] <= level:
        n -= 1
    return n


@settings(max_examples=80, deadline=None)
@given(
    block=st.sampled_from([checks.BLOCK_ROWS, 7]),
    blocks_and_extra=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    decay=st.floats(min_value=0.0, max_value=1.5),
    nans=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=2),
    levels=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=2.0),
            st.sampled_from([0.0, math.inf, -math.inf, math.nan]),
        ),
        max_size=6,
    ),
    at_level=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=5)),
        max_size=3,
    ),
    many=st.booleans(),
)
def test_settle_indices_equal_a_plain_backward_scan(
    block, blocks_and_extra, seed, decay, nans, levels, at_level, many
):
    # lengths 1, block - 1, block, block + 1 and 3 block + 5, with NaNs and
    # entries exactly at a level placed at drawn fractions of the sequence;
    # ``many`` adds levels 1/(k+1) up to 1,001 levels, as certification at
    # k_max = 1,000 reads
    if many:
        levels = levels + [1.0 / (k + 1) for k in range(1001 - len(levels))]
    count, extra = blocks_and_extra
    length = count * block + extra
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 3.0) * np.arange(1.0, length + 1.0) ** -decay
    place = lambda f: int(f * (length - 1))
    for f, k in at_level:
        if k < len(levels) and math.isfinite(levels[k]):
            values[place(f)] = levels[k]
    for f in nans:
        values[place(f)] = np.nan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "BLOCK_ROWS", block)
        got = settle_indices(values, levels)
    assert got == [backward_scan(values.tolist(), level) for level in levels]
    assert all(type(n) is int for n in got)


def test_settle_indices_of_an_empty_sequence_are_zero():
    assert settle_indices([], [0.5, math.nan]) == [0, 0]
    assert settle_indices([0.1, 0.9], []) == []


def test_a_named_sample_is_shown_only_on_a_violated_row():
    Sample = namedtuple("Sample", "n x")
    rows = (Row("ok", 0.0, Sample(3, 1.5)), Row("bad", 2.0, Sample(4, -0.5)))
    assert Section("t", rows, 0.0).summary().splitlines()[1:] == [
        "  ok   worst excess  0.000e+00  ok",
        "  bad  worst excess  2.000e+00 (at n=4, x=-0.5)  VIOLATED",
    ]


def test_rows_are_padded_to_the_longest_name():
    section = Section("t", (Row("ab", 0.0, None), Row("abcd", -1.0, 7)), 0.0)
    assert section.summary().splitlines()[1:] == [
        "  ab    worst excess  0.000e+00  ok",
        "  abcd  worst excess -1.000e+00 (at n=7)  ok",
    ]


#: Residuals 1/(n+1) for n <= 99: level k is met from index k on.
DECAYING = 1.0 / np.arange(1.0, 101.0)


def understated_schedule():
    """The example schedule with a sigma_beta that claims the beta product is
    below 1/(k+1) from index 0 on, which the oracle refutes."""
    return dataclasses.replace(builtin_example_schedule(0.5), sigma_beta=lambda k: 0)


@pytest.mark.parametrize(
    "record, status",
    [
        (lambda: Section("t", (Row("a", -1.0, 0), Row("b", 1e-3, 1)), 1e-9), "fail"),
        (lambda: Section("t", (Row("a", 1e-9, 0),), 1e-9), "pass"),
        (lambda: certify_rate(DECAYING, lambda k: 0, 3), "fail"),
        (lambda: certify_rate(DECAYING, lambda k: 10**6, 3), "inconclusive"),
        (lambda: certify_rate(DECAYING, lambda k: k, 3), "pass"),
        (lambda: certify_rate(DECAYING, lambda k: 60 * k, 3), "pass"),
        (lambda: validate_schedule_moduli(understated_schedule(), k_max=5, horizon=1000), "fail"),
    ],
    ids=[
        "section_row_above_tol", "section_rows_within_tol", "rate_too_small",
        "rate_past_horizon", "rate_met", "rate_met_then_past_horizon", "understated_modulus",
    ],
)
def test_every_report_record_answers_status_and_summary(record, status):
    record = record()
    assert record.status == status
    assert isinstance(record.summary(), str)
