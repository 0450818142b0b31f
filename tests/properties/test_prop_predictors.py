"""Property tests on the branch predictors' packed history and one-call
resolve.

* ``FoldedHistory`` packs every component's index and tag fold into one
  int per width.  On random geometries each unpacked fold must equal the
  from-scratch fold (``tests.conftest.refold``) after every push and
  after ``clear()``.
* ``Tage.resolve`` predicts, trains and counts in one call.  On random
  geometries it must match predict -> update -> record: the same
  prediction, the same ``stats`` and the same ``state_digest()`` after
  every branch.  ``update`` alone (its own lookup, no count) must
  leave the same state too.
"""

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.parity]

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.uarch.branch import Tage
from repro.uarch.branch.folded import FoldedHistory
from tests.conftest import refold


# --------------------------------------------------------------------------
# Packed folds equal the from-scratch fold.
# --------------------------------------------------------------------------

@st.composite
def fold_geometries(draw):
    """(history bits, lengths, widths).  The lengths always include one
    equal to the history length and one that is a multiple of the index
    width (when one fits), the cases where the outgoing bit lands on
    position 0 of a lane or the window covers the whole history."""
    history_bits = draw(st.integers(min_value=1, max_value=160))
    widths = (draw(st.integers(min_value=1, max_value=16)),
              draw(st.integers(min_value=1, max_value=16)))
    lengths = draw(st.lists(st.integers(min_value=1,
                                        max_value=history_bits),
                            min_size=0, max_size=6))
    lengths.append(history_bits)
    multiples = history_bits // widths[0]
    if multiples:
        factor = draw(st.integers(min_value=1, max_value=multiples))
        lengths.append(factor * widths[0])
    order = draw(st.permutations(lengths))
    return history_bits, list(order), widths


def _assert_folds_exact(history: FoldedHistory, lengths, widths) -> None:
    index_folds, tag_folds = history.folds()
    for component, length in enumerate(lengths):
        assert index_folds[component] == \
            refold(history.value, length, widths[0])
        assert tag_folds[component] == \
            refold(history.value, length, widths[1])


@settings(max_examples=150, deadline=None)
@given(fold_geometries(),
       st.lists(st.integers(min_value=0, max_value=1), max_size=400),
       st.lists(st.integers(min_value=0, max_value=1), max_size=60))
@example((128, [4, 8, 16, 32, 64, 128], (10, 9)), [1] * 300, [1, 0, 1])
@example((100, [5, 10, 20, 40, 100], (8, 7)), [1, 0] * 150, [1] * 10)
def test_packed_folds_equal_refold(geometry, bits, bits_after_clear):
    history_bits, lengths, widths = geometry
    history = FoldedHistory(history_bits, lengths, widths)
    for bit in bits:
        history.push(bit)
        _assert_folds_exact(history, lengths, widths)
    history.clear()
    assert history.value == 0
    _assert_folds_exact(history, lengths, widths)
    for bit in bits_after_clear:
        history.push(bit)
        _assert_folds_exact(history, lengths, widths)


# --------------------------------------------------------------------------
# resolve == predict -> update -> record.
# --------------------------------------------------------------------------

@st.composite
def tage_trios(draw):
    """Three identically built TAGEs, small enough that a short stream
    fills the tables (allocation and useful-bit decay run)."""
    min_history = draw(st.integers(min_value=1, max_value=8))
    kwargs = dict(
        n_components=draw(st.integers(min_value=1, max_value=7)),
        base_bits=draw(st.integers(min_value=1, max_value=8)),
        tagged_bits=draw(st.integers(min_value=1, max_value=6)),
        tag_bits=draw(st.integers(min_value=1, max_value=10)),
        min_history=min_history,
        max_history=draw(st.integers(min_value=min_history,
                                     max_value=130)))
    return tuple(Tage(**kwargs) for _ in range(3))


branch_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15).map(lambda n: n * 4),
              st.booleans(),
              st.booleans()),
    min_size=1, max_size=250)


@settings(max_examples=120, deadline=None)
@given(tage_trios(), branch_streams)
def test_resolve_matches_predict_update_record(trio, stream):
    """The third field adds a stray predict(): of another pc before
    resolve, which must not change what resolve does, and of the same pc
    before update, whose lookup that update (and no later one) reuses."""
    resolving, stepping, training = trio
    for pc, taken, stray in stream:
        if stray:
            resolving.predict(pc + 64)
        mispredicted = resolving.resolve(pc, taken)
        predicted = stepping.predict(pc)
        stepping.update(pc, taken)
        assert stepping.record(predicted, taken) == mispredicted
        assert (taken != mispredicted) == predicted
        assert resolving.stats == stepping.stats
        assert resolving.state_digest() == stepping.state_digest()
        if stray:
            training.predict(pc)
        training.update(pc, taken)
        assert training.state_digest() == resolving.state_digest()
