"""The immutable value records: equality, hashing, repr, pickling, copying and
refused assignment, one pinned instance per record class."""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from ternary_ecc.channel import CapacityResult, ChannelSpec
from ternary_ecc.codec import BlockTrace, DecodeTrace
from ternary_ecc.construct import ConstructionPlan
from ternary_ecc.core import Code, WeightEnumerator, Word
from ternary_ecc.decode import DecodeResult, SimReport
from ternary_ecc.metric import AgreementProfile, LikelihoodBounds
from ternary_ecc.search import CliqueResult, SearchGraph


def _pinned():
    one = Word(2, (1,))
    outer = Code(2, 1, frozenset({one}))
    inner = {1: Code(2, 1, frozenset({Word(2, (0,))}))}
    # (instance, its pinned repr: name=value per field, in field order)
    return [
        (Word(3, (2, 0, 1)), "Word(q=3, symbols=(2, 0, 1))"),
        (
            Code(2, 3, frozenset({Word(2, (1, 0, 1))})),
            "Code(q=2, n=3, words=frozenset({Word(q=2, symbols=(1, 0, 1))}))",
        ),
        (WeightEnumerator(2, (1, 0, 1)), "WeightEnumerator(n=2, counts=(1, 0, 1))"),
        (AgreementProfile(1, 2, 3, 4), "AgreementProfile(s0=1, s1=2, s2=3, s3=4)"),
        (LikelihoodBounds(0.25, 0.5), "LikelihoodBounds(lower=0.25, upper=0.5)"),
        (ChannelSpec(3, 0.1), "ChannelSpec(q=3, p=0.1)"),
        (
            CapacityResult(0.5, 0.25),
            "CapacityResult(capacity_trits=0.5, p0_star=0.25, lam=None, "
            "method='closed-form', log_base=3)",
        ),
        (
            BlockTrace((1,), one, (0,), Word(2, (0,)), Word(3, (1,))),
            "BlockTrace(u1=(1,), x1_bar=Word(q=2, symbols=(1,)), u2=(0,), "
            "x2_bar=Word(q=2, symbols=(0,)), x=Word(q=3, symbols=(1,)))",
        ),
        (
            DecodeTrace(one, one, (1,), (None,), Word(2, (0,)), (0,), Word(3, (1,))),
            "DecodeTrace(y1_bar=Word(q=2, symbols=(1,)), x1_hat=Word(q=2, symbols=(1,)), "
            "u1_hat=(1,), y2_bar=(None,), x2_hat=Word(q=2, symbols=(0,)), u2_hat=(0,), "
            "x_hat=Word(q=3, symbols=(1,)))",
        ),
        (
            ConstructionPlan(outer, inner, 1),
            "ConstructionPlan(outer=Code(q=2, n=1, words=frozenset({Word(q=2, symbols=(1,))})), "
            "inner={1: Code(q=2, n=1, words=frozenset({Word(q=2, symbols=(0,))}))}, "
            "dbmin=1, q=3)",
        ),
        (
            DecodeResult(Word(3, (1, 0)), frozenset({Word(3, (1, 0))}), 1.0),
            "DecodeResult(chosen=Word(q=3, symbols=(1, 0)), "
            "minimizers=frozenset({Word(q=3, symbols=(1, 0))}), distance=1.0)",
        ),
        (
            SimReport(10, 2, 1, 0.1, "da", 7),
            "SimReport(trials=10, word_errors=2, undecodable=1, p=0.1, decoder='da', seed=7)",
        ),
        (
            SearchGraph((Word(3, (1,)),), (1,), (0,), 2),
            "SearchGraph(vertices=(Word(q=3, symbols=(1,)),), weights=(1,), adj=(0,), "
            "dbmin=2, word_symmetry=False)",
        ),
        (
            CliqueResult((Word(3, (1,)),), 1, True),
            "CliqueResult(members=(Word(q=3, symbols=(1,)),), total_weight=1, exact=True, "
            "seed=None, iterations=None)",
        ),
    ]


PINNED = _pinned()
IDS = [type(instance).__name__ for instance, _ in PINNED]


def _fields(record) -> tuple[str, ...]:
    """The record's field names: its constructor's parameters."""
    return tuple(inspect.signature(type(record)).parameters)


def _hash_or_none(record):
    """The record's hash, or None for one holding a dict (ConstructionPlan)."""
    try:
        return hash(record)
    except TypeError:
        return None


@pytest.mark.parametrize("instance, text", PINNED, ids=IDS)
class TestRecords:
    def test_repr_is_pinned(self, instance, text):
        assert repr(instance) == text

    @pytest.mark.parametrize(
        "duplicate",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_are_equal(self, instance, text, duplicate):
        again = duplicate(instance)
        assert type(again) is type(instance)
        assert again == instance and not again != instance
        assert _hash_or_none(again) == _hash_or_none(instance)
        assert repr(again) == text

    def test_fields_refuse_assignment_and_deletion(self, instance, text):
        for name in _fields(instance):
            value = getattr(instance, name)
            with pytest.raises(AttributeError):
                setattr(instance, name, value)
            with pytest.raises(AttributeError):
                delattr(instance, name)
            assert getattr(instance, name) is value
        with pytest.raises(AttributeError):
            instance.extra = 1

    def test_other_types_never_compare_equal(self, instance, text):
        assert instance != text
        assert instance.__eq__(text) is NotImplemented


def test_record_fields_are_the_constructor_arguments():
    # pickling and copying call the class with the field values in order
    for instance, _ in PINNED:
        assert _fields(instance) == instance._fields, type(instance).__name__


def test_code_equality_ignores_its_index():
    words = [Word(3, s) for s in ((2, 0, 1), (0, 1, 2), (1, 1, 0))]
    built, fresh = Code(3, 3, words), Code(3, 3, reversed(words))
    before = hash(built)
    assert built.sorted_words() == sorted(words)  # builds built's cached index
    assert built._index is not None and fresh._index is None
    assert built == fresh and hash(built) == hash(fresh) == before
    assert repr(built) == repr(fresh)
    again = pickle.loads(pickle.dumps(built))
    assert again == built and again._index is None


def test_records_hash_as_their_field_tuples():
    # a record hashes as its field tuple, so sets and dicts of records keep
    # the iteration order they had under the dataclass hash
    for instance, _ in PINNED:
        if _hash_or_none(instance) is not None:
            values = tuple(getattr(instance, name) for name in _fields(instance))
            assert hash(instance) == hash(values), type(instance).__name__

