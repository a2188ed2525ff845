"""The batch rule, over every public entry that takes one comparison or a
batch of them. A batch is a stacked Dataset, or the NestedFits or
TrainTestPair built on one: a stacked batch of one gives the bits of the one
comparison, a failing row holds the error the comparison raises alone, and a
list of comparisons is no batch but a TypeError."""

import dataclasses
from typing import Callable

import numpy as np
import pytest

from mnri import glm, inference
from mnri.errors import FitError
from mnri.glm import LOGIT, PROBIT, Dataset, fit_nested, information_blocks
from mnri.reclass import HalfNRIs, TrainTestPair, half_nris

from conftest import stacked

# The TypeError's message names the stacked forms.
STACKED_FORMS = r"a Dataset whose y is a stack \(R, n\), or the NestedFits or TrainTestPair"


def dataset(n=300, p=2, q=1, link=LOGIT, seed=0, separated=False, wide=False):
    """Outcomes from the link on p - 1 base and q new normal columns; with
    ``separated`` the outcome is the sign of the first base column, and with
    ``wide`` the new columns are in units 1e200 times smaller."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p - 1))
    z = rng.standard_normal((n, q))
    y = (rng.random(n) < link.prob(-0.3 + 0.5 * x.sum(axis=1) + 0.3 * z[:, 0])).astype(float)
    if separated:
        y = (x[:, 0] > 0.0).astype(float)
    return Dataset(y=y, x=np.column_stack([np.ones(n), x]), z=z * 1e200 if wide else z)


def fits(link=LOGIT, **shape):
    return fit_nested(dataset(link=link, **shape), link)


def pair(link=LOGIT, train_n=300, **shape):
    train = fits(link, **{**shape, "n": train_n, "seed": 1 + shape.get("seed", 0)})
    return TrainTestPair(train_fits=train, test_fits=fits(link, **shape))


def stats(comparison):
    """``half_nris`` of one comparison or a batch; None for a list, so that
    the list reaches the test it is passed to."""
    return None if isinstance(comparison, list) else half_nris(comparison)


def bits(value):
    """A value's fields, arrays and numbers as their bytes, for exact comparison."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [bits(getattr(value, f.name))
                                      for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    if isinstance(value, str):
        return value
    return np.asarray(value, dtype=float).tobytes()


@dataclasses.dataclass(frozen=True)
class Entry:
    make: Callable  # one comparison of a given shape
    call: Callable  # the entry on one comparison or a batch
    fails: dict | None = None  # make's arguments for a comparison that fails
    row: Callable = lambda result, r: result[r]  # row r of a batch's result
    links: bool = True  # whether its comparisons carry a link


ENTRIES = {
    "fit_nested": Entry(dataset, lambda c: fit_nested(c, LOGIT), {"separated": True},
                        row=lambda result, r: result.errors.get(r) or glm._taken(result, r),
                        links=False),
    "information_blocks": Entry(fits, information_blocks, {"wide": True}),
    "half_nris": Entry(fits, half_nris,
                       row=lambda result, r: HalfNRIs(*(v[r] for v in vars(result).values()))),
    "test_mnri_single": Entry(fits, lambda c: inference.test_mnri_single(c, stats(c))),
    "test_mnri_train_test": Entry(pair, lambda c: inference.test_mnri_train_test(c, stats(c)),
                                  {"wide": True}),
    "test_nri_normal_legacy": Entry(pair,
                                    lambda c: inference.test_nri_normal_legacy(c, stats(c))),
}
# Pairs of shapes no stack can mix: the p case keeps p + q, the q case is
# of one n and p, and the link case of one n, p and q.
MIXED = {
    "n": ({"n": 300}, {"n": 320}),
    "p": ({"p": 2, "q": 2}, {"p": 3, "q": 1}),
    "q": ({"q": 1}, {"q": 3}),
    "link": ({}, {"link": PROBIT}),
}


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("link", [LOGIT, PROBIT], ids=["logit", "probit"])
def test_batch_of_one_gives_the_bits_of_one(name, link):
    entry = ENTRIES[name]
    comparison = entry.make(**({"link": link} if entry.links else {}))
    assert bits(entry.row(entry.call(stacked([comparison])), 0)) == bits(entry.call(comparison))


@pytest.mark.parametrize("name", [name for name, entry in ENTRIES.items() if entry.fails])
def test_one_failing_comparison_raises_what_a_batch_returns(name):
    entry = ENTRIES[name]
    failing = entry.make(**entry.fails)
    batch = entry.call(stacked([entry.make(), failing]))
    assert not isinstance(entry.row(batch, 0), FitError)
    with pytest.raises(FitError) as raised:
        entry.call(failing)
    got = entry.row(batch, 1)
    assert type(got) is type(raised.value)
    assert str(got) == str(raised.value)
    assert got.model == raised.value.model


@pytest.mark.parametrize("name", ENTRIES)
def test_list_is_rejected(name):
    comparison = ENTRIES[name].make()
    with pytest.raises(TypeError, match=STACKED_FORMS):
        ENTRIES[name].call([comparison, comparison])


# A stack holds one n, p, q and link by construction, so a batch that mixes
# them, or fits and pairs, can only be a list, and a list is refused.
@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for name, entry in ENTRIES.items() for kind in MIXED
     if entry.links or kind != "link"],
)
def test_mixed_batch_is_rejected(name, kind):
    entry = ENTRIES[name]
    batch = [entry.make(**shape) for shape in MIXED[kind]]
    with pytest.raises(TypeError, match=STACKED_FORMS):
        entry.call(batch)


@pytest.mark.parametrize("name", ["half_nris", "test_nri_normal_legacy"])
def test_batch_of_fits_and_pairs_is_rejected(name):
    with pytest.raises(TypeError, match=STACKED_FORMS):
        ENTRIES[name].call([fits(), pair()])


@pytest.mark.parametrize("name", ENTRIES)
def test_empty_batch_is_rejected(name):
    # An empty stack is refused where it is built, by Dataset.
    with pytest.raises(TypeError, match=STACKED_FORMS):
        ENTRIES[name].call([])


@pytest.mark.parametrize("name", ["half_nris", "test_mnri_train_test", "test_nri_normal_legacy"])
def test_pairs_may_differ_in_training_n(name):
    # A stacked pair whose training samples hold 450 observations and whose
    # test samples hold 300: each row gets the bits it gets alone.
    entry = ENTRIES[name]
    comparisons = [pair(train_n=450), pair(train_n=450, seed=2)]
    batch = entry.call(stacked(comparisons))
    for r, comparison in enumerate(comparisons):
        assert bits(entry.row(batch, r)) == bits(entry.call(comparison))


def test_pair_sides_hold_as_many_comparisons():
    # Row r of a pair's training fits goes with row r of its test fits, so
    # sides of different row counts are refused, not broadcast or cut short.
    batches = {count: fit_nested(stacked([dataset(seed=seed) for seed in range(count)]), LOGIT)
               for count in (1, 3, 5)}
    for train, test in ((batches[1], batches[5]), (batches[3], batches[5]),
                        (fits(), batches[5]), (batches[1], fits())):
        with pytest.raises(ValueError, match="as many comparisons"):
            TrainTestPair(train_fits=train, test_fits=test)
