"""The batch rule, over every public entry that takes one comparison or a
batch of them: a batch of one gives the bits of the one comparison, one
failing comparison raises the error a batch returns in its place, and a
batch of mixed shape or of nothing is a ValueError."""

import dataclasses
from typing import Callable

import numpy as np
import pytest

from mnri import inference
from mnri.errors import FitError
from mnri.glm import LOGIT, PROBIT, Dataset, fit_nested, information_blocks
from mnri.reclass import HalfNRIs, TrainTestPair, half_nris


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
    train = fits(link, **{**shape, "n": train_n, "seed": 1})
    return TrainTestPair(train_fits=train, test_fits=fits(link, **shape))


def stats(comparison):
    """``half_nris`` of one comparison, or of a batch formed row by row, so
    that a mixed batch reaches the test it is passed to."""
    if isinstance(comparison, list):
        rows = np.array([list(vars(half_nris(c)).values()) for c in comparison]).reshape(-1, 4)
        return HalfNRIs(*rows.T)
    return half_nris(comparison)


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
    first: Callable = lambda result: result[0]  # a batch result's first row
    links: bool = True  # whether its comparisons carry a link


ENTRIES = {
    "fit_nested": Entry(dataset, lambda c: fit_nested(c, LOGIT), {"separated": True},
                        links=False),
    "information_blocks": Entry(fits, information_blocks, {"wide": True}),
    "half_nris": Entry(fits, half_nris,
                       first=lambda result: HalfNRIs(*(v[0] for v in vars(result).values()))),
    "test_mnri_single": Entry(fits, lambda c: inference.test_mnri_single(c, stats(c))),
    "test_mnri_train_test": Entry(pair, lambda c: inference.test_mnri_train_test(c, stats(c)),
                                  {"wide": True}),
    "test_nri_normal_legacy": Entry(pair,
                                    lambda c: inference.test_nri_normal_legacy(c, stats(c))),
}
# Pairs of shapes a batch may not mix: the p case keeps p + q, the q case is
# of one n and p, and the link case of one n, p and q, so that each stacks.
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
    assert bits(entry.first(entry.call([comparison]))) == bits(entry.call(comparison))


@pytest.mark.parametrize("name", [name for name, entry in ENTRIES.items() if entry.fails])
def test_one_failing_comparison_raises_what_a_batch_returns(name):
    entry = ENTRIES[name]
    failing = entry.make(**entry.fails)
    good = entry.make()
    batch = entry.call([good, failing])
    assert not isinstance(batch[0], FitError)
    with pytest.raises(FitError) as raised:
        entry.call(failing)
    assert type(batch[1]) is type(raised.value)
    assert str(batch[1]) == str(raised.value)
    assert batch[1].model == raised.value.model


@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for name, entry in ENTRIES.items() for kind in MIXED
     if entry.links or kind != "link"],
)
def test_mixed_batch_is_rejected(name, kind):
    entry = ENTRIES[name]
    batch = [entry.make(**shape) for shape in MIXED[kind]]
    with pytest.raises(ValueError, match="share n, p and q"):
        entry.call(batch)


@pytest.mark.parametrize("name", ["half_nris", "test_nri_normal_legacy"])
def test_batch_of_fits_and_pairs_is_rejected(name):
    with pytest.raises(ValueError, match="of one type"):
        ENTRIES[name].call([fits(), pair()])


@pytest.mark.parametrize("name", ENTRIES)
def test_empty_batch_is_rejected(name):
    with pytest.raises(ValueError, match="at least one dataset"):
        ENTRIES[name].call([])


@pytest.mark.parametrize("name", ["half_nris", "test_mnri_train_test", "test_nri_normal_legacy"])
def test_pairs_may_differ_in_training_n(name):
    # A pair's shape is its test sample's: each row of a batch whose training
    # samples differ in n gets the bits it gets alone.
    entry = ENTRIES[name]
    comparisons = [pair(train_n=300), pair(train_n=450, seed=2)]
    batch = entry.call(comparisons)
    for r, comparison in enumerate(comparisons):
        row = (HalfNRIs(*(v[r] for v in vars(batch).values())) if name == "half_nris"
               else batch[r])
        assert bits(row) == bits(entry.call(comparison))
