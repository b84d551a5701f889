"""The vectorised trial sampler against numpy.random, trial by trial.

``ionphoton._substream`` replicates numpy's SeedSequence mixing and its
PCG64 seeding and output.  Each stage is checked against numpy on its
own, so a failure names the algorithm that no longer matches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionphoton import _substream

import oracles

SEEDS = [0, 1, 7, 99, 2**32 - 1, 2**32, 2**63, 0x9E3779B97F4A7C15,
         2**64 + 5, 2**128 + 3, 2**200 + 11]
KEYS = [*range(300), 1000, 2**31, 2**32 - 1]


def lane_words(seed, keys) -> np.ndarray:
    return _substream.state_words(_substream.seed_prefix(seed), np.asarray(keys, np.uint32))


def numpy_words(seed, keys) -> np.ndarray:
    return np.stack([
        np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)
        for k in keys
    ], axis=1)


def oracle_draws(seed, keys) -> np.ndarray:
    """Rows u1, u2: each trial's first two Generator.random() calls."""
    def first_two(k):
        rng = oracles.trial_rng(seed, k)
        return rng.random(), rng.random()
    return np.array([first_two(k) for k in keys]).T


def assert_words_match(seed, keys):
    lanes, expected = lane_words(seed, keys), numpy_words(seed, keys)
    bad = np.flatnonzero((lanes != expected).any(axis=0))
    assert bad.size == 0, (
        f"numpy's SeedSequence mixing changed: seed {seed}, spawn key {keys[bad[0]]}"
    )


def assert_pcg64_matches(seed, keys):
    # numpy's own state words in, so only the PCG64 stage is compared
    u1, u2 = _substream.first_two_uniforms(numpy_words(seed, keys))
    expected = np.array([
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(k,)))).random(2)
        for k in keys
    ]).T
    bad = np.flatnonzero((u1 != expected[0]) | (u2 != expected[1]))
    assert bad.size == 0, (
        f"numpy's PCG64 seeding or output changed: seed {seed}, spawn key {keys[bad[0]]}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_sequence_words_match_numpy(seed):
    assert_words_match(seed, KEYS)


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_draws_match_numpy(seed):
    assert_pcg64_matches(seed, KEYS)


@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_follow_the_substream_rule(seed):
    u1, u2 = _substream.first_two_uniforms(lane_words(seed, KEYS))
    expected = oracle_draws(seed, KEYS)
    assert np.array_equal(u1, expected[0]) and np.array_equal(u2, expected[1])


def test_hundred_thousand_trials_at_a_multiword_seed():
    seed = 0x0123456789ABCDEF_FEDCBA9876543210_5A5A5A5A
    keys = np.arange(100_000, dtype=np.uint32)
    u1, u2 = _substream.first_two_uniforms(lane_words(seed, keys))
    expected = oracle_draws(seed, range(len(keys)))
    bad = np.flatnonzero((u1 != expected[0]) | (u2 != expected[1]))
    assert bad.size == 0, f"trial {bad[0]} differs from the substream rule"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**256),
    keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
)
def test_random_seeds_and_keys_match_numpy(seed, keys):
    assert_words_match(seed, keys)
    assert_pcg64_matches(seed, keys)
