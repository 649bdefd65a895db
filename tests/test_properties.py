"""Property tests: config JSON and points CSV round trips, merge order, and
stream seeding against numpy's SeedSequence."""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmpoly import (DiscMixture, EmpiricalSpectralDistribution,
                    ExperimentConfig, RngStream, UnitCircle, distance_report,
                    merge, read_points_csv, write_points_csv)
from rmpoly.matpoly import _trial_generators

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    regime = draw(st.sampled_from(["grow-n", "grow-k"]))
    swept = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4,
                          unique=True))
    fixed = [draw(st.integers(1, 8))]
    n_values, k_values = ((swept, fixed) if regime == "grow-n"
                          else (fixed, swept))
    largest = max(n * k for n in n_values for k in k_values)
    return ExperimentConfig(
        regime=regime, n_values=tuple(n_values), k_values=tuple(k_values),
        target_points=largest + draw(st.integers(0, 10 ** 6)),
        seed=draw(st.integers(0, 2 ** 63)),
        atom_radius=draw(st.floats(0.0, 1.0, exclude_min=True)),
        format=draw(st.sampled_from(["csv", "svg"])),
        workers=draw(st.integers(1, 8)))


@PROPERTY
@given(configs())
def test_config_json_round_trip(cfg):
    doc = json.loads(json.dumps(cfg.to_json_dict()))
    assert ExperimentConfig.from_json_dict(doc) == cfg


@PROPERTY
@given(st.lists(st.builds(complex, finite, finite), min_size=1))
@example([complex(-0.0, 5e-324), complex(1e300, -0.0),
          complex(-5e-324, -1e300)])
def test_points_csv_round_trip_is_bit_exact(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("csv") / "points.csv"
    pts = np.asarray(points, dtype=np.complex128)
    write_points_csv(pts, path)
    back = read_points_csv(path)
    assert back.view(np.uint64).tolist() == pts.view(np.uint64).tolist()


def _esd(points):
    return EmpiricalSpectralDistribution(points=np.asarray(points), scale=1.0,
                                         n=1, k=1, trials=len(points))


bounded = st.floats(-2.0, 2.0)


@PROPERTY
@given(st.lists(st.lists(st.builds(complex, bounded, bounded), min_size=1,
                         max_size=40), min_size=1, max_size=6),
       st.sampled_from([DiscMixture(1), DiscMixture(3), UnitCircle()]),
       st.randoms(use_true_random=False))
def test_distance_report_ignores_merge_order(chunks, law, rnd):
    # The far point keeps angular_ks defined (it drops moduli <= 0.5).
    chunks[0].append(1.5 + 0j)
    shuffled = chunks[:]
    rnd.shuffle(shuffled)
    first = distance_report(merge([_esd(c) for c in chunks]), law)
    second = distance_report(merge([_esd(c) for c in shuffled]), law)
    assert first == second


#: Seeds of one, two, three and five 32-bit words, and ``2**32 - 1``.
EDGE_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130 + 11)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2 ** 200))
keys = st.lists(st.one_of(st.integers(0, 2 ** 32 - 1),
                          st.integers(2 ** 32, 2 ** 80)),
                max_size=3).map(tuple)


@st.composite
def trial_ranges(draw):
    """``[lo, hi)`` around a chunk boundary of the harness (32, 128 or 512
    trials) or around the last trial index, ``2**32 - 1``."""
    edge = draw(st.sampled_from([32, 128, 512, 2 ** 32 - 3]))
    lo = edge - draw(st.integers(0, 3))
    return lo, min(edge + draw(st.integers(0, 3)), 2 ** 32)


def _normal_bits(g) -> list:
    return g.standard_normal(64).view(np.uint64).tolist()


#: Key indices after the trial's, shared by every trial: up to two words.
tails = st.one_of(st.just(()), st.just((0,)),
                  st.lists(st.one_of(st.integers(0, 2 ** 32 - 1),
                                     st.integers(2 ** 32, 2 ** 64 - 1)),
                           min_size=1, max_size=2).map(tuple))


@PROPERTY
@given(seeds, keys, trial_ranges(), tails)
@example(0, (), (0, 1), ())
@example(2 ** 130 + 11, (), (0, 1), ())
@example(2 ** 130 + 11, (2 ** 64 + 3, 0, 7), (2 ** 32 - 2, 2 ** 32), ())
@example(7, (2, 3), (0, 33), (0,))
@example(2 ** 32, (), (510, 514), (2 ** 32 - 1, 2 ** 64 - 1))
@example(2 ** 128 - 1, (), (0, 2), ())
@example(2 ** 128 - 1, (5,), (31, 33), (0,))
@example(2 ** 128, (), (0, 2), ())
@example(2 ** 128, (5,), (31, 33), (0,))
def test_trial_generators_match_seed_sequence(seed, key, bounds, tail):
    # ``generator`` is numpy's own SeedSequence and PCG64, one per stream.
    lo, hi = bounds
    got = [_normal_bits(g)
           for g in _trial_generators(RngStream(seed, key), lo, hi, *tail)]
    assert got == [_normal_bits(RngStream(seed, key + (t,) + tail).generator())
                   for t in range(lo, hi)]
