"""Named random streams: each stream's draws, and one derivation site."""

from pathlib import Path

import numpy as np
import pytest

from disembed import streams
from disembed.trainer import VariantConfig, build_model

# the first raw 64-bit output of every stream (index 0 where it takes one),
# computed with the hand derivations the streams replaced:
#   split        default_rng(s)
#   init         default_rng(np.uint64(s)), which overflows past 2**64 - 1;
#                default_rng(s) for the larger seed
#   centroids    default_rng(SeedSequence([s, 1]))
#   tracks       default_rng(SeedSequence([s, 2]))
#   batches      default_rng(SeedSequence([s, 3, epoch]))
#   validation   default_rng(SeedSequence([s, 101]))
#   eval_tags    default_rng(SeedSequence([s, 11, notion]))
#   eval_tracks  default_rng(SeedSequence([s, 12]))
FIRST_DRAWS = {
    0: {"split": 11749869230777074271, "init": 11749869230777074271,
        "centroids": 16412783775159424549, "tracks": 1490940365631266091,
        "batches": 16509333102296552351, "validation": 8100083402156551019,
        "eval_tags": 9590427162419221275, "eval_tracks": 7815176913001131466},
    2**64: {"split": 8286993518594409552, "init": 8286993518594409552,
            "centroids": 13758988399011448687, "tracks": 3251631731515120330,
            "batches": 5983431769005342169, "validation": 7077405371352601216,
            "eval_tags": 13870532129083132711,
            "eval_tracks": 3847243183241533308},
}
INDEXED = ("batches", "eval_tags")


@pytest.mark.parametrize("seed", list(FIRST_DRAWS))
def test_every_stream_keeps_its_first_draw(seed):
    assert set(FIRST_DRAWS[seed]) == set(streams.STREAMS)
    for name, first in FIRST_DRAWS[seed].items():
        index = (0,) if name in INDEXED else ()
        rng = streams.rng(name, seed, *index)
        assert int(rng.bit_generator.random_raw()) == first, name


def test_seed_past_64_bits_builds_a_model(small_space):
    # init used to take np.uint64(seed), which overflowed past 2**64 - 1
    variant = VariantConfig(family="triplet", seed=2**64, hidden=(6,))
    model = build_model(variant, small_space, 5)
    rng = streams.rng("init", 2**64)
    for name in sorted(model.net.params):
        values = model.net.params[name].values
        if name.startswith("b"):
            assert not values.any()
            continue
        bound = 1.0 / np.sqrt(values.shape[0])
        assert np.array_equal(values, rng.uniform(-bound, bound, values.shape))


def test_no_module_but_streams_derives_a_generator():
    # one derivation site: a stream is asked for by name, never seeded by hand
    src = Path(__file__).resolve().parents[1] / "src" / "disembed"
    for path in sorted(src.glob("*.py")):
        if path.name == "streams.py":
            continue
        text = path.read_text(encoding="utf-8")
        for form in ("default_rng(", "SeedSequence(", "np.uint64("):
            assert form not in text, f"{path.name} calls {form}"
