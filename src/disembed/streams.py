"""Named random streams: the one place where a seed becomes a generator.

Stream ``name`` is PCG64 seeded with ``SeedSequence([seed, *STREAMS[name],
*index])``.  A key never changes; a new stream takes a fresh name and key.
``split`` and ``init`` share the empty key: under ``default_config(s)`` both
read the same PCG64 draws.  Separating them is ROADMAP item 10.
"""

import numpy as np

STREAMS = {  # name -> the key words after the seed
    "split": (),           # generate_splits' track permutation
    "init": (),            # init_params' weights, then the bank
    "centroids": (1,),     # tag_centroids
    "tracks": (2,),        # each synthetic track's tags and features
    "batches": (3,),       # a training epoch; index: the epoch
    "validation": (101,),  # the fixed validation triplets
    "eval_tags": (11,),    # test tag triplets; index: the notion's position
    "eval_tracks": (12,),  # test track triplets
}


def rng(name: str, seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *STREAMS[name], *index]))


def redraw_seed(seed: int, attempt: int) -> int:
    """``generate_splits``' data seed at ``attempt``, counting from 0."""
    return seed + 1000 + attempt if attempt else seed
