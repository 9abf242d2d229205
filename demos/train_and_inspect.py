"""Train one disentangled variant and inspect its embedding sub-spaces.

Walks through the core workflow by hand: generate a small synthetic dataset,
train a disentangled triplet model, and compare how well each notion's own
coordinate block separates that notion's tags versus using the full vector.
"""

import argparse

import numpy as np

from disembed.benchmark import sample_eval_triplets
from disembed.config import DEFAULT_LR, default_label_space
from disembed.data import SyntheticSpec, generate_splits
from disembed.evaluation import retrieval_recall, triplet_accuracy, unit_blocks
from disembed.trainer import VariantConfig, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tracks", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args()

    space = default_label_space()
    print(f"label space: {[n.name for n in space.notions]}, "
          f"{space.num_tags} tags, {space.embedding_dim}-d embedding")

    spec = SyntheticSpec(space=space, tracks=args.tracks, seed=args.seed)
    train_ds, valid_ds, test_ds = generate_splits(spec)
    print(f"splits: {len(train_ds)} train / {len(valid_ds)} valid / "
          f"{len(test_ds)} test excerpts")

    variant = VariantConfig(
        family="triplet", disentanglement=True, track_reg=True,
        max_epochs=args.epochs, seed=args.seed, lr=DEFAULT_LR,
    )
    print(f"\ntraining {variant.name} for up to {args.epochs} epochs ...")
    result = train(variant, space, train_ds, valid_ds)
    print(f"stopped after {result.epochs} epochs "
          f"({result.seconds:.1f}s), best validation loss "
          f"{result.best_valid_loss:.4f}")

    # the metrics compare unit rows: of the full vector, or of each notion's
    # own block
    E_pre = result.model.net.full_embedding(test_ds.features)[0]
    U_full = unit_blocks(E_pre, space.embedding_dim)
    U_sub = unit_blocks(E_pre, space.block_size)
    recall = retrieval_recall(U_full, test_ds.labels, [1, 4])
    print(f"\nretrieval on the test split: "
          f"R@1 {recall[1]:.3f}, R@4 {recall[4]:.3f}")

    by_notion, _ = sample_eval_triplets(test_ds, per_notion=500, seed=args.seed)
    print("\ntriplet accuracy per notion (own sub-space vs full vector):")
    for notion, triplets in by_notion.items():
        sub = triplet_accuracy(U_sub, triplets, mode="sub")
        full = triplet_accuracy(U_full, triplets, mode="full")
        marker = "sub wins" if sub >= full else "full wins"
        print(f"  {notion:<11} sub {sub:.3f}  full {full:.3f}   ({marker})")

    # a notion's block should be (near) silent about the other notions
    blocks = {n.name: np.linalg.norm(E_pre[:, space.block_slice(n.name)], axis=1)
              for n in space.notions}
    print("\nmean activation norm per block:")
    for name, norms in blocks.items():
        print(f"  {name:<11} {norms.mean():.3f}")


if __name__ == "__main__":
    main()
