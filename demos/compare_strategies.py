"""Contract the same chain three ways and compare answers and arithmetic cost.

The sequential sweep never builds a matrix-matrix product, so its cost is
quadratic in the bond dimension. The pairwise schedule multiplies adjacent
matrices in rounds, paying a cubic term for the right to run wide. Brute
force sums all 2^N index assignments and is the ground truth for tiny N.
Each schedule runs its own form on a tape: without one, ``forward_batch``
evaluates both with the sequential sweep. FLOPs are counted from the nodes
a model-watching tape keeps.

Run: python3 demos/compare_strategies.py
"""

import numpy as np

from mpsclassify import (
    Strategy,
    Tape,
    brute_force_logits,
    encode_batch,
    forward_batch,
    init_model,
)

rng = np.random.default_rng(7)
n, n_labels, chi = 10, 3, 4
model = init_model(n, n_labels, chi, seed=1)
feats = encode_batch(model.feature_map, rng.random((1, n)))

print(f"model: N={n}, L={n_labels}, chi={chi}")
oracle = brute_force_logits(model, feats[0])
print("brute force  ", oracle)
for strategy in (Strategy.SEQUENTIAL, Strategy.PAIRWISE):
    logits = forward_batch(model, feats, strategy, tape=Tape())[0]
    dev = np.abs(logits - oracle).max() / np.abs(oracle).max()
    print(f"{strategy.value:13s}", logits, f" relative deviation {dev:.2e}")

print()
print("pairwise halves shrink in rounds, counted from the nodes a taped forward keeps:")
for n_sites in (10, 20, 196):
    chain = init_model(n_sites, n_labels, chi, seed=1)
    tape = Tape()
    tape.watch_model(chain)
    f = encode_batch(chain.feature_map, rng.random((1, n_sites)))
    forward_batch(chain, f, Strategy.PAIRWISE, tape=tape)
    halves = []  # [matrices, rounds] per half, left then right
    for node in tape.nodes:
        if node.kind == "slice_rows":  # a half's rows of the absorbed stack, one per site
            halves.append([node.output.shape[0], 0])
        elif node.kind == "pair_round":
            halves[-1][1] += 1
    print(f"  N={n_sites:<4}", ", ".join(f"{t} matrices -> {r} rounds" for t, r in halves))

print()
print("arithmetic cost at N=196, batch 50, by bond dimension")
print(f"{'chi':>5} {'sequential':>14} {'pairwise':>14}   pairwise/sequential")
images = rng.random((50, 196))
for chi in (8, 16, 32, 64):
    big = init_model(196, 10, chi, seed=0)
    f = encode_batch(big.feature_map, images)
    totals = {}
    for strategy in (Strategy.SEQUENTIAL, Strategy.PAIRWISE):
        tape = Tape()
        tape.watch_model(big)
        forward_batch(big, f, strategy, tape=tape)
        totals[strategy] = tape.forward_flops()
    ratio = totals[Strategy.PAIRWISE] / totals[Strategy.SEQUENTIAL]
    print(f"{chi:>5} {totals[Strategy.SEQUENTIAL]:>14,} {totals[Strategy.PAIRWISE]:>14,}   {ratio:.1f}x")
print("doubling chi multiplies the sequential column by ~4 and the pairwise one by ~8")
