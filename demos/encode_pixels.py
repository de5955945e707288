"""Walk through the pixel encoding: one pixel becomes a 2-vector, an image
becomes a stack of them, and the implicit joint state is never materialized.
Everything goes through ``encode_batch``, which takes a [B, N] batch of
flattened images: one pixel is a one-pixel, one-image batch.

Run: python3 demos/encode_pixels.py
"""

import numpy as np

from mpsclassify import FeatureMap, encode_batch

print("single pixels")
for p in (0.0, 0.25, 0.5, 1.0):
    lin = encode_batch(FeatureMap.LINEAR, [[p]])[0, 0]
    trig = encode_batch(FeatureMap.TRIG, [[p]])[0, 0]
    print(f"  p={p:4.2f}  linear={lin}  trig={trig}  |trig|={np.linalg.norm(trig):.12f}")

print()
print("a 2x2 image, flattened row-major, linear map")
image = np.array([0.0, 1.0, 0.5, 0.25])
feats = encode_batch(FeatureMap.LINEAR, image[None])[0]
print(feats)

print()
print("black pixels select component 0 exactly, white select component 1:")
print("  feats[0] =", feats[0], " feats[1] =", feats[1])

print()
print("a larger batch is just a stacked version of the same thing")
batch = encode_batch(FeatureMap.TRIG, np.stack([image, image[::-1]]))
print("  shape:", batch.shape)
print("  row 0 site 2:", batch[0, 2], " equals the one-image batch's row:",
      np.array_equal(batch[0], encode_batch(FeatureMap.TRIG, image[None])[0]))

print()
n = 196
print(f"the joint state of a {n}-pixel image lives in a 2^{n} dimensional space")
print(f"  (about 10^{int(n * np.log10(2))}), which is why it stays factored")
