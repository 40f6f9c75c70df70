"""Write a workload's input containers from its seed (run before anything is timed).

    python3 perfbench/gen.py <workload> <seed> <work dir>

Each layer gets f32 weights, a bias and calibration rows ``offset + scale * z``:
offsets U(-3, 3) on uncentered layers and 0 on centered ones, scales
log-uniform over (0.1, 10). The same seed writes byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
import zlib

import numpy as np

import pkt
from workloads import WORKLOADS


def generate(name: str, seed: int, work: str) -> None:
    layers = WORKLOADS[name].layers
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    model, calib = [], []
    for i, centered in enumerate(layers.centered):
        m = layers.width
        weights = rng.standard_normal((m, m), dtype=np.float32) / np.float32(np.sqrt(m))
        bias = 0.1 * rng.standard_normal(m, dtype=np.float32)
        offset = np.zeros(m) if centered else rng.uniform(-3.0, 3.0, m)
        scale = np.exp(rng.uniform(np.log(0.1), np.log(10.0), m))
        rows = rng.standard_normal((layers.rows, m), dtype=np.float32)
        rows *= scale.astype(np.float32)
        rows += offset.astype(np.float32)
        model.append((f"layer{i}", weights, "f32", {"centered": centered, "has_bias": True}))
        model.append((f"layer{i}.bias", bias, "f32", {}))
        calib.append((f"layer{i}.calib", rows, "f32", {}))
    pkt.write(f"{work}/model.pkt", model)
    pkt.write(f"{work}/calib.pkt", calib)
    print(json.dumps({name: os.path.getsize(f"{work}/{name}")
                      for name in ("model.pkt", "calib.pkt")}))


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
