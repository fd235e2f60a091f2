#!/usr/bin/env python3
"""Generate text-tokens with a pruned transformer running on SpInfer kernels.

The strongest form of the paper's integration claim: after pruning, the
*same model* — bit-for-bit the same weights — executes through TCA-BME +
SMBD and produces *identical tokens* to the dense reference, while its
layer weights occupy half the memory.

Run:  python examples/tiny_llm_generation.py
"""

import numpy as np

from repro.bench.harness import format_table
from repro.llm.functional_model import FunctionalTransformer, TinyConfig

SPARSITY = 0.6
PROMPT = np.array([11, 42, 7, 300, 3, 250], dtype=np.int64)
NUM_TOKENS = 16


def main() -> None:
    config = TinyConfig(vocab_size=512, num_layers=2, hidden_size=64,
                        num_heads=4, ffn_size=256)
    model = FunctionalTransformer(config, seed=0)
    model.prune(SPARSITY, method="magnitude")
    print(f"model: {config.num_layers} layers, hidden {config.hidden_size}, "
          f"pruned to {SPARSITY:.0%} sparsity\n")

    rows = []
    tokens_by_backend = {}
    for backend in ("dense", "spinfer", "flash-llm"):
        model.set_backend(backend)
        tokens = model.generate(PROMPT, NUM_TOKENS)
        tokens_by_backend[backend] = tokens
        rows.append([
            backend,
            model.layer_weight_bytes(),
            " ".join(map(str, tokens[:8])) + " ...",
        ])

    print(format_table(["backend", "layer weight bytes", "generated tokens"], rows))
    print()

    assert tokens_by_backend["spinfer"] == tokens_by_backend["dense"]
    assert tokens_by_backend["flash-llm"] == tokens_by_backend["dense"]
    print("all backends generated IDENTICAL tokens — sparse execution is exact.")

    dense_b = dict(zip([r[0] for r in rows], [r[1] for r in rows]))["dense"]
    spinfer_b = dict(zip([r[0] for r in rows], [r[1] for r in rows]))["spinfer"]
    print(f"TCA-BME layer weights: {spinfer_b / dense_b:.1%} of dense "
          f"({dense_b} -> {spinfer_b} bytes).")


if __name__ == "__main__":
    main()
