"""Pruning-quality proxies (standing in for the paper's perplexity runs).

The paper reports Wanda at 60 % sparsity keeps OPT-13B at perplexity
15.9 on WikiText — evidence that the sparsity level SpInfer targets is
*usable*.  Without datasets or checkpoints we evaluate the same question
on proxies that need neither:

* **layer reconstruction error** — relative output error of one pruned
  layer over a calibration batch (the objective SparseGPT minimises);
* **logit divergence** — KL(dense ‖ pruned) of a full
  :class:`~repro.llm.functional_model.FunctionalTransformer` forward;
* **top-1 agreement** — fraction of positions where the pruned model's
  greedy token matches the dense model's.

The orderings the pruning literature establishes (Wanda ≤ magnitude in
error under activation outliers; error grows with sparsity; 60 % remains
high-agreement) are asserted in tests and the ``ext_accuracy`` bench.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..pruning.magnitude import magnitude_prune
from ..pruning.sparsegpt import sparsegpt_prune
from ..pruning.wanda import wanda_prune
from .functional_model import FunctionalTransformer, TinyConfig

__all__ = [
    "layer_reconstruction_error",
    "logit_kl_divergence",
    "top1_agreement",
    "accuracy_sweep",
]

_PRUNERS = {
    "magnitude": lambda w, s, acts: magnitude_prune(w, s, per_row=True),
    "wanda": lambda w, s, acts: wanda_prune(w, s, acts),
    "sparsegpt": lambda w, s, acts: sparsegpt_prune(w, s, acts, block_size=64),
}


def layer_reconstruction_error(
    dense: np.ndarray, pruned: np.ndarray, activations: np.ndarray
) -> float:
    """Relative L2 error of the layer's outputs over a calibration batch."""
    dense = np.asarray(dense, dtype=np.float64)
    pruned = np.asarray(pruned, dtype=np.float64)
    activations = np.asarray(activations, dtype=np.float64)
    if dense.shape != pruned.shape:
        raise ValueError("dense and pruned weights must share a shape")
    if activations.shape[1] != dense.shape[1]:
        raise ValueError("activations must be (samples, K)")
    ref = activations @ dense.T
    out = activations @ pruned.T
    denom = float(np.linalg.norm(ref))
    return float(np.linalg.norm(out - ref)) / denom if denom else 0.0


def _softmax(x: np.ndarray) -> np.ndarray:
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def logit_kl_divergence(
    reference: FunctionalTransformer,
    pruned: FunctionalTransformer,
    prompts: Sequence[np.ndarray],
) -> float:
    """Mean per-position KL(reference ‖ pruned) over the prompts."""
    if not prompts:
        raise ValueError("need at least one prompt")
    total, positions = 0.0, 0
    for prompt in prompts:
        ref_logits, _ = reference.forward(prompt)
        out_logits, _ = pruned.forward(prompt)
        p = _softmax(ref_logits)
        q = _softmax(out_logits)
        total += float(np.sum(p * (np.log(p + 1e-12) - np.log(q + 1e-12))))
        positions += ref_logits.shape[0]
    return total / positions


def top1_agreement(
    reference: FunctionalTransformer,
    pruned: FunctionalTransformer,
    prompts: Sequence[np.ndarray],
) -> float:
    """Fraction of positions where both models pick the same next token."""
    if not prompts:
        raise ValueError("need at least one prompt")
    agree, positions = 0, 0
    for prompt in prompts:
        ref_logits, _ = reference.forward(prompt)
        out_logits, _ = pruned.forward(prompt)
        agree += int(
            (np.argmax(ref_logits, axis=1) == np.argmax(out_logits, axis=1)).sum()
        )
        positions += ref_logits.shape[0]
    return agree / positions


def accuracy_sweep(
    sparsities: Sequence[float] = (0.3, 0.5, 0.6, 0.7),
    methods: Sequence[str] = ("magnitude", "wanda", "sparsegpt"),
    config: TinyConfig = TinyConfig(),
    num_prompts: int = 4,
    prompt_len: int = 24,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Prune the tiny model every way and measure the proxies.

    Returns one record per (method, sparsity) with ``kl`` and
    ``top1_agreement`` against the unpruned reference.
    """
    unknown = set(methods) - set(_PRUNERS)
    if unknown:
        raise ValueError(f"unknown pruning methods: {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    prompts = [
        rng.integers(0, config.vocab_size, size=prompt_len).astype(np.int64)
        for _ in range(num_prompts)
    ]
    reference = FunctionalTransformer(config, seed=seed)

    # Calibration: capture each linear's real inputs on the reference
    # model (the pipeline Wanda/SparseGPT actually use).
    reference.start_capture()
    for prompt in prompts:
        reference.forward(prompt)
    calibration = reference.stop_capture()

    names = ("qkv", "out", "fc1", "fc2")
    records: List[Dict[str, object]] = []
    for method in methods:
        pruner = _PRUNERS[method]
        for sparsity in sparsities:
            model = FunctionalTransformer(config, seed=seed)
            for i, layer in enumerate(model.layers):
                for name, lin in zip(names, layer.linears()):
                    acts = calibration[f"{i}.{name}"]
                    lin.weight = pruner(lin.weight, sparsity, acts)
                    lin._encoded.clear()
            records.append(
                {
                    "method": method,
                    "sparsity": sparsity,
                    "kl": logit_kl_divergence(reference, model, prompts),
                    "top1": top1_agreement(reference, model, prompts),
                }
            )
    return records
