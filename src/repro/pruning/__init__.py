"""Unstructured pruning algorithms and sparsity-pattern generators.

SpInfer consumes masks, it does not create them; these implementations of
magnitude, Wanda and SparseGPT pruning (plus synthetic pattern
generators) supply realistically distributed sparse weights to the
kernels and the end-to-end simulator, replacing the WikiText-calibrated
checkpoints the paper pruned.
"""
