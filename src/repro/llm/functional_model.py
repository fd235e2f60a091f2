"""A functional transformer whose linears run through the sparse kernels.

The inference *simulator* (:mod:`repro.llm.inference`) prices time and
memory; this module complements it with *numbers*: a small but complete
decoder-only transformer (embeddings, causal multi-head attention with a
KV cache, ReLU FFN, layernorms, tied LM head) whose linear layers
dispatch through a pluggable matmul backend:

* ``"dense"``    — plain FP16xFP16->FP32 matmul (the cuBLAS reference);
* ``"spinfer"``  — weights encoded in TCA-BME, multiplied via the
  functional SMBD kernel;
* ``"flash-llm"`` — Tiled-CSL encoding, Flash-LLM unpack kernel.

Because the sparse kernels are numerically exact, a pruned model must
generate *identical tokens* whichever backend executes it — the
end-to-end correctness claim behind the paper's framework integration,
verified in ``tests/test_functional_model.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.tca_bme import encode
from ..formats.tiled_csl import TiledCSLMatrix
from ..kernels.flash_llm import FlashLLMKernel
from ..kernels.spinfer import SpInferKernel
from ..pruning.magnitude import magnitude_prune
from ..pruning.wanda import wanda_prune

__all__ = ["TinyConfig", "FunctionalTransformer"]

_BACKENDS = ("dense", "spinfer", "flash-llm")


@dataclass(frozen=True)
class TinyConfig:
    """A scaled-down OPT-style architecture (ReLU FFN, learned LM head)."""

    vocab_size: int = 512
    num_layers: int = 2
    hidden_size: int = 64
    num_heads: int = 4
    ffn_size: int = 256
    max_seq: int = 128

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads:
            raise ValueError("hidden size must divide evenly among heads")
        for name in ("vocab_size", "num_layers", "hidden_size", "ffn_size", "max_seq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


def _layernorm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def _softmax(x: np.ndarray) -> np.ndarray:
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


class _Linear:
    """One prunable linear layer with switchable execution backends."""

    def __init__(self, weight: np.ndarray):
        self.weight = np.asarray(weight, dtype=np.float16)  # (out, in)
        self._encoded: Dict[str, object] = {}
        #: When not None, every forward appends its input batch here
        #: (calibration capture for Wanda/SparseGPT pruning).
        self.captured: Optional[List[np.ndarray]] = None

    def prune(self, sparsity: float, method: str, seed: int) -> None:
        if method == "magnitude":
            self.weight = magnitude_prune(self.weight, sparsity, per_row=True)
        elif method == "wanda":
            self.weight = wanda_prune(self.weight, sparsity, seed=seed)
        else:
            raise ValueError(f"unknown pruning method {method!r}")
        self._encoded.clear()

    def _ensure_encoded(self, backend: str) -> None:
        if backend in self._encoded:
            return
        if backend == "spinfer":
            self._encoded[backend] = (encode(self.weight), SpInferKernel())
        elif backend == "flash-llm":
            self._encoded[backend] = (
                TiledCSLMatrix.from_dense(self.weight),
                FlashLLMKernel(),
            )

    def __call__(self, x: np.ndarray, backend: str) -> np.ndarray:
        """``x`` is (tokens, in); returns (tokens, out) float32.

        All backends consume FP16 activations (the hardware contract of
        the mma path), so the dense reference casts through FP16 too.
        """
        x16 = np.asarray(x, dtype=np.float16)
        if self.captured is not None:
            self.captured.append(np.asarray(x16, dtype=np.float32))
        if backend == "dense":
            return x16.astype(np.float32) @ self.weight.astype(np.float32).T
        self._ensure_encoded(backend)
        enc, kernel = self._encoded[backend]
        # Kernels compute W (out,in) @ X (in, tokens).
        return kernel.run_encoded(enc, x16.T).T

    def storage_bytes(self, backend: str) -> int:
        if backend == "dense":
            return 2 * self.weight.size
        self._ensure_encoded(backend)
        enc, _ = self._encoded[backend]
        return enc.storage_bytes()


@dataclass
class _LayerWeights:
    qkv: _Linear
    out: _Linear
    fc1: _Linear
    fc2: _Linear

    def linears(self) -> List[_Linear]:
        return [self.qkv, self.out, self.fc1, self.fc2]


class FunctionalTransformer:
    """Decoder-only transformer with numerically exact sparse execution."""

    def __init__(self, config: TinyConfig = TinyConfig(), seed: int = 0,
                 backend: str = "dense"):
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; options: {_BACKENDS}")
        self.config = config
        self.backend = backend
        rng = np.random.default_rng(seed)
        h, f, v = config.hidden_size, config.ffn_size, config.vocab_size
        scale = 1.0 / np.sqrt(h)

        self.embedding = (rng.standard_normal((v, h)) * scale).astype(np.float16)
        self.pos_embedding = (
            rng.standard_normal((config.max_seq, h)) * scale
        ).astype(np.float16)
        self.layers: List[_LayerWeights] = []
        for _ in range(config.num_layers):
            self.layers.append(
                _LayerWeights(
                    qkv=_Linear(rng.standard_normal((3 * h, h)) * scale),
                    out=_Linear(rng.standard_normal((h, h)) * scale),
                    fc1=_Linear(rng.standard_normal((f, h)) * scale),
                    fc2=_Linear(rng.standard_normal((h, f)) * scale),
                )
            )
        self.final_ln_applied = True

    # ---- pruning / encoding -------------------------------------------------------

    def prune(self, sparsity: float, method: str = "magnitude", seed: int = 0) -> None:
        """Prune every layer linear in place (embeddings stay dense)."""
        if not 0.0 <= sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
        for i, layer in enumerate(self.layers):
            for j, lin in enumerate(layer.linears()):
                lin.prune(sparsity, method, seed=seed + 31 * i + j)

    def start_capture(self) -> None:
        """Record every linear's inputs during subsequent forwards."""
        for layer in self.layers:
            for lin in layer.linears():
                lin.captured = []

    def stop_capture(self) -> Dict[str, np.ndarray]:
        """Stop recording; returns ``{"<layer>.<name>": (samples, K)}``."""
        out: Dict[str, np.ndarray] = {}
        names = ("qkv", "out", "fc1", "fc2")
        for i, layer in enumerate(self.layers):
            for name, lin in zip(names, layer.linears()):
                if lin.captured:
                    out[f"{i}.{name}"] = np.concatenate(lin.captured, axis=0)
                lin.captured = None
        return out

    def set_backend(self, backend: str) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; options: {_BACKENDS}")
        self.backend = backend

    def layer_weight_bytes(self) -> int:
        """Layer-weight storage under the current backend."""
        return sum(
            lin.storage_bytes(self.backend)
            for layer in self.layers
            for lin in layer.linears()
        )

    # ---- forward pass ----------------------------------------------------------------

    def _attention(
        self,
        x: np.ndarray,
        layer: _LayerWeights,
        kv_cache: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        cfg = self.config
        t = x.shape[0]
        qkv = layer.qkv(x, self.backend)  # (t, 3h)
        q, k, v = np.split(qkv, 3, axis=1)

        def heads(m: np.ndarray) -> np.ndarray:
            return m.reshape(t, cfg.num_heads, cfg.head_dim).transpose(1, 0, 2)

        q, k, v = heads(q), heads(k), heads(v)
        if kv_cache is not None:
            k_prev, v_prev = kv_cache
            k = np.concatenate([k_prev, k], axis=1)
            v = np.concatenate([v_prev, v], axis=1)
        total = k.shape[1]

        scores = q @ k.transpose(0, 2, 1) / np.sqrt(cfg.head_dim)
        # Causal mask: query i (global position total - t + i) sees keys <= it.
        q_pos = np.arange(total - t, total)[:, None]
        k_pos = np.arange(total)[None, :]
        scores = np.where(k_pos <= q_pos, scores, -1e9)
        probs = _softmax(scores)
        ctx = (probs @ v).transpose(1, 0, 2).reshape(t, cfg.hidden_size)
        out = layer.out(ctx, self.backend)
        return out, (k, v)

    def forward(
        self,
        token_ids: np.ndarray,
        kv_caches: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
        position_offset: int = 0,
    ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """Run ``t`` tokens; returns (logits (t, vocab), new kv caches)."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1:
            raise ValueError("token_ids must be 1-D")
        t = token_ids.size
        if position_offset + t > self.config.max_seq:
            raise ValueError("sequence exceeds max_seq")

        x = self.embedding[token_ids].astype(np.float32)
        x = x + self.pos_embedding[position_offset : position_offset + t].astype(
            np.float32
        )

        new_caches: List[Tuple[np.ndarray, np.ndarray]] = []
        for i, layer in enumerate(self.layers):
            cache = kv_caches[i] if kv_caches is not None else None
            attn_out, new_cache = self._attention(_layernorm(x), layer, cache)
            x = x + attn_out
            h = layer.fc1(_layernorm(x), self.backend)
            h = np.maximum(h, 0.0)  # ReLU (OPT-style)
            x = x + layer.fc2(h, self.backend)
            new_caches.append(new_cache)

        x = _layernorm(x)
        logits = x @ self.embedding.astype(np.float32).T  # tied LM head
        return logits, new_caches

    def generate(self, prompt_ids: np.ndarray, num_tokens: int) -> List[int]:
        """Greedy decoding with a KV cache."""
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        logits, caches = self.forward(prompt_ids)
        out: List[int] = []
        next_token = int(np.argmax(logits[-1]))
        out.append(next_token)
        pos = prompt_ids.size
        for _ in range(num_tokens - 1):
            logits, caches = self.forward(
                np.array([next_token]), kv_caches=caches, position_offset=pos
            )
            pos += 1
            next_token = int(np.argmax(logits[-1]))
            out.append(next_token)
        return out
