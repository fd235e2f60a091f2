"""SpInfer's primary contribution: TCA-BME encoding and SMBD decoding.

Public surface:

* :class:`repro.core.tiles.TileConfig` — the three-level tile geometry.
* :func:`repro.core.tca_bme.encode` / :class:`~repro.core.tca_bme.TCABMEMatrix`
  — the Tensor-Core-Aware Bitmap Encoding.
* :func:`repro.core.smbd.decode_tctile` and friends — Shared Memory Bitmap
  Decoding into ``mma`` register fragments.
* :mod:`repro.core.bitmap` — PopCount / MaskedPopCount primitives.
* :mod:`repro.core.mma_layout` — the ``mma.m16n8k16`` fragment maps.
"""

from .bitmap import (
    bitmap_from_block,
    block_mask_from_bitmap,
    masked_popcount,
    popcount64,
)
from .mma_layout import (
    gather_a_fragments,
    gather_b_fragments,
    gather_cd_fragments,
    scatter_a_fragments,
    scatter_cd_fragments,
)
from .quant import QuantizedTCABME, dequantize_values, quantize_values
from .reference import encode_reference
from .smbd import DecodeStats, decode_group, decode_tctile
from .tca_bme import TCABMEMatrix, encode, tca_bme_storage_bytes
from .tiles import DEFAULT_TILE_CONFIG, TileConfig

__all__ = [
    "DEFAULT_TILE_CONFIG",
    "QuantizedTCABME",
    "dequantize_values",
    "encode_reference",
    "quantize_values",
    "DecodeStats",
    "TCABMEMatrix",
    "TileConfig",
    "bitmap_from_block",
    "block_mask_from_bitmap",
    "decode_group",
    "decode_tctile",
    "encode",
    "gather_a_fragments",
    "gather_b_fragments",
    "gather_cd_fragments",
    "masked_popcount",
    "popcount64",
    "scatter_a_fragments",
    "scatter_cd_fragments",
    "tca_bme_storage_bytes",
]
