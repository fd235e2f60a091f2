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
