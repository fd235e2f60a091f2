"""Tile geometry for the Tensor-Core-Aware Bitmap Encoding.

TCA-BME partitions the ``M x K`` weight matrix into three nested tiles,
each aligned to one level of the GPU execution hierarchy (paper Section
4.2.1, Figure 6):

``BitmapTile`` (8 x 8)
    The minimum Tensor-Core operand granule.  One ``uint64`` bitmap per
    tile.

``TCTile`` (16 x 16 = 2 x 2 BitmapTiles, column-major)
    Matches the ``m x k`` of the FP16 ``mma.m16n8k16`` instruction.  The
    2x2 BitmapTiles are stored column-major so they align with the four
    ``Ra`` registers of the mma fragment: top-left -> Ra0, bottom-left ->
    Ra1, top-right -> Ra2, bottom-right -> Ra3.

``GroupTile`` (``GT_H x GT_W``, default 64 x 64)
    The thread-block work granule.  TCTiles within a GroupTile are stored
    column-major; GroupTiles themselves are stored row-major over the
    matrix.

This module is pure geometry: index enumeration, ordering, and padding
logic shared by the encoder, the SMBD decoder and the kernel simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

__all__ = ["TileConfig", "DEFAULT_TILE_CONFIG"]


@dataclass(frozen=True)
class TileConfig:
    """Dimensions of the three TCA-BME tile levels.

    The BitmapTile is fixed at 8x8 by the 64-bit bitmap; the TCTile at
    16x16 by ``mma.m16n8k16``.  GroupTile dimensions are tunable kernel
    parameters (they trade shared-memory footprint against K-dimension
    iteration count) and must be multiples of the TCTile dimensions.
    """

    bt_h: int = 8
    bt_w: int = 8
    tt_h: int = 16
    tt_w: int = 16
    gt_h: int = 64
    gt_w: int = 64

    def __post_init__(self) -> None:
        # Any 64-cell BitmapTile fits one uint64 bitmap; NVIDIA Tensor
        # Cores use 8x8, other matrix units (paper Section 6) may prefer
        # different aspect ratios (e.g. 4x16 for row-oriented AMX tiles).
        if self.bt_h * self.bt_w != 64:
            raise ValueError(
                "BitmapTile must contain exactly 64 cells (one uint64 bitmap); "
                f"got {self.bt_h}x{self.bt_w}"
            )
        if self.bt_h <= 0 or self.bt_w <= 0:
            raise ValueError("BitmapTile dims must be positive")
        if self.tt_h % self.bt_h or self.tt_w % self.bt_w:
            raise ValueError("TCTile dims must be multiples of BitmapTile dims")
        if self.gt_h % self.tt_h or self.gt_w % self.tt_w:
            raise ValueError("GroupTile dims must be multiples of TCTile dims")
        if self.gt_h <= 0 or self.gt_w <= 0:
            raise ValueError("GroupTile dims must be positive")

    # ---- per-level tile counts -------------------------------------------------

    @property
    def bts_per_tt(self) -> int:
        """BitmapTiles per TCTile (2 x 2 = 4 for the standard config)."""
        return (self.tt_h // self.bt_h) * (self.tt_w // self.bt_w)

    @property
    def tts_per_gt(self) -> int:
        """TCTiles per GroupTile."""
        return (self.gt_h // self.tt_h) * (self.gt_w // self.tt_w)

    @property
    def bts_per_gt(self) -> int:
        """BitmapTiles per GroupTile."""
        return self.bts_per_tt * self.tts_per_gt

    # ---- padded matrix geometry ------------------------------------------------

    def padded_shape(self, m: int, k: int) -> Tuple[int, int]:
        """Matrix shape after zero-padding up to whole GroupTiles."""
        pad_m = -m % self.gt_h
        pad_k = -k % self.gt_w
        return m + pad_m, k + pad_k

    def num_group_tiles(self, m: int, k: int) -> int:
        pm, pk = self.padded_shape(m, k)
        return (pm // self.gt_h) * (pk // self.gt_w)

    def num_bitmap_tiles(self, m: int, k: int) -> int:
        return self.num_group_tiles(m, k) * self.bts_per_gt

    def group_grid(self, m: int, k: int) -> Tuple[int, int]:
        """GroupTile grid shape ``(rows, cols)`` over the padded matrix."""
        pm, pk = self.padded_shape(m, k)
        return pm // self.gt_h, pk // self.gt_w

    def storage_rows(self, padded: np.ndarray) -> np.ndarray:
        """Rearrange a padded matrix into ``(NBT, 64)`` storage-order rows.

        Row ``i`` holds the elements of the ``i``-th BitmapTile in storage
        order, in bit order.  The encoder serialises through this one
        permutation and the SMBD decoder derives its scatter slots from it.
        """
        pm, pk = padded.shape
        gr, gc = pm // self.gt_h, pk // self.gt_w
        tr, tc = self.gt_h // self.tt_h, self.gt_w // self.tt_w
        br, bc = self.tt_h // self.bt_h, self.tt_w // self.bt_w
        x = padded.reshape(gr, tr, br, self.bt_h, gc, tc, bc, self.bt_w)
        # -> (GR, GC, TC, TR, bc, br, bit_row, bit_col)
        x = x.transpose(0, 4, 5, 1, 6, 2, 3, 7)
        return x.reshape(-1, self.bt_h * self.bt_w)

    # ---- ordering enumeration ---------------------------------------------------
    #
    # The enumerators below yield (row, col) element offsets of tile origins
    # in *storage order*, which is what the encoder serialises and what the
    # decoder must walk to reconstruct offsets via PopCount accumulation.

    def iter_group_tiles(self, m: int, k: int) -> Iterator[Tuple[int, int]]:
        """Yield GroupTile origins in storage (row-major) order."""
        rows, cols = self.group_grid(m, k)
        for gr in range(rows):
            for gc in range(cols):
                yield gr * self.gt_h, gc * self.gt_w

    def iter_tctiles_in_group(self) -> Iterator[Tuple[int, int]]:
        """Yield TCTile origins within a GroupTile in storage (column-major) order."""
        rows = self.gt_h // self.tt_h
        cols = self.gt_w // self.tt_w
        for tc in range(cols):
            for tr in range(rows):
                yield tr * self.tt_h, tc * self.tt_w

    def iter_bitmaptiles_in_tctile(self) -> Iterator[Tuple[int, int]]:
        """Yield BitmapTile origins within a TCTile in Ra-register order.

        Column-major: (0,0) -> Ra0, (8,0) -> Ra1, (0,8) -> Ra2, (8,8) -> Ra3.
        """
        rows = self.tt_h // self.bt_h
        cols = self.tt_w // self.bt_w
        for bc in range(cols):
            for br in range(rows):
                yield br * self.bt_h, bc * self.bt_w

    def iter_bitmaptiles(self, m: int, k: int) -> Iterator[Tuple[int, int]]:
        """Yield every BitmapTile origin of the padded matrix in storage order."""
        for g_r, g_c in self.iter_group_tiles(m, k):
            for t_r, t_c in self.iter_tctiles_in_group():
                for b_r, b_c in self.iter_bitmaptiles_in_tctile():
                    yield g_r + t_r + b_r, g_c + t_c + b_c


#: The configuration used throughout the paper's evaluation.
DEFAULT_TILE_CONFIG = TileConfig()
