"""Baseline sparse matrix formats with exact storage accounting.

Implements every format the paper compares against TCA-BME (Section
3.2.1, Fig. 3): CSR (Sputnik/cuSPARSE), Tiled-CSL (Flash-LLM), SparTA's
2:4 + CSR decomposition, BSR (SMaT) and COO, plus closed-form storage
models for sweeping compression ratios analytically.
"""
