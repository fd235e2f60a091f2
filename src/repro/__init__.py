"""repro — a faithful Python reproduction of SpInfer (EuroSys 2025).

SpInfer accelerates unstructured-sparse LLM inference on GPUs via the
Tensor-Core-Aware Bitmap Encoding (TCA-BME) sparse format, a Shared-Memory
Bitmap Decoding (SMBD) SpMM kernel and an asynchronous pipeline.  This
package reimplements the complete system in Python:

* :mod:`repro.core` — TCA-BME encoding, SMBD decoding, mma fragment maps.
* :mod:`repro.formats` — baseline sparse formats (CSR, Tiled-CSL, SparTA,
  BSR, COO) with exact storage accounting.
* :mod:`repro.gpu` — a mechanistic GPU model: device specs, memory
  hierarchy, occupancy, roofline, and a kernel cost simulator.
* :mod:`repro.kernels` — functional + simulated SpMM/GEMM kernels
  (SpInfer, Flash-LLM, SparTA, Sputnik, cuSPARSE, SMaT, cuBLAS).
* :mod:`repro.pruning` — magnitude / Wanda / SparseGPT-style pruning.
* :mod:`repro.llm` — transformer model zoo and an end-to-end inference
  simulator (prefill + decode, memory, tensor parallelism).
* :mod:`repro.bench` — the experiment harness regenerating every table
  and figure of the paper's evaluation.
"""

__version__ = "1.0.0"
