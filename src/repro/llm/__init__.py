"""LLM inference substrate: model zoo, memory model, tensor parallelism,
framework presets, and the end-to-end generation simulator."""
