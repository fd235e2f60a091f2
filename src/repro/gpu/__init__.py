"""GPU substrate: device specs, memory/occupancy/roofline models, and the
mechanistic kernel cost simulator standing in for RTX4090/A6000 silicon."""
