"""End-to-end benchmark of the simulator: four workloads, wall-clock and
Table-1 metrics, and an outside-in layer trace.  See README.md."""
