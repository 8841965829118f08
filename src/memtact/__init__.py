"""memtact: analog ReRAM crossbar simulation for tactile gesture recognition.

The package models soft-bounds memristive devices fitted from pulse traces,
assembles them into crossbar tiles with stochastic pulsed updates and
program-and-verify writing, and trains fully connected gesture classifiers
either digitally or directly on the tiles.
"""

# Callers import from the modules. These five names stay on the package
# only because the benchmark's characterize set-up reads them off it
# (perfbench/workloads.py:299-306).
from .data import derive_rng
from .device import PulseScheme, default_distribution, sample_device, \
    simulate_trace

__version__ = "0.1.0"
