"""memtact: analog ReRAM crossbar simulation for tactile gesture recognition.

The package models soft-bounds memristive devices fitted from pulse traces,
assembles them into crossbar tiles with stochastic pulsed updates and
program-and-verify writing, and trains fully connected gesture classifiers
either digitally or directly on the tiles.
"""

from .data import Dataset, FeatureScaler, derive_rng, stratified_split_indices
from .device import (
    DeviceDistribution,
    DeviceParams,
    FitReport,
    PulseScheme,
    Trace,
    asymmetry,
    build_distribution,
    default_distribution,
    fit_softbounds,
    n_states,
    pulse,
    sample_device,
    simulate_trace,
)
from .crossbar import (
    AnalogTile,
    ProgramReport,
    UpdateStats,
    weight_map_affine,
)
from .nn import (
    AnalogNetwork,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainHistory,
    TTv2State,
    evaluate,
    hardware_aware_finetune,
    init_ttv2,
    program_network,
    train_sgd_fp,
    train_ttv2,
    ttv2_step,
)
from .tactile import (
    FEATURE_LENGTH,
    FEATURE_NAMES,
    GestureSeries,
    centroid_trajectory,
    contact_area,
    extract_features,
    peak_count,
    preprocess,
)
from .gesturegen import GenSpec, generate_dataset, generate_gesture

__version__ = "0.1.0"
