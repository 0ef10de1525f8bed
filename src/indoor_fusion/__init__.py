"""Desk-scale indoor positioning sandbox.

Simulates a robot-carried multi-sensor rig (UWB ranging, WiFi RSSI and
per-subcarrier CSI, IMU with magnetometer) against a surveyed trajectory,
aligns the resulting multi-rate record streams, and compares classical
localizers with fingerprinting and raw-data-fusion MLP regression —
including how each survives a change of session and layout.
"""

import os

# before numpy loads: ``run`` shares the cores between methods, not BLAS threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    CollinearAnchors,
    ConfigError,
    DimensionMismatch,
    Divergence,
    EmptyGroundTruth,
    EmptyMap,
    EmptyObservations,
    EmptyReport,
    IndoorFusionError,
    InsufficientData,
    InsufficientOverlap,
    InvalidOverride,
    LayoutMismatch,
    LengthMismatch,
    MalformedLine,
    NegativeTime,
    NonFiniteDistance,
    SchemaViolation,
    TooFewAnchors,
    TooFewFrames,
    UndefinedDegradation,
)
from .records import (
    Anchor,
    ClockModel,
    Pose,
    Position2D,
    SensorOffset,
    SensorTable,
    normalize_angle,
    read_records,
    write_records,
)
from .geometry import (
    RangeObservation,
    TrilatResult,
    degenerate_estimate,
    locate_from_ranges,
    rssi_to_distance,
    translate_sensor_pose,
    trilaterate,
    trilaterate_batch,
)
from .simulate import (
    DEFAULT_PERTURBATION,
    Bounds,
    MagneticFieldSpec,
    NoiseConfig,
    Perturbation,
    Scenario,
    SimConfig,
    TrajectoryInterpolator,
    build_scenario,
    csi_channel,
    default_clocks,
    default_rates,
    default_sensor_offsets,
    generate_trajectory,
    perturb_scenario,
    read_sidecar,
    sample_sensors,
    simulate_run,
    write_sidecar,
)
from .ingest import (
    AlignedStream,
    BlockDef,
    FrameLayout,
    Frames,
    IngestResult,
    build_fusion_frames,
    correct_clock,
    estimate_clock_offset,
    frame_layout,
    frames_to_arrays,
    ingest_run,
    label_with_groundtruth,
    read_frames,
    select_blocks,
    write_frames,
)
from .fingerprint import (
    RadioMap,
    RssiCalibration,
    build_map,
    calibrate_rssi_offset,
    locate,
    rssi_snapshot_fixes,
    rssi_snapshot_positions,
)
from .mlp import (
    Mlp,
    MlpConfig,
    SplitSpec,
    gradient_check,
    split_dataset,
    train_arrays,
)
from .evaluate import (
    ErrorReport,
    GeneralizationReport,
    blocks_for_method,
    degradation,
    emit_plot,
    error_report,
    fit_and_score,
    model_report,
    report_from_errors,
    run_generalization,
)

__version__ = "0.1.0"
