"""Desk-scale indoor positioning sandbox.

Simulates a robot-carried multi-sensor rig (UWB ranging, WiFi RSSI and
per-subcarrier CSI, IMU with magnetometer) against a surveyed trajectory,
aligns the resulting multi-rate record streams, and compares classical
localizers with fingerprinting and raw-data-fusion MLP regression —
including how each survives a change of session and layout.

Importing the package loads no stage module and not numpy; it only
defaults ``OPENBLAS_NUM_THREADS`` to 1.  Each stage module is put in
``sys.modules`` and bound here unexecuted (``importlib.util.LazyLoader``),
and runs, with what it imports, on the first access to one of its
attributes; each public name below resolves to its stage module's attribute
on access (PEP 562).  Which modules each command runs is listed in
``indoor_fusion.cli``.  A first access is not thread-safe on CPython 3.11,
so code that calls into the package from several threads should touch each
module it uses on one thread first.
"""

import importlib.util
import os
import sys

# before numpy loads: ``run`` shares the cores between methods, not BLAS threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# each public name, by the stage module that defines it
_EXPORTS = {
    "errors": (
        "ClockFitError", "ConfigError", "DimensionMismatch", "Divergence",
        "EmptyGroundTruth", "EmptyMap", "EmptyObservations", "EmptyReport",
        "IndoorFusionError", "InsufficientData", "InsufficientOverlap", "InvalidOverride",
        "LayoutMismatch", "LengthMismatch", "MalformedLine", "NegativeTime",
        "NonFiniteDistance", "SchemaViolation", "TooFewFrames", "UndefinedDegradation"),
    "records": (
        "Anchor", "ClockModel", "Position2D", "SensorOffset", "SensorTable", "read_records",
        "write_records"),
    "geometry": (
        "degenerate_estimate", "locate_from_ranges", "rssi_to_distance",
        "translate_sensor_pose"),
    "simulate": (
        "DEFAULT_PERTURBATION", "Bounds", "MagneticFieldSpec", "NoiseConfig", "Perturbation",
        "Scenario", "SimConfig", "TrajectoryInterpolator", "build_scenario", "csi_channel",
        "default_clocks", "default_rates", "default_sensor_offsets", "generate_trajectory",
        "perturb_scenario", "read_sidecar", "sample_sensors", "simulate_run",
        "write_sidecar"),
    "ingest": (
        "AlignedStream", "BlockDef", "FrameLayout", "Frames", "IngestResult",
        "build_fusion_frames", "correct_clock", "estimate_clock_offset", "frame_layout",
        "Ticks", "frames_to_arrays", "ingest_run", "label_with_groundtruth", "select_blocks",
        "write_frames"),
    "fingerprint": (
        "RadioMap", "RssiCalibration", "build_map", "calibrate_rssi_offset", "locate",
        "rssi_snapshot_positions"),
    "mlp": ("Mlp", "MlpConfig", "SplitSpec", "gradient_check", "split_dataset",
            "train_arrays"),
    "evaluate": (
        "ErrorReport", "GeneralizationReport", "blocks_for_method", "degradation",
        "emit_plot", "error_report", "fit_network", "network_estimates",
        "report_from_errors", "run_generalization"),
}
_STAGE_OF = {name: stage for stage, names in _EXPORTS.items() for name in names}
__all__ = list(_STAGE_OF)
__version__ = "0.1.0"


def _register(stage: str):
    """``indoor_fusion.<stage>``, in ``sys.modules`` and not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{stage}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({stage: _register(stage) for stage in _EXPORTS})


def __getattr__(name: str):
    stage = _STAGE_OF.get(name)
    if stage is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[stage], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_STAGE_OF})
