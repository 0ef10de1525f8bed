"""Train position regressors on single modalities and on a fused frame.

Builds aligned fusion frames from 480 s of simulated data, trains one MLP
per feature subset and prints the best epoch's held-out median error of
each.  That median is ``np.median``, the training history's number, not the
nearest-rank p50 that ``report.json`` summarizes.  Takes 35-42 s on two
cores: the CSI-bearing models are 677+ inputs wide.
"""

import numpy as np

from indoor_fusion.ingest import frames_to_arrays, ingest_run, select_blocks
from indoor_fusion.mlp import MlpConfig, SplitSpec, split_dataset, train_arrays
from indoor_fusion.simulate import SimConfig, build_scenario, simulate_run

SUBSETS = {
    "nn:csi": ["csi"],
    "nn:rssi": ["rssi"],
    "nn:uwb": ["uwb"],
    "nn:imu": ["imu"],
    "fusion csi+imu": ["csi", "imu"],
}


def main():
    scenario = build_scenario(7)
    config = SimConfig(duration=480.0)
    tables = simulate_run(scenario, config)
    result = ingest_run(tables, scenario.sensor_offsets, config.rates,
                        config.duration)
    print(f"{len(result.frames)} frames, layout "
          f"{[(b.modality, b.width) for b in result.frames.layout.blocks]}")

    frames = result.frames
    train_rows, test_rows = split_dataset(np.arange(len(frames)), SplitSpec(shuffle_seed=42))
    for name, blocks in SUBSETS.items():
        layout = select_blocks(frames.layout, blocks)
        nn_config = MlpConfig.for_input(layout.feature_width + layout.mask_width,
                                        epochs=40, seed=42)
        model, history = train_arrays(*frames_to_arrays(frames, train_rows, layout),
                                      *frames_to_arrays(frames, test_rows, layout), nn_config)
        best = min(h[2] for h in history)
        # np.median over the test frames: not the nearest-rank p50 of report.json
        print(f"{name:15s} width={nn_config.layer_sizes[0]:4d} "
              f"epochs={len(history):3d} best test median (np.median)={best:.3f} m")


if __name__ == "__main__":
    main()
