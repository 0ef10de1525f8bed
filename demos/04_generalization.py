"""Why CSI magnitudes transfer across sessions and phases do not.

Trains a magnitude-feature and a phase-feature CSI model on campaign A, then
scores both on a campaign whose per-anchor phase offsets were redrawn --
the radio layout, trajectory and noise stay identical.  Magnitude features
survive; phase features collapse.
"""

import numpy as np

from indoor_fusion.evaluate import run_generalization
from indoor_fusion.ingest import (
    build_fusion_frames,
    groundtruth_interpolator,
    ingest_run,
    label_with_groundtruth,
    select_blocks,
)
from indoor_fusion.mlp import MlpConfig, SplitSpec, split_dataset
from indoor_fusion.simulate import (
    Perturbation,
    SimConfig,
    build_scenario,
    perturb_scenario,
    simulate_run,
)


def csi_frames(scenario, config):
    tables = simulate_run(scenario, config)
    result = ingest_run(tables, scenario.sensor_offsets, config.rates,
                        config.duration)
    magnitude = (result.frames, select_blocks(result.frames.layout, ["csi"]))
    # relabel the clock-corrected csi table with phase features
    stream = label_with_groundtruth(result.tables["csi"],
                                    groundtruth_interpolator(result.tables["gt"]),
                                    scenario.sensor_offsets["csi"],
                                    csi_features="phase")
    phase = build_fusion_frames([stream])
    return magnitude, (phase, phase.layout)


def main():
    scenario = build_scenario(1234)
    config = SimConfig(duration=180.0)
    reseeded = perturb_scenario(
        scenario, Perturbation(session_phase_reseed=True), 99)

    mag_a, phase_a = csi_frames(scenario, config)
    mag_b, phase_b = csi_frames(reseeded, config)

    nn_config = MlpConfig.for_input(mag_a[1].feature_width + 1, epochs=30, seed=0)
    spec = SplitSpec(shuffle_seed=0)
    for name, (frames_a, layout_a), (frames_b, layout_b) in (("magnitude", mag_a, mag_b),
                                                             ("phase", phase_a, phase_b)):
        train_rows, test_rows = split_dataset(np.arange(len(frames_a)), spec)
        out = run_generalization(frames_a, train_rows, test_rows, frames_b, nn_config,
                                 layout=layout_a, transfer_layout=layout_b)
        self_p50 = out.self_report.percentiles["p50"]
        transfer_p50 = out.transfer_report.percentiles["p50"]
        print(f"{name:9s} self p50={self_p50:.3f} m   "
              f"other session p50={transfer_p50:.3f} m   "
              f"degradation x{transfer_p50 / self_p50:.2f}")


if __name__ == "__main__":
    main()
