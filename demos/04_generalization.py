"""Why CSI magnitudes transfer across sessions and phases do not.

Trains a magnitude-feature and a phase-feature CSI model on campaign A, then
scores both on a campaign whose per-anchor phase offsets were redrawn --
the radio layout, trajectory and noise stay identical.  Magnitude features
survive; phase features collapse.
"""

from indoor_fusion.evaluate import split_and_run
from indoor_fusion.ingest import (
    build_fusion_frames,
    ingest_run,
    label_with_groundtruth,
    select_blocks,
)
from indoor_fusion.mlp import MlpConfig, SplitSpec
from indoor_fusion.simulate import (
    Perturbation,
    SimConfig,
    build_scenario,
    perturb_scenario,
    simulate_run,
)


def csi_frames(scenario, config):
    records = simulate_run(scenario, config)
    result = ingest_run(records, scenario.sensor_offsets, config.rates,
                        config.duration)
    magnitude = select_blocks(result.frames, ["csi"])
    csi_records = [r for r in result.corrected if r.sensor == "csi"]
    stream = label_with_groundtruth(csi_records, result.gt_records,
                                    scenario.sensor_offsets["csi"],
                                    csi_features="phase")
    return magnitude, build_fusion_frames([stream])


def main():
    scenario = build_scenario(1234)
    config = SimConfig(duration=180.0)
    reseeded = perturb_scenario(
        scenario, Perturbation(session_phase_reseed=True), 99)

    mag_a, phase_a = csi_frames(scenario, config)
    mag_b, phase_b = csi_frames(reseeded, config)

    nn_config = MlpConfig.for_input(mag_a.features.shape[1] + 1, epochs=30,
                                    seed=0)
    spec = SplitSpec(shuffle_seed=0)
    for name, frames_a, frames_b in (("magnitude", mag_a, mag_b),
                                     ("phase", phase_a, phase_b)):
        out = split_and_run(frames_a, frames_b, nn_config, spec)
        self_p50 = out.self_report.percentiles["p50"]
        transfer_p50 = out.transfer_report.percentiles["p50"]
        print(f"{name:9s} self p50={self_p50:.3f} m   "
              f"other session p50={transfer_p50:.3f} m   "
              f"degradation x{transfer_p50 / self_p50:.2f}")


if __name__ == "__main__":
    main()
