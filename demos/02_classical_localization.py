"""Trilateration and fingerprinting on one simulated campaign.

Runs UWB range trilateration, calibrated RSSI trilateration and k-NN
fingerprinting on 120 s of data, then prints one error summary per method.
"""

from dataclasses import replace

import numpy as np

from indoor_fusion.evaluate import error_report
from indoor_fusion.fingerprint import (
    build_map,
    calibrate_rssi_offset,
    locate,
    rssi_snapshot_positions,
)
from indoor_fusion.geometry import trilaterate_batch
from indoor_fusion.ingest import ingest_run
from indoor_fusion.mlp import SplitSpec, split_dataset
from indoor_fusion.records import Position2D
from indoor_fusion.simulate import SimConfig, build_scenario, simulate_run


def uwb_trilat(result, scenario):
    stream = result.streams["uwb"]
    anchors = {a.id: a.position for a in scenario.uwb_anchors}
    geometry = np.asarray([(anchors[c].x, anchors[c].y) for c in stream.columns])
    ranges = stream.feature_matrix()
    usable = ranges >= 0.0  # a dropped-out anchor reports a negative range
    kept = usable.any(axis=1)
    est, _ = trilaterate_batch(np.broadcast_to(geometry, (int(kept.sum()), *geometry.shape)),
                               ranges[kept], usable[kept])
    samples = [s for s, k in zip(stream.samples, kept) if k]
    pairs = [(s.t_ref, Position2D(float(x), float(y))) for s, (x, y) in zip(samples, est)]
    return error_report(pairs, [(s.t_ref, s.label) for s in samples])


def rssi_trilat(result, scenario):
    stream = result.streams["rssi"]
    cal = calibrate_rssi_offset(stream, list(scenario.wifi_anchors))
    print(f"  (calibrated receiver gain: {cal.beta:+.0f} dB)")
    positions = {a.id: a.position for a in scenario.wifi_anchors}
    est = rssi_snapshot_positions(stream, positions, cal.beta)
    pairs = [(s.t_ref, Position2D(float(est[i, 0]), float(est[i, 1])))
             for i, s in enumerate(stream.samples)]
    return error_report(pairs, [(s.t_ref, s.label) for s in stream.samples])


def fingerprint(result, modality):
    stream = result.streams[modality]
    train_s, test_s = split_dataset(list(stream.samples), SplitSpec(shuffle_seed=0))
    train_s = sorted(train_s, key=lambda s: s.t_ref)  # splits come shuffled
    test_s = sorted(test_s, key=lambda s: s.t_ref)
    radio_map = build_map(replace(stream, samples=tuple(train_s)), 0.25)
    pairs = [(s.t_ref, locate(s.features, radio_map)) for s in test_s]
    return error_report(pairs, [(s.t_ref, s.label) for s in test_s])


def main():
    scenario = build_scenario(7)
    config = SimConfig(duration=120.0)
    records = simulate_run(scenario, config)
    result = ingest_run(records, scenario.sensor_offsets, config.rates,
                        config.duration)

    reports = {
        "uwb-trilat": uwb_trilat(result, scenario),
        "rssi-trilat": rssi_trilat(result, scenario),
        "rssi-fp": fingerprint(result, "rssi"),
        "csi-fp": fingerprint(result, "csi"),
    }
    print(f"\n{'method':12s} {'p50':>7s} {'p95':>7s} {'p99':>7s} {'n':>6s}")
    for name, report in reports.items():
        p = report.percentiles
        print(f"{name:12s} {p['p50']:7.3f} {p['p95']:7.3f} {p['p99']:7.3f} "
              f"{report.count:6d}")


if __name__ == "__main__":
    main()
