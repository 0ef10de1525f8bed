"""Trilateration and fingerprinting on one simulated campaign.

Runs UWB range trilateration, calibrated RSSI trilateration and k-NN
fingerprinting on 120 s of data, then prints one error summary per method.
"""

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
from indoor_fusion.simulate import SimConfig, build_scenario, simulate_run


def uwb_trilat(result, scenario):
    stream = result.streams["uwb"]
    anchors = {a.id: a.position for a in scenario.uwb_anchors}
    geometry = np.asarray([(anchors[c].x, anchors[c].y) for c in stream.columns])
    usable = stream.features >= 0.0  # a dropped-out anchor reports a negative range
    kept = usable.any(axis=1)
    used = stream.take(kept)
    est, _ = trilaterate_batch(np.broadcast_to(geometry, (len(used), *geometry.shape)),
                               used.features, usable[kept])
    return error_report(est, used.labels)


def rssi_trilat(result, scenario):
    stream = result.streams["rssi"]
    cal = calibrate_rssi_offset(stream, list(scenario.wifi_anchors))
    print(f"  (calibrated receiver gain: {cal.beta:+.0f} dB)")
    positions = {a.id: a.position for a in scenario.wifi_anchors}
    est = rssi_snapshot_positions(stream, positions, cal.beta)
    return error_report(est, stream.labels)


def fingerprint(result, modality):
    stream = result.streams[modality]
    # split row indices: a stream's ticks stay in time order, splits come shuffled
    train_rows, test_rows = split_dataset(np.arange(len(stream)), SplitSpec(shuffle_seed=0))
    radio_map = build_map(stream.take(np.sort(train_rows)), 0.25)
    test = stream.take(np.sort(test_rows))
    return error_report(locate(test.features, radio_map), test.labels)


def main():
    scenario = build_scenario(7)
    config = SimConfig(duration=120.0)
    tables = simulate_run(scenario, config)
    result = ingest_run(tables, scenario.sensor_offsets, config.rates,
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
