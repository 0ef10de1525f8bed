"""SensorTables from literal rows and back, for tests.

A row is ``(sensor, t, source_id, anchor_id, values)``: ``anchor_id`` is
None for imu and gt, ``values`` the payload floats in table order (uwb
``[range_m, power_db]``, rssi ``[rssi_db]``, csi magnitudes then phases,
imu the 9 floats, gt ``[x, y, phi]``).  ``emission_truth`` rebuilds
where and when each row of a simulated table was really taken.
"""

from __future__ import annotations

import numpy as np

from indoor_fusion.records import SensorOffset, SensorTable


def tables_of(rows) -> dict[str, SensorTable]:
    """The tables ``read_records`` gives for these rows written one per line.

    ``line`` is each row's 1-based position in ``rows``; source and anchor
    ids are numbered in order of first appearance, sensors keyed likewise.
    """
    grouped: dict[str, list] = {}
    for line, (sensor, *row) in enumerate(rows, start=1):
        grouped.setdefault(sensor, []).append((line, *row))
    return {sensor: _table(sensor, group) for sensor, group in grouped.items()}


def _table(sensor: str, group: list) -> SensorTable:
    lines, times, sources, anchors, values = zip(*group)
    source_ids = tuple(dict.fromkeys(sources))
    anchor_ids = tuple(dict.fromkeys(a for a in anchors if a is not None))
    return SensorTable(
        sensor, np.asarray(times, dtype=np.float64),
        np.asarray([list(v) for v in values], dtype=np.float64),
        np.asarray([source_ids.index(s) for s in sources], dtype=np.intp), source_ids,
        np.asarray([-1 if a is None else anchor_ids.index(a) for a in anchors], dtype=np.intp),
        anchor_ids, np.asarray(lines, dtype=np.intp))


def rows_of(tables: dict[str, SensorTable]) -> list[tuple]:
    """Every row of the tables, in ``line`` order."""
    out = []
    for table in tables.values():
        for line, t, s, a, v in zip(table.line.tolist(), table.t.tolist(),
                                    table.source.tolist(), table.anchor.tolist(),
                                    table.values.tolist()):
            out.append((line, (table.sensor, t, table.source_ids[s],
                               table.anchor_ids[a] if a >= 0 else None, v)))
    return [row for _, row in sorted(out, key=lambda item: item[0])]


def bits(row) -> tuple:
    """A row with every float as its exact bits."""
    sensor, t, source, anchor, values = row
    return (sensor, float(t).hex(), source, anchor, [float(v).hex() for v in values])


def assert_same_tables(got: dict[str, SensorTable], want: dict[str, SensorTable]) -> None:
    """Same sensors in the same order, every column equal bit for bit."""
    assert list(got) == list(want)
    for sensor, table in got.items():
        other = want[sensor]
        assert table.sensor == other.sensor == sensor
        assert (table.source_ids, table.anchor_ids) == (other.source_ids, other.anchor_ids)
        for name in ("t", "values", "source", "anchor", "line"):
            a, b = getattr(table, name), getattr(other, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name


def emission_truth(table: SensorTable, scenario, config,
                   trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The true emission time (N,) and true sensor position (N, 2) of each row
    of a table that ``simulate.sample_sensors`` made, rebuilt from its recorded
    ``t``: the sensor's clock model maps it back to its emission tick k,
    taken at ``(k + 1) / rate`` (rssi rides on the csi ticks), where the
    trajectory, shifted by the sensor's mounting offset, gives the position.
    gt rows are the trajectory's own samples."""
    if table.sensor == "gt":
        return table.t, trajectory.xy
    rate = config.rates["csi" if table.sensor == "rssi" else table.sensor]
    clock = config.clock_for(table.sensor)
    t_true = np.rint((table.t - clock.offset) / (1.0 + clock.drift) * rate) / rate  # k + 1
    offset = scenario.sensor_offsets.get(table.sensor, SensorOffset())
    return t_true, trajectory.sensor_position_at(t_true, offset)
