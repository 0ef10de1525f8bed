"""Scenario generation, trajectory kinematics, channel model, record stream."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensor_rows import rows_of

from indoor_fusion.errors import InvalidOverride
from indoor_fusion.records import (
    Anchor,
    ClockModel,
    Position2D,
    SensorOffset,
    read_records,
    write_records,
)
from indoor_fusion.simulate import (
    DEFAULT_PERTURBATION,
    SPEED_OF_LIGHT,
    Bounds,
    MagneticBump,
    MagneticFieldSpec,
    MultipathRay,
    NoiseConfig,
    Perturbation,
    Scenario,
    SimConfig,
    TrajectoryInterpolator,
    build_scenario,
    csi_channel,
    default_clocks,
    default_rates,
    generate_trajectory,
    perturb_scenario,
    read_sidecar,
    sample_sensors,
    scenario_from_dict,
    scenario_to_dict,
    sim_config_from_dict,
    sim_config_to_dict,
    simulate_run,
    write_sidecar,
)


def test_build_scenario_is_deterministic_and_seed_sensitive():
    a = scenario_to_dict(build_scenario(5))
    b = scenario_to_dict(build_scenario(5))
    c = scenario_to_dict(build_scenario(6))
    assert a == b
    assert a != c


def test_scenario_layout_counts_and_bounds():
    s = build_scenario(0)
    assert len(s.uwb_anchors) == 3
    assert len(s.wifi_anchors) == 13
    assert s.subcarriers == 52
    for a in s.uwb_anchors + s.wifi_anchors:
        assert s.bounds.contains(a.position.x, a.position.y)
    # one direct ray plus three wall reflections per WiFi node
    for aid, rays in s.multipath.items():
        assert len(rays) == 4
        assert rays[0].wall is None
        assert all(r.wall is not None for r in rays[1:])
    assert set(s.session_phase) == {a.id for a in s.wifi_anchors}
    assert all(0.0 <= p < 2.0 * math.pi for p in s.session_phase.values())


def test_default_rates_and_clocks():
    assert default_rates() == {"gt": 5.0, "csi": 7.5, "uwb": 9.0, "imu": 76.93}
    clocks = default_clocks()
    assert clocks["uwb"].offset == 0.002
    assert clocks["csi"].offset == -0.003
    assert clocks["rssi"].offset == -0.003
    assert clocks["imu"].offset == 0.001
    assert all(c.drift == 0.0 for c in clocks.values())


def test_build_scenario_overrides():
    s = build_scenario(0, rssi_p0_dbm=-50.0)
    assert s.rssi_p0_dbm == -50.0
    with pytest.raises(InvalidOverride):
        build_scenario(0, not_a_field=1)
    with pytest.raises(InvalidOverride):
        build_scenario(0, subcarriers=0)
    with pytest.raises(InvalidOverride):
        build_scenario(0, uwb_anchors=(Anchor("u9", "uwb", Position2D(50.0, 50.0)),))


def test_noise_and_sim_config_validation():
    zero = NoiseConfig.zero()
    assert all(getattr(zero, f.name) == 0.0 for f in dataclasses.fields(zero))
    with pytest.raises(ValueError):
        NoiseConfig(uwb_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(uwb_dropout_prob=1.5)
    with pytest.raises(ValueError):
        SimConfig(duration=0.0)
    with pytest.raises(ValueError):
        SimConfig(rates={"gt": 5.0, "uwb": -1.0})
    assert SimConfig().clock_for("nonexistent") == ClockModel()


def test_perturbation_identity_is_a_noop():
    s = build_scenario(4)
    same = perturb_scenario(s, Perturbation(), seed2=99)
    assert scenario_to_dict(same) == scenario_to_dict(s)


def test_perturbation_changes_fields_but_keeps_seed():
    s = build_scenario(4)
    p = perturb_scenario(s, DEFAULT_PERTURBATION, seed2=5)
    assert p.seed == s.seed
    assert p.sensor_offsets["uwb"].x_off == pytest.approx(
        s.sensor_offsets["uwb"].x_off + 0.04)
    assert scenario_to_dict(p)["wifi_anchors"] != scenario_to_dict(s)["wifi_anchors"]
    assert p.session_phase != s.session_phase
    b0, b1 = s.magnetic_field.bumps[0], p.magnetic_field.bumps[0]
    assert b1.amplitude[0] == pytest.approx(0.9 * b0.amplitude[0])
    for a in p.uwb_anchors + p.wifi_anchors:
        assert p.bounds.contains(a.position.x, a.position.y)


# ---------------------------------------------------------------------------
# Trajectory

def test_trajectory_count_and_grid():
    s = build_scenario(1)
    traj = generate_trajectory(s, duration=60.0, speed=0.2)
    assert len(traj) == 300  # floor(60 * 5)
    assert traj[0][0] == 0.0
    assert traj[-1][0] == pytest.approx(59.8)


@given(st.integers(0, 20), st.floats(min_value=3.0, max_value=20.0),
       st.floats(min_value=0.1, max_value=0.5))
@settings(max_examples=30)
def test_trajectory_stays_in_bounds_and_respects_speed(seed, duration, speed):
    s = build_scenario(seed)
    traj = generate_trajectory(s, duration, speed)
    xs = np.asarray([p.x for _, p in traj])
    ys = np.asarray([p.y for _, p in traj])
    assert np.all((xs >= 0.0) & (xs <= s.bounds.width))
    assert np.all((ys >= 0.0) & (ys <= s.bounds.height))
    step = np.hypot(np.diff(xs), np.diff(ys))
    assert np.all(step <= speed * 0.2 + 1e-9)  # never faster than commanded


def test_trajectory_covers_distance():
    s = build_scenario(2)
    traj = generate_trajectory(s, duration=120.0, speed=0.2)
    xs = np.asarray([p.x for _, p in traj])
    ys = np.asarray([p.y for _, p in traj])
    walked = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
    # 0.2 m/s for 120 s is 24 m; turns are slower and cut corners
    assert 0.6 * 24.0 <= walked <= 24.0 + 1e-6


def test_trajectory_fits_small_rooms():
    s = build_scenario(0, bounds=Bounds(1.2, 0.9),
                       uwb_anchors=(), wifi_anchors=(),
                       multipath={}, session_phase={})
    traj = generate_trajectory(s, duration=30.0, speed=0.2)
    for _, pose in traj:
        assert s.bounds.contains(pose.x, pose.y)


def test_bounds_contains_points_and_arrays():
    room = Bounds(8.0, 6.0)
    assert room.contains(0.0, 6.0) and not room.contains(8.1, 1.0)
    xs = np.asarray([0.0, 8.0, -0.1, 4.0, np.nan])
    ys = np.asarray([0.0, 6.0, 1.0, 6.5, 1.0])
    assert room.contains(xs, ys).tolist() == [True, True, False, False, False]


def test_interpolator_exact_at_knots_and_clamped_outside():
    interp = TrajectoryInterpolator([0.0, 1.0, 2.0], [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)],
                                    [0.0, 0.0, 1.0])
    np.testing.assert_allclose(interp.position_at([0.0, 1.0, 2.0]),
                               [[0, 0], [2, 0], [2, 2]], atol=1e-12)
    np.testing.assert_allclose(interp.position_at([0.5]), [[1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(interp.position_at([-5.0, 9.0]),
                               [[0, 0], [2, 2]], atol=1e-12)
    assert interp.heading_at([2.5])[0] == pytest.approx(1.0)


def test_interpolator_heading_takes_the_short_arc():
    interp = TrajectoryInterpolator([0.0, 1.0], [(0, 0), (1, 0)], [3.0, -3.0])
    mid = interp.heading_at([0.5])[0]
    # halfway from +3 to -3 through the wrap is pi (mod 2pi)
    assert abs(abs(mid) - math.pi) < 1e-9 or abs(mid - math.pi) < 1e-9


def test_interpolator_rejects_degenerate_input():
    with pytest.raises(ValueError):
        TrajectoryInterpolator([0.0], [(0, 0)], [0.0])
    with pytest.raises(ValueError):
        TrajectoryInterpolator([0.0, 0.0], [(0, 0), (1, 0)], [0.0, 0.0])


def test_sensor_position_offset_translation():
    interp = TrajectoryInterpolator([0.0, 1.0], [(1.0, 2.0), (1.0, 3.0)],
                                    [math.pi / 2, math.pi / 2])
    pos = interp.sensor_position_at(np.asarray([0.0]), SensorOffset(0.1, 0.0, 0.0))
    np.testing.assert_allclose(pos, [[1.0, 2.1]], atol=1e-12)
    same = interp.sensor_position_at(np.asarray([0.0]), SensorOffset())
    np.testing.assert_allclose(same, [[1.0, 2.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# Magnetic field and CSI channel

def test_magnetic_field_bump_oracle():
    field = MagneticFieldSpec(earth=(10.0, 0.0, -40.0),
                              bumps=(MagneticBump((2.0, 2.0), 0.5, (5.0, 0.0, 0.0)),))
    at_center = field.at(np.asarray([[2.0, 2.0]]))[0]
    np.testing.assert_allclose(at_center, [15.0, 0.0, -40.0], atol=1e-12)
    far = field.at(np.asarray([[7.9, 5.9]]))[0]
    np.testing.assert_allclose(far, [10.0, 0.0, -40.0], atol=1e-6)


def _single_ray_scenario(ray):
    anchor = Anchor("w00", "wifi", Position2D(1.0, 1.0))
    return anchor, Scenario(wifi_anchors=(anchor,),
                            multipath={"w00": (ray,)},
                            session_phase={"w00": 0.0})


def test_csi_channel_direct_ray_oracle():
    anchor, s = _single_ray_scenario(MultipathRay(None, 1.0, 0.0))
    h = csi_channel(s, anchor, np.asarray([[4.0, 1.0]]))  # 3 m away
    assert h.shape == (1, 52)
    freqs = s.carrier_hz + (np.arange(52) - 26.0) * s.subcarrier_spacing_hz
    expected = (1.0 / 3.0) * np.exp(-2j * np.pi * 3.0 * freqs / SPEED_OF_LIGHT)
    np.testing.assert_allclose(h[0], expected, rtol=1e-12)


def test_csi_channel_wall_reflection_oracle():
    anchor, s = _single_ray_scenario(MultipathRay("right", 0.5, 0.2))
    h = csi_channel(s, anchor, np.asarray([[4.0, 1.0]]))
    path = (2.0 * s.bounds.width - 1.0) - 4.0 + 0.2  # mirror at x = 15
    freqs = s.carrier_hz + (np.arange(52) - 26.0) * s.subcarrier_spacing_hz
    expected = (0.5 / path) * np.exp(-2j * np.pi * path * freqs / SPEED_OF_LIGHT)
    np.testing.assert_allclose(h[0], expected, rtol=1e-12)


def test_csi_channel_near_field_amplitude_clamp():
    anchor, s = _single_ray_scenario(MultipathRay(None, 1.0, 0.0))
    h = csi_channel(s, anchor, np.asarray([[1.1, 1.0]]))  # 0.1 m < 0.3 m clamp
    np.testing.assert_allclose(np.abs(h[0]), 1.0 / 0.3, rtol=1e-12)


def test_csi_channel_depends_on_position():
    s = build_scenario(3)
    anchor = s.wifi_anchors[0]
    h = csi_channel(s, anchor, np.asarray([[1.0, 1.0], [5.0, 4.0]]))
    assert not np.allclose(h[0], h[1])


# ---------------------------------------------------------------------------
# The emitted tables

def _noiseless(duration, clocks=None):
    return SimConfig(duration=duration, noise=NoiseConfig.zero(),
                     clocks={} if clocks is None else clocks)


def test_stream_counts_follow_the_emission_grids():
    s = build_scenario(0)
    tables = simulate_run(s, _noiseless(2.0))
    by_sensor = {sensor: len(table) for sensor, table in tables.items()}
    assert by_sensor["gt"] == 10          # floor(2 * 5), starting at t = 0
    assert by_sensor["uwb"] == 18 * 3     # floor(2 * 9) ticks, 3 anchors, no dropout
    assert by_sensor["rssi"] == 15 * 13   # floor(2 * 7.5) ticks, 13 anchors
    assert by_sensor["csi"] == 15 * 13
    assert by_sensor["imu"] == 153        # floor(2 * 76.93)
    lines = np.concatenate([table.line for table in tables.values()])
    assert sorted(lines.tolist()) == list(range(1, sum(by_sensor.values()) + 1))


def test_stream_first_ticks_skip_time_zero():
    s = build_scenario(0)
    tables = simulate_run(s, _noiseless(2.0))
    firsts = {sensor: table.t[0] for sensor, table in tables.items()}
    assert firsts["gt"] == 0.0
    assert firsts["uwb"] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert firsts["csi"] == pytest.approx(1.0 / 7.5, abs=1e-12)
    assert firsts["imu"] == pytest.approx(1.0 / 76.93, abs=1e-12)


def test_stream_is_sorted_and_deterministic(tmp_path):
    s = build_scenario(9)
    config = SimConfig(duration=3.0)
    write_records(tmp_path / "a.jsonl", simulate_run(s, config))
    write_records(tmp_path / "b.jsonl", simulate_run(s, config))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    keys = [(t, sensor, source) for sensor, t, source, _, _ in
            rows_of(read_records(tmp_path / "a.jsonl"))]
    assert keys == sorted(keys)


@pytest.mark.parametrize("duration", [30.0, 120.0])
def test_simulate_run_holds_each_payload_once(duration):
    # CSI is generated into its table and every other block copied once into
    # its own: the peak is the tables plus one anchor's working arrays, not a
    # joined copy of every payload gathered into row order (2.35x)
    scenario = build_scenario(42)
    simulate_run(scenario, SimConfig(duration=2.0))  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        tables = simulate_run(scenario, SimConfig(duration=duration))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for table in tables.values()
               for a in (table.t, table.values, table.source, table.anchor, table.line))
    assert peak <= 1.6 * held


def test_a_scenario_without_wifi_anchors_emits_no_radio_tables():
    s = build_scenario(3, wifi_anchors=())
    tables, truth = sample_sensors(s, SimConfig(duration=2.0), generate_trajectory(s, 2.0, 0.2),
                                   return_truth=True)
    assert list(tables) == list(truth) and set(tables) == {"gt", "uwb", "imu"}


def test_recorded_times_follow_the_clock_model():
    clocks = {"imu": ClockModel(offset=0.001, drift=1e-4),
              "uwb": ClockModel(offset=0.002)}
    s = build_scenario(1)
    traj = generate_trajectory(s, 2.0, 0.2)
    tables, truth = sample_sensors(s, _noiseless(2.0, clocks), traj, return_truth=True)
    assert list(truth) == list(tables)
    for sensor, table in tables.items():
        t_true = truth[sensor][:, 0]
        if sensor == "imu":
            np.testing.assert_array_equal(table.t, t_true * (1.0 + 1e-4) + 0.001)
        elif sensor == "uwb":
            np.testing.assert_array_equal(table.t, t_true * 1.0 + 0.002)
        else:
            np.testing.assert_array_equal(table.t, t_true)


def test_noiseless_measurements_match_the_physics():
    s = build_scenario(2)
    traj = generate_trajectory(s, 2.0, 0.2)
    tables, truth = sample_sensors(s, _noiseless(2.0), traj, return_truth=True)
    for sensor in ("uwb", "rssi"):
        table, (_, x, y) = tables[sensor], truth[sensor].T
        by_id = {a.id: a for a in s.uwb_anchors + s.wifi_anchors}
        anchors = [by_id[table.anchor_ids[a]] for a in table.anchor]
        d = np.hypot(x - [a.position.x for a in anchors], y - [a.position.y for a in anchors])
        if sensor == "uwb":
            np.testing.assert_allclose(table.values[:, 0], d, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(table.values[:, 1],
                                       -40.0 - 20.0 * np.log10(np.maximum(d, 0.1)),
                                       rtol=0.0, atol=1e-9)
        else:
            expected = s.rssi_p0_dbm - 10.0 * s.rssi_exponent * np.log10(
                np.maximum(d, 1e-3) / s.rssi_d0_m)
            np.testing.assert_allclose(table.values[:, 0], expected, rtol=0.0, atol=1e-9)
        assert len(table) > 0
    imu = tables["imu"].values
    assert len(imu) > 0
    np.testing.assert_allclose(imu[:, 2], 9.81)
    assert not imu[:, 3:5].any()  # no roll or pitch rate


def test_session_phase_reseed_keeps_magnitudes_bit_identical():
    s = build_scenario(7)
    reseeded = perturb_scenario(s, Perturbation(session_phase_reseed=True), seed2=11)
    assert reseeded.seed == s.seed
    config = _noiseless(2.0)
    traj = generate_trajectory(s, 2.0, 0.2)
    c1 = sample_sensors(s, config, traj)["csi"]
    c2 = sample_sensors(reseeded, config, traj)["csi"]
    assert len(c1) == len(c2)
    half = s.subcarriers
    assert c1.values[:, :half].tobytes() == c2.values[:, :half].tobytes()
    phases_moved = (c1.values[:, half:] != c2.values[:, half:]).any(axis=1)
    assert phases_moved.sum() == len(c1)


def test_uwb_dropout_removes_records():
    s = build_scenario(3)
    full = simulate_run(s, SimConfig(duration=4.0, noise=NoiseConfig.zero()))
    lossy = simulate_run(s, SimConfig(
        duration=4.0, noise=dataclasses.replace(NoiseConfig.zero(), uwb_dropout_prob=0.5)))
    assert len(lossy["uwb"]) < len(full["uwb"])
    assert len(lossy["imu"]) == len(full["imu"])
    # a sensor that emits nothing has no table
    silent = simulate_run(s, SimConfig(
        duration=4.0, noise=dataclasses.replace(NoiseConfig.zero(), uwb_dropout_prob=1.0)))
    assert "uwb" not in silent
    assert {k: len(v) for k, v in silent.items()} == {
        k: len(v) for k, v in full.items() if k != "uwb"}


# ---------------------------------------------------------------------------
# Sidecar serialization

def test_scenario_dict_roundtrip():
    s = build_scenario(13)
    assert scenario_to_dict(scenario_from_dict(scenario_to_dict(s))) == scenario_to_dict(s)


def test_sim_config_dict_roundtrip():
    c = SimConfig(duration=42.0, clocks={"uwb": ClockModel(0.004, 5e-5)})
    back = sim_config_from_dict(sim_config_to_dict(c))
    assert sim_config_to_dict(back) == sim_config_to_dict(c)


def test_sidecar_roundtrip(tmp_path):
    s1 = build_scenario(8)
    s2 = perturb_scenario(s1, DEFAULT_PERTURBATION, seed2=9)
    config = SimConfig(duration=5.0)
    path = tmp_path / "scenario.json"
    write_sidecar(path, s1, config, s2)
    r1, rc, r2 = read_sidecar(path)
    assert scenario_to_dict(r1) == scenario_to_dict(s1)
    assert scenario_to_dict(r2) == scenario_to_dict(s2)
    assert sim_config_to_dict(rc) == sim_config_to_dict(config)

    write_sidecar(path, s1, config)
    _, _, none2 = read_sidecar(path)
    assert none2 is None
