"""Shared fixtures: small simulated campaigns reused across test modules."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from indoor_fusion.cli import main as cli_main
from indoor_fusion.ingest import ingest_run
from indoor_fusion.simulate import (
    NoiseConfig,
    SimConfig,
    build_scenario,
    simulate_run,
)

settings.register_profile(
    "suite",
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def short_campaign():
    """20 s default-noise run, simulated and ingested in memory."""
    scenario = build_scenario(3)
    config = SimConfig(duration=20.0)
    tables = simulate_run(scenario, config)
    result = ingest_run(tables, scenario.sensor_offsets, config.rates,
                        config.duration)
    return SimpleNamespace(scenario=scenario, config=config, tables=tables,
                           result=result)


@pytest.fixture(scope="session")
def noiseless_campaign():
    """60 s zero-noise run: payloads are exact functions of position."""
    scenario = build_scenario(11)
    config = SimConfig(duration=60.0, noise=NoiseConfig.zero())
    tables = simulate_run(scenario, config)
    result = ingest_run(tables, scenario.sensor_offsets, config.rates, config.duration)
    return SimpleNamespace(scenario=scenario, config=config, tables=tables, result=result)


@pytest.fixture(scope="session")
def cli_campaign(tmp_path_factory):
    """45 s seed-7 dataset pair written by the simulate subcommand."""
    out = tmp_path_factory.mktemp("campaign")
    code = cli_main(["simulate", "--seed", "7", "--duration", "45",
                     "--out", str(out)])
    assert code == 0
    return out
