"""Shared builders for the test suite."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).parent))

from remest import ProcessModel, Scenario, SemiMarkovChannelModel
from remest.scenario import bundled_scenario_path, load_scenario, parse_scenario_dict


def scalar_process(a: float, w: float = 1.0, z: float = 1.0, index: int = 0) -> ProcessModel:
    return ProcessModel(A=[[a]], C=[[1.0]], W=[[w]], Z=[[z]], index=index)


def bernoulli_channel(drop: float) -> SemiMarkovChannelModel:
    """Single-frequency, single-quality-state, memoryless channel."""
    return SemiMarkovChannelModel(
        levels_per_frequency=(1,),
        transition=[[1.0]],
        holding_pmf=[1.0],
        level_drops=((drop,),),
    )


def single_sensor_scenario(a: float, drop: float, w: float = 1.0, z: float = 1.0) -> Scenario:
    return Scenario.build([scalar_process(a, w, z)], bernoulli_channel(drop))


def example_channel(
    psi1: float = 0.5,
    d11: float = 0.5,
    d12: float = 0.8,
    d21: float = 0.2,
    d22: float = 0.9,
) -> SemiMarkovChannelModel:
    """The bundled 2-frequency, 2-level, holding-up-to-2 channel family."""
    return SemiMarkovChannelModel(
        levels_per_frequency=(2, 2),
        transition=[
            [0.1, 0.2, 0.3, 0.4],
            [0.2, 0.1, 0.4, 0.3],
            [0.4, 0.2, 0.1, 0.3],
            [0.3, 0.1, 0.4, 0.2],
        ],
        holding_pmf=[psi1, 1.0 - psi1],
        level_drops=((d11, d12), (d21, d22)),
    )


def example_processes() -> list[ProcessModel]:
    return [
        scalar_process(1.5, index=0),
        scalar_process(1.2, index=1),
        scalar_process(1.1, index=2),
    ]


def example_scenario(**channel_kwargs) -> Scenario:
    return Scenario.build(example_processes(), example_channel(**channel_kwargs))


def random_semi_markov(
    rng: np.random.Generator,
    levels=(2, 1),
    max_holding: int = 3,
    max_drop: float = 1.0,
) -> SemiMarkovChannelModel:
    """Random dense model: strictly positive rows keep the chain ergodic."""
    m_bar = int(np.prod(levels))
    transition = rng.uniform(0.05, 1.0, size=(m_bar, m_bar))
    transition /= transition.sum(axis=1, keepdims=True)
    pmf = rng.uniform(0.05, 1.0, size=(m_bar, max_holding))
    pmf /= pmf.sum(axis=1, keepdims=True)
    level_drops = tuple(
        tuple(rng.uniform(0.0, max_drop) for _ in range(k)) for k in levels
    )
    return SemiMarkovChannelModel(
        levels_per_frequency=tuple(levels),
        transition=transition,
        holding_pmf=pmf,
        level_drops=level_drops,
    )


def long_holding_scenario():
    """Bundled scenario with holding periods up to 8 slots, so the sweep solves the kernel."""
    with open(bundled_scenario_path(), "rb") as fh:
        data = yaml.safe_load(fh)
    data["channel"]["max_holding"] = 8
    data["channel"]["holding_pmf"] = [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05]
    return parse_scenario_dict(data)


def thin_tail_scenario():
    """Bundled scenario with holding pmf 0.5^k over 64 slots: a last entry of 5.4e-20."""
    with open(bundled_scenario_path(), "rb") as fh:
        data = yaml.safe_load(fh)
    data["channel"]["max_holding"] = 64
    data["channel"]["holding_pmf"] = [0.5**k for k in range(1, 65)]
    return parse_scenario_dict(data)


def slow_fading_scenario():
    """Bundled scenario with holding pmf proportional to 0.9^k over 256 slots (1,024 states)."""
    with open(bundled_scenario_path(), "rb") as fh:
        data = yaml.safe_load(fh)
    data["channel"]["max_holding"] = 256
    data["channel"]["holding_pmf"] = [0.1 * 0.9**k for k in range(256)]
    return parse_scenario_dict(data)


def large_chain_scenario(seed: int, directory):
    """The bench's generated ``large-chain`` scenario for one seed: 96 cascaded states."""
    path = Path(directory) / f"large{seed}.yaml"
    script = Path(__file__).resolve().parent.parent / "bench" / "gen_large_chain.py"
    subprocess.run([sys.executable, str(script), "--seed", str(seed), "--out", str(path)], check=True)
    return load_scenario(path)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
