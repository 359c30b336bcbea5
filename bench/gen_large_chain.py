"""Seeded generator of the ``large-chain`` benchmark scenario.

The scenario has M = 3 frequencies with 2, 2 and 3 quality levels (12
composite quality states), a holding period of up to 8 slots (96 cascaded
states) and N = 6 observable 2-D plants.  Frequency 1 is the best channel
on average, so sweeping its two drop entries over [0, 1] moves the base
point across ``product = 1`` and splits the sweep region.

The seed reaches only this generator; the program under test receives only
the YAML it writes.  The plant radii are calibrated with the benchmark's own
cascaded-chain construction (``oracles.py``), independent of the package, so that the base
point sits at ``rho_max^2 * lambda = TARGET_PRODUCT``.

Run ``python3 bench/gen_large_chain.py --seed 7 --out large.yaml`` to write
one scenario by hand.
"""

from __future__ import annotations

import argparse
import itertools

import numpy as np

from oracles import cascaded_transition

LEVELS = (2, 2, 3)
MAX_HOLDING = 8
NUM_PLANTS = 6
TARGET_PRODUCT = 0.9
# the greedy failure factor lambda is pinned so that every seed gives a
# cycle series of about 65 terms and the same plant radius rho_max
TARGET_FACTOR = 0.65
# ranges of the raw per-level drop probabilities, best level first; no drop
# exceeds MAX_DROP, so every frequency delivers and no AoI grows without bound
DROP_RANGES = ((0.5, 0.75), (0.6, 0.85), (0.65, 0.9))
MAX_DROP = 0.95


def _stochastic_rows(rng: np.random.Generator, rows: int, cols: int) -> list[list[float]]:
    """Positive rows rounded to 12 digits whose sums stay within 1e-11 of 1."""
    mat = rng.dirichlet(np.full(cols, 2.0), size=rows) * 0.9 + 0.1 / cols
    mat = np.round(mat, 12)
    mat[:, -1] = np.round(1.0 - mat[:, :-1].sum(axis=1), 12)
    return mat.tolist()


def _plant(rng: np.random.Generator, radius: float) -> dict:
    """2-D plant: a scaled rotation observed through its first coordinate."""
    theta = float(rng.uniform(0.3, 1.2))
    c, s = radius * np.cos(theta), radius * np.sin(theta)
    return {
        "A": [[float(c), float(-s)], [float(s), float(c)]],
        "C": [[1.0, 0.0]],
        "W": [[float(rng.uniform(0.5, 1.5)), 0.0], [0.0, float(rng.uniform(0.5, 1.5))]],
        "Z": [[float(rng.uniform(0.5, 1.5))]],
    }


def generate(seed: int) -> dict:
    """Scenario document for one seed, ready for ``yaml.safe_dump``."""
    rng = np.random.default_rng(seed)
    m_bar = int(np.prod(LEVELS))
    transition = _stochastic_rows(rng, m_bar, m_bar)
    holding = _stochastic_rows(rng, m_bar, MAX_HOLDING)
    raw = [sorted(rng.uniform(*DROP_RANGES[f], size=k)) for f, k in enumerate(LEVELS)]
    cascade = cascaded_transition(np.array(transition), np.array(holding))

    def greedy_factor(drops) -> float:
        states = itertools.product(*(range(k) for k in LEVELS))
        best = [min(drops[f][lvl] for f, lvl in enumerate(s)) for s in states]
        fail = np.repeat(best, MAX_HOLDING)[:, None] * cascade
        return float(np.max(np.abs(np.linalg.eigvals(fail))))

    # lambda is linear in a common scale of all drops; capping the largest
    # entries moves it slightly, so rho_max is fitted to the final drops
    scale = TARGET_FACTOR / greedy_factor(raw)
    level_drops = [[round(min(MAX_DROP, float(d) * scale), 6) for d in row] for row in raw]
    rho_max = float(np.sqrt(TARGET_PRODUCT / greedy_factor(level_drops)))

    radii = [rho_max] + sorted(
        (float(rng.uniform(0.9, 0.98 * rho_max)) for _ in range(NUM_PLANTS - 1)),
        reverse=True,
    )
    return {
        "name": f"large-chain-seed{seed}",
        "notes": f"generated by bench/gen_large_chain.py, seed {seed}",
        "processes": [_plant(rng, r) for r in radii],
        "channel": {
            "levels_per_frequency": list(LEVELS),
            "transition": transition,
            "max_holding": MAX_HOLDING,
            "holding_pmf": holding,
        },
        "drops": {"per_level": level_drops},
        "sweep": {
            "axes": [
                {"frequency": 1, "level": 1, "min": 0.0, "max": 1.0},
                {"frequency": 1, "level": 2, "min": 0.0, "max": 1.0},
            ],
            "grid": [21, 21],
        },
        "sim": {"policy": "persistent-serial", "horizon": 5000, "seeds": [1]},
    }


def write(seed: int, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(generate(seed), fh, sort_keys=False, default_flow_style=None)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write(args.seed, args.out)


if __name__ == "__main__":
    main()
