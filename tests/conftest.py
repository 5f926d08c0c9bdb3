import csv
from pathlib import Path

import numpy as np
import pytest

from fedslice.federation import ExperimentConfig
from fedslice.metrics import ROUNDS_HEADER, SELECTED_IDS_SEP


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def small_config(**overrides) -> ExperimentConfig:
    """A config small enough for unit tests but exercising every moving part."""
    base = dict(
        n_clients=4,
        n_selected=2,
        n_rounds=3,
        local_epochs=5,
        samples_per_client=60,
        attribution_samples=10,
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rounds_csv(path: Path) -> list[dict]:
    """Parse a rounds CSV back into plain dicts (inverse of `metrics.write_rounds_csv`)."""
    out = []
    with Path(path).open("r", newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == ROUNDS_HEADER
        for row in reader:
            selected = tuple(int(c) for c in row[3].split(SELECTED_IDS_SEP)) if row[3] else ()
            out.append({
                "round": int(row[0]),
                "mse": float(row[1]),
                "cum_time_ms": float(row[2]),
                "selected": selected,
                "params_transmitted": int(row[4]),
            })
    return out
