import dataclasses
import os

import pytest

from golden_cases import DATA_DIR
from harmbounds import FullLaw, observed_from_full


def make_law_e1() -> FullLaw:
    """Single-level fixture: confounded intention, null-ish trial signal.

    Marginal strata (0.1, 0.3, 0.2, 0.4); everyone intending treatment
    would die under it, nobody intending to skip it would.
    """
    return FullLaw(
        levels=("l0",),
        p_level={"l0": 1.0},
        p_astar={"l0": 0.3},
        p_strata={("l0", 1): (1 / 3, 0.0, 2 / 3, 0.0),
                  ("l0", 0): (0.0, 3 / 7, 0.0, 4 / 7)},
        p_r1={"l0": 0.5},
        p_treat={"l0": 0.5},
    )


def simulate_digests() -> list:
    """One ``pytest.param(law path, n, seed, oracle, sha256)`` per case of
    ``simulate_golden/streaming.sha256``, whose n cross the sampler's chunk size."""
    with open(os.path.join(DATA_DIR, "simulate_golden", "streaming.sha256"), encoding="utf-8") as fh:
        cases = [line.split() for line in fh if not line.startswith("#")]
    return [pytest.param(os.path.join(DATA_DIR, law), int(n), int(seed), mode == "oracle", digest,
                         id=f"{law}-{n}-{mode}")
            for law, n, seed, mode, digest in cases]


def with_strata(law: FullLaw, block: tuple) -> FullLaw:
    """``law`` with ``block`` as every stratum block."""
    return dataclasses.replace(law, p_strata={(l, a): block for l in law.levels for a in (0, 1)})


def unconfounded(law: FullLaw) -> FullLaw:
    """``law`` with each level's A* = 1 stratum block copied onto A* = 0."""
    return dataclasses.replace(law, p_strata={(l, astar): law.p_strata[(l, 1)]
                                              for l in law.levels for astar in (1, 0)})


@pytest.fixture
def law_e1() -> FullLaw:
    return make_law_e1()


@pytest.fixture
def obs_e1(law_e1):
    return observed_from_full(law_e1)
