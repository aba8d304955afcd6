"""The numpy draws behind every seeded self-chat, pinned value by value.

NEP 19 lets a numpy release change the algorithm behind a Generator
distribution; only the bit generators' streams are kept fixed. Every seeded
output of dde rests on the four distributions the engine draws from, so a
numpy that draws one of them differently fails here, naming it, and not
only as a changed trace or digest.
"""

import math

import numpy as np
import pytest

from dde import LogNormalResponse, UniformResponse
from dde.simulate import SelfChat, stochastic_run

SEED = 7
UNIFORM, LOGNORMAL = UniformResponse(), LogNormalResponse()
MU = math.log(LOGNORMAL.mean_ms) - LOGNORMAL.sigma**2 / 2.0  # as LogNormalResponse.draw computes it

# distribution -> (one draw as the engine makes it, the first four draws of
# each agent's generator: float.hex for floats)
DRAWS = {
    "random": (lambda rng: rng.random(), [
        ["0x1.9880ffd49c595p-1", "0x1.b2f1f18686540p-5", "0x1.2ec592dba1012p-1", "0x1.bcd6a6314377cp-1"],
        ["0x1.ec1db076b9bfep-2", "0x1.e7c4380cc4d70p-5", "0x1.c8112393896e4p-3", "0x1.117df1eb19508p-3"],
    ]),
    "uniform": (lambda rng: rng.uniform(UNIFORM.min_ms, UNIFORM.max_ms), [
        ["0x1.b75b95e6939c6p+11", "0x1.afdb38709a56ap+10", "0x1.7967c40cb056ap+11", "0x1.cca5c560dd883p+11"],
        ["0x1.582cb2b2c86b4p+11", "0x1.b3b99f1aef6acp+10", "0x1.0ace82b61ca1ap+11", "0x1.e01fe5dfe06a9p+10"],
    ]),
    "lognormal": (lambda rng: rng.lognormal(MU, LOGNORMAL.sigma), [
        ["0x1.90a169151ef38p+10", "0x1.601286ebe9094p+12", "0x1.c13766c5dbb24p+10", "0x1.07578656725b3p+13"],
        ["0x1.52fa17f569207p+12", "0x1.e7d6c61dec103p+11", "0x1.c9563c79b5445p+13", "0x1.1a82edc0c47d4p+11"],
    ]),
    "integers": (lambda rng: rng.integers(5), [[1, 3, 1, 0], [3, 2, 1, 0]]),
}


def generators():
    """Both agents' generators, spawned from SEED as SelfChat spawns them."""
    return [np.random.default_rng(stream) for stream in np.random.SeedSequence(SEED).spawn(2)]


def test_a_self_chat_seeds_its_agents_as_these_generators_are_seeded():
    chat = SelfChat(stochastic_run(SEED, 1600))
    states = [state.rng.bit_generator.state for state in chat.states]
    assert states == [rng.bit_generator.state for rng in generators()]


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_first_draws_of_each_distribution_the_engine_uses(name):
    draw, expected = DRAWS[name]
    values = [[draw(rng) for _ in range(4)] for rng in generators()]
    got = [[float(v).hex() if isinstance(v, float) else int(v) for v in agent] for agent in values]
    assert got == expected, f"Generator.{name} draws differently under numpy {np.__version__}"
