"""Exception types shared across the package."""


class DuplexError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DuplexError, ValueError):
    """Input violates a documented contract (bad segment, bad config, ...)."""


class PolicyContractViolation(DuplexError, RuntimeError):
    """A simulation policy emitted an action that is illegal for its current mode."""

    def __init__(self, tick_index, agent, mode, action):
        self.tick_index = tick_index
        self.agent = agent
        self.mode = mode
        self.action = action
        super().__init__(
            f"agent {agent} emitted {action.name} while {mode} at tick {tick_index}"
        )
