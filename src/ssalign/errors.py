"""Exception types raised across the toolkit."""


class InvalidMatrix(ValueError):
    """Matrix input contains NaN/Inf entries or is not two-dimensional."""


class ShapeMismatch(ValueError):
    """Operands do not share the required dimension."""


class InvalidDeactivation(ValueError):
    """Requested relay-antenna count is not a positive number <= current."""


class InvalidPatternOrder(ValueError):
    """Pattern order t lies outside the range valid for the user count."""


class ConstructionError(RuntimeError):
    """A construction stage failed on valid input; the CLI exits with code 3.

    ``channels`` is the ``ChannelSet`` the failed construction sampled, set by
    ``pipeline.construct`` on failures after sampling, else ``None``.
    """

    channels = None


class SupplyExhausted(ConstructionError):
    """A group's stacked-channel nullspace has no unused columns left."""


class AlignmentDegenerate(ConstructionError):
    """A constructed unit failed its geometric postcondition.

    Signals a measure-zero channel draw or a construction bug; callers
    should surface it rather than silently resample.
    """


class ExtensionOverflow(ConstructionError):
    """No extension factor <= ``units.MAX_EXTENSION`` makes every planned count integral."""


class InternalPlanError(ConstructionError):
    """Planner allocation arithmetic disagrees with the closed-form value."""


class ProjectorCollapse(ConstructionError):
    """The relay's forwarding matrix is identically zero."""


class IndependenceViolation(ConstructionError):
    """Units' spans overlap on one link, or a user's beamformer stack is rank deficient."""


class InvalidLemmaParams(ValueError):
    """Monte Carlo check called outside its parameter domain."""
