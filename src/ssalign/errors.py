"""Exception types raised across the toolkit, and the stage tag of construction errors."""

import functools


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
    ``stage`` names the construction stage that raised it, set by the
    stage's function (see :func:`stage`) or by the relay per side: ``plan``,
    ``execute``, ``uplink``, ``downlink`` (a downlink twin or a downlink
    projector) or ``forward``; ``None`` if it came from outside them.
    """

    channels = None
    stage = None


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


def stage(name: str):
    """Decorator: a ``ConstructionError`` leaving the function gets ``stage = name``.

    An error already tagged by a stage called inside keeps its tag.
    """
    def tag(fn):
        @functools.wraps(fn)
        def tagged(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ConstructionError as exc:
                if exc.stage is None:
                    exc.stage = name
                raise
        return tagged
    return tag
