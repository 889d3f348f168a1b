"""Exception hierarchy shared across the pipeline."""


class ReachFuzzError(Exception):
    """Base class for all errors raised by this package."""


class TransportError(ReachFuzzError):
    """Remote completion backend failed after exhausting retries."""


class FixtureMissError(ReachFuzzError):
    """The scripted backend received a prompt no rule matches."""


class TemplateError(ReachFuzzError):
    """A query template is malformed or rendered with bad fillers."""


class AnswerParseError(ReachFuzzError):
    """A completion text does not satisfy the expected answer schema."""


class TaskError(ReachFuzzError):
    """A query task failed even after the bounded repair loop."""


class GraphFormatError(ReachFuzzError):
    """Call-graph file is syntactically or referentially invalid."""


class TraceDisjointError(ReachFuzzError):
    """An execution trace shares no function with the call chain."""


class DslError(ReachFuzzError):
    """Mutation program text does not parse under the mutation grammar."""


class MaterializeError(ReachFuzzError):
    """A generator payload could not be turned into input bytes."""


class StageFailure(ReachFuzzError):
    """A preparation stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
