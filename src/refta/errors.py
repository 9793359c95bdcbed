"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ReftaError(Exception):
    """Base class for all errors raised by this package."""


class CorpusFormatError(ReftaError):
    """A run, index or corpus file is unreadable or malformed; carries the path and line."""

    def __init__(self, path, line_no: int | None, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        loc = f"{self.path}:{line_no}" if line_no is not None else self.path
        super().__init__(f"{loc}: {reason}")


class IndexError_(ReftaError):
    """Index build, persistence, or query failure."""


class VectorError(IndexError_, ValueError):
    """A zero or non-finite embedding vector. It is also a ``ValueError``, as
    any bad array handed to the index's array helpers is."""


class BackendError(ReftaError):
    """Base class for model-backend client failures."""


class Refusal(BackendError):
    """The backend cannot serve what the run asks of it, for any input, so
    ``backends.map_batches`` sends nothing more once it takes one."""


class TransportError(BackendError):
    """Transport-level failure that persisted through all retries."""


class RequestError(BackendError):
    """Backend rejected the request (HTTP 4xx); never retried."""

    def __init__(self, status: int, body: str):
        self.status = status
        super().__init__(f"HTTP {status}: {body[:500]}")


class CapabilityError(RequestError, Refusal):
    """Backend does not support the requested capability (e.g. a metric)."""


class DimensionError(Refusal):
    """The embedder serves vectors of another size than the index holds."""


class OutputBudgetError(Refusal):
    """The refiner spent its output budget, say on reasoning, before any reply text."""


class ProtocolError(BackendError):
    """Backend answered 2xx but the payload violates the wire contract."""


class PromptBudgetError(ReftaError):
    """Prompt exceeds the input token budget even with zero neighbors."""

    def __init__(self, estimated: int, ceiling: int):
        self.estimated = estimated
        self.ceiling = ceiling
        super().__init__(
            f"prompt estimate {estimated} tokens exceeds ceiling {ceiling} "
            f"with no neighbors left to drop; split the source upstream"
        )


class PipelineError(ReftaError):
    """A pipeline stage failed; carries stage name and segment id."""

    def __init__(self, stage: str, segment_id: str, cause: Exception):
        self.stage = stage
        self.segment_id = segment_id
        self.cause = cause
        super().__init__(f"stage '{stage}' failed for segment '{segment_id}': {cause}")


class ComparisonError(ReftaError):
    """Run comparison refused (corpus digest mismatch or bad inputs)."""
