"""Exception hierarchy for the KGModel reproduction.

Every error raised by this library derives from :class:`KGModelError`, so
client code can catch a single exception type at the API boundary.  The
subclasses mirror the subsystems: the graph substrate, the two languages
(Vadalog and MetaLog), the meta-level design layer, the translators, and
the deployment backends.
"""

from __future__ import annotations


class KGModelError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(KGModelError):
    """Invalid operation on a property graph (unknown node, bad arity...)."""


class ParseError(KGModelError):
    """A concrete-syntax program could not be parsed.

    Carries the offending position so tooling can point at the error.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class VadalogError(KGModelError):
    """Semantic error in a Vadalog program (unsafe rule, bad stratification...)."""


class WardednessError(VadalogError):
    """The program falls outside the decidable warded fragment."""


class EvaluationError(VadalogError):
    """Runtime failure during chase-based evaluation."""


class ResourceLimitError(EvaluationError):
    """A hard evaluation limit was hit (iteration cap, null budget...).

    Unlike a plain :class:`EvaluationError`, the partial evaluation
    statistics survive on ``stats`` so callers can see how far the run
    got before it was cut off; ``resource`` names the exhausted limit
    (``"iterations"``, ``"nulls"``, ``"time"``, or ``"facts"``) and
    ``limit`` its configured value.
    """

    def __init__(self, message, resource=None, limit=None, stats=None):
        super().__init__(message)
        self.resource = resource
        self.limit = limit
        self.stats = stats


class MetaLogError(KGModelError):
    """Semantic error in a MetaLog program."""


class TranslationError(KGModelError):
    """MTV or SSST failed to translate a program or a schema."""


class SchemaError(KGModelError):
    """Ill-formed super-schema or schema (validation failure)."""


class ConfigError(KGModelError, ValueError):
    """A configuration value outside its domain (an empty registry...)."""


class ModelError(KGModelError):
    """Unknown target model, construct, or mapping strategy."""


class DeploymentError(KGModelError):
    """A target system rejected a schema or an instance."""


class IntegrityError(DeploymentError):
    """A constraint (key, foreign key, domain, uniqueness) was violated."""


class TransientDeploymentError(DeploymentError):
    """A deployment operation failed for a *transient* reason.

    Transient failures (a dropped connection, a lock timeout, an injected
    chaos fault) are the retryable class: a
    :class:`~repro.deploy.resilience.RetryPolicy` catches exactly this
    type, rolls the in-flight batch back, and tries again.  Everything
    else — :class:`IntegrityError` in particular — is permanent and
    propagates immediately.
    """


class RetryExhaustedError(DeploymentError):
    """Every attempt allowed by a retry policy failed.

    ``attempts`` counts the tries made and ``last_error`` keeps the final
    transient failure (also chained as ``__cause__``), so callers can
    tell a genuinely unreachable target from a too-tight policy.
    """

    def __init__(self, message, attempts=None, last_error=None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CheckpointError(KGModelError):
    """A materialization checkpoint is unreadable or inconsistent."""


class StreamError(KGModelError):
    """The streaming ingestion pipeline hit an unrecoverable condition.

    Per-record problems (malformed feed lines, constraint-violating
    changes) are quarantined, not raised; this type covers the
    pipeline-level failures that must stop the stream: a corrupt delta
    log, a checkpoint written for different inputs, or a sink that can
    no longer accept batches.
    """
