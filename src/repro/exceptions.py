"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError`, so downstream users can
catch every failure mode of this package with a single ``except`` clause
while still being able to distinguish model-definition problems from
numerical and logic problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


# Failure-class taxonomy shared by the CLI (process exit codes) and the
# checking server (HTTP bodies carry the same code), so scripts and
# clients can distinguish a bad model document from a bad formula from a
# numerical blow-up without parsing error text (see docs/robustness.md
# and docs/serving.md).
EXIT_SATISFIED = 0
EXIT_NOT_SATISFIED = 1
EXIT_MODEL_ERROR = 2
EXIT_FORMULA_ERROR = 3
EXIT_CHECKING_ERROR = 4
EXIT_BUDGET_EXCEEDED = 5
EXIT_WORKER_FAILURE = 6


def exit_code_for(exc: "ReproError") -> int:
    """Map an exception to the exit code of its failure class.

    The budget and worker classes are checked before their
    :class:`CheckingError` parent so they keep their distinct codes.
    """
    if isinstance(exc, BudgetExceededError):
        return EXIT_BUDGET_EXCEEDED
    if isinstance(exc, WorkerCrashError):
        # A killed/hung supervised worker is a *transient* serving
        # condition (the query itself may be fine on retry), so it
        # shares the retryable budget code (HTTP 503), not the
        # deterministic worker-failure code (HTTP 500).
        return EXIT_BUDGET_EXCEEDED
    if isinstance(exc, WorkerError):
        return EXIT_WORKER_FAILURE
    if isinstance(exc, ModelError):
        return EXIT_MODEL_ERROR
    if isinstance(exc, FormulaError):
        return EXIT_FORMULA_ERROR
    if isinstance(exc, CheckingError):
        return EXIT_CHECKING_ERROR
    return EXIT_MODEL_ERROR


class ModelError(ReproError):
    """A model definition is structurally invalid.

    Raised, for example, when a transition references an unknown state, a
    rate evaluates to a negative number, or an occupancy vector does not lie
    on the probability simplex.
    """


class InvalidStateError(ModelError):
    """A state name does not exist in the local model."""


class InvalidRateError(ModelError):
    """A transition rate is negative, non-finite, or otherwise malformed."""


class InvalidOccupancyError(ModelError):
    """An occupancy vector is not a probability distribution over states."""


class FormulaError(ReproError):
    """A logic formula is malformed or used in an unsupported position."""


class ParseError(FormulaError):
    """The textual formula could not be parsed.

    Attributes
    ----------
    position:
        Character offset in the input at which parsing failed, or ``None``
        when the failure is not tied to a specific offset.
    """

    def __init__(self, message: str, position: "int | None" = None):
        super().__init__(message)
        self.position = position

    def __reduce__(self):
        # A custom __init__ breaks default exception pickling (the
        # reconstructor calls ``cls(*self.args)``, dropping keyword-only
        # state) — this matters because worker processes send exceptions
        # back through a pickle boundary.  Rebuild from both fields.
        return (type(self), (self.args[0] if self.args else "", self.position))


class UnsupportedFormulaError(FormulaError):
    """The formula is syntactically valid but not checkable.

    The paper's algorithms only cover time-*bounded* path operators; an
    unbounded until, for instance, raises this error instead of silently
    producing a wrong answer.
    """


class CheckingError(ReproError):
    """A model-checking computation could not be carried out."""


class SteadyStateError(CheckingError):
    """No (unique) stationary point of the mean-field ODE could be found.

    The steady-state operators of MF-CSL are only meaningful for models whose
    fluid limit has a well-behaved stationary regime (see Section IV-D of the
    paper); this error signals that the fixed-point computation failed to
    converge or found an ambiguous answer.
    """


class NumericalError(CheckingError):
    """A numerical routine (ODE solver, root finder) failed to converge."""


class HorizonError(CheckingError):
    """A quantity was requested outside the solved/solvable time horizon."""


class BudgetExceededError(CheckingError):
    """An execution budget (deadline, solver cap, memory guard) was hit.

    Attributes
    ----------
    progress:
        Plain-data snapshot of the partial progress made before the
        limit hit (elapsed seconds, solves charged, completed batches…),
        so a timed-out run still reports what it managed to do.
    """

    def __init__(self, message: str, progress: "dict | None" = None):
        super().__init__(message)
        self.progress = dict(progress) if progress else {}

    def __reduce__(self):
        # Survive the worker-process pickle boundary with the progress
        # report intact (see ParseError.__reduce__).
        return (type(self), (self.args[0] if self.args else "", self.progress))


class WorkerCrashError(CheckingError):
    """A supervised query worker died (or stalled) before answering.

    Raised by :class:`repro.server.supervisor.QuerySupervisor` when the
    process executing one query is killed (segfault, OOM kill, SIGKILL)
    or exceeds its wall-clock allowance and is reaped.  Unlike
    :class:`WorkerError` — a *deterministic* failure raised by the batch
    function itself — a crash says nothing about the query: retrying it
    may well succeed, which is why :func:`exit_code_for` maps this class
    to the retryable :data:`EXIT_BUDGET_EXCEEDED` (HTTP 503), not to
    :data:`EXIT_WORKER_FAILURE` (HTTP 500).

    Attributes
    ----------
    pid:
        Process id of the dead (or reaped) worker.
    exitcode:
        The worker's exit code (negative = killed by that signal
        number), or ``None`` when the worker was reaped on timeout.
    """

    def __init__(
        self,
        message: str,
        pid: "int | None" = None,
        exitcode: "int | None" = None,
    ):
        super().__init__(message)
        self.pid = pid
        self.exitcode = exitcode

    def __reduce__(self):
        return (
            type(self),
            (self.args[0] if self.args else "", self.pid, self.exitcode),
        )


class WorkerError(CheckingError):
    """A parallel batch failed: its function raised, or its worker died
    in every pool round of :func:`repro.parallel.run_batches`.

    Carries the batch index and seed provenance (and chains the original
    exception, where there is one), so a failure deep inside a
    Monte-Carlo fleet can be reproduced deterministically.

    Attributes
    ----------
    batch_index:
        Position of the failed batch in the ``arg_tuples`` sequence.
    seed_provenance:
        Human-readable description of the batch's ``SeedSequence``
        (entropy and spawn key), or ``None`` when the batch carried no
        seed.
    """

    def __init__(
        self,
        message: str,
        batch_index: "int | None" = None,
        seed_provenance: "str | None" = None,
    ):
        super().__init__(message)
        self.batch_index = batch_index
        self.seed_provenance = seed_provenance

    def __reduce__(self):
        return (
            type(self),
            (
                self.args[0] if self.args else "",
                self.batch_index,
                self.seed_provenance,
            ),
        )
