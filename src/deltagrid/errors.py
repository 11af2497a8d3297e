"""Error taxonomy shared across the package.

PreconditionError: caller handed us something outside an operation's
stated domain (misaligned endpoint, wrong scale, overflow risk, empty
input where mass is required).  These map to CLI exit code 1.

InternalCheckError: an invariant that should hold for every valid input
failed, i.e. a bug.  These map to CLI exit code 2 and are raised by the
verification suites when an exact inequality is violated.  `grid._bug` is
the one way to build one: its message names a digest of the inputs that
replay the failure.
"""


class PreconditionError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    pass
