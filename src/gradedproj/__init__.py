"""Stability certification for the L2-projection on graded bisection meshes."""

__version__ = "0.1.0"


class GradedProjError(Exception):
    """Base class of the package's errors: invalid input or a broken
    invariant.  The command line reports each one as an input error (exit 3)."""
