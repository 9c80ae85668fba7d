"""Conjugation-invariant maximal abelian algebras on finite weighted
spaces, plus a circle-rotation cocycle harness for falsifying candidate
invariant projection fields.

The package root re-exports every module's ``__all__``; each module's list
is the one declaration of its public names."""

# Defined before the submodule imports: ``documents`` reads it for reports.
__version__ = "0.1.0"

from .circle import *
from .cocycle import *
from .documents import *
from .embedding import *
from .generate import *
from .numerics import *
from .signs import *
from .spaces import *
