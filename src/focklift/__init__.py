"""focklift: passive linear optics on Fock sectors.

Mode unitaries, their permanent lifts to photon-number sectors, the
composite two-mode gate on single-rail qubits, and numerical certificates
that decoupling the bunched states forbids entangling two-qubit gates.
"""

import sys

__version__ = "0.1.0"

from .errors import *
from .linalg import *
from .permanent import *
from .fock import *
from .modes import *
from .singlerail import *
from .nogo import *

# each submodule's __all__ is its public surface; focklift.permanent is the
# function, so the modules are looked up by name
__all__ = ["__version__"] + [
    name for module in ("errors", "linalg", "permanent", "fock", "modes", "singlerail", "nogo")
    for name in sys.modules[f"{__name__}.{module}"].__all__]
