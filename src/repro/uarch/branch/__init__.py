"""Branch predictors.

Table II specifies a 31 KB TAGE conditional predictor and a 6 KB ITTAGE
indirect predictor; the pipeline also keeps a BTB and a return-address
stack.  :class:`Tage` is the only conditional predictor.
"""

from repro.uarch.branch.tage import Tage
from repro.uarch.branch.ittage import Ittage
from repro.uarch.branch.btb import BranchTargetBuffer, ReturnAddressStack

__all__ = [
    "Tage",
    "Ittage",
    "BranchTargetBuffer",
    "ReturnAddressStack",
]
