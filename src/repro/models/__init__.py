"""Analytic cost models of the prior approaches compared in Table I.

The paper's Table I cites overheads *reported by other papers* for
GhostRider/MTO and Raccoon.  Those systems cannot be rebuilt exactly
(GhostRider needs its FPGA/ORAM platform; Raccoon needs Intel TSX), so
we model their per-mechanism costs on top of our own dual-path
functional statistics — both systems, like SeMPE, execute (or equalise)
both branch paths, and their extra cost over that floor is a
per-memory-op penalty:

* **Raccoon** wraps every load and store inside obfuscated code in a
  hardware transaction and streams both paths through CMOVs;
* **GhostRider/MTO** turns every memory access inside protected code
  into an ORAM access (a tree of physical accesses) and pads the paths
  to equal length.
"""

from repro.models.priorwork import (
    RaccoonModel,
    GhostRiderModel,
    PriorWorkEstimate,
)

__all__ = ["RaccoonModel", "GhostRiderModel", "PriorWorkEstimate"]
