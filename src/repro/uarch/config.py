"""Machine configuration (the paper's Table II baseline model) and the
one structural :func:`fingerprint`."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig


@dataclass
class SpeculationConfig:
    """The transient-execution window (off by default).

    When ``enabled``, the functional engines fork at every eligible
    conditional branch and emit the *wrong-path* instruction stream
    (up to ``window`` instructions) as transient trace records; the
    timing pipeline applies their cache/prefetcher touches whenever its
    own predictor mispredicted that branch — the squashed wrong path
    is exactly the predicted path then — and discards them otherwise.
    Disabled, no transient records exist anywhere and every trace,
    report, and golden is byte-identical to the pre-speculation model.
    """

    enabled: bool = False
    window: int = 32               # max wrong-path instructions in flight


@dataclass
class MachineConfig:
    """The tunables of the simulated core and memory system.

    Defaults follow Table II of the paper (a Haswell-like out-of-order
    core).  Every field is read by the model; Table II rows it does not
    represent (clock, decode and rename widths, the FP register file and
    issue buffer) are printed from constants in
    :func:`repro.harness.experiments.table2_config` instead.  The
    conditional predictor is always :class:`~repro.uarch.branch.tage.Tage`.
    ``spm_arch_regs`` (the paper's 48 x86_64 architectural registers)
    and ``int_phys_regs`` size the snapshot footprints whose ratio
    scales PhyRS and LRS drains (:func:`repro.core.snapshots.drain_timing`).
    """

    # Front end.
    fetch_width: int = 8           # instructions / cycle
    frontend_depth: int = 6        # fetch->dispatch stages (refill penalty)

    # Back end.
    issue_width: int = 8           # uops / cycle
    load_issue_width: int = 2      # loads / cycle
    retire_width: int = 12         # uops / cycle
    rob_entries: int = 192
    int_phys_regs: int = 256       # sizes the PhyRS snapshot
    int_issue_buffer: int = 60
    load_queue: int = 32
    store_queue: int = 32

    # Execution latencies (cycles) by op class.
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 20
    branch_latency: int = 1
    cmov_latency: int = 1

    # Branch prediction.
    mispredict_penalty: int = 14   # full-pipe restart (Haswell-like)

    # Memory system.
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    # Transient execution (the Spectre-class threat model).
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)

    # SeMPE-specific hardware.
    jbtable_depth: int = 30
    spm_slots: int = 30
    spm_arch_regs: int = 48        # paper's x86_64 architectural state
    spm_bytes_per_cycle: int = 64
    snapshot_mechanism: str = "archrs"   # "archrs", "phyrs" or "lrs"

    def latency_for(self, opclass_name: str) -> int:
        """Execution latency (excluding memory) for an op-class name."""
        table = {
            "alu": self.alu_latency,
            "mul": self.mul_latency,
            "div": self.div_latency,
            "branch": self.branch_latency,
            "jump": self.branch_latency,
            "ijump": self.branch_latency,
            "cmov": self.cmov_latency,
            "eosjmp": 1,
            "sys": 1,
            "store": 1,   # address generation; data is written at commit
        }
        return table.get(opclass_name, 1)


def haswell_like() -> MachineConfig:
    """The Table II configuration."""
    return MachineConfig()


def fast_functional() -> MachineConfig:
    """A smaller configuration for quick unit tests."""
    config = MachineConfig()
    config.rob_entries = 64
    config.int_issue_buffer = 24
    config.hierarchy = HierarchyConfig(
        il1=CacheConfig(name="IL1", size_bytes=4 * 1024, assoc=2, hit_latency=1),
        dl1=CacheConfig(name="DL1", size_bytes=8 * 1024, assoc=2, hit_latency=2),
        l2=CacheConfig(name="L2", size_bytes=64 * 1024, assoc=2, hit_latency=12),
    )
    return config


def canonical_json(data: dict) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint(data: dict) -> str:
    """SHA-256 content address of JSON-safe *data*: result-store cells,
    defense specs and the campaign memo's machine key, below the
    harness so the memo and the defense registry need not import it."""
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()
