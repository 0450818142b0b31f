"""Trace-driven out-of-order pipeline timing model.

The model consumes the committed dynamic instruction stream (plus SeMPE
drain events) from the functional executor and computes a cycle count for
an 8-wide out-of-order core (Table II).  It is a *dataflow + resource
reservation* model — per instruction it computes fetch, dispatch, issue,
complete and commit cycles subject to:

* fetch bandwidth (``fetch_width``/cycle, one taken branch per group),
  instruction-cache latency per new line, redirect penalties;
* branch prediction — TAGE for conditional branches, RAS+ITTAGE for
  indirect jumps; a misprediction blocks fetch until the branch executes
  plus the front-end refill penalty.  Secure branches (sJMP) in SeMPE
  mode never consult the predictor and never mispredict (§IV-E);
* register dataflow (true RAW dependences only — the machine renames, so
  WAW/WAR never stall) and store-to-load forwarding;
* issue bandwidth, the issue-queue size, load-issue width, ROB and LSQ
  occupancy, retire bandwidth;
* functional-unit latencies and load latencies from the cache hierarchy;
* SeMPE drains: fetch stops until the ROB is empty, then waits for the
  SPM transfer (Fig. 6).

This style of model is much faster in Python than a strict cycle loop
and captures the effects the paper's evaluation depends on (dual-path
execution cost, drain overhead, cache locality, mispredictions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

from repro.arch.trace import (
    DynInstr, TRANSIENT_PC_BASE, TraceChunk, TraceRecord, TransientInstr,
)
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.opcodes import Op, OpClass, OPCLASSES, OPCLASS_ID, OP_ID
from repro.isa.registers import NUM_REGS
from repro.mem.hierarchy import MemoryHierarchy
from repro.uarch.branch import make_predictor, BranchTargetBuffer, ReturnAddressStack
from repro.uarch.branch.ittage import Ittage
from repro.uarch.config import MachineConfig


@dataclass
class PipelineStats:
    """Timing-model outputs."""

    cycles: int = 0
    instructions: int = 0
    branches: int = 0
    mispredicts: int = 0
    indirect_mispredicts: int = 0
    drains: int = 0
    drain_cycles: int = 0
    spm_cycles: int = 0
    il1_misses: int = 0
    dl1_misses: int = 0
    l2_misses: int = 0
    il1_accesses: int = 0
    dl1_accesses: int = 0
    l2_accesses: int = 0
    # Transient execution (speculation window): wrong-path instructions
    # whose effects the pipeline applied (its predictor mispredicted the
    # forking branch), and the cache accesses among them.
    transient_instructions: int = 0
    transient_accesses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @classmethod
    def merge(cls, stats: "Iterable[PipelineStats]") -> "PipelineStats":
        """Field-wise sum of per-lane stats, lane-order independent.

        Every field is an int counter, so the merge is a plain sum —
        commutative and associative by construction, which is what lets
        batched aggregation (any lane order, any grouping) land on the
        same totals as summing serial per-lane runs.  ``cycles`` merges
        as a sum too: the aggregate is "total machine-cycles spent
        across lanes", the quantity campaign throughput is measured in.
        """
        total = cls()
        for entry in stats:
            for field_ in dataclasses.fields(cls):
                setattr(total, field_.name,
                        getattr(total, field_.name)
                        + getattr(entry, field_.name))
        return total


class _BandwidthTable:
    """cycle -> used-slots map with find-first-available semantics."""

    __slots__ = ("width", "_used", "_floor")

    def __init__(self, width: int) -> None:
        self.width = width
        self._used: dict[int, int] = {}
        self._floor = 0

    def __len__(self) -> int:
        return len(self._used)

    def reserve(self, earliest: int) -> int:
        cycle = max(earliest, self._floor)
        used = self._used
        while used.get(cycle, 0) >= self.width:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle

    def prune(self, before: int) -> None:
        """Drop slots below *before*, which callers guarantee no future
        ``reserve`` can reach.  The floor advances on every call — not
        only when the map happens to be large — so the map stays bounded
        and a reserve below the floor can never land on a pruned cycle.
        """
        if before > self._floor:
            self._floor = before
        if len(self._used) > 4096:
            self._used = {c: n for c, n in self._used.items() if c >= before}


class BranchSchedule:
    """Phase A output: the front-end's branch actions for one stream.

    ``codes`` holds one entry per branch event that reaches the
    predictors (the non-SeMPE, non-fenced path): ``0`` = predicted
    correctly, ``1`` = mispredicted (redirect at resolution).  The
    misprediction counters ride along so the per-lane scheduling pass
    (:meth:`OutOfOrderPipeline.run_chunks` with ``schedule=``) never
    recounts them.

    Every input the predictors consume — ``(pc, taken)`` pairs, static
    branch targets, and indirect-jump targets (which are uniform inside
    a lockstep batch group, or the group would have split) — is
    identical across the lanes of a batch group, so one schedule is
    computed per group and shared by every lane's scheduling pass.
    """

    __slots__ = ("codes", "mispredicts", "indirect_mispredicts")

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.mispredicts = 0
        self.indirect_mispredicts = 0


class OutOfOrderPipeline:
    """The timing model.  Feed it a trace with :meth:`run`.

    The chunked path is split into two cooperating phases so a batched
    caller (:mod:`repro.uarch.batch_pipeline`) can share work across
    lockstep lanes:

    * **Phase A** — :meth:`branch_schedule`: the branch-predictor pass
      (TAGE/BTB/ITTAGE/RAS), whose inputs are structure-invariant
      across the lanes of a batch group; run once per group.
    * **Phase B** — :meth:`run_chunks` with ``schedule=``: the per-lane
      scheduling + memory pass (fetch/dispatch/issue/commit cycles and
      the whole cache hierarchy), which consumes Phase A's action codes
      instead of running the predictors.

    ``run_chunks`` without a schedule stays the fused single-pass form,
    and :meth:`run` the per-object oracle — all three are bit-identical
    on the same stream (the parity suites pin this).
    """

    def __init__(self, config: MachineConfig | None = None,
                 sempe: bool = True, fence: bool = False) -> None:
        self.config = config or MachineConfig()
        self.sempe = sempe
        # The fence defense: a SecPrefix'ed branch on the baseline
        # machine serializes the front end instead of predicting (see
        # repro.defenses.builtin.fence).  Mutually exclusive with sempe
        # in practice (the SeMPE machine already never predicts sJMPs).
        self.fence = fence
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        self.predictor = make_predictor(self.config.predictor)
        self.btb = BranchTargetBuffer()
        self.ittage = Ittage()
        self.ras = ReturnAddressStack()
        self.stats = PipelineStats()
        # LRS-style mechanisms add a per-instruction rename penalty.
        self.rename_overhead = 0.0
        # High-water marks of the internal cycle->slots and
        # store-forwarding maps, sampled at each prune checkpoint; the
        # bounded-memory regression test reads these after long runs.
        self.table_high_water = {"issue": 0, "load": 0, "store": 0}

    # -- main loop ---------------------------------------------------------------

    def run(self, trace: Iterable[TraceRecord]) -> PipelineStats:
        config = self.config
        hierarchy = self.hierarchy
        line_bytes = config.hierarchy.il1.line_bytes

        frontend_depth = config.frontend_depth
        issue_bw = _BandwidthTable(config.issue_width)
        load_bw = _BandwidthTable(config.load_issue_width)

        # Ring buffers for occupancy limits.
        rob_commits = [0] * config.rob_entries
        iq_issues = [0] * config.int_issue_buffer
        lq_commits = [0] * config.load_queue
        sq_commits = [0] * config.store_queue
        rob_head = iq_head = lq_head = sq_head = 0

        reg_ready: dict[int, int] = {}
        store_ready: dict[int, int] = {}   # word address -> data-ready cycle

        fetch_cycle = 0
        fetch_slots = config.fetch_width
        fetch_barrier = 0                  # mispredict redirects block fetch
        dispatch_barrier = 0               # SeMPE drains block rename/dispatch
        current_line = -1
        rename_debt = 0.0
        fence_depth = 0                    # open fenced regions (fence mode)

        last_commit = 0
        commit_in_cycle = 0
        max_commit = 0
        index = 0

        # Speculation window: transient records follow the conditional
        # branch that forked them.  They are *applied* — their fetch and
        # data accesses touch the cache hierarchy (and through it the
        # prefetchers) — exactly when this pipeline's own predictor
        # mispredicted that branch, because the squashed wrong path is
        # then precisely the path the front end ran ahead on.  A
        # correctly-predicted branch never ran the wrong path, so its
        # block is discarded; the squash itself replays fetch from the
        # resolved target (the existing redirect barrier).
        transient_live = False
        transient_line = -1

        for record in trace:
            if record.kind == "transient":
                if transient_live:
                    t: TransientInstr = record
                    t_bytes = t.pc * INSTRUCTION_BYTES
                    t_line = t_bytes // line_bytes
                    if t_line != transient_line:
                        hierarchy.access_instruction(t_bytes)
                        transient_line = t_line
                    if t.mem_addr is not None and (
                            t.opclass is OpClass.LOAD
                            or t.opclass is OpClass.STORE):
                        hierarchy.access_data(t.pc, t.mem_addr, t.is_store)
                        self.stats.transient_accesses += 1
                    self.stats.transient_instructions += 1
                continue
            if record.kind == "drain":
                # Rename/dispatch halts until the ROB drains and the SPM
                # transfer completes.  Fetch and decode continue filling
                # their queues (§IV-F: the drain "is less expensive than
                # a normal branch misprediction because the instructions
                # are still fetched and decoded correctly").
                drain_end = max_commit + record.spm_cycles
                dispatch_barrier = max(dispatch_barrier, drain_end)
                self.stats.drains += 1
                self.stats.spm_cycles += record.spm_cycles
                self.stats.drain_cycles += record.spm_cycles
                continue

            inst: DynInstr = record
            if fence_depth and inst.opclass is OpClass.EOSJMP:
                # Join of a fenced region: speculation re-enabled.
                fence_depth -= 1

            # ---- fetch ----
            if fetch_cycle < fetch_barrier:
                fetch_cycle = fetch_barrier
                fetch_slots = config.fetch_width
                current_line = -1
            if fetch_slots <= 0:
                fetch_cycle += 1
                fetch_slots = config.fetch_width
                if fetch_cycle < fetch_barrier:
                    fetch_cycle = fetch_barrier
            pc_bytes = inst.pc * INSTRUCTION_BYTES
            line = pc_bytes // line_bytes
            if line != current_line:
                access = hierarchy.access_instruction(pc_bytes)
                if not access.l1_hit:
                    fetch_cycle += access.latency
                    fetch_slots = config.fetch_width
                current_line = line
            this_fetch = fetch_cycle
            fetch_slots -= 1

            # LRS rename penalty accumulates fractional debt.
            if self.rename_overhead:
                rename_debt += self.rename_overhead
                if rename_debt >= 1.0:
                    whole = int(rename_debt)
                    rename_debt -= whole
                    fetch_cycle += whole

            # ---- dispatch (subject to ROB / IQ / LSQ occupancy) ----
            dispatch = this_fetch + frontend_depth
            if dispatch < dispatch_barrier:
                dispatch = dispatch_barrier
            dispatch = max(dispatch, rob_commits[rob_head])
            dispatch = max(dispatch, iq_issues[iq_head])
            if inst.opclass is OpClass.LOAD:
                dispatch = max(dispatch, lq_commits[lq_head])
            elif inst.opclass is OpClass.STORE:
                dispatch = max(dispatch, sq_commits[sq_head])

            # ---- operand readiness ----
            ready = dispatch
            for reg in inst.srcs:
                producer = reg_ready.get(reg, 0)
                if producer > ready:
                    ready = producer

            # ---- issue ----
            if inst.opclass is OpClass.LOAD:
                issue = load_bw.reserve(issue_bw.reserve(ready))
            else:
                issue = issue_bw.reserve(ready)

            # ---- execute ----
            latency = config.latency_for(inst.opclass.value)
            if inst.opclass is OpClass.LOAD:
                word = inst.mem_addr & ~7
                forward_from = store_ready.get(word, 0)
                access = hierarchy.access_data(inst.pc, inst.mem_addr, False)
                latency = access.latency
                complete = max(issue + latency, forward_from)
            elif inst.opclass is OpClass.STORE:
                hierarchy.access_data(inst.pc, inst.mem_addr, True)
                complete = issue + latency
                store_ready[inst.mem_addr & ~7] = complete
            else:
                complete = issue + latency

            # ---- branch resolution ----
            if inst.taken is not None:
                self.stats.branches += 1
                transient_live = False
                transient_line = -1
                if inst.secure and self.sempe:
                    # sJMP: the front end always falls through to the NT
                    # path — fetch behaviour must not depend on the
                    # (secret) outcome (§IV-E).  The jump to the T path
                    # happens at the eosJMP, inside a drain.
                    pass
                elif self.fence and (inst.secure or fence_depth > 0):
                    # Fenced region (secret branch through its eosJMP
                    # join): no prediction structure is consulted or
                    # updated — no predictor/BTB/ITTAGE/RAS mutation
                    # that could retain the secret — and control
                    # transfers whose outcome is not decodable in the
                    # front end serialize: later instructions wait for
                    # resolution, fetch restarts with a full refill.
                    if inst.secure:
                        fence_depth += 1
                    if inst.opclass is OpClass.BRANCH or inst.op is Op.JALR:
                        fetch_barrier = max(
                            fetch_barrier,
                            complete + self.config.mispredict_penalty)
                        dispatch_barrier = max(dispatch_barrier, complete)
                    elif inst.taken:
                        # Direct jump: the front end decodes the target
                        # itself; the taken transfer just ends the group.
                        fetch_cycle = max(fetch_cycle, this_fetch) + 1
                        fetch_slots = config.fetch_width
                        current_line = -1
                else:
                    redirect = self._branch_redirect(inst, complete)
                    transient_live = (redirect is not None
                                      and inst.opclass is OpClass.BRANCH)
                    if redirect is not None:
                        fetch_barrier = max(fetch_barrier, redirect)
                    elif inst.taken:
                        # Correctly-predicted taken branch ends the group.
                        fetch_cycle = max(fetch_cycle, this_fetch) + 1
                        fetch_slots = config.fetch_width
                        current_line = -1

            # ---- register writeback ----
            if inst.dst is not None:
                reg_ready[inst.dst] = complete

            # ---- commit (in order, retire_width per cycle) ----
            commit = complete + 1
            if commit < last_commit:
                commit = last_commit
            if commit == last_commit:
                commit_in_cycle += 1
                if commit_in_cycle > config.retire_width:
                    commit += 1
                    commit_in_cycle = 1
            else:
                commit_in_cycle = 1
            last_commit = commit
            if commit > max_commit:
                max_commit = commit

            # ---- occupancy bookkeeping ----
            rob_commits[rob_head] = commit
            rob_head = (rob_head + 1) % config.rob_entries
            iq_issues[iq_head] = issue
            iq_head = (iq_head + 1) % config.int_issue_buffer
            if inst.opclass is OpClass.LOAD:
                lq_commits[lq_head] = commit
                lq_head = (lq_head + 1) % config.load_queue
            elif inst.opclass is OpClass.STORE:
                sq_commits[sq_head] = commit
                sq_head = (sq_head + 1) % config.store_queue

            index += 1
            if index % 8192 == 0:
                high_water = self.table_high_water
                if len(issue_bw) > high_water["issue"]:
                    high_water["issue"] = len(issue_bw)
                if len(load_bw) > high_water["load"]:
                    high_water["load"] = len(load_bw)
                if len(store_ready) > high_water["store"]:
                    high_water["store"] = len(store_ready)
                issue_bw.prune(this_fetch - 64)
                load_bw.prune(this_fetch - 64)
                floor = this_fetch - 512
                if len(store_ready) > 16384:
                    store_ready = {a: c for a, c in store_ready.items()
                                   if c >= floor}
                # Stale producers resolve to the same answer as a miss
                # (any future dispatch is past them), so drop them too
                # rather than letting the map grow with the run length.
                reg_ready = {r: c for r, c in reg_ready.items()
                             if c >= floor}

        self.stats.instructions = index
        self.stats.cycles = max_commit
        self._collect_memory_stats()
        return self.stats

    # -- chunked fast path -------------------------------------------------------

    def run_chunks(self, chunks: Iterable[TraceChunk],
                   schedule: BranchSchedule | None = None) -> PipelineStats:
        """Timing model over a columnar chunk stream (the fast engine).

        Cycle-for-cycle identical to :meth:`run` on the equivalent
        per-object trace — the golden parity suite
        (``tests/core/test_engine_parity.py``) holds the two loops
        together.  The duplication buys the hot loop int comparisons,
        table lookups and hoisted locals instead of Enum/attribute
        traffic; keep any change here in lockstep with :meth:`run`.

        With ``schedule=`` (Phase B of the split pass) the loop consumes
        the precomputed branch action codes instead of running the
        predictors; this pipeline's own predictor structures are left
        untouched, and the schedule's misprediction counters are folded
        into the stats.  The stream must be the one (or, for a batch
        group, structurally identical to the one) the schedule was
        computed from — a code-count mismatch raises rather than
        silently desynchronizing.
        """
        config = self.config
        hierarchy = self.hierarchy
        fetch_latency = hierarchy.fetch_latency
        data_latency = hierarchy.data_latency
        line_bytes = config.hierarchy.il1.line_bytes

        cls_load = OPCLASS_ID[OpClass.LOAD]
        cls_store = OPCLASS_ID[OpClass.STORE]
        cls_branch = OPCLASS_ID[OpClass.BRANCH]
        cls_eosjmp = OPCLASS_ID[OpClass.EOSJMP]
        op_jal = OP_ID[Op.JAL]
        op_jalr = OP_ID[Op.JALR]
        lat_by_cls = tuple(config.latency_for(opclass.value)
                           for opclass in OPCLASSES)

        frontend_depth = config.frontend_depth
        fetch_width = config.fetch_width
        retire_width = config.retire_width
        mispredict_penalty = config.mispredict_penalty
        rob_entries = config.rob_entries
        int_issue_buffer = config.int_issue_buffer
        load_queue = config.load_queue
        store_queue = config.store_queue
        sempe = self.sempe
        fence = self.fence
        rename_overhead = self.rename_overhead

        # Bandwidth tables, inlined (same find-first-available semantics
        # as _BandwidthTable, minus the per-record method calls).
        issue_width = config.issue_width
        load_issue_width = config.load_issue_width
        issue_used: dict[int, int] = {}
        load_used: dict[int, int] = {}
        issue_used_get = issue_used.get
        load_used_get = load_used.get
        issue_floor = load_floor = 0

        predictor = self.predictor
        predict = predictor.predict
        predictor_update = predictor.update
        predictor_record = predictor.record
        btb_update = self.btb.update
        ras = self.ras
        ittage = self.ittage
        codes = schedule.codes if schedule is not None else None
        code_index = 0

        rob_commits = [0] * rob_entries
        iq_issues = [0] * int_issue_buffer
        lq_commits = [0] * load_queue
        sq_commits = [0] * store_queue
        rob_head = iq_head = lq_head = sq_head = 0

        reg_ready = [0] * NUM_REGS
        store_ready: dict[int, int] = {}
        store_ready_get = store_ready.get

        fetch_cycle = 0
        fetch_slots = fetch_width
        fetch_barrier = 0
        dispatch_barrier = 0
        current_line = -1
        rename_debt = 0.0
        fence_depth = 0

        last_commit = 0
        commit_in_cycle = 0
        max_commit = 0
        index = 0

        branches = mispredicts = indirect_mispredicts = 0
        drains = drain_cycles = spm_cycles = 0
        # Speculation window (see run()): a transient block is applied
        # only when this pipeline mispredicted the branch it follows.
        transient_base = TRANSIENT_PC_BASE
        transient_live = False
        transient_line = -1
        transient_insts = transient_accs = 0

        pred = None
        for chunk in chunks:
            if chunk.pred is not pred:
                pred = chunk.pred
                if pred.line_bytes != line_bytes:
                    raise ValueError(
                        f"chunk predecoded for {pred.line_bytes}B icache "
                        f"lines, timing model uses {line_bytes}B"
                    )
                p_rows = pred.rows
                p_op = pred.op_id
                p_sec = pred.secure
                p_tgt = pred.target
            for pc, dyn_addr, tk in zip(chunk.pc, chunk.addr, chunk.taken):
                if pc < 0:
                    if pc <= transient_base:
                        # Squashed wrong-path row (see run()).
                        if transient_live:
                            spc = transient_base - pc
                            t_cls, t_line, _, _ = p_rows[spc]
                            if t_line != transient_line:
                                fetch_latency(spc * INSTRUCTION_BYTES)
                                transient_line = t_line
                            if dyn_addr >= 0 and (t_cls == cls_load
                                                  or t_cls == cls_store):
                                data_latency(spc, dyn_addr,
                                             t_cls == cls_store)
                                transient_accs += 1
                            transient_insts += 1
                        continue
                    # Drain: rename/dispatch halts until the ROB drains
                    # and the SPM transfer completes (see run()).
                    drain_end = max_commit + dyn_addr
                    if drain_end > dispatch_barrier:
                        dispatch_barrier = drain_end
                    drains += 1
                    spm_cycles += dyn_addr
                    drain_cycles += dyn_addr
                    continue

                cls, line, srcs, dst = p_rows[pc]
                if fence_depth and cls == cls_eosjmp:
                    # Join of a fenced region (see run()).
                    fence_depth -= 1

                # ---- fetch ----
                if fetch_cycle < fetch_barrier:
                    fetch_cycle = fetch_barrier
                    fetch_slots = fetch_width
                    current_line = -1
                if fetch_slots <= 0:
                    fetch_cycle += 1
                    fetch_slots = fetch_width
                    if fetch_cycle < fetch_barrier:
                        fetch_cycle = fetch_barrier
                if line != current_line:
                    miss_latency = fetch_latency(pc * INSTRUCTION_BYTES)
                    if miss_latency:
                        fetch_cycle += miss_latency
                        fetch_slots = fetch_width
                    current_line = line
                this_fetch = fetch_cycle
                fetch_slots -= 1

                if rename_overhead:
                    rename_debt += rename_overhead
                    if rename_debt >= 1.0:
                        whole = int(rename_debt)
                        rename_debt -= whole
                        fetch_cycle += whole

                # ---- dispatch ----
                dispatch = this_fetch + frontend_depth
                if dispatch < dispatch_barrier:
                    dispatch = dispatch_barrier
                if rob_commits[rob_head] > dispatch:
                    dispatch = rob_commits[rob_head]
                if iq_issues[iq_head] > dispatch:
                    dispatch = iq_issues[iq_head]
                if cls == cls_load:
                    if lq_commits[lq_head] > dispatch:
                        dispatch = lq_commits[lq_head]
                elif cls == cls_store:
                    if sq_commits[sq_head] > dispatch:
                        dispatch = sq_commits[sq_head]

                # ---- operand readiness ----
                ready = dispatch
                for reg in srcs:
                    producer = reg_ready[reg]
                    if producer > ready:
                        ready = producer

                # ---- issue + execute ----
                if cls == cls_load:
                    cycle = ready if ready > issue_floor else issue_floor
                    used = issue_used_get(cycle, 0)
                    while used >= issue_width:
                        cycle += 1
                        used = issue_used_get(cycle, 0)
                    issue_used[cycle] = used + 1
                    if cycle < load_floor:
                        cycle = load_floor
                    used = load_used_get(cycle, 0)
                    while used >= load_issue_width:
                        cycle += 1
                        used = load_used_get(cycle, 0)
                    load_used[cycle] = used + 1
                    issue = cycle
                    forward_from = store_ready_get(dyn_addr & ~7, 0)
                    complete = issue + data_latency(pc, dyn_addr, False)
                    if forward_from > complete:
                        complete = forward_from
                else:
                    cycle = ready if ready > issue_floor else issue_floor
                    used = issue_used_get(cycle, 0)
                    while used >= issue_width:
                        cycle += 1
                        used = issue_used_get(cycle, 0)
                    issue_used[cycle] = used + 1
                    issue = cycle
                    if cls == cls_store:
                        data_latency(pc, dyn_addr, True)
                        complete = issue + lat_by_cls[cls]
                        store_ready[dyn_addr & ~7] = complete
                    else:
                        complete = issue + lat_by_cls[cls]

                # ---- branch resolution ----
                if tk >= 0:
                    branches += 1
                    transient_live = False
                    transient_line = -1
                    if p_sec[pc] and sempe:
                        # sJMP: front end always falls through (§IV-E).
                        pass
                    elif fence and (p_sec[pc] or fence_depth > 0):
                        # Fenced region (see run()): no prediction
                        # structure touched, non-decodable transfers
                        # serialize.
                        if p_sec[pc]:
                            fence_depth += 1
                        if cls == cls_branch or p_op[pc] == op_jalr:
                            barrier = complete + mispredict_penalty
                            if barrier > fetch_barrier:
                                fetch_barrier = barrier
                            if complete > dispatch_barrier:
                                dispatch_barrier = complete
                        elif tk:
                            fetch_cycle = max(fetch_cycle, this_fetch) + 1
                            fetch_slots = fetch_width
                            current_line = -1
                    elif codes is not None:
                        # Phase B: the schedule already ran the
                        # predictors for this stream; replay its verdict.
                        if codes[code_index]:
                            barrier = complete + mispredict_penalty
                            if barrier > fetch_barrier:
                                fetch_barrier = barrier
                            if cls == cls_branch:
                                transient_live = True
                        elif tk:
                            fetch_cycle = max(fetch_cycle, this_fetch) + 1
                            fetch_slots = fetch_width
                            current_line = -1
                        code_index += 1
                    else:
                        pc_bytes = pc * INSTRUCTION_BYTES
                        redirect = None
                        if cls == cls_branch:
                            predicted = predict(pc_bytes)
                            taken_b = bool(tk)
                            predictor_update(pc_bytes, taken_b)
                            mispredicted = predictor_record(predicted,
                                                            taken_b)
                            if tk:
                                btb_update(pc_bytes, p_tgt[pc])
                            if mispredicted:
                                mispredicts += 1
                                redirect = complete + mispredict_penalty
                                transient_live = True
                        else:
                            op = p_op[pc]
                            if op == op_jal:
                                if dst >= 0:
                                    ras.push(pc + 1)
                                btb_update(pc_bytes, p_tgt[pc])
                            elif op == op_jalr:
                                target = dyn_addr
                                ras_prediction = ras.pop()
                                ittage_prediction = ittage.predict(pc_bytes)
                                ittage.update(pc_bytes, target)
                                predicted_target = (
                                    ras_prediction
                                    if ras_prediction is not None
                                    else ittage_prediction
                                )
                                if predicted_target != target:
                                    indirect_mispredicts += 1
                                    mispredicts += 1
                                    redirect = complete + mispredict_penalty
                        if redirect is not None:
                            if redirect > fetch_barrier:
                                fetch_barrier = redirect
                        elif tk:
                            fetch_cycle = max(fetch_cycle, this_fetch) + 1
                            fetch_slots = fetch_width
                            current_line = -1

                # ---- register writeback ----
                if dst >= 0:
                    reg_ready[dst] = complete

                # ---- commit ----
                commit = complete + 1
                if commit < last_commit:
                    commit = last_commit
                if commit == last_commit:
                    commit_in_cycle += 1
                    if commit_in_cycle > retire_width:
                        commit += 1
                        commit_in_cycle = 1
                else:
                    commit_in_cycle = 1
                last_commit = commit
                if commit > max_commit:
                    max_commit = commit

                # ---- occupancy bookkeeping ----
                rob_commits[rob_head] = commit
                rob_head += 1
                if rob_head == rob_entries:
                    rob_head = 0
                iq_issues[iq_head] = issue
                iq_head += 1
                if iq_head == int_issue_buffer:
                    iq_head = 0
                if cls == cls_load:
                    lq_commits[lq_head] = commit
                    lq_head += 1
                    if lq_head == load_queue:
                        lq_head = 0
                elif cls == cls_store:
                    sq_commits[sq_head] = commit
                    sq_head += 1
                    if sq_head == store_queue:
                        sq_head = 0

                index += 1
                if index % 8192 == 0:
                    high_water = self.table_high_water
                    if len(issue_used) > high_water["issue"]:
                        high_water["issue"] = len(issue_used)
                    if len(load_used) > high_water["load"]:
                        high_water["load"] = len(load_used)
                    if len(store_ready) > high_water["store"]:
                        high_water["store"] = len(store_ready)
                    floor = this_fetch - 64
                    if floor > issue_floor:
                        issue_floor = floor
                    if floor > load_floor:
                        load_floor = floor
                    if len(issue_used) > 4096:
                        issue_used = {c: n for c, n in issue_used.items()
                                      if c >= floor}
                        issue_used_get = issue_used.get
                    if len(load_used) > 4096:
                        load_used = {c: n for c, n in load_used.items()
                                     if c >= floor}
                        load_used_get = load_used.get
                    if len(store_ready) > 16384:
                        floor = this_fetch - 512
                        store_ready = {a: c for a, c in store_ready.items()
                                       if c >= floor}
                        store_ready_get = store_ready.get

        if schedule is not None:
            if code_index != len(codes):
                raise ValueError(
                    f"branch schedule desynchronized: stream consumed "
                    f"{code_index} of {len(codes)} predictor actions")
            mispredicts += schedule.mispredicts
            indirect_mispredicts += schedule.indirect_mispredicts
        stats = self.stats
        stats.instructions = index
        stats.cycles = max_commit
        stats.branches += branches
        stats.mispredicts += mispredicts
        stats.indirect_mispredicts += indirect_mispredicts
        stats.drains += drains
        stats.drain_cycles += drain_cycles
        stats.spm_cycles += spm_cycles
        stats.transient_instructions += transient_insts
        stats.transient_accesses += transient_accs
        self._collect_memory_stats()
        return stats

    # -- shareable phase (Phase A) -----------------------------------------------

    def branch_schedule(self,
                        chunks: Iterable[TraceChunk]) -> BranchSchedule:
        """Phase A of the split timing pass: the predictor schedule.

        Walks only the branch-relevant rows of a chunk stream through
        this pipeline's front-end predictors and records, per branch
        event the predictors see, whether it mispredicted.  The
        condition structure mirrors the branch-resolution block of
        :meth:`run_chunks` exactly (SeMPE secure branches and fenced
        regions never reach the predictors, so they emit no code) —
        keep the two in lockstep, the scheduled pass consumes exactly
        one code per predictor-visible branch.

        Everything consumed here is identical across the lanes of a
        lockstep batch group: ``(pc, taken)`` pairs (the only per-lane
        ``taken`` values are SeMPE secure-branch outcomes, which this
        path never reads), static targets, and indirect-jump targets
        (per-lane indirect targets split the group in the executor).
        Leaves ``self``'s predictor structures in their post-run state:
        they are the group-shared predictor residue.
        """
        cls_branch = OPCLASS_ID[OpClass.BRANCH]
        cls_eosjmp = OPCLASS_ID[OpClass.EOSJMP]
        op_jal = OP_ID[Op.JAL]
        op_jalr = OP_ID[Op.JALR]
        sempe = self.sempe
        fence = self.fence

        predictor = self.predictor
        predict = predictor.predict
        predictor_update = predictor.update
        predictor_record = predictor.record
        btb_update = self.btb.update
        ras = self.ras
        ittage = self.ittage

        schedule = BranchSchedule()
        append = schedule.codes.append
        mispredicts = indirect_mispredicts = 0
        fence_depth = 0

        pred = None
        for chunk in chunks:
            if chunk.pred is not pred:
                pred = chunk.pred
                p_cls = pred.cls_id
                p_op = pred.op_id
                p_sec = pred.secure
                p_tgt = pred.target
                p_dst = pred.dst
            for pc, dyn_addr, tk in zip(chunk.pc, chunk.addr, chunk.taken):
                if pc < 0:
                    # Drain and transient rows never touch a predictor.
                    continue
                cls = p_cls[pc]
                if fence_depth and cls == cls_eosjmp:
                    fence_depth -= 1
                if tk < 0:
                    continue
                if p_sec[pc] and sempe:
                    # sJMP: never consulted, never trained (§IV-E).
                    continue
                if fence and (p_sec[pc] or fence_depth > 0):
                    # Fenced region: no prediction structure touched.
                    if p_sec[pc]:
                        fence_depth += 1
                    continue
                pc_bytes = pc * INSTRUCTION_BYTES
                if cls == cls_branch:
                    predicted = predict(pc_bytes)
                    taken_b = bool(tk)
                    predictor_update(pc_bytes, taken_b)
                    mispredicted = predictor_record(predicted, taken_b)
                    if tk:
                        btb_update(pc_bytes, p_tgt[pc])
                    if mispredicted:
                        mispredicts += 1
                        append(1)
                    else:
                        append(0)
                else:
                    op = p_op[pc]
                    if op == op_jal:
                        if p_dst[pc] >= 0:
                            ras.push(pc + 1)
                        btb_update(pc_bytes, p_tgt[pc])
                        append(0)
                    elif op == op_jalr:
                        target = dyn_addr
                        ras_prediction = ras.pop()
                        ittage_prediction = ittage.predict(pc_bytes)
                        ittage.update(pc_bytes, target)
                        predicted_target = (
                            ras_prediction
                            if ras_prediction is not None
                            else ittage_prediction
                        )
                        if predicted_target != target:
                            indirect_mispredicts += 1
                            mispredicts += 1
                            append(1)
                        else:
                            append(0)
                    else:
                        # Direct jump: decoded in the front end, never
                        # predicted, never mispredicts.
                        append(0)
        schedule.mispredicts = mispredicts
        schedule.indirect_mispredicts = indirect_mispredicts
        return schedule

    # -- helpers ---------------------------------------------------------------

    def flush_transient_state(self) -> None:
        """Model a secure-region exit flush (the flush-local defense).

        Invalidate every cache level and reset the branch predictors to
        power-on state, so post-run residue probes see a machine that
        does not depend on what the victim did.  Counters (miss rates,
        prediction stats) are left intact — they describe the run that
        already happened.
        """
        self.hierarchy.il1.invalidate_all()
        self.hierarchy.dl1.invalidate_all()
        self.hierarchy.l2.invalidate_all()
        self.predictor = make_predictor(self.config.predictor)
        self.btb = BranchTargetBuffer()
        self.ittage = Ittage()
        self.ras = ReturnAddressStack()

    def _branch_redirect(self, inst: DynInstr, complete: int) -> int | None:
        """Return the cycle fetch may resume after a misprediction, or
        ``None`` if the branch was predicted correctly."""
        config = self.config
        pc_bytes = inst.pc * INSTRUCTION_BYTES

        if inst.secure and self.sempe:
            # sJMP: both paths execute; the front end simply falls through.
            # No predictor lookup, no update, no misprediction (§IV-E).
            return None

        if inst.opclass is OpClass.BRANCH:
            predicted = self.predictor.predict(pc_bytes)
            self.predictor.update(pc_bytes, inst.taken)
            mispredicted = self.predictor.record(predicted, inst.taken)
            if inst.taken:
                self.btb.update(pc_bytes, inst.target)
            if mispredicted:
                self.stats.mispredicts += 1
                return complete + config.mispredict_penalty
            return None

        if inst.op is Op.JAL:
            # Direct call/jump: push the return address for calls.
            if inst.dst is not None:
                self.ras.push(inst.pc + 1)
            self.btb.update(pc_bytes, inst.target)
            return None

        if inst.op is Op.JALR:
            ras_prediction = self.ras.pop()
            ittage_prediction = self.ittage.predict(pc_bytes)
            self.ittage.update(pc_bytes, inst.target)
            predicted_target = (
                ras_prediction if ras_prediction is not None else ittage_prediction
            )
            if predicted_target != inst.target:
                self.stats.indirect_mispredicts += 1
                self.stats.mispredicts += 1
                return complete + config.mispredict_penalty
            return None

        return None

    def _collect_memory_stats(self) -> None:
        stats = self.stats
        hierarchy = self.hierarchy
        stats.il1_accesses = hierarchy.il1.stats.accesses
        stats.il1_misses = hierarchy.il1.stats.misses
        stats.dl1_accesses = hierarchy.dl1.stats.accesses
        stats.dl1_misses = hierarchy.dl1.stats.misses
        stats.l2_accesses = hierarchy.l2.stats.accesses
        stats.l2_misses = hierarchy.l2.stats.misses
