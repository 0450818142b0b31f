"""Trace-driven out-of-order pipeline timing model.

The model consumes the committed dynamic instruction stream (plus SeMPE
drain events and squashed wrong-path rows) from a functional executor,
as columnar :class:`~repro.arch.trace.TraceChunk`\\ s, and computes a
cycle count for an 8-wide out-of-order core (Table II).  Every engine is
timed by the one loop, :meth:`OutOfOrderPipeline.run_chunks`.  It is a
*dataflow + resource reservation* model — per instruction it computes
fetch, dispatch, issue, complete and commit cycles subject to:

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

from repro.arch.trace import TRANSIENT_PC_BASE, TraceChunk
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.opcodes import Op, OpClass, OPCLASSES, OPCLASS_ID, OP_ID
from repro.isa.registers import NUM_REGS
from repro.mem.hierarchy import MemoryHierarchy
from repro.uarch.branch import BranchTargetBuffer, Ittage, ReturnAddressStack, Tage
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


class BranchSchedule:
    """What :meth:`OutOfOrderPipeline.branch_schedule` returns.

    ``codes`` holds one entry per branch event that reaches the
    predictors (the non-SeMPE, non-fenced path): ``0`` = predicted
    correctly, ``1`` = mispredicted.
    """

    __slots__ = ("codes", "mispredicts", "indirect_mispredicts")

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.mispredicts = 0
        self.indirect_mispredicts = 0


class OutOfOrderPipeline:
    """The timing model.  Feed it a columnar trace with :meth:`run_chunks`.

    Every engine is timed by that one loop: the fast and batch
    executors emit :class:`~repro.arch.trace.TraceChunk` streams
    natively, the reference executor through its
    :meth:`~repro.arch.executor.Executor.run_chunks` adapter.  The
    timing goldens (``tests/uarch/golden/timing.jsonl``) pin it.
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
        self.predictor = Tage()
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

    def run_chunks(self, chunks: Iterable[TraceChunk]) -> PipelineStats:
        """Time a columnar chunk stream; returns (and keeps) the stats.

        The hot loop works on ints, predecoded per-pc row tuples and
        hoisted locals instead of Enum/attribute traffic; the static
        fields of every row come from the chunk's predecoded tables.
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

        # cycle -> used-slots maps with find-first-available semantics.
        # A floor (raised at each prune checkpoint) keeps a reservation
        # from landing on a cycle the prune already dropped.
        issue_width = config.issue_width
        load_issue_width = config.load_issue_width
        issue_used: dict[int, int] = {}
        load_used: dict[int, int] = {}
        issue_used_get = issue_used.get
        load_used_get = load_used.get
        issue_floor = load_floor = 0

        resolve = self.predictor.resolve
        btb_update = self.btb.update
        ras = self.ras
        ittage = self.ittage

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
        index = 0

        branches = mispredicts = indirect_mispredicts = 0
        drains = drain_cycles = spm_cycles = 0
        # Speculation window: transient rows follow the conditional
        # branch that forked them.  They are *applied* — their fetch and
        # data accesses touch the cache hierarchy (and through it the
        # prefetchers) — exactly when this pipeline's own predictor
        # mispredicted that branch, because the squashed wrong path is
        # then precisely the path the front end ran ahead on.  A
        # correctly-predicted branch never ran the wrong path, so its
        # block is discarded; the squash itself replays fetch from the
        # resolved target (the redirect barrier).
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
                        # Squashed wrong-path row.
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
                    # and the SPM transfer completes.  Fetch and decode
                    # continue filling their queues (§IV-F: the drain "is
                    # less expensive than a normal branch misprediction
                    # because the instructions are still fetched and
                    # decoded correctly").
                    drain_end = last_commit + dyn_addr
                    if drain_end > dispatch_barrier:
                        dispatch_barrier = drain_end
                    drains += 1
                    spm_cycles += dyn_addr
                    drain_cycles += dyn_addr
                    continue

                cls, line, srcs, dst = p_rows[pc]
                if fence_depth and cls == cls_eosjmp:
                    # Join of a fenced region: speculation re-enabled.
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
                        # sJMP: the front end always falls through to the
                        # NT path — fetch behaviour must not depend on the
                        # (secret) outcome, and no predictor is looked up
                        # or trained (§IV-E).  The jump to the T path
                        # happens at the eosJMP, inside a drain.
                        pass
                    elif fence and (p_sec[pc] or fence_depth > 0):
                        # Fenced region (secret branch through its eosJMP
                        # join): no prediction structure is consulted or
                        # updated, so none can retain the secret, and
                        # control transfers whose outcome the front end
                        # cannot decode serialize — later instructions
                        # wait for resolution, fetch restarts with a
                        # full refill.  A direct jump's target is
                        # decoded in the front end; it just ends the
                        # fetch group.
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
                    else:
                        pc_bytes = pc * INSTRUCTION_BYTES
                        redirect = None
                        if cls == cls_branch:
                            # resolve predicts, trains the predictor
                            # and counts the lookup in one call.
                            mispredicted = resolve(pc_bytes, tk == 1)
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

                # ---- commit (in order, so last_commit never decreases
                # and is also the latest commit cycle) ----
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

        stats = self.stats
        stats.instructions = index
        stats.cycles = last_commit
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

    # -- predictor-only walk ----------------------------------------------------

    def branch_schedule(self,
                        chunks: Iterable[TraceChunk]) -> BranchSchedule:
        """Walk only the branch rows of a stream through the predictors.

        Records, per branch event the predictors see, whether it
        mispredicted; the conditions mirror the branch-resolution block
        of :meth:`run_chunks` (SeMPE secure branches and fenced regions
        never reach the predictors, so they emit no code).  No engine
        calls this: the benchmark's layer tracer (``perfbench/``) wraps
        it by name, so it stays until that benchmark changes.
        """
        cls_branch = OPCLASS_ID[OpClass.BRANCH]
        cls_eosjmp = OPCLASS_ID[OpClass.EOSJMP]
        op_jal = OP_ID[Op.JAL]
        op_jalr = OP_ID[Op.JALR]
        sempe = self.sempe
        fence = self.fence

        resolve = self.predictor.resolve
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
                    if tk:
                        btb_update(pc_bytes, p_tgt[pc])
                    if resolve(pc_bytes, tk == 1):
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
        does not depend on what the victim did.  The predictor, BTB,
        ITTAGE and RAS are replaced by new objects, so their own
        counters (``predictor.stats``, ``btb.lookups``,
        ``ittage.mispredicts``, ...) restart at 0.  Only
        :attr:`stats` (:class:`PipelineStats`, mispredicts included) and
        each cache's counters survive — they describe the run that
        already happened.
        """
        self.hierarchy.il1.invalidate_all()
        self.hierarchy.dl1.invalidate_all()
        self.hierarchy.l2.invalidate_all()
        self.predictor = Tage()
        self.btb = BranchTargetBuffer()
        self.ittage = Ittage()
        self.ras = ReturnAddressStack()

    def _collect_memory_stats(self) -> None:
        stats = self.stats
        hierarchy = self.hierarchy
        stats.il1_accesses = hierarchy.il1.stats.demand_accesses
        stats.il1_misses = hierarchy.il1.stats.demand_misses
        stats.dl1_accesses = hierarchy.dl1.stats.demand_accesses
        stats.dl1_misses = hierarchy.dl1.stats.demand_misses
        stats.l2_accesses = hierarchy.l2.stats.demand_accesses
        stats.l2_misses = hierarchy.l2.stats.demand_misses
