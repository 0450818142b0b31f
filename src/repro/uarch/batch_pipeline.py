"""The serial lane core, and per-campaign sharing of its timing passes.

:func:`run_lane` times one lane's chunk stream on a fresh machine: it
applies the configured snapshot mechanism's drain scaling and rename
penalty, runs :meth:`~repro.uarch.pipeline.OutOfOrderPipeline.run_chunks`
and performs the defense's exit flush.  ``simulate`` and every
observation's :func:`timing_pass` go through it, so every engine and
every caller times a stream the same way.

A campaign (one secret per lane, one program, one machine) serves its
lanes with far fewer pipeline passes than lanes, exact per lane:
:func:`shared_outcomes` runs one pass per distinct lane digest over a
``digest -> outcome`` dict that the campaign owns.  The digest covers
everything the timing model reads (static tables, dynamic
``(pc, addr, taken)`` columns):
:meth:`~repro.arch.batch.BatchExecutor.lane_timing_digest` for the
lanes of a lockstep batch (:func:`lane_outcomes`),
:func:`~repro.arch.trace.timing_stream_digest` for a serial stream.
Lanes with equal digests feed the pipeline identical input, so one
pass serves all of them.  SeMPE lanes are lockstep *by construction*:
their only per-lane trace values are secure-branch outcomes, which the
pipeline never consults (§IV-E) and neither digest covers, so a whole
SeMPE campaign usually collapses to a single pass.  The machine is not
in the key: one campaign runs on one machine, and the dict dies with
the campaign.  Repeated campaigns are served a level up, by the
campaign memo (:mod:`repro.security.leakage`), the only memo that
outlives a call.  Passes and shared lanes are counted in
:data:`repro.obs.COUNTS` (``timing.*``), which ``harness.clear_cache()``
zeroes and which includes pool workers' passes; :func:`memo_info`
reads them for ``--cache-stats``.

``tests/uarch/test_pipeline_batch_parity.py`` pins per-lane
bit-identical :class:`~repro.uarch.pipeline.PipelineStats` against
serial runs under every registered defense (a batch only ever runs
with the speculation window closed; an open window takes serial
lanes, whose observations the same suite pins).

Faulted lanes are never timed: their entry in the returned list is
``None`` and callers re-raise
:meth:`~repro.arch.batch.BatchExecutor.lane_error` exactly where the
serial generator would have.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

from repro.arch.trace import TRANSIENT_PC_BASE
from repro.core.snapshots import drain_timing
from repro.obs import COUNTS
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import OutOfOrderPipeline, PipelineStats


@dataclass
class PipelineOutcome:
    """Everything one lane's timing pass produces.

    The full observable surface of a serial per-lane pipeline run —
    stats, miss rates, the attacker-facing residue digests, and the
    wrong-path (transient) digest — so one pass can serve every lane
    of a campaign that shares its digest without touching a pipeline
    again.
    """

    stats: PipelineStats
    miss_rates: dict[str, float] = field(default_factory=dict)
    cache_digest: str = ""
    cache_occupancy: tuple = ()
    predictor_digest: str = ""
    transient_digest: str = ""


def residue_digests(hierarchy, predictor, btb, ittage, ras):
    """Post-run residue channels of one machine: cache digest, per-set
    occupancy, predictor digest.

    Residue channels expose the *attacker-facing* views: identical to
    the ground truth on an undefended machine, narrowed by the cache
    defenses (partitioning hides the reserved ways, randomization
    denies per-set resolution).
    """
    caches = (hierarchy.il1, hierarchy.dl1, hierarchy.l2)
    cache_state = tuple(
        tuple(sorted(cache.attacker_resident_lines())) for cache in caches)
    cache_digest = hashlib.sha256(repr(cache_state).encode()).hexdigest()
    cache_occupancy = tuple(
        tuple(cache.attacker_occupancy()) for cache in caches)
    predictor_state = (
        predictor.state_digest(),
        btb.state_digest(),
        ittage.state_digest(),
        ras.state_digest(),
    )
    predictor_digest = hashlib.sha256(
        repr(predictor_state).encode()
    ).hexdigest()
    return cache_digest, cache_occupancy, predictor_digest


def scale_chunk_drains(chunks, scale: float):
    """Scale drain-row SPM cycles in a chunk stream (non-ArchRS snapshot
    mechanisms).  Drain rows have ``-3 <= pc < 0`` and carry their SPM
    cycles in the addr column; transient rows sit at ``pc <= -4`` and
    carry memory addresses, so they must never be scaled.  Mutates the
    chunk columns in place, which is safe because every executor's chunk
    stream (:meth:`BatchExecutor.lane_chunks` included) yields fresh
    per-lane lists.
    """
    for chunk in chunks:
        pc = chunk.pc
        addr = chunk.addr
        for i in range(chunk.n):
            if TRANSIENT_PC_BASE < pc[i] < 0:
                addr[i] = max(1, int(round(addr[i] * scale)))
        yield chunk


def _transient_tee(chunks, transient_hash, line_bytes: int):
    """Tee a chunk stream, hashing its transient rows column-wise —
    byte-identical to :meth:`TraceObserver.observe` on the
    re-materialized records: static pc, then the touched data line for
    rows that carry a memory address."""
    for chunk in chunks:
        for pc, addr in zip(chunk.pc, chunk.addr):
            if pc <= TRANSIENT_PC_BASE:
                transient_hash.update(
                    (TRANSIENT_PC_BASE - pc).to_bytes(8, "little"))
                if addr >= 0:
                    transient_hash.update(
                        (addr // line_bytes).to_bytes(8, "little",
                                                      signed=False))
        yield chunk


# --------------------------------------------------------------------------
# Pass counters
# --------------------------------------------------------------------------

def memo_info() -> dict[str, int]:
    """Observation timing-pass counters (``--cache-stats``).

    ``misses`` are pipeline passes (:func:`run_lane`, so ``simulate``
    and every observation's :func:`timing_pass` count), and
    ``shared`` are lanes served by another lane's pass in the same
    campaign, serial or lockstep.  No outcome outlives its campaign,
    so ``hits`` and ``entries`` are always 0; they keep the counter
    set that per-layer benchmark readers consume.
    """
    return {"hits": 0, "misses": COUNTS["timing.passes"],
            "shared": COUNTS["timing.shared"], "entries": 0}


def _clone(outcome: PipelineOutcome) -> PipelineOutcome:
    """A mutation-isolated copy (stats are mutable dataclasses; the
    digests and occupancy tuples are immutable and safely shared)."""
    return dataclasses.replace(outcome,
                               stats=dataclasses.replace(outcome.stats),
                               miss_rates=dict(outcome.miss_rates))


# --------------------------------------------------------------------------
# The serial lane core
# --------------------------------------------------------------------------

def run_lane(chunks, config: MachineConfig, *, sempe: bool,
             fence: bool = False,
             flush_penalty: int = 0) -> OutOfOrderPipeline:
    """Time one lane's chunk stream on a fresh machine.

    Scales the drain rows and sets the rename penalty for
    ``config.snapshot_mechanism`` (:func:`repro.core.snapshots.drain_timing`),
    runs the timing model, and, when ``flush_penalty`` is non-zero,
    charges the exit flush and clears the residue it removes.  Returns
    the pipeline: its ``stats`` and post-run structures are the lane's
    timing outcome and residue.
    """
    COUNTS["timing.passes"] += 1
    drain_scale, rename_overhead = drain_timing(config)
    pipeline = OutOfOrderPipeline(config, sempe=sempe, fence=fence)
    pipeline.rename_overhead = rename_overhead
    if drain_scale != 1.0:
        chunks = scale_chunk_drains(chunks, drain_scale)
    stats = pipeline.run_chunks(chunks)
    if flush_penalty:
        # Constant-cost exit flush: the cycles are charged and the
        # residue cleared, so post-run observers see a machine that does
        # not depend on what the victim did.
        stats.cycles += flush_penalty
        pipeline.flush_transient_state()
    return pipeline


# --------------------------------------------------------------------------
# Observation timing passes
# --------------------------------------------------------------------------

def timing_pass(chunks, config: MachineConfig, *, sempe: bool,
                fence: bool = False,
                flush_penalty: int = 0) -> PipelineOutcome:
    """One lane-core pass over a chunk stream, with every digest an
    observation needs — the transient digest included, so the outcome
    serves every lane that shares the stream's digest in full."""
    transient_hash = hashlib.sha256()
    if config.speculation.enabled:
        chunks = _transient_tee(chunks, transient_hash,
                                config.hierarchy.dl1.line_bytes)
    pipeline = run_lane(chunks, config, sempe=sempe, fence=fence,
                        flush_penalty=flush_penalty)
    cache_digest, cache_occupancy, predictor_digest = residue_digests(
        pipeline.hierarchy, pipeline.predictor, pipeline.btb,
        pipeline.ittage, pipeline.ras)
    return PipelineOutcome(
        stats=pipeline.stats,
        miss_rates=pipeline.hierarchy.miss_rates(),
        cache_digest=cache_digest,
        cache_occupancy=cache_occupancy,
        predictor_digest=predictor_digest,
        transient_digest=transient_hash.hexdigest(),
    )


def shared_outcomes(
    digests: list[str | None],
    lane_chunks,
    campaign: dict[str, PipelineOutcome],
    config: MachineConfig,
    *,
    sempe: bool,
    fence: bool = False,
    flush_penalty: int = 0,
) -> list[PipelineOutcome | None]:
    """One :class:`PipelineOutcome` per lane, one :func:`timing_pass`
    per lane digest that *campaign* does not hold yet.

    ``digests[lane]`` is the lane's timing digest, or ``None`` for a
    faulted lane (whose outcome is ``None``); ``lane_chunks(lane)``
    yields a lane's chunk stream and is only called for a new digest.
    *campaign* is the calling campaign's ``digest -> outcome`` dict:
    this fills it, so a campaign that times its lanes one call at a
    time shares passes across those calls.  Every lane gets its own
    copy of the outcome.  ``flush_penalty`` is the flush-on-exit cycle
    cost (0 disables the exit flush).
    """
    outcomes: list[PipelineOutcome | None] = []
    for lane, digest in enumerate(digests):
        if digest is None:
            outcomes.append(None)
            continue
        outcome = campaign.get(digest)
        if outcome is None:
            outcome = campaign[digest] = timing_pass(
                lane_chunks(lane), config, sempe=sempe, fence=fence,
                flush_penalty=flush_penalty)
        else:
            COUNTS["timing.shared"] += 1
        outcomes.append(_clone(outcome))
    return outcomes


def lane_outcomes(
    executor,
    config: MachineConfig,
    *,
    sempe: bool,
    fence: bool = False,
    flush_penalty: int = 0,
) -> list[PipelineOutcome | None]:
    """:func:`shared_outcomes` for every lane of a finished batch run,
    which is one campaign.

    *executor* is a :class:`~repro.arch.batch.BatchExecutor` whose
    :meth:`run` has completed; lanes are keyed by its
    :meth:`~repro.arch.batch.BatchExecutor.lane_timing_digest`.
    Faulted lanes get ``None`` — callers must re-raise
    :meth:`lane_error` in lane order, exactly where the serial chunk
    generator would have.
    """
    digests = [None if executor.lane_error(lane) is not None
               else executor.lane_timing_digest(lane)
               for lane in range(executor.n_lanes)]
    return shared_outcomes(digests, executor.lane_chunks, {}, config,
                           sempe=sempe, fence=fence,
                           flush_penalty=flush_penalty)
