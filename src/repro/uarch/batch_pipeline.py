"""The serial lane core, and the memoized timing path built on it.

:func:`run_lane` times one lane's chunk stream on a fresh machine: it
applies the configured snapshot mechanism's drain scaling and rename
penalty, runs :meth:`~repro.uarch.pipeline.OutOfOrderPipeline.run_chunks`
and performs the defense's exit flush.  ``simulate``,
``collect_observation``, and every pipeline pass of
:func:`memoized_outcomes` go through it, so every engine and every
caller times a stream the same way.

:func:`memoized_outcomes` serves lanes with far fewer pipeline passes
than lanes, exact per lane, through two mechanisms:

1. **Lane sharing.**  Lanes are keyed by a content digest of
   everything the timing model reads (static tables, dynamic
   ``(pc, addr, taken)`` columns):
   :meth:`~repro.arch.batch.BatchExecutor.lane_timing_digest` for the
   lanes of a lockstep batch (:func:`lane_outcomes`),
   :func:`~repro.arch.trace.timing_stream_digest` for a serial stream.
   Lanes with equal digests feed the pipeline identical input, so one
   pass serves all of them.  SeMPE lanes are lockstep *by
   construction*: their only per-lane trace values are secure-branch
   outcomes, which the pipeline never consults (§IV-E) and neither
   digest covers, so a whole SeMPE campaign usually collapses to a
   single digest.

2. **Digest-keyed memoization.**  Each pass's full
   :class:`PipelineOutcome` (stats, miss rates, residue digests,
   transient digest) is cached under ``(machine-config fingerprint,
   defense fingerprint, machine flags, lane digest)`` in a bounded
   process-wide table, so identical lanes *across* calls — the secrets
   of a SeMPE noninterference report, identical cells across a sweep —
   cost one pass.  Hit/miss counters surface through the CLI's
   ``--cache-stats`` plumbing (:func:`memo_info`);
   :func:`set_memo_enabled` exists so the parity suites can prove the
   cache is semantically transparent.

``tests/uarch/test_pipeline_batch_parity.py`` pins per-lane
bit-identical :class:`~repro.uarch.pipeline.PipelineStats` against
serial runs under every registered defense (a batch only ever runs
with the speculation window closed; an open window takes serial
lanes, whose observations the same suite pins).

Faulted lanes are never timed or memoized: their entry in the returned
list is ``None`` and callers re-raise
:meth:`~repro.arch.batch.BatchExecutor.lane_error` exactly where the
serial generator would have.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.arch.trace import TRANSIENT_PC_BASE
from repro.core.snapshots import drain_timing
from repro.uarch.config import MachineConfig, fingerprint
from repro.uarch.pipeline import OutOfOrderPipeline, PipelineStats


@dataclass
class PipelineOutcome:
    """Everything one lane's timing pass produces.

    The full observable surface of a serial per-lane pipeline run —
    stats, miss rates, the attacker-facing residue digests, and the
    wrong-path (transient) digest — so a memo hit can serve
    ``collect_observation`` and ``collect_observations_batch`` without
    touching a pipeline at all.
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
# The memo cache
# --------------------------------------------------------------------------

# An outcome carries one occupancy count per cache set: 608 on the leak
# machine (fast_functional), 2,432 on the default machine, about 8 KB
# and 23 KB as tuples of ints.  Entries keep them as bytes, which brings
# an entry to about 4 KB and 6 KB.  4096 entries cover a large sweep's
# worth of distinct (stream, machine) pairs.
MEMO_CAPACITY = 4096

_MEMO: OrderedDict[tuple, PipelineOutcome] = OrderedDict()
_HITS = 0
_MISSES = 0
_SHARED = 0
_memo_enabled = True


def set_memo_enabled(enabled: bool) -> bool:
    """Toggle the cross-call memo (the parity suite's transparency
    switch).  In-call lane sharing is a structural property of the
    batch, not a cache, and stays on.  Returns the previous setting."""
    global _memo_enabled
    previous = _memo_enabled
    _memo_enabled = enabled
    return previous


def memo_enabled() -> bool:
    """Whether cross-call memos are on (:func:`set_memo_enabled`); the
    campaign memo (:mod:`repro.security.leakage`) follows it too."""
    return _memo_enabled


def clear_memo() -> None:
    """Drop every memoized outcome and reset the counters."""
    global _HITS, _MISSES, _SHARED
    _MEMO.clear()
    _HITS = 0
    _MISSES = 0
    _SHARED = 0


def memo_info() -> dict[str, int]:
    """Hit/miss/share counters for the pipeline memo (``--cache-stats``).

    ``hits`` are lanes served from the cross-call memo, ``misses`` are
    actual pipeline passes, and ``shared`` are lanes served by another
    lane's pass within the same batch (the lockstep-sharing win).
    """
    return {"hits": _HITS, "misses": _MISSES, "shared": _SHARED,
            "entries": len(_MEMO)}


def _memo_get(key: tuple) -> PipelineOutcome | None:
    """A fresh copy of the memoized outcome under *key*, if any."""
    if not _memo_enabled:
        return None
    stored = _MEMO.get(key)
    if stored is None:
        return None
    _MEMO.move_to_end(key)
    return _clone(stored, unpack_occupancy(stored.cache_occupancy))


def _memo_put(key: tuple, outcome: PipelineOutcome) -> None:
    if not _memo_enabled:
        return
    _MEMO[key] = _clone(outcome, pack_occupancy(outcome.cache_occupancy))
    while len(_MEMO) > MEMO_CAPACITY:
        _MEMO.popitem(last=False)


def pack_occupancy(occupancy: tuple) -> tuple:
    """Per-level occupancy counts as one bytes object per level (an
    eighth of a tuple of ints), for a memo entry to keep.  The counts
    fit a byte unless a set has 256+ ways; then they stay as given."""
    try:
        return tuple(bytes(level) for level in occupancy)
    except ValueError:
        return occupancy


def unpack_occupancy(packed: tuple) -> tuple:
    """The tuple-of-int-tuples form of :func:`pack_occupancy`'s
    result, which every fresh observation carries."""
    return tuple(tuple(level) for level in packed)


def _clone(outcome: PipelineOutcome,
           cache_occupancy: tuple | None = None) -> PipelineOutcome:
    """A mutation-isolated copy (stats are mutable dataclasses; the
    digests and occupancy tuples are immutable and safely shared),
    optionally with *cache_occupancy* in another encoding."""
    return PipelineOutcome(
        stats=dataclasses.replace(outcome.stats),
        miss_rates=dict(outcome.miss_rates),
        cache_digest=outcome.cache_digest,
        cache_occupancy=(outcome.cache_occupancy if cache_occupancy is None
                         else cache_occupancy),
        predictor_digest=outcome.predictor_digest,
        transient_digest=outcome.transient_digest,
    )


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
# The memoized timing path
# --------------------------------------------------------------------------

def memoized_outcomes(
    digests: list[str | None],
    lane_chunks,
    config: MachineConfig,
    *,
    sempe: bool,
    fence: bool = False,
    defense_fingerprint: str = "",
    flush_penalty: int = 0,
) -> list[PipelineOutcome | None]:
    """One :class:`PipelineOutcome` per lane, one pipeline pass per
    distinct lane digest that the memo cannot serve.

    ``digests[lane]`` is the lane's timing digest, or ``None`` for a
    faulted lane (whose outcome is ``None``); ``lane_chunks(lane)``
    yields a lane's chunk stream and is only called on a miss.  Every
    timing pass of the batch and serial paths goes through here, so
    both build outcomes and count hits, misses and shares the same way.

    ``flush_penalty`` is the flush-on-exit cycle cost (0 disables the
    exit flush).  It joins the machine-config and defense fingerprints
    in the memo key, so outcomes never alias across machines that would
    time the same stream differently.
    """
    global _HITS, _MISSES, _SHARED

    base_key = (
        fingerprint(dataclasses.asdict(config)),
        defense_fingerprint,
        sempe,
        fence,
        flush_penalty,
    )
    outcomes: list[PipelineOutcome | None] = [None] * len(digests)

    # Serve memo hits immediately and queue distinct missing digests
    # (with every lane that wants them).
    missing: "OrderedDict[str, list[int]]" = OrderedDict()
    for lane, digest in enumerate(digests):
        if digest is None:
            continue
        cached = _memo_get(base_key + (digest,))
        if cached is not None:
            _HITS += 1
            outcomes[lane] = cached
        else:
            missing.setdefault(digest, []).append(lane)

    # One pipeline pass per missing digest serves every lane holding it.
    for digest, lanes in missing.items():
        outcome = _compute_outcome(lane_chunks(lanes[0]), config,
                                   sempe=sempe, fence=fence,
                                   flush_penalty=flush_penalty)
        _MISSES += 1
        _memo_put(base_key + (digest,), outcome)
        outcomes[lanes[0]] = outcome
        for lane in lanes[1:]:
            _SHARED += 1
            outcomes[lane] = _clone(outcome)
    return outcomes


def lane_outcomes(
    executor,
    config: MachineConfig,
    *,
    sempe: bool,
    fence: bool = False,
    defense_fingerprint: str = "",
    flush_penalty: int = 0,
) -> list[PipelineOutcome | None]:
    """:func:`memoized_outcomes` for every lane of a finished batch run.

    *executor* is a :class:`~repro.arch.batch.BatchExecutor` whose
    :meth:`run` has completed; lanes are keyed by its
    :meth:`~repro.arch.batch.BatchExecutor.lane_timing_digest`.
    Faulted lanes get ``None`` — callers must re-raise
    :meth:`lane_error` in lane order, exactly where the serial chunk
    generator would have raised.
    """
    digests = [None if executor.lane_error(lane) is not None
               else executor.lane_timing_digest(lane)
               for lane in range(executor.n_lanes)]
    return memoized_outcomes(digests, executor.lane_chunks, config,
                             sempe=sempe, fence=fence,
                             defense_fingerprint=defense_fingerprint,
                             flush_penalty=flush_penalty)


def _compute_outcome(chunks, config: MachineConfig, *, sempe: bool,
                     fence: bool, flush_penalty: int) -> PipelineOutcome:
    """One lane-core pass over a chunk stream, with every digest an
    observation needs — the transient digest included, so a memo entry
    serves any later lookup in full."""
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
