"""Attacker observation collection.

An :class:`ObservationTrace` bundles everything the threat model allows
the adversary to see for one victim run:

* ``cycles`` — coarse end-to-end timing;
* ``pc_digest`` — the committed control-flow trace (what an attacker
  reconstructs from a shared fetch engine / branch history);
* ``mem_digest`` — the data-access address stream (shared-cache
  channel at line granularity);
* ``cache_digest`` — post-run cache tag state (prime-and-probe residue);
* ``predictor_digest`` — post-run branch-predictor state (the branch
  predictor channel);
* ``instruction_count`` — committed instruction count.

Streams are kept only as SHA-256 digests: two runs' digests are equal
iff their streams are, which is all any distinguisher asks, and a
digest compares in O(1) however long the run.

:func:`collect_observation` runs a program on the full machine
(functional + timing) and gathers all of them;
:func:`collect_observations_batch` runs every victim campaign
(:func:`repro.security.leakage.victim_campaign`) and alone picks
lockstep or serial lanes.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass
from itertools import chain

from repro.arch.trace import (
    TraceChunk,
    committed_columns,
    timing_stream_digest,
)
from repro.core.engine import (
    _resolve_engine,
    executor_kwargs,
    exit_flush_penalty,
    serial_executor,
)
from repro.defenses.registry import DefenseSpec, get_defense
from repro.isa.program import Program
from repro.uarch.batch_pipeline import (
    PipelineOutcome,
    _compute_outcome,
    lane_outcomes,
    memoized_outcomes,
)
from repro.uarch.config import MachineConfig


# The longest fast-engine stream (in trace rows) held for a timing-memo
# lookup: about 8 MB of chunk columns.  A longer run is timed as it
# streams, without the memo, so memory stays bounded on long programs;
# the verify grid's longest stream is 32k rows.
MEMO_STREAM_ROWS = 1 << 18


@dataclass
class ObservationTrace:
    """Everything the §III attacker can observe for one run."""

    cycles: int
    instruction_count: int
    pc_digest: str
    mem_digest: str
    cache_digest: str
    predictor_digest: str
    # Wrong-path (speculation window) fetch/access stream.  The constant
    # hash-of-nothing whenever speculation is disabled, so the channel is
    # trivially closed on machines without a transient window.
    transient_digest: str = ""
    # Per-set valid-line counts (IL1, DL1, L2) — the prime-and-probe
    # residue an attacker measures by timing its own primed lines.
    cache_occupancy: tuple = ()

    def channels(self) -> dict[str, object]:
        """Channel name -> observable value (digests for big streams)."""
        return {
            "timing": self.cycles,
            "instruction-count": self.instruction_count,
            "control-flow": self.pc_digest,
            "memory-address": self.mem_digest,
            "cache-state": self.cache_digest,
            "branch-predictor": self.predictor_digest,
            "transient-memory": self.transient_digest,
        }


class TraceObserver:
    """Streams a functional trace, accumulating observable digests."""

    def __init__(self, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self._pc_hash = hashlib.sha256()
        self._mem_hash = hashlib.sha256()
        self._transient_hash = hashlib.sha256()
        self.instruction_count = 0

    def observe(self, record) -> None:
        if record.kind != "inst":
            if record.kind == "transient":
                # Wrong-path fetch + access stream: what a same-core
                # attacker reconstructs from the cache lines the squashed
                # instructions touched (flush+reload on the shared lines).
                self._transient_hash.update(record.pc.to_bytes(8, "little"))
                if record.mem_addr is not None:
                    line = record.mem_addr // self.line_bytes
                    self._transient_hash.update(
                        line.to_bytes(8, "little", signed=False))
            return
        self.instruction_count += 1
        self._pc_hash.update(record.pc.to_bytes(8, "little"))
        if record.mem_addr is not None:
            line = record.mem_addr // self.line_bytes
            self._mem_hash.update(line.to_bytes(8, "little", signed=False))

    @property
    def pc_digest(self) -> str:
        return self._pc_hash.hexdigest()

    @property
    def mem_digest(self) -> str:
        return self._mem_hash.hexdigest()

    @property
    def transient_digest(self) -> str:
        return self._transient_hash.hexdigest()


def poke_secrets(memory, symbols: dict[str, int],
                 secret_values: dict[str, object] | None) -> None:
    """Install secret values into *memory* before a victim run.

    This is the one place secrets are encoded into the machine: scalar
    secrets are masked to the 8-byte word their ``secret int`` symbol
    occupies, and array secrets (lists/tuples) fill consecutive 8-byte
    words.  Every consumer — observation collection, the concrete
    attacks, the leak experiments — must poke through here so attacker
    and victim agree on the secret's width and encoding.
    """
    for name, value in (secret_values or {}).items():
        if isinstance(value, (list, tuple)):
            for index, element in enumerate(value):
                memory.store(symbols[name] + 8 * index,
                             element & ((1 << 64) - 1), 8)
        else:
            memory.store(symbols[name], value & ((1 << 64) - 1), 8)


def collect_observation(
    program: Program,
    *,
    defense: str | DefenseSpec = "sempe",
    secret_values: dict[str, int] | None = None,
    symbols: dict[str, int] | None = None,
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
    engine: str = "fast",
) -> ObservationTrace:
    """Run *program* with the given secrets and collect the observation.

    ``secret_values`` maps symbol names (resolved through ``symbols`` or
    ``program.symbols``) to the values poked into memory before the run.

    ``defense`` (a registered name or a :class:`DefenseSpec`, default
    the SeMPE machine) selects the protection scheme whose machine-side
    hooks the victim runs under (config overrides, SeMPE hardware,
    fences, exit flush) *and* whose attacker model shapes the residue
    channels: partitioned or randomized caches expose their
    attacker-facing views (see
    :meth:`repro.mem.cache.Cache.attacker_occupancy`), an exit flush
    clears the residue before it is digested.

    ``engine`` selects the functional engine (``"fast"``/``"batch"``/
    ``"reference"``); all produce identical observations, so leak
    verdicts are engine-independent — which the victim test suite
    asserts for every registered workload.

    * ``fast`` (and ``batch``: one lane has nothing to run in
      lockstep) digests the committed streams column-wise from the chunk
      columns and takes the timing outcome from the memoized timing
      path (:func:`~repro.uarch.batch_pipeline.memoized_outcomes`),
      keyed by :func:`~repro.arch.trace.timing_stream_digest`: every
      secret of a SeMPE report drives the same timing stream, so a
      report costs one pipeline pass.  A stream longer than
      :data:`MEMO_STREAM_ROWS` rows is timed as it streams instead.
    * ``reference`` is the oracle: a fresh pipeline every call, no
      memo, and the record-wise :class:`TraceObserver` over the
      re-materialized records.

    **Hermeticity contract:** every call returns the observation a
    fresh executor, pipeline, cache hierarchy, prefetchers and
    predictors would produce, and never mutates *program* or *config*.
    A memo hit builds no pipeline at all, so two calls with the same
    arguments return identical traces regardless of what ran in
    between — the multi-trial attack engine depends on this (residue
    from a previous trial, e.g. a trained ``StridePrefetcher`` table,
    must never masquerade as a leak), and
    ``tests/security/test_observer.py`` pins it on both serial engines.
    """
    spec = get_defense(defense)
    engine = _resolve_engine(engine)
    config = spec.apply_config(config or MachineConfig())
    executor = serial_executor(program, spec, config, max_instructions,
                               engine)
    symbol_table = symbols if symbols is not None else program.symbols
    poke_secrets(executor.state.memory, symbol_table, secret_values)
    chunks = executor.run_chunks(line_bytes=config.hierarchy.il1.line_bytes)
    lane = dict(sempe=spec.sempe_machine, fence=spec.fence_branches,
                flush_penalty=exit_flush_penalty(spec, config))
    line_bytes = config.hierarchy.dl1.line_bytes

    if engine == "reference":
        # Tee the chunk stream: the observer reads the re-materialized
        # records while the lane core times the chunks.
        observer = TraceObserver(line_bytes=line_bytes)

        def observed(chunks):
            for chunk in chunks:
                for record in chunk.records():
                    observer.observe(record)
                yield chunk

        outcome = _compute_outcome(observed(chunks), config, **lane)
        return _observation(outcome, observer.instruction_count,
                            observer.pc_digest, observer.mem_digest,
                            observer.transient_digest)

    # Digest the committed streams column-wise as the chunks arrive,
    # and hold one lane's chunks until the memo says whether they need
    # a timing pass.
    pc_hash, mem_hash = hashlib.sha256(), hashlib.sha256()
    instruction_count = 0

    def digested(chunks):
        nonlocal instruction_count
        for chunk in chunks:
            pcs, lines = committed_columns(chunk, line_bytes)
            instruction_count += len(pcs)
            pc_hash.update(_u64_bytes(pcs))
            mem_hash.update(_u64_bytes(lines))
            yield chunk

    stream = digested(chunks)
    held: list[TraceChunk] = []
    rows = 0
    for chunk in stream:
        held.append(chunk)
        rows += chunk.n
        if rows > MEMO_STREAM_ROWS:
            # Too long to hold: time the rest as it streams, unmemoized.
            outcome = _compute_outcome(chain(held, stream), config, **lane)
            break
    else:
        outcome = memoized_outcomes(
            [timing_stream_digest(held, sempe=spec.sempe_machine)],
            lambda _lane: held, config,
            defense_fingerprint=spec.fingerprint(), **lane)[0]
    return _observation(outcome, instruction_count, pc_hash.hexdigest(),
                        mem_hash.hexdigest(), outcome.transient_digest)


def _u64_bytes(values: list[int]) -> bytes:
    """*values* as consecutive little-endian 8-byte words — the bytes
    :class:`TraceObserver` hashes one ``to_bytes(8, "little")`` at a
    time."""
    words = array("Q", values)
    if sys.byteorder != "little":
        words.byteswap()
    return words.tobytes()


def _observation(outcome: PipelineOutcome, instruction_count: int,
                 pc_digest: str, mem_digest: str,
                 transient_digest: str) -> ObservationTrace:
    """An observation from a lane's timing outcome (cycles and
    residue channels) and its committed-stream digests.  After an exit
    flush the residue is already cleared, and its cycles charged: the
    flush can look neither free nor leaky."""
    return ObservationTrace(
        cycles=outcome.stats.cycles,
        instruction_count=instruction_count,
        pc_digest=pc_digest,
        mem_digest=mem_digest,
        cache_digest=outcome.cache_digest,
        predictor_digest=outcome.predictor_digest,
        transient_digest=transient_digest,
        cache_occupancy=outcome.cache_occupancy,
    )


def collect_observations_batch(
    program: Program,
    secret_sets: list[dict[str, object] | None],
    *,
    defense: str | DefenseSpec = "sempe",
    symbols: dict[str, int] | None = None,
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
    engine: str = "fast",
) -> list[ObservationTrace]:
    """One observation per secret set, equal to
    :func:`collect_observation` on each set.

    This is the one place that chooses between lockstep and serial
    lanes.  On ``engine="batch"`` with the speculation window closed,
    the trial-batched engine (:class:`~repro.arch.batch.BatchExecutor`)
    decodes the program once and steps every trial together, so a whole
    profiling campaign pays one functional execution instead of
    ``len(secret_sets)``; each lane's observation is byte-identical to
    the serial one (the batch-parity suite pins this under every
    registered defense).  Every other case runs one serial
    :func:`collect_observation` per set on *engine*: with the window
    open, wrong-path walks diverge per lane.

    The hermeticity contract carries over per lane: every lane gets a
    fresh timing pipeline, cache hierarchy, and predictors, and the
    residue digests are taken per lane, so trials cannot contaminate
    each other any more than back-to-back serial calls could.
    """
    spec = get_defense(defense)
    engine = _resolve_engine(engine)
    config = spec.apply_config(config or MachineConfig())
    if engine != "batch" or config.speculation.enabled:
        return [collect_observation(
                    program, defense=spec, secret_values=secret_values,
                    symbols=symbols, config=config,
                    max_instructions=max_instructions, engine=engine)
                for secret_values in secret_sets]

    from repro.arch.batch import BatchExecutor

    symbol_table = symbols if symbols is not None else program.symbols
    executor = BatchExecutor(program, n_lanes=len(secret_sets),
                             **executor_kwargs(spec, config,
                                               max_instructions))
    for lane, secret_values in enumerate(secret_sets):
        poke_secrets(executor.memory.lane_view(lane), symbol_table,
                     secret_values)
    executor.run(line_bytes=config.hierarchy.il1.line_bytes)

    # The batched timing path: one lane-core pass per *distinct* lane
    # timing digest (SeMPE campaigns usually collapse to one), memoized
    # across calls.  The residue digests happen inside lane_outcomes,
    # so a memo hit reproduces the full observation without touching a
    # pipeline.
    dl1_line_bytes = config.hierarchy.dl1.line_bytes
    outcomes = lane_outcomes(
        executor, config,
        sempe=spec.sempe_machine,
        fence=spec.fence_branches,
        defense_fingerprint=spec.fingerprint(),
        flush_penalty=exit_flush_penalty(spec, config),
    )
    observations = []
    for lane, outcome in enumerate(outcomes):
        if outcome is None:
            # Faulted lane: raise in lane order, exactly where the
            # serial per-lane generator would have.
            raise executor.lane_error(lane)
        instruction_count, pc_values, mem_lines = executor.lane_streams(
            lane, dl1_line_bytes)
        observations.append(_observation(
            outcome, instruction_count,
            hashlib.sha256(pc_values.astype("<u8").tobytes()).hexdigest(),
            hashlib.sha256(mem_lines.astype("<u8").tobytes()).hexdigest(),
            outcome.transient_digest))
    return observations


