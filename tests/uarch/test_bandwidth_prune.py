"""Bounded memory of the timing model's inlined tables on long streams.

``run_chunks`` keeps its issue/load reservation maps and its
store-to-load forwarding map in plain dicts, pruned at checkpoints; a
long stream must not grow them without bound.
"""


def test_tables_stay_bounded_on_long_chunk_stream():
    """A long stream touching >16384 distinct store words must not grow
    the issue/load reservation maps or the store-to-load forwarding map
    without bound: the per-checkpoint high-water marks stay within the
    prune thresholds plus one checkpoint interval of growth.
    """
    from repro.arch.fast_executor import FastExecutor
    from repro.lang.compiler import compile_source
    from repro.uarch.config import MachineConfig
    from repro.uarch.pipeline import OutOfOrderPipeline

    # 20000 8-byte words: read-modify-write each once — more distinct
    # store addresses than the 16384 forwarding-map threshold, and a
    # couple hundred thousand rows (dozens of prune checkpoints).
    source = """
int arr[20000];
int out = 0;

void main() {
  int acc = 0;
  for (int i = 0; i < 20000; i = i + 1) {
    arr[i] = arr[i] + 1;
  }
  out = acc;
}
"""
    program = compile_source(source, mode="plain").program
    config = MachineConfig()
    executor = FastExecutor(program, sempe=False)
    pipeline = OutOfOrderPipeline(config, sempe=False)
    stats = pipeline.run_chunks(
        executor.run_chunks(line_bytes=config.hierarchy.il1.line_bytes))

    # Long enough to exercise many checkpoints and the store threshold.
    assert stats.instructions > 100_000

    high_water = pipeline.table_high_water
    assert high_water["issue"] > 0          # checkpoints actually sampled
    checkpoint_growth = 8192                # rows between prune checkpoints
    assert high_water["issue"] <= 4096 + checkpoint_growth + 1024
    assert high_water["load"] <= 4096 + checkpoint_growth + 1024
    assert high_water["store"] <= 16384 + checkpoint_growth + 1024
