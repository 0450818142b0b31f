"""Stride and stream prefetchers."""

from repro.mem.prefetch import StridePrefetcher, StreamPrefetcher


def test_stride_trains_after_two_consistent_strides():
    prefetcher = StridePrefetcher(degree=2)
    pc = 0x40
    assert prefetcher.observe(pc, 1000) == ()
    assert prefetcher.observe(pc, 1064) == ()      # learning stride
    assert prefetcher.observe(pc, 1128) == ()      # confidence 1
    out = prefetcher.observe(pc, 1192)             # confidence 2 -> fire
    assert out == (1256, 1320)


def test_stride_resets_on_stride_change():
    prefetcher = StridePrefetcher()
    pc = 0x40
    for addr in (0, 64, 128, 192):
        prefetcher.observe(pc, addr)
    assert prefetcher.observe(pc, 1000) == ()   # stride broken


def test_stride_per_pc_independent():
    prefetcher = StridePrefetcher()
    for addr in (0, 8, 16, 24):
        prefetcher.observe(0x10, addr)
    # A different PC has no training.
    assert prefetcher.observe(0x20, 4096) == ()


def test_stride_zero_never_fires():
    prefetcher = StridePrefetcher()
    for _ in range(10):
        assert prefetcher.observe(0x10, 500) == ()


def test_stream_detects_sequential_misses():
    prefetcher = StreamPrefetcher(degree=2)
    assert prefetcher.observe_miss(0) == ()
    assert prefetcher.observe_miss(64) == ()     # confidence 1
    out = prefetcher.observe_miss(128)           # confidence 2 -> fire
    assert out == (192, 256)


def test_stream_descending_direction():
    prefetcher = StreamPrefetcher(degree=1)
    prefetcher.observe_miss(10 * 64)
    prefetcher.observe_miss(9 * 64)
    out = prefetcher.observe_miss(8 * 64)
    assert out == (7 * 64,)


def test_stream_bounded_stream_table():
    prefetcher = StreamPrefetcher(n_streams=2)
    for base in range(10):
        prefetcher.observe_miss(base * 1_000_000)
    assert len(prefetcher._streams) <= 2


def test_descending_streams_near_zero_prefetch_no_negative_address():
    stride = StridePrefetcher(degree=4)
    issued = []
    for addr in (384, 320, 256, 192, 128):
        issued += stride.observe(0x10, addr)
    assert issued == [128, 64, 0, 64, 0]     # -64, -128 dropped
    stream = StreamPrefetcher(degree=4)
    issued = []
    for line in (3, 2, 1):
        issued += stream.observe_miss(line * 64)
    assert issued == [0]                 # lines -1, -2, -3 dropped


def test_reset_clears_state():
    stride = StridePrefetcher()
    for addr in (0, 8, 16, 24):
        stride.observe(1, addr)
    stride.reset()
    assert stride.observe(1, 32) == ()
    stream = StreamPrefetcher()
    stream.observe_miss(0)
    stream.reset()
    assert stream._streams == []
