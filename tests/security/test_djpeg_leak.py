"""End-to-end image-content leak: the paper's djpeg scenario.

The secret is the image itself.  Two images with different content must
be indistinguishable to the §III attacker when decoded on the SeMPE
machine, and distinguishable on the baseline.
"""


import pytest

pytestmark = pytest.mark.slow

from repro.security import collect_observation, distinguishing_channels
from repro.workloads.djpeg import DjpegSpec, compile_djpeg, generate_image

NPIXELS = 128


@pytest.fixture(scope="module")
def images():
    flat = [0] * NPIXELS
    busy = generate_image(NPIXELS, seed=77)
    gradient = [(i % 512) - 256 for i in range(NPIXELS)]
    return [flat, busy, gradient]


def observations(fmt, mode, images, config):
    spec = DjpegSpec(fmt, NPIXELS, fill=False)
    compiled = compile_djpeg(spec, mode)
    return [
        collect_observation(compiled.program, defense=mode,
                            secret_values={"img": image}, config=config)
        for image in images
    ]


def test_baseline_distinguishes_images(images, fast_config):
    traces = observations("ppm", "plain", images, fast_config)
    assert distinguishing_channels(traces[0], traces[1])
    assert distinguishing_channels(traces[0], traces[2])


@pytest.mark.parametrize("fmt", ["ppm", "gif", "bmp"])
def test_sempe_hides_image_content(fmt, images, fast_config):
    traces = observations(fmt, "sempe", images, fast_config)
    for index in range(1, len(traces)):
        channels = distinguishing_channels(traces[0], traces[index])
        assert not channels, (fmt, channels)


def test_decode_results_differ_even_when_trace_equal(images, fast_config):
    """Sanity: SeMPE hides the *behaviour*, not the *output* — different
    images still decode to different checksums."""
    spec = DjpegSpec("ppm", NPIXELS, fill=False)
    compiled = compile_djpeg(spec, "sempe")
    from repro.arch.executor import Executor

    checksums = []
    for image in images[:2]:
        executor = Executor(compiled.program, sempe=True)
        base = compiled.program.symbols["img"]
        for index, value in enumerate(image):
            executor.state.memory.store(base + 8 * index,
                                        value & ((1 << 64) - 1))
        executor.run_to_completion()
        checksums.append(executor.state.memory.load(
            compiled.program.symbols["checksum"]))
    assert checksums[0] != checksums[1]
