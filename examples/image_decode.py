#!/usr/bin/env python3
"""The paper's real-world case study: the djpeg image decoder.

libjpeg's decompression branches on each coefficient of the (secret)
image, leaking visual detail through timing and access patterns.  This
example decodes a synthetic image to all three output formats
(PPM / GIF / BMP), on both machines, and reports:

* the execution-time overhead per format (the Fig. 8 experiment);
* cache miss rates baseline vs SeMPE (the Fig. 9 experiment);
* a leak demonstration: a flat gray image and a detailed image are
  distinguishable on the baseline machine and indistinguishable under
  SeMPE.

Run:  python examples/image_decode.py
"""

from repro.core import simulate
from repro.security import collect_observation, distinguishing_channels
from repro.workloads.djpeg import DjpegSpec, compile_djpeg, generate_image

NPIXELS = 512


def main() -> None:
    print(f"=== synthetic djpeg, {NPIXELS}-pixel image "
          f"({NPIXELS // 64} blocks) ===\n")

    print(f"{'format':>6s} {'baseline':>9s} {'SeMPE':>9s} "
          f"{'overhead':>9s}  {'DL1 miss b/s':>14s}")
    for fmt in ("ppm", "gif", "bmp"):
        spec = DjpegSpec(fmt, NPIXELS)
        base = simulate(compile_djpeg(spec, "plain").program,
                        defense="plain")
        sempe = simulate(compile_djpeg(spec, "sempe").program,
                         defense="sempe")
        overhead = sempe.cycles / base.cycles - 1.0
        print(f"{fmt:>6s} {base.cycles:9d} {sempe.cycles:9d} "
              f"{overhead * 100:8.0f}%  "
              f"{base.miss_rates['DL1'] * 100:6.2f}% / "
              f"{sempe.miss_rates['DL1'] * 100:.2f}%")

    print("\nOverheads stay well below 2x because the secure regions are "
          "a fraction of total decode work;\nPPM > GIF > BMP because PPM "
          "has the most secret-dependent decode steps per block.\n")

    # --- leak demonstration -------------------------------------------------
    print("--- can the attacker tell two images apart? ---")
    spec = DjpegSpec("ppm", NPIXELS, fill=False)   # image poked, not filled
    flat_image = [0] * NPIXELS                     # flat gray
    busy_image = generate_image(NPIXELS, seed=4242)  # detailed

    for mode, label in (("plain", "baseline"), ("sempe", "SeMPE")):
        compiled = compile_djpeg(spec, mode)
        observations = [
            collect_observation(compiled.program, defense=mode,
                                secret_values={"img": image})
            for image in (flat_image, busy_image)
        ]
        channels = distinguishing_channels(*observations)
        verdict = ", ".join(channels) if channels else "indistinguishable"
        print(f"{label:>9s}: {verdict}")

    print("\nUnder SeMPE both decode paths run for every coefficient, so "
          "image content no longer\nshapes the branch, timing, or access "
          "behaviour of the decoder.")


if __name__ == "__main__":
    main()
