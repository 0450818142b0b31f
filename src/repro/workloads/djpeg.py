"""Synthetic ``djpeg``: the libjpeg stand-in.

The paper's real-world case study is libjpeg's ``djpeg`` converting JPEG
images to PPM, GIF or BMP; the secret is the pixel/coefficient array,
and the decode loop branches on each element.  Running real libjpeg on
our ISA is impossible, so this module generates a mini-C decoder with
the structural properties the evaluation depends on:

* the image is processed in 64-coefficient blocks; coefficients go
  through *decode steps* that branch on the secret values (sign
  handling, saturation, precision refinement) — these are the SecBlocks;
* every block also runs *public* work that does not branch on the
  secret: an IDCT-like butterfly pass and format-specific output
  conversion (PPM: raw emit; GIF: palette quantisation; BMP: channel
  reorder + padding arithmetic);
* the number of secret decode steps per block is highest for PPM and
  lowest for BMP (the paper: "the secure region in PPM contributes to a
  much higher instruction count than GIF and BMP"), which reproduces
  the PPM > GIF > BMP overhead ordering of Fig. 8;
* total work scales with the block count, so the *relative* overhead is
  flat across image sizes — the paper's headline observation.

:func:`reference_decode` implements the same pipeline in Python so
tests can check the simulated decoder bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.registry import workload

FORMATS = ("ppm", "gif", "bmp")

BLOCK = 64

# Per-format shape:
#   step2_mask: the saturation SecBlock runs when (k & mask) == 0
#               (None disables it);
#   step3_mask: the precision-refinement SecBlock, likewise;
#   post_passes: public output-conversion passes per block.
_FORMAT_SHAPE = {
    "ppm": {"step2_mask": 0, "step3_mask": 1, "post_passes": 1},
    "gif": {"step2_mask": 1, "step3_mask": None, "post_passes": 2},
    "bmp": {"step2_mask": 3, "step3_mask": None, "post_passes": 3},
}

_MASK64 = (1 << 64) - 1


@dataclass
class DjpegSpec:
    """One djpeg configuration.

    ``fill=True`` (default) emits an in-program LCG fill of the secret
    image (models reading a file); ``fill=False`` leaves the image to be
    poked into the ``img`` symbol before the run, which the leak tests
    use to compare real images.
    """

    fmt: str
    npixels: int
    seed: int = 99991
    fill: bool = True

    def __post_init__(self) -> None:
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.npixels <= 0:
            raise ValueError(f"npixels must be positive, got {self.npixels}")
        if self.npixels % BLOCK != 0:
            raise ValueError(f"npixels must be a multiple of {BLOCK}")

    @property
    def nblocks(self) -> int:
        return self.npixels // BLOCK

    @property
    def name(self) -> str:
        return f"djpeg-{self.fmt}-{self.npixels}px"


def generate_image(npixels: int, seed: int = 99991) -> list[int]:
    """Deterministic pseudo-random coefficients in [-256, 255].

    Uses xorshift64 and takes high bits: a weak generator's low-bit
    periodicity would make the coefficient signs *predictable to the
    TAGE predictor*, which real image content is not (and which would
    artificially speed up the baseline at large image sizes).
    """
    values = []
    state = seed | 1
    for _ in range(npixels):
        state = (state ^ (state << 13)) & _MASK64
        state = state ^ (state >> 7)
        state = (state ^ (state << 17)) & _MASK64
        values.append(((state >> 20) & 511) - 256)
    return values


def djpeg_source(spec: DjpegSpec) -> str:
    """Generate the decoder source for *spec*.

    The image array is declared ``secret`` and filled in-program from a
    public seed (models reading the file); tests can poke different
    image words directly through the ``img`` symbol.
    """
    shape = _FORMAT_SHAPE[spec.fmt]
    lines = [
        f"secret int img[{spec.npixels}];",
        f"int out[{spec.npixels}];",
        "int checksum = 0;",
        "",
        "void main() {",
    ]
    if spec.fill:
        lines.extend([
            f"int seed = {spec.seed | 1};",
            f"for (int i = 0; i < {spec.npixels}; i = i + 1) {{",
            "seed = seed ^ (seed << 13);",
            "seed = seed ^ ((seed >> 7) & 144115188075855871);",
            "seed = seed ^ (seed << 17);",
            "img[i] = ((seed >> 20) & 511) - 256;",
            "}",
        ])
    lines.extend([
        f"for (int b = 0; b < {spec.nblocks}; b = b + 1) {{",
        # ---- coefficient decode (the SecBlocks live here) ----
        f"for (int k = 0; k < {BLOCK}; k = k + 1) {{",
        f"int coef = img[b * {BLOCK} + k];",
        "int val = 0;",
        # Secret step 1 (all formats): sign/magnitude with per-path
        # dequantisation work.
        "if (coef < 0) { val = (0 - coef) + ((0 - coef) >> 4); }",
        "else { val = coef + (coef >> 5) + 1; }",
    ])
    if shape["step2_mask"] is not None:
        guard = shape["step2_mask"]
        body = ("if (val > 192) { val = 255 - (val >> 6); } "
                "else { val = val + (val >> 2); }")
        if guard == 0:
            lines.append(body)
        else:
            lines.append(f"if ((k & {guard}) == 0) {{ {body} }}")
    if shape["step3_mask"] is not None:
        guard = shape["step3_mask"]
        body = ("if ((coef & 3) == 0) { val = val + 9; } "
                "else { val = val - (val >> 3); }")
        if guard == 0:
            lines.append(body)
        else:
            lines.append(f"if ((k & {guard}) == 0) {{ {body} }}")
    lines.extend([
        f"out[b * {BLOCK} + k] = val;",
        "}",
        # ---- public IDCT-like butterfly pass (no secret branches) ----
        f"for (int u = 0; u < {BLOCK}; u = u + 1) {{",
        f"int x0 = out[b * {BLOCK} + u];",
        f"int x1 = out[b * {BLOCK} + (u ^ 1)];",
        f"int x8 = out[b * {BLOCK} + (u ^ 8)];",
        "int y = x0 * 3 + x1 * 2 + x8 + (x0 >> 3) - (x1 >> 2);",
        "y = y + (y >> 5);",
        f"out[b * {BLOCK} + u] = y & 1023;",
        "}",
    ])

    # ---- public output conversion per block ----
    for pass_index in range(shape["post_passes"]):
        tag = f"p{pass_index}"
        lines.extend([
            f"int acc_{tag} = 0;",
            f"for (int k_{tag} = 0; k_{tag} < {BLOCK}; "
            f"k_{tag} = k_{tag} + 1) {{",
            f"int px_{tag} = out[b * {BLOCK} + k_{tag}];",
        ])
        if spec.fmt == "gif":
            lines.append(f"px_{tag} = (px_{tag} >> 4) * 17 + {pass_index};")
            lines.append(f"px_{tag} = px_{tag} + (px_{tag} >> 3);")
        elif spec.fmt == "bmp":
            lines.append(
                f"px_{tag} = ((px_{tag} << 1) & 255) + "
                f"(px_{tag} >> 6) + {pass_index * 3};"
            )
            lines.append(f"px_{tag} = px_{tag} ^ (px_{tag} >> 2);")
            lines.append(f"px_{tag} = (px_{tag} * 5 + 7) & 511;")
        else:  # ppm: raw emit, minimal work
            lines.append(f"px_{tag} = px_{tag} + {pass_index};")
        lines.extend([
            f"acc_{tag} = acc_{tag} + px_{tag};",
            "}",
            f"checksum = checksum + acc_{tag};",
        ])

    lines.append("}")
    lines.append("}")
    return "\n".join(lines)


def _leak_values(params: dict) -> list:
    npixels = params["npixels"]
    flat = (0,) * npixels
    busy = tuple(generate_image(npixels, seed=77))
    gradient = tuple((i % 512) - 256 for i in range(npixels))
    return [flat, busy, gradient]


@workload(
    name="djpeg",
    title="synthetic libjpeg decode (secret image)",
    secret="img",
    # memory-address: the sign/saturation decode steps only load their
    # correction tables on coefficient-dependent paths, so the
    # line-granular access stream betrays the image (flush-and-reload).
    channels=("timing", "instruction-count", "control-flow",
              "memory-address", "branch-predictor"),
    params={"fmt": "ppm", "npixels": 128, "seed": 99991, "fill": True},
    # Leak experiments poke the image directly, so the in-program fill
    # must be off (it would overwrite the poked secret).
    leak_params={"fill": False},
    leak_values=_leak_values,
    grid=({"fmt": "ppm"}, {"fmt": "gif"}, {"fmt": "bmp"}),
    result="checksum",
    reference=lambda params, secret: reference_decode(
        DjpegSpec(params["fmt"], params["npixels"], seed=params["seed"],
                  fill=params["fill"]),
        list(secret) if params["fill"] is False else None)[1],
)
def djpeg_victim_source(fmt: str = "ppm", npixels: int = 128,
                        seed: int = 99991, fill: bool = True) -> str:
    """Keyword-argument builder for the registry (wraps ``DjpegSpec``)."""
    return djpeg_source(DjpegSpec(fmt, npixels, seed=seed, fill=fill))


def compile_djpeg(spec: DjpegSpec, mode: str):
    """Compile the decoder (modes: ``plain``, ``sempe``)."""
    from repro.lang.compiler import compile_source

    return compile_source(djpeg_source(spec), mode=mode,
                          name=f"{spec.name}-{mode}")


def reference_decode(spec: DjpegSpec,
                     image: list[int] | None = None) -> tuple[list[int], int]:
    """Pure-Python model of the decoder; returns (out pixels, checksum)."""
    shape = _FORMAT_SHAPE[spec.fmt]
    img = list(image) if image is not None else generate_image(
        spec.npixels, spec.seed)
    out = [0] * spec.npixels
    checksum = 0
    for block in range(spec.nblocks):
        base = block * BLOCK
        for k in range(BLOCK):
            coef = img[base + k]
            if coef < 0:
                val = (-coef) + ((-coef) >> 4)
            else:
                val = coef + (coef >> 5) + 1
            mask2 = shape["step2_mask"]
            if mask2 is not None and (k & mask2) == 0:
                val = 255 - (val >> 6) if val > 192 else val + (val >> 2)
            mask3 = shape["step3_mask"]
            if mask3 is not None and (k & mask3) == 0:
                val = val + 9 if (coef & 3) == 0 else val - (val >> 3)
            out[base + k] = val
        for u in range(BLOCK):
            x0 = out[base + u]
            x1 = out[base + (u ^ 1)]
            x8 = out[base + (u ^ 8)]
            y = x0 * 3 + x1 * 2 + x8 + (x0 >> 3) - (x1 >> 2)
            y = y + (y >> 5)
            out[base + u] = y & 1023
        for pass_index in range(shape["post_passes"]):
            acc = 0
            for k in range(BLOCK):
                px = out[base + k]
                if spec.fmt == "gif":
                    px = (px >> 4) * 17 + pass_index
                    px = px + (px >> 3)
                elif spec.fmt == "bmp":
                    px = ((px << 1) & 255) + (px >> 6) + pass_index * 3
                    px = px ^ (px >> 2)
                    px = (px * 5 + 7) & 511
                else:
                    px = px + pass_index
                acc += px
            checksum += acc
    return out, checksum
