"""Derive numpy's one-word ziggurat constants into src/stf_spde/_ziggurat.py.

    python scripts/ziggurat_table.py           # write the table
    python scripts/ziggurat_table.py --check   # exit 1 if the table differs

numpy's ``standard_normal`` is Marsaglia & Tsang's ziggurat (J. Stat. Softw.
5(8), 2000). Each attempt reads one 64-bit raw word r: layer ``r & 0xff``,
sign bit 8 and a 52-bit magnitude from bit 9. A magnitude below its layer's
bound returns ``magnitude * wi[layer]`` from that word alone; any other
takes a wedge or tail branch that reads more words. The wedge can return
the same value, so a value alone does not show which branch ran.

The constants are numpy internals, so they are measured here. Each draw is
fed one chosen raw word through the Philox output buffer, and the buffer
position and counter afterwards show whether it read that word alone. Per
layer, a bisection over magnitudes finds the least magnitude that needs
more words (the bound; numpy's ``rabs < ki[layer]`` test makes the one-word
magnitudes an interval from 0), and wi is the value at magnitude 1. A wi
is kept only if it reproduces every one-word draw seen in its layer and the
sign bit negates it; a layer with no one-word draw but magnitude 0 gets
bound 0 (always the slow path). The output depends on nothing but the installed numpy, so
``--check`` fails when numpy's ziggurat or its Philox buffering changes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

TABLE = Path(__file__).resolve().parents[1] / "src" / "stf_spde" / "_ziggurat.py"
LAYERS = 256
MAGNITUDES = 1 << 52
_ZERO = (0, 0, 0, 0)


class _WordFeeder:
    """Draws one standard normal from a raw word of the caller's choosing."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.gen = np.random.Generator(self.bits)

    def draw(self, layer: int, sign: int, magnitude: int) -> tuple[float, bool]:
        """The draw's value, and whether it read the given word and no other."""
        word = layer | (sign << 8) | (magnitude << 9)
        self.bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO, "key": (0, 0)},
            "buffer": (word, 0, 0, 0),
            "buffer_pos": 0,
            "has_uint32": 0,
            "uinteger": 0,
        }
        x = self.gen.standard_normal()
        after = self.bits.state
        one_word = after["buffer_pos"] == 1 and not after["state"]["counter"].any()
        return x, one_word


def derive_layer(feeder: _WordFeeder, layer: int) -> tuple[float, int]:
    """(wi, bound) of one layer: magnitudes below bound read one word."""
    seen = []
    # invariant: magnitude lo reads one word (or lo = -1), hi does not (or hi = 2^52)
    lo, hi = -1, MAGNITUDES
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x, one_word = feeder.draw(layer, 0, mid)
        if one_word:
            seen.append((mid, x))
            lo = mid
        else:
            hi = mid
    if hi <= 1:
        return 0.0, 0
    wi, one_word = feeder.draw(layer, 0, 1)
    negative, neg_one_word = feeder.draw(layer, 1, 1)
    if not (one_word and neg_one_word and negative == -wi):
        raise RuntimeError(f"layer {layer}: magnitude 1 is not a one-word draw")
    for magnitude, x in seen:
        if x != float(magnitude) * wi:
            raise RuntimeError(
                f"layer {layer}: magnitude {magnitude} drew {x!r}, "
                f"not {magnitude} * {wi!r}"
            )
    return wi, hi


def derive() -> tuple[list[float], list[int]]:
    feeder = _WordFeeder()
    rows = [derive_layer(feeder, layer) for layer in range(LAYERS)]
    return [wi for wi, _ in rows], [bound for _, bound in rows]


def render(wi: list[float], bound: list[int]) -> str:
    def rows(items, per_line, indent):
        return "".join(
            indent + " ".join(f"{item}," for item in items[i : i + per_line]) + "\n"
            for i in range(0, len(items), per_line)
        )

    return (
        '"""numpy\'s one-word ziggurat constants for ``standard_normal``.\n'
        "\n"
        "Generated by scripts/ziggurat_table.py from draws of the installed numpy;\n"
        "do not edit. A raw word r has layer ``r & 0xff``, sign bit 8 and magnitude\n"
        "``(r >> 9) & (2**52 - 1)``. A magnitude below ``BOUND[layer]`` draws\n"
        "``magnitude * WI[layer]`` (negated if the sign bit is set) from r alone.\n"
        '"""\n'
        "\n"
        "WI = tuple(\n"
        "    map(\n"
        "        float.fromhex,\n"
        "        (\n"
        + rows([f'"{x.hex()}"' for x in wi], 3, " " * 12)
        + "        ),\n"
        "    )\n"
        ")\n"
        "\n"
        "BOUND = (\n" + rows([str(b) for b in bound], 4, " " * 4) + ")\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="derive the table and exit 1 if it differs from the checked-in one",
    )
    args = parser.parse_args(argv)
    text = render(*derive())
    if args.check:
        if not TABLE.is_file() or TABLE.read_text() != text:
            print(
                f"{TABLE.name} does not match numpy {np.__version__}'s ziggurat; "
                "regenerate it with scripts/ziggurat_table.py",
                file=sys.stderr,
            )
            return 1
        print(f"{TABLE.name} matches numpy {np.__version__}")
        return 0
    TABLE.write_text(text)
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
