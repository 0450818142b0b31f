"""Flat byte-addressable backing memory.

The functional simulator reads and writes values here.  Storage is a
sparse ``dict`` of 8-byte-aligned words, which is compact for the large,
mostly-untouched address space the programs use (code, data, shadow,
heap, stack regions).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


class FlatMemory:
    """Sparse 64-bit byte-addressable memory, zero-initialised."""

    def __init__(self, image: dict[int, int] | None = None) -> None:
        # Word-aligned storage: word address -> 64-bit little-endian value.
        self._words: dict[int, int] = {}
        if image:
            for address, byte in image.items():
                self.store(address, byte, width=1)

    # -- accessors -----------------------------------------------------------

    def load(self, address: int, width: int = 8) -> int:
        """Load *width* bytes (1 or 8) little-endian, zero-extended."""
        if width == 8 and address % 8 == 0:
            return self._words.get(address, 0)
        value = 0
        for byte_index in range(width):
            value |= self._load_byte(address + byte_index) << (8 * byte_index)
        return value

    def store(self, address: int, value: int, width: int = 8) -> None:
        """Store the low *width* bytes of *value* little-endian."""
        value &= (1 << (8 * width)) - 1
        if width == 8 and address % 8 == 0:
            self._words[address] = value
            return
        for byte_index in range(width):
            self._store_byte(address + byte_index, (value >> (8 * byte_index)) & 0xFF)

    def load_signed(self, address: int, width: int = 8) -> int:
        """Load and sign-extend."""
        value = self.load(address, width)
        sign_bit = 1 << (8 * width - 1)
        return (value ^ sign_bit) - sign_bit

    # -- bulk helpers ----------------------------------------------------------

    def load_quads(self, address: int, count: int) -> list[int]:
        """Load *count* consecutive 8-byte words."""
        return [self.load(address + 8 * index, 8) for index in range(count)]

    def store_quads(self, address: int, values: list[int]) -> None:
        for index, value in enumerate(values):
            self.store(address + 8 * index, value, 8)

    def copy(self) -> "FlatMemory":
        clone = FlatMemory()
        clone._words = dict(self._words)
        return clone

    # -- internals ---------------------------------------------------------------

    def _load_byte(self, address: int) -> int:
        word_address = address & ~7
        shift = 8 * (address - word_address)
        return (self._words.get(word_address, 0) >> shift) & 0xFF

    def _store_byte(self, address: int, byte: int) -> None:
        word_address = address & ~7
        shift = 8 * (address - word_address)
        word = self._words.get(word_address, 0)
        word &= ~(0xFF << shift)
        word |= (byte & 0xFF) << shift
        self._words[word_address] = word
