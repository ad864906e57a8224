"""Fixed-offset binary layouts for positions fed into circuits.

Layout is frame-major, then heap-major, then bit-major with the most
significant bit first.  Every heap is zero-padded to the same width, so
all offsets are compile-time constants of the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import EncodingError


def encode_value(value: int, l: int) -> list[int]:
    """``l`` bits of ``value``, most significant first."""
    if value < 0 or value >= (1 << l):
        raise EncodingError(f"value {value} does not fit in {l} bits")
    return [(value >> (l - 1 - j)) & 1 for j in range(l)]


def decode_value(bits: Sequence[int]) -> int:
    v = 0
    for b in bits:
        v = (v << 1) | (1 if b else 0)
    return v


@dataclass(frozen=True)
class PositionEncoding:
    """Shape of a multi-frame binary position encoding.

    ``n`` heaps per frame, ``l`` bits per heap, ``frames`` consecutive
    positions.  Candidate move slots are heap-major: slot ``h * 2**l + v``
    stands for "set heap h to v".
    """

    n: int
    l: int
    frames: int = 3

    def __post_init__(self):
        for name in ("n", "l", "frames"):
            value = getattr(self, name)
            # exactly int: a bool, a float or a string is no size
            if type(value) is not int or value < 1:
                raise EncodingError(
                    f"encoding needs n >= 1, l >= 1, frames >= 1; {name} is {value!r}"
                )

    @property
    def frame_bits(self) -> int:
        return self.n * self.l

    @property
    def total_bits(self) -> int:
        return self.frames * self.n * self.l

    @property
    def slot_count(self) -> int:
        return self.n << self.l

    def candidate_slot(self, heap: int, value: int) -> int:
        if not 0 <= heap < self.n:
            raise EncodingError(f"heap {heap} out of range for n={self.n}")
        if not 0 <= value < (1 << self.l):
            raise EncodingError(f"value {value} does not fit in {self.l} bits")
        return (heap << self.l) + value

    def encode_heaps(self, heaps: Sequence[int]) -> list[int]:
        if len(heaps) != self.n:
            raise EncodingError(f"expected {self.n} heaps, got {len(heaps)}")
        bits: list[int] = []
        for h in heaps:
            bits.extend(encode_value(h, self.l))
        return bits

    def encode(self, frames: Iterable[Sequence[int]]) -> list[int]:
        frames = list(frames)
        if len(frames) != self.frames:
            raise EncodingError(f"expected {self.frames} frames, got {len(frames)}")
        bits: list[int] = []
        for f in frames:
            bits.extend(self.encode_heaps(f))
        return bits
