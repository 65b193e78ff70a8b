"""Packed vectorized arithmetic on fixed-length vectors of group elements.

A vector of L group elements (the tree digits of a class key) is packed
into one int64 per cyclic factor, with element i's factor digit stored
in bit lane i.  Group addition then becomes a couple of bitwise
operations on whole numpy arrays, which is what makes the ``fast``
oracle's marking and sweep loops fast.

For groups of power-of-two order the lanes of all factors interleave into
the dense mixed-radix element index, so the OR of the factor words IS the
key index.  Other small groups use 4-bit scratch lanes per factor and
convert to dense indices lane by lane.
"""

from __future__ import annotations

import numpy as np

from .groups import Group

_U = np.uint64


def pack_supported(group: Group, length: int) -> bool:
    """Whether length-`length` vectors over `group` fit the packed layout."""
    if length < 1:
        return False
    if (group.order & (group.order - 1)) == 0:
        return length * (group.order - 1).bit_length() <= 63
    return all(f <= 7 for f in group.factors) and length * 4 <= 63


def _repeat_mask(bits_value: int, lane_bits: int, lanes: int) -> int:
    out = 0
    for i in range(lanes):
        out |= bits_value << (lane_bits * i)
    return out


class Packer:
    """Packed representation of length-`length` vectors over `group`.

    Packed values are tuples with one numpy uint64 (or python int) per
    group factor; all operations broadcast over numpy arrays.
    """

    def __init__(self, group: Group, length: int):
        if not pack_supported(group, length):
            raise ValueError(f"{length} elements of {group.spec_string()} do not fit the packed layout")
        self.group = group
        self.length = length
        self.pow2 = (group.order & (group.order - 1)) == 0
        if self.pow2:
            self.lane_bits = (group.order - 1).bit_length()
            offs = []
            off = 0
            for f in group.factors:
                offs.append(off)
                off += (f - 1).bit_length()
            self.field_offsets = offs
        else:
            self.lane_bits = 4
            self.field_offsets = [0] * len(group.factors)
        B, L = self.lane_bits, length
        self._masks = []
        for f, off in zip(group.factors, self.field_offsets):
            b = (f - 1).bit_length()
            full = _repeat_mask(((1 << b) - 1) << off, B, L)
            high = _repeat_mask(1 << (off + b - 1), B, L)
            self._masks.append((b, off, high, full ^ high))

    # -- scalar pack/unpack -------------------------------------------------

    def pack(self, values) -> tuple:
        if len(values) != self.length:
            raise ValueError("wrong vector length")
        words = [0] * len(self.group.factors)
        for i, v in enumerate(values):
            self.group.check(v)
            for j, f in enumerate(self.group.factors):
                d = v % f
                v //= f
                _, off, *_ = self._masks[j]
                words[j] |= d << (self.lane_bits * i + off)
        return tuple(_U(w) for w in words)

    def unpack(self, packed) -> list[int]:
        out = []
        for i in range(self.length):
            e = 0
            radix = 1
            for j, f in enumerate(self.group.factors):
                b, off, *_ = self._masks[j]
                d = (int(packed[j]) >> (self.lane_bits * i + off)) & ((1 << b) - 1)
                e += d * radix
                radix *= f
            out.append(e)
        return out

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y) -> tuple:
        out = []
        for j, f in enumerate(self.group.factors):
            b, _, high, low = self._masks[j]
            a, c = x[j], y[j]
            if self.pow2 and b == 1:
                out.append(a ^ c)  # a Z2 factor: one bit per lane, so addition is XOR
            elif self.pow2:
                out.append(((a & _U(low)) + (c & _U(low))) ^ ((a ^ c) & _U(high)))
            else:
                t = a + c
                fix = (t + _U(_repeat_mask(8 - f, 4, self.length))) & _U(_repeat_mask(8, 4, self.length))
                out.append(t - _U(f) * (fix >> _U(3)))
        return tuple(out)

    # -- dense key conversion -------------------------------------------------

    def key(self, x):
        """Dense little-endian mixed-radix index of the packed vector."""
        if self.pow2:
            out = x[0]
            for j in range(1, len(x)):
                out = out | x[j]
            return out
        k = self.group.order
        out = None
        mask = _U((1 << 4) - 1)
        for i in reversed(range(self.length)):
            e = None
            radix = 1
            for j, f in enumerate(self.group.factors):
                d = (x[j] >> _U(4 * i)) & mask
                e = d * _U(radix) if e is None else e + d * _U(radix)
                radix *= f
            out = e if out is None else out * _U(k) + e
        return out if out is not None else _U(0)
