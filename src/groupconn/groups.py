"""Arithmetic for small finite abelian groups given as products of cyclic groups.

Elements are dense integer indices under a little-endian mixed-radix
encoding: the element (a0, a1, ...) of Z_f0 x Z_f1 x ... has index
a0 + f0*a1 + f0*f1*a2 + ...  Dense indices keep edge vectors compact and
the inner enumeration loops branch-light; tuple views exist for display
and certificate files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

MAX_ORDER = 64


@dataclass(frozen=True)
class Group:
    """A finite abelian group, a direct product of cyclic factors."""

    factors: tuple[int, ...]
    order: int = field(init=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("group needs at least one cyclic factor")
        if any(f < 2 for f in self.factors):
            raise ValueError(f"cyclic factors must be >= 2, got {self.factors}")
        order = reduce(lambda a, b: a * b, self.factors)
        if order > MAX_ORDER:
            raise ValueError(f"group order {order} exceeds supported maximum {MAX_ORDER}")
        object.__setattr__(self, "order", order)

    def check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for group of order {self.order}")

    def to_tuple(self, a: int) -> tuple[int, ...]:
        """Factor-tuple view of an element index."""
        self.check(a)
        out = []
        for f in self.factors:
            out.append(a % f)
            a //= f
        return tuple(out)

    def from_tuple(self, t: tuple[int, ...]) -> int:
        if len(t) != len(self.factors):
            raise ValueError("tuple length does not match factor count")
        a = 0
        radix = 1
        for x, f in zip(t, self.factors):
            if not 0 <= x < f:
                raise ValueError(f"component {x} out of range for factor {f}")
            a += x * radix
            radix *= f
        return a

    def add(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        out = 0
        radix = 1
        for f in self.factors:
            out += ((a + b) % f) * radix
            a //= f
            b //= f
            radix *= f
        return out

    def neg(self, a: int) -> int:
        self.check(a)
        out = 0
        radix = 1
        for f in self.factors:
            out += ((f - a % f) % f) * radix
            a //= f
            radix *= f
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.order)

    def format_element(self, a: int) -> str:
        """Render an element as a factor tuple, e.g. "(1,0)" in Z2^2."""
        return "(" + ",".join(str(x) for x in self.to_tuple(a)) + ")"

    def parse_element(self, text: str) -> int:
        s = text.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        parts = [p for p in s.split(",") if p.strip() != ""]
        return self.from_tuple(tuple(int(p) for p in parts))

    def spec_string(self) -> str:
        if len(self.factors) == 1:
            return f"z{self.factors[0]}"
        if len(set(self.factors)) == 1:
            return f"z{self.factors[0]}^{len(self.factors)}"
        return "c:" + ",".join(str(f) for f in self.factors)


def make_group(factors: list[int] | tuple[int, ...]) -> Group:
    """Build the direct product of cyclic groups of the given orders."""
    return Group(tuple(factors))


def parse_group(spec: str) -> Group:
    """Parse a group spec string: "z4", "z2^2", or "c:a,b,c"."""
    s = spec.strip().lower()
    if s.startswith("c:"):
        factors = [int(p) for p in s[2:].split(",")]
        return make_group(factors)
    if s.startswith("z"):
        body = s[1:]
        if "^" in body:
            # 7 factors of 2 or more exceed MAX_ORDER: refuse before listing a huge exponent's factors
            base, exp = (int(x) for x in body.split("^", 1))
            if base >= 2 and exp >= MAX_ORDER.bit_length():
                raise ValueError(f"group order {base}^{exp} exceeds supported maximum {MAX_ORDER}")
            return make_group([base] * min(exp, MAX_ORDER.bit_length()))  # a base below 2 fails at any count
        return make_group([int(body)])
    raise ValueError(f"unrecognized group spec {spec!r}")


Z2 = make_group([2])
Z3 = make_group([3])
Z4 = make_group([4])
Z2xZ2 = make_group([2, 2])
