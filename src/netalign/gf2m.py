"""Arithmetic over the binary extension fields GF(2^m).

Field elements are plain ints in [0, 2^m).  Addition is XOR.  Multiplication
is carry-less (polynomial) multiplication reduced modulo a fixed irreducible
polynomial of degree m.  One polynomial per degree is built in: the
lexicographically smallest primitive polynomial of that degree (verified by
the test suite), so results are reproducible across runs and machines and
the residue class of x generates the multiplicative group.

For m <= 16 the field tabulates powers of the generator x: `log[a]` is the
exponent of a, zero's log is the sentinel z = 2^(m+1) - 3, and `exp` holds
x^i below z and zeros from z to 2z, so exp[log a + log b] = a*b, zero
included, with no branch.  Both are arrays of machine integers (1.1 MB at
m = 16), small enough to stay in cache better than lists of int objects.
Larger fields lift elements (bit k to bit 8k of an int, one table read per
11-bit chunk): one integer multiply then leaves the carry-less product in
bit 0 of each byte, XOR still adds, and `Field.lifted` lets sums of many
products be reduced once (settled) and gathered back (lowered, bytes read as
digits).  `Field.draw` reads uniform elements off one `randbytes` call.
Inversion reads the tables up to 2^16; above, it is the extended Euclidean
algorithm over GF(2)[x] on plain ints, a few dozen shift-and-xor steps.

The module also provides dense matrices with exact Gaussian elimination.
A `Matrix` owns its rows: `solve` appends y, clears below each pivot in
place (forward elimination) and back-substitutes; `rank` eliminates one
copy.  Above 2^16 rows are lifted once and stay lifted through both passes.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import islice
from typing import List, Sequence, Tuple


class ZeroInverseError(ZeroDivisionError):
    """Raised when inverting (or dividing by) the zero element."""


class InconsistentSystemError(ValueError):
    """Raised when a linear system has no solution."""


# Lexicographically smallest primitive polynomial of each degree, as an int
# with the x^m bit set.  Primitive means x itself generates the 2^m - 1
# nonzero elements, which is what the exp/log table construction relies on.
# The test suite re-verifies every entry.
IRREDUCIBLE_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x402B,
    15: 0x8003,
    16: 0x1002D,
    17: 0x20009,
    18: 0x40027,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x4000047,
    27: 0x8000027,
    28: 0x10000009,
    29: 0x20000005,
    30: 0x40000053,
    31: 0x80000009,
    32: 0x1000000AF,
}

_TABLE_LIMIT = 16  # largest m for which exp/log tables are built

# Byte b with bit k moved to bit 8k; from it each 11-bit chunk c of an
# element, spread and shifted for chunk j = 0, 1, 2 (bits 11j to 11j + 10).
_BYTE = [int.from_bytes(bytes(b >> k & 1 for k in range(8)), "little") for b in range(256)]
_SPREADS = [[(_BYTE[c & 255] | _BYTE[c >> 8] << 64) << 88 * j for c in range(2048)]
            for j in range(3)]
_WORDS = {array(code).itemsize: code for code in "QLIHB"}  # array typecode by byte width
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _tables(m: int, poly: int) -> Tuple[array, array]:
    """(exp, log) of GF(2^m) over the generator x, zero as the sentinel log."""
    n = (1 << m) - 1
    zero = 2 * n - 1  # beyond every sum of two exponents below n
    exp = array("H", bytes(2 * (2 * zero + 1)))  # x^i below zero, then zeros
    log = array("L", [zero]) * (n + 1)
    acc, top, low = 1, 1 << (m - 1), poly ^ (1 << m)
    for i in range(n):
        exp[i] = acc
        log[acc] = i
        acc = (acc ^ top) << 1 ^ low if acc & top else acc << 1
    exp[n:zero] = exp[:n - 1]
    return exp, log


def _lifted_kernel(m: int, poly: int):
    """(lift, settle, lower) of GF(2^m) in lifted form, m in 17..32.

    `lift` ORs three pre-shifted 11-bit-chunk table reads; `lower` reads the
    m bytes as binary digits.  `settle` folds the bytes from m on down twice
    by x^m = r modulo poly, r of degree d with w <= 7 terms: degree 2m - 2
    falls to m - 2 + d, then 2d - 2 < m.  The first fold's bytes stay below 8
    unmasked, so the second multiply cannot carry.
    """
    low, shift = int.from_bytes(b"\x01" * m, "little"), 8 * m

    def lift(a, s0=_SPREADS[0], s1=_SPREADS[1], s2=_SPREADS[2]):
        return s0[a & 2047] | s1[a >> 11 & 2047] | s2[a >> 22]

    folded = lift(poly ^ (1 << m))  # r = x^m modulo poly

    def settle(v):
        """Parity bits of a XOR of lifted products, reduced below degree m."""
        v = v & low ^ (v >> shift & low) * folded
        return (v ^ (v >> shift) * folded) & low

    def lower(v):
        return int(v.to_bytes(m, "big").translate(_DIGITS), 2)

    return lift, settle, lower


class Field:
    """GF(2^m), 1 <= m <= 32: `exp`/`log` tables for m <= 16, else `lifted`."""

    def __init__(self, m: int):
        if not 1 <= m <= 32:
            raise ValueError(f"extension degree must be in 1..32, got {m}")
        self.m = m
        self.poly = IRREDUCIBLE_POLY[m]
        self.order = 1 << m
        self.exp = self.log = self.lifted = None
        if m <= _TABLE_LIMIT:
            self.exp, self.log = _tables(m, self.poly)
        else:
            self.lifted = _lifted_kernel(m, self.poly)

    def mul(self, a: int, b: int) -> int:
        if self.exp is not None:
            return self.exp[self.log[a] + self.log[b]]
        lift, settle, lower = self.lifted
        return lower(settle(lift(a) * lift(b)))

    def inv(self, a: int) -> int:
        """Multiplicative inverse: x^(-log a) off the tables, else extended Euclid."""
        if a == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        if self.exp is not None:
            return self.exp[-self.log[a] % (self.order - 1)]
        # Over GF(2)[x], keeping g * a = u and h * a = v modulo poly while
        # the larger of u, v loses its leading term; u reaches 1.
        u, v, g, h = a, self.poly, 1, 0
        while u != 1:
            shift = u.bit_length() - v.bit_length()
            if shift < 0:
                u, v, g, h, shift = v, u, h, g, -shift
            u ^= v << shift
            g ^= h << shift
        return g

    def div(self, a: int, b: int) -> int:
        if self.exp is not None and b:  # a zero numerator lands in exp's zeros
            n = self.order - 1
            return self.exp[self.log[a] + (n - self.log[b]) % n]
        return self.mul(a, self.inv(b))

    def scale(self, gains: Sequence[int], blocks: Sequence[Sequence[int]]) -> List[int]:
        """gains[b] times each value of blocks[b], the blocks concatenated."""
        if self.exp is not None:
            exp, log = self.exp, self.log
            return [exp[lg + log[v]] for lg, block in zip(map(log.__getitem__, gains), blocks)
                    for v in block]
        lift, settle, lower = self.lifted
        return [lower(settle(lg * lift(v))) for lg, block in zip(map(lift, gains), blocks)
                for v in block]

    def draw(self, rng, count: int) -> List[int]:
        """`count` uniform elements from one rng.randbytes(w * count) call.

        Each is the low m bits of a little-endian word of w = 1, 2 or 4 bytes
        (m <= 8, 16, 32), uniform because 2^m divides 2^(8w).
        """
        w = 1 if self.m <= 8 else 2 if self.m <= 16 else 4
        words = array(_WORDS[w], rng.randbytes(w * count))
        if sys.byteorder == "big":
            words.byteswap()
        mask = self.order - 1
        return words.tolist() if 8 * w == self.m else [v & mask for v in words]

    def __repr__(self):
        return f"Field(2^{self.m}, poly=0x{self.poly:X})"


class Matrix:
    """Dense matrix over a Field; it takes over `rows`, the lists of ints it is given."""

    def __init__(self, field: Field, rows: List[List[int]]):
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if len(set(map(len, rows))) > 1:
            raise ValueError("ragged rows")

    def _eliminate(self, rows: List[List[int]], width: int) -> Tuple[List[int], List[List[int]]]:
        """Forward elimination over `width` columns: (pivots, rows, lifted above 2^16)."""
        f = self.field
        exp, log, n = f.exp, f.log, f.order - 1
        if exp is None:
            lift, settle, lower = f.lifted
            rows = [[lift(v) for v in row] for row in rows]
        pivots = []
        for c in range(width):
            r = len(pivots)
            for i in range(r, len(rows)):
                if rows[i][c]:
                    break
            else:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            row = rows[r]
            # Only rows below are cleared, from column c on (left of it they are
            # zero), with the pivot row as logs made once, or lifted and led by 1.
            if exp is not None:
                lead = log[row[c]]
                form = [log[v] for v in row[c:]]
                for other in islice(rows, r + 1, None):
                    if other[c]:
                        lf = (log[other[c]] - lead) % n
                        other[c:] = [v ^ exp[lf + w] for v, w in zip(other[c:], form)]
            else:
                inv = lift(f.inv(lower(row[c])))
                row[c:] = form = [settle(inv * v) for v in row[c:]]
                for other in islice(rows, r + 1, None):
                    if other[c]:
                        lf = other[c]
                        other[c:] = [settle(v ^ lf * w) for v, w in zip(other[c:], form)]
            pivots.append(c)
        return pivots, rows

    def rank(self) -> int:
        rows = self.rows if self.field.lifted else [row[:] for row in self.rows]
        return len(self._eliminate(rows, self.ncols)[0])

    def solve(self, y: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Solve M z = y exactly, using up the rows.

        Returns (z, pivots): z is some solution (free variables set to zero)
        and pivots lists the pivot columns in increasing order; the solution
        is unique iff every column is a pivot.  Raises
        InconsistentSystemError when no solution exists.
        """
        if len(y) != self.nrows:
            raise ValueError("rhs length mismatch")
        for row, v in zip(self.rows, y):
            row.append(v)
        f, width = self.field, self.ncols
        pivots, rows = self._eliminate(self.rows, width)
        if any(row[width] for row in islice(rows, len(pivots), None)):
            raise InconsistentSystemError("no solution")
        exp, log, n = f.exp, f.log, f.order - 1
        _, settle, lower = f.lifted or (None,) * 3
        z = [0] * width
        for r in reversed(range(len(pivots))):  # back-substitution
            row, c = rows[r], pivots[r]
            acc = row[width]
            for d in pivots[r + 1:]:
                acc ^= exp[log[row[d]] + log[z[d]]] if exp is not None else row[d] * z[d]
            z[c] = exp[log[acc] + (n - log[row[c]]) % n] if exp is not None else settle(acc)
        return (z if exp is not None else list(map(lower, z))), pivots


@cache
def field(m: int) -> Field:
    """Shared Field instance per degree (tables are built once)."""
    return Field(m)
