"""Arithmetic over the binary extension fields GF(2^m).

Field elements are plain ints in [0, 2^m).  Addition is XOR.  Multiplication
is carry-less (polynomial) multiplication reduced modulo a fixed irreducible
polynomial of degree m.  One polynomial per degree is built in: the
lexicographically smallest primitive polynomial of that degree (verified by
the test suite), so results are reproducible across runs and machines and
the residue class of x generates the multiplicative group.

For m <= 16 the field precomputes exp/log tables over the generator x,
making a multiplication two lookups; larger fields fall back to
shift-and-xor.
Inversion is exponentiation by 2^m - 2 (square-and-multiply), which is total
on nonzero inputs and needs no extended-gcd bookkeeping.

The module also provides dense matrices over a field with exact Gaussian
elimination: rank and linear solving, which is all the alignment and
decoding code needs.
"""

from __future__ import annotations

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


class Field:
    """GF(2^m), 1 <= m <= 32, reduced by the built-in primitive polynomial."""

    def __init__(self, m: int):
        if not 1 <= m <= 32:
            raise ValueError(f"extension degree must be in 1..32, got {m}")
        self.m = m
        self.poly = IRREDUCIBLE_POLY[m]
        self.order = 1 << m
        self._exp: List[int] | None = None
        self._log: List[int] | None = None
        if m <= _TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self) -> None:
        # Tabulate powers of x, which generates the whole multiplicative
        # group because every built-in polynomial is primitive.
        n = self.order - 1
        exp = [1] * (2 * n)
        log = [0] * self.order
        acc = 1
        mask, top, p = self.order - 1, self.order >> 1, self.poly
        for i in range(n):
            exp[i] = acc
            log[acc] = i
            carry = acc & top
            acc = (acc << 1) & mask
            if carry:
                acc ^= p & mask
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        self._exp, self._log = exp, log

    def _mul_slow(self, a: int, b: int) -> int:
        r = 0
        p, mask, top = self.poly, self.order - 1, self.order >> 1
        while b:
            if b & 1:
                r ^= a
            carry = a & top
            a = (a << 1) & mask
            if carry:
                a ^= p & mask
            b >>= 1
        return r

    def _pow_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return r

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_slow(a, b)

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        return self._pow_slow(a, e)

    def inv(self, a: int) -> int:
        """Multiplicative inverse, computed as a^(2^m - 2)."""
        if a == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def rand(self, rng) -> int:
        """Uniform random element (zero included)."""
        return rng.randrange(self.order)

    def __repr__(self):
        return f"Field(2^{self.m}, poly=0x{self.poly:X})"


class Matrix:
    """Dense matrix over a Field; rows are lists of ints."""

    def __init__(self, field: Field, rows: Sequence[Sequence[int]]):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def hstack(cls, blocks: Sequence["Matrix"]) -> "Matrix":
        field = blocks[0].field
        n = blocks[0].nrows
        rows = []
        for i in range(n):
            row: List[int] = []
            for b in blocks:
                if b.nrows != n:
                    raise ValueError("row count mismatch")
                row.extend(b.rows[i])
            rows.append(row)
        return cls(field, rows)

    def select_cols(self, cols: Sequence[int]) -> "Matrix":
        return Matrix(self.field, [[r[j] for j in cols] for r in self.rows])

    def scale_rows(self, weights: Sequence[int]) -> "Matrix":
        """Left-multiply by diag(weights)."""
        f = self.field
        return Matrix(f, [[f.mul(w, v) for v in row] for w, row in zip(weights, self.rows)])

    def mul_vec(self, v: Sequence[int]) -> List[int]:
        f = self.field
        out = []
        for row in self.rows:
            acc = 0
            for a, b in zip(row, v):
                acc ^= f.mul(a, b)
            out.append(acc)
        return out

    def _eliminate(self, aug: List[List[int]], width: int) -> Tuple[List[int], List[List[int]]]:
        """Row-reduce in place over the first `width` columns; returns pivot columns."""
        f = self.field
        pivots = []
        r = 0
        for c in range(width):
            pivot_row = None
            for i in range(r, len(aug)):
                if aug[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
            # Rows r and below are zero left of column c, so the row
            # operations start there.
            row = aug[r]
            inv = f.inv(row[c])
            row[c:] = [f.mul(inv, v) for v in row[c:]]
            for i in range(len(aug)):
                if i != r and aug[i][c]:
                    factor = aug[i][c]
                    aug[i][c:] = [v ^ f.mul(factor, w) for v, w in zip(aug[i][c:], row[c:])]
            pivots.append(c)
            r += 1
        return pivots, aug

    def rank(self) -> int:
        pivots, _ = self._eliminate([list(r) for r in self.rows], self.ncols)
        return len(pivots)

    def solve(self, y: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Solve M z = y exactly.

        Returns (z, pivots): z is some solution (free variables set to zero)
        and pivots lists the pivot columns in increasing order; the solution
        is unique iff every column is a pivot.  Raises
        InconsistentSystemError when no solution exists.
        """
        if len(y) != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = [list(r) + [v] for r, v in zip(self.rows, y)]
        pivots, aug = self._eliminate(aug, self.ncols)
        for i in range(len(pivots), self.nrows):
            if aug[i][self.ncols]:
                raise InconsistentSystemError("no solution")
        z = [0] * self.ncols
        for i, c in enumerate(pivots):
            z[c] = aug[i][self.ncols]
        return z, pivots

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over GF(2^{self.field.m}))"


_FIELD_CACHE: dict = {}


def field(m: int) -> Field:
    """Shared Field instance per degree (tables are built once)."""
    if m not in _FIELD_CACHE:
        _FIELD_CACHE[m] = Field(m)
    return _FIELD_CACHE[m]
