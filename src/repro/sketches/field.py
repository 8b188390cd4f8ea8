"""Arithmetic over the prime field for the sketching substrate.

The ℓ₀-samplers need k-wise independent hash functions; we use the
classical construction — a random degree-(k-1) polynomial over the field
``GF(p)`` with the Mersenne prime ``p = 2^61 - 1`` — which is k-wise
independent and cheap to evaluate.

Besides the scalar helpers (:class:`KWiseHash`, :func:`trailing_zeros`),
this module holds
the array kernels behind :class:`~repro.sketches.bank.SketchBank`:
:func:`mulmod`, :func:`poly_eval_many`, :func:`trailing_zeros_many` and
:class:`PowerTable`.  They work on ``uint64`` residues below ``2^61``:
products of two residues need 122 bits, so :func:`mulmod` splits operands
into 32-bit limbs and reduces with the Mersenne identity
``2^61 ≡ 1 (mod p)``.  Every intermediate fits in ``uint64`` and the
results are bit-identical to Python's arbitrary-precision arithmetic.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = [
    "PRIME",
    "KWiseHash",
    "PowerTable",
    "mulmod",
    "poly_eval_many",
    "trailing_zeros",
    "trailing_zeros_many",
]

PRIME = (1 << 61) - 1

_P = np.uint64(PRIME)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_ONE = np.uint64(1)


class KWiseHash:
    """A k-wise independent hash function ``h: Z -> [0, PRIME)``."""

    __slots__ = ("coefficients",)

    def __init__(self, k: int, rng: random.Random) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        coefficients = [rng.randrange(1, PRIME)]
        coefficients.extend(rng.randrange(PRIME) for _ in range(k - 1))
        self.coefficients = tuple(coefficients)

    def __call__(self, x: int) -> int:
        # Horner evaluation of the random polynomial at x, mod PRIME.
        # Reduce x once up front so every Horner step multiplies two
        # sub-61-bit residues instead of dragging a large x through.
        x %= PRIME
        acc = 0
        for coefficient in self.coefficients:
            acc = (acc * x + coefficient) % PRIME
        return acc

    def eval_many(self, xs) -> list[int]:
        """Evaluate the hash at every point of *xs* in one vectorized
        Horner pass; bit-identical to calling the hash point by point."""
        residues = np.array([x % PRIME for x in xs], dtype=np.uint64)
        return poly_eval_many(self.coefficients, residues).tolist()


def trailing_zeros(value: int) -> int:
    """Number of trailing zero bits (the geometric level of an item)."""
    if value == 0:
        return 61
    return (value & -value).bit_length() - 1


# ----------------------------------------------------------------------
# array kernels
# ----------------------------------------------------------------------
def _mulmod_folded(a, b):
    """``a * b`` folded below ``2^61 + 4`` but not fully reduced, for
    ``a < 2^62 + 4`` and ``b < 2^61`` (arrays broadcast).

    32-bit limb split: ``a*b = (ah*bh)<<64 + (ah*bl + al*bh)<<32 +
    al*bl`` where every partial product fits in ``uint64``, then Mersenne
    folding with ``2^61 ≡ 1``: ``x<<64 ≡ x<<3`` and
    ``mid<<32 ≡ (mid>>29) + ((mid & (2^29-1))<<32)``.  The loose input
    bound lets Horner steps chain without a full reduction each.
    """
    a_lo = a & _MASK32
    a_hi = a >> np.uint64(32)
    b_lo = b & _MASK32
    b_hi = b >> np.uint64(32)
    mid = a_hi * b_lo + a_lo * b_hi
    lo = a_lo * b_lo
    res = (
        (lo >> np.uint64(61))
        + (lo & _P)
        + (mid >> np.uint64(29))
        + ((mid & _MASK29) << np.uint64(32))
        + ((a_hi * b_hi) << np.uint64(3))
    )
    return (res >> np.uint64(61)) + (res & _P)


def mulmod(a, b):
    """Exact ``a * b mod PRIME`` on ``uint64`` residues below ``2^61``
    (arrays broadcast)."""
    res = _mulmod_folded(a, b)
    return np.minimum(res, res - _P)  # res - P wraps around when res < P


def poly_eval_many(coefficients, xs) -> np.ndarray:
    """Horner-evaluate polynomials at every residue of *xs*, mod PRIME.

    *coefficients* is one polynomial ``(k,)`` or a stack ``(S, k)``,
    highest degree first; *xs* are ``uint64`` residues of shape ``(E,)``.
    Returns ``(E,)`` or ``(S, E)`` residues: every polynomial at every
    point in ``k - 1`` vectorized multiply-adds, reduced once at the end.
    """
    c = np.asarray(coefficients, dtype=np.uint64)
    x = np.asarray(xs, dtype=np.uint64)
    acc = np.broadcast_to(c[..., :1], c.shape[:-1] + x.shape)
    for j in range(1, c.shape[-1]):
        acc = _mulmod_folded(acc, x) + c[..., j : j + 1]  # below 2^62 + 4
    return np.remainder(acc, _P)


def trailing_zeros_many(values) -> np.ndarray:
    """:func:`trailing_zeros` of every ``uint64`` value (61 for zero)."""
    arr = np.asarray(values, dtype=np.uint64)
    lowest = arr & (~arr + _ONE)  # isolate the lowest set bit
    if hasattr(np, "bitwise_count"):
        tz = np.bitwise_count(lowest - _ONE).astype(np.int64)
    else:  # pragma: no cover - numpy < 2.0
        # lowest is an exact power of two, so float log2 is exact.
        safe = np.where(lowest == 0, _ONE, lowest)
        tz = np.log2(safe.astype(np.float64)).astype(np.int64)
    return np.where(arr == 0, 61, tz)


class PowerTable:
    """``z_i ** e mod PRIME`` for a fixed vector of bases ``z_i``.

    Exponents are split into ``digits`` base-``2^width`` digits, and the
    table holds ``z_i ** (d * 2^(width*j))`` for every base, digit
    position ``j`` and digit value ``d``, so one power is ``digits``
    gathers and ``digits - 1`` multiplies.  Digits are at most 8 bits
    wide: the table costs ``len(bases) * digits * 2^width`` words (about
    2 MB for the 660 evaluation points of an ``n = 800`` sketch) and is
    built by doubling in ``digits * width`` vectorized multiplies.
    Exponents must lie below :attr:`limit`, which covers
    ``max_exponent``.
    """

    __slots__ = ("digits", "width", "limit", "_table")

    def __init__(self, bases, max_exponent: int) -> None:
        bits = max(1, int(max_exponent).bit_length())
        self.digits = -(-bits // 8)
        self.width = -(-bits // self.digits)
        self.limit = 1 << (self.digits * self.width)
        base = np.asarray(bases, dtype=np.uint64)
        size = 1 << self.width
        table = np.empty((len(base), self.digits, size), dtype=np.uint64)
        for j in range(self.digits):
            block = np.ones((len(base), 1), dtype=np.uint64)
            for _ in range(self.width):
                block = np.concatenate([block, mulmod(block, base[:, None])], axis=1)
                base = mulmod(base, base)
            table[:, j, :] = block  # base is now z ** 2^(width*(j+1))
        self._table = table.reshape(-1)

    def __call__(self, which, exponents) -> np.ndarray:
        """Powers ``z[which[t]] ** exponents[t]`` (int64 arrays, every
        exponent in ``[0, limit)``)."""
        size = 1 << self.width
        mask = size - 1
        exps = np.asarray(exponents, dtype=np.int64)
        base = np.asarray(which, dtype=np.int64) * (self.digits * size)
        out = self._table[base + (exps & mask)]
        for j in range(1, self.digits):
            digit = (exps >> (j * self.width)) & mask
            out = mulmod(out, self._table[base + j * size + digit])
        return out
