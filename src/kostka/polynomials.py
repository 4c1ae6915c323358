"""Exact polynomials in t over Python's big integers, plus the t-analog tower.

Packed representation (Kronecker substitution): a nonzero value
t^v * (c_0 + c_1 t + ... + c_d t^d) with c_0 != 0 and c_d != 0 is stored as
one integer k = c_0 + c_1 2^w + ... + c_d 2^(w d), the valuation v, the slot
width w (a multiple of 64) and a bound m >= max |c_i|.  The invariant
m < 2^(w-1) puts every coefficient in its own w-bit slot as a signed value,
so k decodes exactly; for a fixed width (k, v) is canonical.  A sum is one
big-integer addition, multiplying by t^e only moves v, and an operation whose
bound would reach 2^(w-1) recomputes the exact coefficients and re-packs at
the smallest width that holds them.

Negative exponents are rejected outright; the strip iteration only ever
multiplies by nonnegative powers of t, so a negative shift anywhere is a bug,
not a value.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate, count
from operator import itemgetter, sub


class NotDivisible(ArithmeticError):
    """Polynomial division left a remainder where an exact quotient was required."""

    fired = 0  # every instance counts itself as it is made, so every raise site is counted

    def __init__(self, *args: object) -> None:
        super().__init__(*args)
        NotDivisible.fired += 1


def not_divisible_count() -> int:
    """How many times NotDivisible has fired since import (tripwire counter)."""
    return NotDivisible.fired


_BIG_ENDIAN = sys.byteorder == "big"
_second = itemgetter(1)
_DENSE_CHARS = b"0123456789,-"  # every byte of a dense form's coefficient list


def _width_for(m: int) -> int:
    """Smallest slot width, a multiple of 64, holding every |c| <= m as a signed slot."""
    return 64 * (m.bit_length() // 64 + 1)


@lru_cache(maxsize=1024)
def _bias(n: int, w: int) -> int:
    """2^(w-1) in each of n slots of width w."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")


def _pack(coeffs: list[int], w: int) -> int:
    """sum c_i 2^(w i) for signed |c_i| < 2^(w-1), built from two's complement slots."""
    if w == 64:
        slots = array("q", coeffs)
        if _BIG_ENDIAN:
            slots.byteswap()
        raw = slots.tobytes()
    else:
        raw = b"".join(c.to_bytes(w // 8, "little", signed=True) for c in coeffs)
    # flipping each slot's top bit turns two's complement c into c + 2^(w-1)
    bias = _bias(len(coeffs), w)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(k: int, w: int) -> list[int]:
    """The signed slots c_0..c_d of a packed k, empty for zero; inverse of _pack."""
    if not k:
        return []
    n = abs(k).bit_length() // w + 1
    bias = _bias(n, w)
    # k + bias has every slot in [0, 2^w) with no borrows; the xor makes them two's complement
    raw = ((k + bias) ^ bias).to_bytes(n * w // 8, "little")
    if w == 64:
        slots = array("q", raw)
        if _BIG_ENDIAN:
            slots.byteswap()
        return slots.tolist()
    nb = w // 8
    return [int.from_bytes(raw[i:i + nb], "little", signed=True) for i in range(0, len(raw), nb)]


class TPoly:
    """Immutable polynomial in t with integer coefficients."""

    __slots__ = ("_k", "_v", "_w", "_m")

    def __init__(self, coeffs: dict[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        d: dict[int, int] = {}
        for e, c in items:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if c:
                d[e] = d.get(e, 0) + c
        poly = ZERO
        if d:
            low = min(d)
            dense = [0] * (max(d) - low + 1)
            for e, c in d.items():
                dense[e - low] = c
            poly = _from_dense(dense, low)
        self._k, self._v, self._w, self._m = poly._k, poly._v, poly._w, poly._m

    def _repack(self, w: int) -> "TPoly":
        """The same value at slot width w >= the current one."""
        if w == self._w or not self._k:
            return self
        return _new(_pack(_unpack(self._k, self._w), w), self._v, w, self._m)

    def coeff(self, e: int) -> int:
        i = e - self._v
        slots = _unpack(self._k, self._w)
        return slots[i] if 0 <= i < len(slots) else 0

    def leading_term(self) -> tuple[int, int]:
        """(degree, coefficient) of the highest term, read from the packed
        form without unpacking it; (-1, 0) for the zero polynomial."""
        k = self._k
        if not k:
            return -1, 0
        d = abs(k).bit_length() // self._w
        if not d:
            return self._v, k
        # the slots below the top one sum to less than half its unit in size,
        # so the top slot is k / 2^(w d) rounded; shifting first reads only the top
        half = self._w * d - 1
        return self._v + d, ((k >> half) + 1) >> 1

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return list(filter(_second, zip(count(self._v), _unpack(self._k, self._w))))

    def __bool__(self) -> bool:
        return bool(self._k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        if self._w == other._w:
            return self._k == other._k and self._v == other._v
        return self._v == other._v and _unpack(self._k, self._w) == _unpack(other._k, other._w)

    def __hash__(self) -> int:
        # through the coefficients, so that equal values at different widths agree
        return hash((self._v, tuple(_unpack(self._k, self._w))))

    def __repr__(self) -> str:
        return f"TPoly({self.items()!r})"

    def __str__(self) -> str:
        return self.plain_str()

    def __add__(self, other: "TPoly") -> "TPoly":
        return _signed_sum(self, other, False)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return _signed_sum(self, other, True)

    def __neg__(self) -> "TPoly":
        if not self._k:
            return self
        return _new(-self._k, self._v, self._w, self._m)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self._k or not other._k:
            return ZERO
        w = max(self._w, other._w)
        a, b = self._repack(w), other._repack(w)
        # a product coefficient sums at most min(len a, len b) products of coefficients
        terms = min(abs(a._k).bit_length(), abs(b._k).bit_length()) // w + 1
        m = a._m * b._m * terms
        v = a._v + b._v
        if m >> (w - 1):
            w = _width_for(m)
            a, b = a._repack(w), b._repack(w)
            return _from_dense(_unpack(a._k * b._k, w), v)
        return _new(a._k * b._k, v, w, m)

    def shift(self, e: int) -> "TPoly":
        """Multiply by t**e; e must be nonnegative."""
        if e < 0:
            raise ValueError(f"negative shift {e}")
        if not e or not self._k:
            return self
        return _new(self._k, self._v + e, self._w, self._m)

    def evaluate(self, x: int) -> int:
        """Exact integer value at t = x."""
        acc = 0
        for c in reversed(_unpack(self._k, self._w)):
            acc = acc * x + c
        return acc * x**self._v if acc else 0

    def plain_str(self) -> str:
        """Human form, e.g. "t + 2t^2 + t^3"; the zero polynomial is "0"."""
        return self._format(latex=False)

    def latex_str(self) -> str:
        """LaTeX form, e.g. "t^{3}+t^{4}+2t^{5}"; exponents in braces, no spaces."""
        return self._format(latex=True)

    def _format(self, latex: bool) -> str:
        slots = _unpack(self._k, self._w)
        if not slots:
            return "0"
        # plain text spaces the signs between terms; LaTeX writes no spaces
        plus, minus = ("+", "-") if latex else (" + ", " - ")
        pieces: list[str] = []
        for e, c in zip(count(self._v), slots):
            if not c:
                continue
            if c > 0:
                sign = plus
            else:
                sign, c = minus, -c
            if e > 1:
                var = f"t^{{{e}}}" if latex else f"t^{e}"
            elif e:
                var = "t"
            else:
                pieces.append(f"{sign}{c}")
                continue
            pieces.append(f"{sign}{var}" if c == 1 else f"{sign}{c}{var}")
        text = "".join(pieces)
        # the first term takes no separator, only its own minus sign
        return text[len(plus):] if slots[0] > 0 else "-" + text[len(minus):]

    def to_json_obj(self) -> list[list]:
        """JSON form: [exponent, coefficient-as-decimal-string] pairs, ascending."""
        return [[e, str(c)] for e, c in zip(count(self._v), _unpack(self._k, self._w)) if c]

    @classmethod
    def from_json_obj(cls, obj: object) -> "TPoly":
        """Strictly validated inverse of to_json_obj."""
        if not isinstance(obj, list):
            raise ValueError("TPoly JSON must be a list of [exponent, coefficient] pairs")
        coeffs: list[int] = []
        last = -1
        for entry in obj:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"bad TPoly JSON entry {entry!r}")
            e, c = entry
            if type(e) is not int or e <= last:
                if type(e) is not int or e < 0:
                    raise ValueError(f"bad exponent {e!r}")
                raise ValueError(f"exponents not strictly ascending at {e}")
            if not isinstance(c, str):
                raise ValueError(f"coefficient must be a decimal string, got {c!r}")
            try:
                ci = int(c)
            except ValueError:
                raise ValueError(f"bad coefficient string {c!r}") from None
            if not ci:
                raise ValueError(f"zero coefficient stored at exponent {e}")
            last = e
            coeffs.append(ci)
        if not coeffs:
            return ZERO
        low = obj[0][0]
        if len(coeffs) <= last - low:
            # gaps: every entry is valid before the dense list is allocated, so
            # a malformed list allocates no more than its own length
            dense = [0] * (last + 1 - low)
            for (e, _), ci in zip(obj, coeffs):
                dense[e - low] = ci
            coeffs = dense
        return _from_dense(coeffs, low)

    def to_dense_text(self) -> str:
        """Dense text form "v:c0,c1,...,cd" for sum c_i t^(v+i), every coefficient
        from the lowest to the highest term written in decimal; "" for zero."""
        if not self._k:
            return ""
        return f"{self._v}:{','.join(map(str, _unpack(self._k, self._w)))}"

    @classmethod
    def from_dense_text(cls, text: str) -> "TPoly":
        """Strictly validated inverse of to_dense_text: ASCII digits, a "-" leading a
        negative coefficient, commas, and nonzero first and last coefficients."""
        if not text:
            return ZERO
        head, colon, body = text.partition(":")
        try:
            if not (colon and head.isascii() and head.isdigit() and body.isascii()) or (
                    body.encode().translate(None, _DENSE_CHARS)):
                raise ValueError
            # int refuses what is left: a misplaced "-" and an empty coefficient
            coeffs = list(map(int, body.split(",")))
            if not coeffs[0] or not coeffs[-1]:
                raise ValueError
        except ValueError:
            clipped = text if len(text) <= 40 else text[:40] + "..."
            raise ValueError(f"bad dense polynomial text {clipped!r}") from None
        m = max(max(coeffs), -min(coeffs))
        w = _width_for(m)
        return _new(_pack(coeffs, w), int(head), w, m)


_alloc = object.__new__


def _new(k: int, v: int, w: int, m: int) -> TPoly:
    # internal: k != 0 has a nonzero lowest slot and m < 2^(w-1) bounds its slots
    poly = _alloc(TPoly)
    poly._k = k
    poly._v = v
    poly._w = w
    poly._m = m
    return poly


def _from_dense(coeffs: list[int], v: int) -> TPoly:
    """The polynomial sum c_i t^(v+i), packed at the smallest width that holds it."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    if not hi:
        return ZERO
    lo = 0
    while not coeffs[lo]:
        lo += 1
    coeffs = coeffs[lo:hi]
    m = max(max(coeffs), -min(coeffs))
    w = _width_for(m)
    return _new(_pack(coeffs, w), v + lo, w, m)


def _signed_sum(a: TPoly, b: TPoly, negate: bool) -> TPoly:
    """a + b, or a - b when `negate`."""
    kb = b._k
    if not kb:
        return a
    if not a._k:
        return -b if negate else b
    w = a._w
    m = a._m + b._m
    if w != b._w or m >> (w - 1):
        return _exact_sum(a, b, negate)
    if negate:
        kb = -kb
    va, vb = a._v, b._v
    if va < vb:
        return _new(a._k + (kb << w * (vb - va)), va, w, m)
    if vb < va:
        return _new((a._k << w * (va - vb)) + kb, vb, w, m)
    k = a._k + kb
    if not k:
        return ZERO
    if not k & ((1 << w) - 1):
        # the lowest slots cancelled: move them into the valuation
        slots = ((k & -k).bit_length() - 1) // w
        k >>= w * slots
        va += slots
    return _new(k, va, w, m)


def _exact_sum(a: TPoly, b: TPoly, negate: bool) -> TPoly:
    """The sum when the widths differ or the bound would leave the slot width."""
    w = max(a._w, b._w)
    if not (a._m + b._m) >> (w - 1):
        return _signed_sum(a._repack(w), b._repack(w), negate)
    v = min(a._v, b._v)
    ca, cb = _unpack(a._k, a._w), _unpack(b._k, b._w)
    dense = [0] * (max(a._v + len(ca), b._v + len(cb)) - v)
    for i, c in enumerate(ca, a._v - v):
        dense[i] = c
    for i, c in enumerate(cb, b._v - v):
        dense[i] += -c if negate else c
    return _from_dense(dense, v)


ZERO = _new(0, 0, 64, 0)
ONE = _new(1, 0, 64, 1)


def t_integer(n: int) -> TPoly:
    """[n] = 1 + t + ... + t^(n-1); by convention [0] = 1."""
    if n < 0:
        raise ValueError("t-integer of a negative integer")
    if n == 0:
        return ONE
    return _from_dense([1] * n, 0)


@lru_cache(maxsize=None)
def t_factorial(n: int) -> TPoly:
    """[n]! = [n][n-1]...[1], with [0]! = 1, on a dense list packed once: coefficient
    k of p [i] is the running sum of p up to k minus the running sum up to k - i."""
    if n < 0:
        raise ValueError("t-factorial of a negative integer")
    p = [1]
    for i in range(2, n + 1):
        sums = list(accumulate(p + [0] * (i - 1)))
        p = sums[:i] + list(map(sub, sums[i:], sums))
    return _from_dense(p, 0)


@lru_cache(maxsize=None)
def t_binomial(n: int, k: int) -> TPoly:
    """Gaussian binomial [n]! / ([k]! [n-k]!); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("negative argument to t-binomial")
    if k > n:
        return ZERO
    return t_quotient(range(n - k + 1, n + 1), range(1, k + 1))


def t_quotient(numer: Iterable[int], denom: Iterable[int]) -> TPoly:
    """prod (1 - t^a) over a in numer, divided by prod (1 - t^b) over b in denom.

    Factors common to both multisets cancel first.  The rest works on one
    dense coefficient list: each (1 - t^a) is a shift and subtract, and each
    (1 - t^b) divides by the recurrence q_i = p_i + q_(i-b), one running sum
    per residue class mod b.  The numerator is complete before the first
    division, so every partial quotient is exact when the whole one is;
    anything left above the quotient's degree raises NotDivisible.
    """
    numer, denom = list(numer), list(denom)
    factors = numer + denom
    if min(factors, default=1) < 1:
        raise ValueError("t-quotient factors need positive exponents")
    counts = [0] * (max(factors, default=0) + 1)
    for a in numer:
        counts[a] += 1
    for b in denom:
        counts[b] -= 1
    p = [1]
    for a, c in enumerate(counts):
        for _ in range(c):
            q = p + [0] * a
            q[a:] = map(sub, q[a:], p)
            p = q
    # the largest divisors first, so that the list shrinks soonest
    for b in range(len(counts) - 1, 0, -1):
        for _ in range(-counts[b]):
            top = len(p) - b  # the quotient's length
            # a residue class at or above `top` holds one entry: nothing to sum
            for r in range(min(b, top)):
                p[r::b] = accumulate(p[r::b])
            if top < 1 or any(p[top:]):
                raise NotDivisible(
                    f"1 - t^{b} does not divide the product of 1 - t^a over a in {numer}"
                )
            del p[top:]
    return _from_dense(p, 0)


def exact_divide(a: TPoly, b: TPoly) -> TPoly:
    """The quotient q with q * b == a exactly; raises NotDivisible otherwise."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ZERO
    # t^va A / t^vb B with A(0), B(0) != 0: long division of A by B from the top
    rem, den = _unpack(a._k, a._w), _unpack(b._k, b._w)
    db = len(den) - 1
    lead = den[db]
    q = [0] * max(len(rem) - db, 0)
    exact = a._v >= b._v and len(rem) > db
    if exact:
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if not c:
                continue
            qc, r = divmod(c, lead)
            if r:
                exact = False
                break
            base = top - db
            q[base] = qc
            for j, d in enumerate(den, base):
                rem[j] -= qc * d
        exact = exact and not any(rem[:db])
    if not exact:
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return _from_dense(q, a._v - b._v)
