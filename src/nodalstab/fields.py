"""Exact coefficient fields and small dense linear algebra over them.

Two concrete fields are supported: prime fields F_p (elements are ints in
[0, p)) and the rationals Q (elements are ``fractions.Fraction``).  Both
expose the same tiny protocol, enough for the gluing-flag rank
computations and for root searches.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvalidInput, NoRoot, Record, _int_arg, _rational_text, _set

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_ROOT_SEARCH = 1 << 16   # the most steps PrimeField.rth_root takes to find the least root


@lru_cache(maxsize=1024)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test with the first 12 prime bases.

    Those bases decide every p < 2^64 (Sorenson and Webster, 2017); larger
    p raise InvalidInput.  Cost O(log p) modular products per base, and
    the memo makes every later test of the same p a cache hit.
    """
    if p >= 1 << 64:
        raise InvalidInput(f"{p} is too large: p must be below 2^64")
    if p < 2 or any(p % q == 0 for q in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _BASES:
        x = pow(q, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _factor(n: int) -> dict:
    """Prime factorisation {q: e} of n >= 1 by trial division."""
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q], n = out.get(q, 0) + 1, n // q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PrimeField(Record):
    """The field F_p for a prime p, elements represented as ints in [0, p)."""

    __slots__ = _fields = ("p",)
    zero, one = 0, 1

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):   # 5.0 is refused, not read as 5
            raise InvalidInput(f"{p!r} is not prime")
        _set(self, "p", p)

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def element(self, x) -> int:
        """x mod p for an int x; anything else is refused, never truncated."""
        if not isinstance(x, int):
            raise InvalidInput(f"{x!r} is not an integer, so not an element of {self.name}")
        return x % self.p

    def parse(self, s) -> int:
        """An int, or its text -?[0-9]+ in ASCII, mod p; ValueError on any other
        string, so other digits, "1_0", " 3 " and "+2" are never read as ints."""
        if isinstance(s, str):
            digits = s.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"{s!r} is not an integer in ASCII digits")
        return self.element(int(s))

    def format(self, a) -> str:
        return str(a % self.p)

    def rth_root(self, a, r: int):
        """Smallest b in F_p^x with b^r = a, from the cyclic group F_p^x.

        With m = p - 1 and g = gcd(r, m), a root exists iff a^(m/g) = 1.  A
        g-th root c of a is built one Sylow q-subgroup (q | g, order q^E) at
        a time: Pohlig-Hellman digits of a's q-part against the generator
        z = n^(m/q^E), n the first q-non-residue in 2, 3, ..., then the power
        (g/q^v)^-1 mod q^E; the part of a outside those subgroups takes the
        inverse exponent g^-1.  Then b0 = c^u with u r = g mod m, the roots
        are b0 times the g-th roots of unity, and the smallest is returned:
        O(g + log^3 p) bit operations (cf. Adleman-Manders-Miller, 1977).
        When g^2 > p - 1 the roots are a coset of small index m/g, and
        counting up from 1 meets its least element after about m/g steps.
        A search of min(g, m/g) > 2^16 steps is refused before it starts.
        """
        p, m = self.p, self.p - 1
        _int_arg(r, "root exponent", 1)
        a = self.element(a)
        if a == 0:
            raise InvalidInput("r-th roots are only taken of nonzero scalars")
        g = gcd(r, m)
        if pow(a, m // g, p) != 1:
            raise NoRoot(f"{a} has no {r}-th root in {self.name}")
        steps = min(g, m // g)   # exponential in log p, so capped before any search
        if steps > _MAX_ROOT_SEARCH:
            raise InvalidInput(f"{steps} steps to the least {r}-th root, over the cap 2^16")
        if g * g > m:   # the g roots are a coset of index m/g < g: count up to one
            return next(b for b in range(1, p) if pow(b, r, p) == a)
        c, zeta, h = 1, 1, m
        for q, v in _factor(g).items():
            E, t = 0, m
            while t % q == 0:
                E, t = E + 1, t // q
            h //= q ** E
            n = 2
            while pow(n, m // q, p) == 1:
                n += 1
            z = pow(n, t, p)
            unit = pow(z, q ** (E - 1), p)
            digit = {pow(unit, j, p): j for j in range(q)}
            a_q, L = pow(a, t * pow(t, -1, q ** E), p), 0
            for i in range(E):
                L += digit[pow(a_q * pow(z, -L, p), q ** (E - 1 - i), p)] * q ** i
            c = c * pow(z, L // q ** v * pow(g // q ** v, -1, q ** E), p) % p
            zeta = zeta * pow(z, q ** (E - v), p) % p
        c = c * pow(a, (m // h) * pow(m // h, -1, h) * pow(g, -1, h), p) % p
        b = best = pow(c, pow(r // g, -1, m // g), p)
        for _ in range(g - 1):
            b = b * zeta % p
            best = min(best, b)
        return best


def _int_nth_root(m: int, r: int):
    """Exact floor r-th root of m >= 1 (bisection on ints)."""
    lo, hi = 1, 1 << ((m.bit_length() + r - 1) // r + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**r <= m:
            lo = mid
        else:
            hi = mid - 1
    return lo


class RationalField(Record):
    """The rationals, elements represented as ``Fraction``."""

    __slots__ = _fields = ()
    name, zero, one = "Q", Fraction(0), Fraction(1)

    def element(self, x) -> Fraction:
        """An int or a ``Fraction`` x as a Fraction; a float is refused, never expanded."""
        if not isinstance(x, (int, Fraction)):
            raise InvalidInput(f"{x!r} is not an integer or a Fraction, so not an element of Q")
        return x if isinstance(x, Fraction) else Fraction(x)

    @staticmethod
    def parse(s) -> Fraction:
        """``Fraction(str(s))`` without exponent notation; ValueError or ZeroDivisionError."""
        return Fraction(_rational_text(s))

    @staticmethod
    def format(a) -> str:
        """Lowest terms, "p/q", or "p" when the denominator is 1."""
        return str(Fraction(a))

    def rth_root(self, a, r: int):
        """Exact rational r-th root when one exists."""
        _int_arg(r, "root exponent", 1)
        a = self.element(a)
        if a == 0:
            raise InvalidInput("r-th roots are only taken of nonzero scalars")
        if a < 0 and r % 2 == 0:
            raise NoRoot(f"{a} has no rational {r}-th root (negative, even exponent)")
        num, den = abs(a.numerator), a.denominator
        rn, rd = _int_nth_root(num, r), _int_nth_root(den, r)
        if rn**r != num or rd**r != den:
            raise NoRoot(f"{a} has no rational {r}-th root")
        root = Fraction(rn, rd)
        return -root if a < 0 else root


def parse_field(name: str):
    """Build a field from a descriptor string: exactly "Q", or "F" and p in
    ASCII digits without a leading zero.  Nothing else is read as a field,
    so the descriptor a report prints is the one the input gave."""
    if name == "Q":
        return RationalField()
    digits = name[1:]
    if name[:1] == "F" and digits.isascii() and digits.isdigit() and digits[0] != "0":
        if len(name) > 100:
            raise InvalidInput("field descriptor too long: p must be below 2^64")
        return PrimeField(int(digits))
    raise InvalidInput(f"unknown field descriptor {name!r}")


def mat_rank(field, rows) -> int:
    """Rank of a dense matrix (a list of rows) by elimination below each pivot,
    until the rank equals the number of rows.  Over F_p a row is cleared on
    ints by pivot * row - x * top mod p.  Over Q each row is scaled to ints
    by the lcm of its denominators and cleared by Bareiss's fraction-free
    step, dividing exactly by the previous pivot (Math. Comp. 22, 1968).
    """
    p = getattr(field, "p", 0)
    if p:
        m = [[x % p for x in row] for row in rows]
    else:
        m = []
        for row in rows:
            d = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (d // x.denominator) for x in row])
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        a = top[col]
        for i in range(rank + 1, len(m)):
            b = m[i][col]
            if p:
                if b:
                    m[i] = [(a * x - b * y) % p for x, y in zip(m[i], top)]
            else:
                m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], top)]
        prev, rank = a, rank + 1
        if rank == len(m):
            break
    return rank
