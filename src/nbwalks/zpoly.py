"""Polynomials over Z as ascending sequences of int coefficients.

The arithmetic of ``polys.Polynomial``, whose integer numerators these
kernels take and return, of its gcd, Yun's loop and Sturm chains (all one
remainder sequence, ``_zremainders``), and of the Smith form and local
partial multiplicities of ``polys``, which read the entries of
``PolyMatrix.ints`` as they are: a polynomial is a list or tuple of ints
without trailing zeros (empty for zero).  No function changes its
arguments, so entries may be shared freely.
"""

from __future__ import annotations

from math import gcd


def _zmul(a, b):
    """Product of two int coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _zsub(a, b):
    """Difference of two int coefficient lists, trailing zeros stripped."""
    if len(a) < len(b):
        out = [-c for c in b]
        for i, c in enumerate(a):
            out[i] += c
    else:
        out = list(a)
        for i, c in enumerate(b):
            out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def _zscale(a, s):
    """An int coefficient list times the int s."""
    return a if s == 1 else [s * c for c in a]


def _zprimitive(entries):
    """A list of int coefficient lists divided by the gcd of all their
    coefficients (its integer content)."""
    g = 0
    for e in entries:
        g = gcd(g, *e)
        if g == 1:
            break
    if g <= 1:
        return entries
    return [[c // g for c in e] if e else e for e in entries]


def _zpseudo_divmod(a, b):
    """Integer pseudo-division of int coefficient lists, b nonzero.

    Returns (s, q, r) with s*a == q*b + r, deg r < deg b and s > 0 an int
    dividing a power of b's leading coefficient.  Each step scales by only
    the part of the leading coefficient that does not divide the current
    top coefficient, so s == 1 when b's leading coefficient is +-1.
    """
    db = len(b) - 1
    if len(a) <= db:
        return 1, [], a
    lead = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    s = 1
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        g = gcd(c, lead) if lead > 0 else -gcd(c, lead)
        k = lead // g
        c //= g
        if k != 1:
            s *= k
            for j in range(i):
                r[j] *= k
            for j in range(i - db + 1, len(q)):
                q[j] *= k
        q[i - db] = c
        for j in range(db):
            r[i - db + j] -= c * b[j]
        r[i] = 0
    while r and not r[-1]:
        r.pop()
    return s, q, r


def _zderivative(a):
    """Derivative of an int coefficient list."""
    return [k * c for k, c in enumerate(a)][1:]


def _zremainders(a, b):
    """Nonzero members of the primitive remainder sequence of int lists a
    and b with Sturm's signs (each next one the negated pseudo-remainder of
    the last two); the last is gcd(a, b) up to a rational factor."""
    a, b = _zprimitive([a])[0], _zprimitive([b])[0]
    if a:
        yield a
    while b:
        yield b
        _, _, r = _zpseudo_divmod(a, b)
        a, b = b, _zprimitive([[-c for c in r]])[0]


def _zgcd(a, b):
    """gcd(a, b) of int lists, primitive with a positive leading coefficient
    (empty for two zeros): the last member of their remainder sequence."""
    g = []
    for g in _zremainders(a, b):
        pass
    return [-c for c in g] if g and g[-1] < 0 else g


def _zdiv_exact(num, den):
    """num / den for int coefficient lists when den divides num in Z[t]."""
    dd = len(den) - 1
    lead = den[-1]
    rem = list(num)
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                break
            quot[i - dd] = q
            for j in range(dd):
                rem[i - dd + j] -= q * den[j]
            rem[i] = 0
    if any(rem):
        raise RuntimeError("non-exact division in Z[t]")
    return quot


def _zhomogeneous(coeffs, p, q):
    """(sum_k c_k p**k q**(d - k), q**d) for the ints c_0..c_d: the value of
    the polynomial at p/q as a numerator over q**d; (0, 1) for no
    coefficients."""
    value, power = (coeffs[-1] if coeffs else 0), 1
    for c in coeffs[-2::-1]:
        power *= q
        value = value * p + c * power
    return value, power


def _zvalues(coeffs, ts):
    """The values of the polynomial at each of the ints ts, by one Horner
    pass over all of them; all 0 for no coefficients."""
    values = [coeffs[-1] if coeffs else 0] * len(ts)
    for c in coeffs[-2::-1]:
        values = [v * t + c for v, t in zip(values, ts)]
    return values
