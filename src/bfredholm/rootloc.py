"""Exact root location relative to the unit circle, in integer arithmetic.

Every routine works on a primitive Gaussian-integer multiple of its input:
clearing denominators and dividing out the integer content moves no root.
Such a polynomial is a pair of ``int`` lists (real parts, imaginary parts),
lowest degree first.

One Schur-Cohn loop answers both questions, whether p has a zero on the
circle and how many zeros lie inside it.  Each step replaces p by
q = conj(a0)*p - an*p*, with p* the conjugate reciprocal, and divides q by
its content.  On |z| = 1, |p*| = |p|; so when |a0| != |an|, q vanishes at a
point of the circle exactly when p does.  A run that reaches a nonzero
constant therefore proves that p has no circle zeros, and a circle zero
forces a degenerate step (|a0| = |an|) whose iterate has exactly the circle
zeros of p.  If q vanishes there, the iterate is self-inversive and Cohn's
rule decides it from its derivative.  Otherwise it goes to the fallback:
z = -1 is tested by evaluation, the Cayley transform z = (1+it)/(1-it)
maps the rest of the circle to the real line, and one Sturm chain of the
real and imaginary parts of the image gives both their gcd (a common real
root is a circle zero) and the Cauchy index of an exact argument-principle
count.  Sturm chains are primitive pseudo-remainder sequences over Z
(Collins 1967; Brown and Traub 1971), with positive multipliers so that
every sign is kept.

The disk test (exceeds_on_circle) decides |num| > R*|den| on the whole
circle with one run of the same loop, on a self-inversive polynomial.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .errors import ZeroOnCircle, ZeroPolynomial
from .poly import Polynomial


def _integer_form(coeffs) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of a Gaussian-integer multiple, not primitive."""
    d = lcm(*(e for _, _, e in coeffs))
    return [a * (d // e) for a, _, e in coeffs], [b * (d // e) for _, b, e in coeffs]


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _cayley(re: list[int], im: list[int]) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of (1-it)^n p((1+it)/(1-it)), trimmed.

    Horner's rule h <- h*(1+it) + c_k*(1-it)^(n-k) for k = n, ..., 0; the
    coefficient of t^m in (1-it)^j is C(j, m)*(-i)^m.  Updating m from the
    top down reads only coefficients that this step has not yet changed.
    """
    n = len(re) - 1
    hr, hi, row = [0] * (n + 1), [0] * (n + 1), [1] + [0] * n
    for j in range(n + 1):
        a, b = re[n - j], im[n - j]
        turns = ((a, b), (b, -a), (-a, -b), (-b, a))  # c_k*(-i)^m by m mod 4
        for m in range(j, 0, -1):
            row[m] += row[m - 1]
            x, y = turns[m & 3]
            hr[m], hi[m] = hr[m] - hi[m - 1] + row[m] * x, hi[m] + hr[m - 1] + row[m] * y
        hr[0] += a
        hi[0] += b
    return _trim(hr), _trim(hi)


def _sturm_chain(f0: list[int], f1: list[int]):
    """f0, f1, then -prem(f_{k-1}, f_k) made primitive, until it vanishes.

    prem multiplies by |lc(f_k)| at each elimination step, so every element
    is a positive multiple of the Sturm remainder and has its signs.  The
    last element is a gcd of f0 and f1.
    """
    yield f0
    a, b = f0, f1
    while b:
        yield b
        lb = b[-1]
        l, s = abs(lb), (1 if lb > 0 else -1)
        r = list(a)
        while len(r) >= len(b):
            k, c = len(r) - len(b), s * r[-1]
            r = _trim([l * x for x in r[:k]] + [l * x - c * y for x, y in zip(r[k:-1], b)])
        if r:
            g = gcd(*r)
            r = [-x // g for x in r]
        a, b = b, r


def _cauchy_index(den: list[int], num: list[int]) -> tuple[int, list[int]]:
    """Cauchy index of num/den over the real line, and gcd(den, num).

    V(-inf) - V(+inf) over the Sturm chain of den (nonzero) and num; an
    element of degree d has the sign of its leading coefficient at +inf,
    times (-1)^d at -inf.
    """
    index, prev = 0, None
    for f in _sturm_chain(den, num):
        pos = f[-1] > 0
        neg = pos == (len(f) % 2 == 1)
        if prev is not None:
            index += (neg != prev[0]) - (pos != prev[1])
        prev = (neg, pos)
    return index, f


def _winding_count(re: list[int], im: list[int]) -> int | None:
    """Zeros of p inside the unit disk by an exact argument principle, or
    None if p has a zero on the circle.

    The winding of p around the circle is recovered from the Cauchy index
    of qi/qr, where q(t) = qr(t) + i*qi(t) is the Cayley image; the same
    chain ends in gcd(qr, qi), whose real roots are the circle zeros of p
    other than z = -1.
    """
    n = len(re) - 1
    if not sum(re[::2]) - sum(re[1::2]) and not sum(im[::2]) - sum(im[1::2]):
        return None  # p(-1) = 0
    qr, qi = _cayley(re, im)
    # if qr = 0, q is purely imaginary on the real line: no real-axis
    # crossings, and the argument is constant +/- pi/2
    jump_index, g = _cauchy_index(qr, qi) if qr else _cauchy_index(qi, [])
    # distinct real roots of g: the Cauchy index of g'/g
    if len(g) > 1 and _cauchy_index(g, [k * c for k, c in enumerate(g)][1:])[0] > 0:
        return None
    # Boundary contribution of arctan(qi/qr) at t = +/- infinity, in units
    # of pi: nonzero only when deg qi > deg qr.
    boundary = 0
    di, dr = len(qi) - 1, len(qr) - 1
    if qr and di > dr:
        s_pos = 1 if (qi[-1] > 0) == (qr[-1] > 0) else -1
        s_neg = s_pos * (1 if (di - dr) % 2 == 0 else -1)
        boundary = (s_pos - s_neg) // 2
    total = boundary - jump_index + n  # Delta arg / pi plus n
    if total % 2 != 0:
        raise AssertionError("argument-principle count is not an integer")
    return total // 2


def _locate(re: list[int], im: list[int]) -> tuple[int, int | None]:
    """(m, k) for p = re + i*im over Z[i], trimmed, stripped of its zeros at
    0 and made primitive here: m is the order of p at z = 0, and k the number
    of its other zeros inside the disk, or None if p has a circle zero."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if not n:
        raise ZeroPolynomial("root location of the zero polynomial")
    m = 0
    while not re[m] and not im[m]:
        m += 1
    g = gcd(*re, *im)
    if g == 1:
        return m, _inside(re[m:n], im[m:n])
    return m, _inside([a // g for a in re[m:n]], [b // g for b in im[m:n]])


def _inside(re: list[int], im: list[int]) -> int | None:
    """Zeros inside the disk of p, p(0) != 0, or None if p has a circle zero.

    The Schur-Cohn loop: q(0) = |a0|^2 - |an|^2 = delta != 0, and by Rouche
    q has the zeros of p inside the disk when delta > 0 and those of p*
    (n minus those of p) when delta < 0.  The count so far is
    ``count + sign * (zeros of q)``.  At a degenerate step (delta = 0), a
    self-inversive p (q = 0) goes to _cohn and any other to _winding_count.
    """
    count, sign = 0, 1
    while len(re) > 1:
        n = len(re) - 1
        a, b, c, d = re[0], im[0], re[n], im[n]
        qr = [a * re[k] + b * im[k] - c * re[n - k] - d * im[n - k] for k in range(n)]
        qi = [a * im[k] - b * re[k] - d * re[n - k] + c * im[n - k] for k in range(n)]
        delta = a * a + b * b - c * c - d * d
        if delta == 0:
            k = _winding_count(re, im) if any(qr) or any(qi) else _cohn(re, im)
            return None if k is None else count + sign * k
        while not qr[-1] and not qi[-1]:
            qr.pop()
            qi.pop()
        g = gcd(*qr, *qi)
        re, im = ([x // g for x in qr], [y // g for y in qi]) if g != 1 else (qr, qi)
        if delta < 0:
            count, sign = count + sign * n, -sign
    return count


def _cohn(re: list[int], im: list[int]) -> int | None:
    """_inside for a self-inversive p of degree n (Cohn 1922; Marden, Geometry
    of Polynomials, section 45).  Its zeros are symmetric in the circle, so
    an odd n leaves one on it.  For even n, Re(z p'/p) = n/2 on the circle:
    p has no circle zero exactly when p' has none and n/2 - 1 zeros inside,
    and then p has n/2."""
    n = len(re) - 1
    if n % 2:
        return None
    dr = [k * x for k, x in enumerate(re)][1:]
    di = [k * y for k, y in enumerate(im)][1:]
    m = next(k for k in range(n) if dr[k] or di[k])  # the order of p' at 0
    k = _inside(dr[m:], di[m:])
    return n // 2 if k is not None and m + k == n // 2 - 1 else None


def has_zero_on_circle(p: Polynomial) -> bool:
    """True iff p has a zero of modulus exactly 1; decided exactly."""
    return _locate(*_integer_form(p.coeffs))[1] is None


def count_zeros_in_disk(p: Polynomial) -> int:
    """Zeros of p with |z| < 1, counted with multiplicity; exact.

    Raises ZeroOnCircle if a unit-modulus zero exists, ZeroPolynomial on
    the zero polynomial.
    """
    m, k = _locate(*_integer_form(p.coeffs))
    if k is None:
        raise ZeroOnCircle(f"{p} has a zero on the unit circle")
    return m + k


def exceeds_on_circle(num: Polynomial, den: Polynomial, r2) -> bool:
    """True iff |num| > R*|den| all over the unit circle, for nonzero num and
    den and rational R^2 = r2 >= 0; exact (the disk test).  With num and den
    cleared to N and D over Z[i], r2 = x/e, m = max(deg N, deg D) and p# the
    conjugate reciprocal, P = e*z^(m-deg N)*N*N# - x*z^(m-deg D)*D*D# is
    z^m*e*(|N|^2 - r2*|D|^2) on the circle, where the bracket is real: it is
    positive there exactly when P(1) > 0 and P has no circle zero.  P is
    self-inversive, so _inside hands it to _cohn at its first step."""
    k, m = len(num.coeffs), max(len(num.coeffs), len(den.coeffs)) - 1
    re, im = _integer_form(num.coeffs + den.coeffs)
    pr, pi = [0] * (2 * m + 1), [0] * (2 * m + 1)
    for c, ar, ai in ((r2.denominator, re[:k], im[:k]), (-r2.numerator, re[k:], im[k:])):
        n = len(ar)
        for t in range(n):  # c*sum p_j*conj(p_(j+t)) at z^(m-t), its conjugate at z^(m+t)
            u = c * (sum(map(mul, ar, ar[t:])) + sum(map(mul, ai, ai[t:])))
            v = c * (sum(map(mul, ai, ar[t:])) - sum(map(mul, ar, ai[t:])))
            pr[m - t], pi[m - t] = pr[m - t] + u, pi[m - t] + v
            if t:
                pr[m + t], pi[m + t] = pr[m + t] + u, pi[m + t] - v
    return sum(pr) > 0 and _locate(pr, pi)[1] is not None  # sum(pr) = P(1), a real number


def pencil_disk_counts(a: Polynomial, b: Polynomial, lams) -> list[int | None]:
    """count_zeros_in_disk(a - lam*b) for each lam, or None where a - lam*b
    has a circle zero; ZeroPolynomial if it is 0.  The denominators of a and
    b are cleared together, once: with lam = (x + iy)/e, each member is the
    Gaussian-integer polynomial e*A - (x + iy)*B."""
    n = max(len(a.coeffs), len(b.coeffs))
    re, im = _integer_form([a.coeff(k) for k in range(n)] + [b.coeff(k) for k in range(n)])
    ar, ai, br, bi = re[:n], im[:n], re[n:], im[n:]
    out = []
    for x, y, e in lams:
        m, k = _locate(
            [e * p - x * u + y * v for p, u, v in zip(ar, br, bi)],
            [e * q - x * v - y * u for q, u, v in zip(ai, br, bi)],
        )
        out.append(None if k is None else m + k)
    return out
