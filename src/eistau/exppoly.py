"""Exponential polynomials: closed-form carrier for iterated tail integrals.

An ExpPoly represents  f(t) = sum_n P_n(t) e^{2 pi i n t}  with nonnegative
integer frequencies n and polynomial coefficients P_n over mpmath complex
numbers.  The class is closed under addition, products (a power t^m is the
frequency-0 term (0, ..., 0, 1)), and the tail integral

    g(t) = int_t^{i oo} f(s) s^{alpha-1} ds        (alpha >= 1),

which exists termwise provided every contributing frequency is >= 1; a
nonzero frequency-0 part makes the tail diverge and is rejected.

The elementary building block is

    int_a^{i oo} e^{2 pi i n s} Q(s) ds = -e^{2 pi i n a} R(a),
    R = sum_j (-1)^j Q^(j) / c^{j+1},

with c = 2 pi i n, applied per frequency with Q(s) = P_n(s) s^{alpha-1}.  R is
the polynomial solution of c R + R' = Q, so its coefficients follow from the
top one down: r_D = q_D / c and r_m = (q_m - (m+1) r_{m+1}) / c.

The two steps of an iterated tail integral work on raw mpf parts (flat lists
of real and imaginary parts, through `mpmath.libmp` at the context's precision
and rounding), not on mpc objects:

* `mul_qseries` multiplies by a q-series with integer coefficients (a cusp
  series sum_n sigma(n) e^{2 pi i n t}) and truncates at n_cut.  It forms only
  the frequency pairs n_lo < n1 + n2 <= n_cut, on Python integers: each part
  of an output frequency is the exact convolution of the integer
  coefficients (sigma wider than the precision included) with that part of
  the input's coefficients, one integer dot per output part on one path
  whatever the input's sparsity, summed exactly and rounded once, so no bit
  depends on n_lo or n_cut.  The tests pin it bit for bit to that statement
  summed in Fractions.
* `ExpPoly.tail_integral` runs that recurrence, O(D) operations per frequency
  of degree D, and returns -R.  c = i b is exactly imaginary, so a division by
  c is two real divisions, (x + iy) / (ib) = (y - ix) / b, each rounded once;
  the subtraction and the product (m+1) r_{m+1} round as mpc arithmetic rounds
  them.  The tests pin it bit for bit to that statement on mpc values, and
  within 2^(4-prec) of each frequency's largest coefficient to the sum over
  derivatives at 30 more digits.

`tail_integral` skips exact zeros (the parts below s^{alpha-1} after the
shift, and the zero halves of exactly real or imaginary coefficients) where
skipping changes no bit.

Every q-expansion the engine reads at t is one exact dot of complex block
floats (a + ib) 2^e, and the dot has one home, `_dot`, with `_round` to round
its sum: `ExpPoly.__call__` for every kept fold of `integrals`, the
fixed-point L tables of `lseries` for their integer rows, and the tail
integral of `integrals` against its table of J_{n,e}.  For a fold the value
at t is

    sum_{n <= n_max} q^n sum_d c_{n,d} t^d,    q = e^{2 pi i t} at the working precision,

with q^n and t^d from power chains on Python integers (`_powers`, and
`_q_powers` for the chain of q that every read shares): block floats, each
power the last times the base exactly, then cut back to prec + GUARD_BITS
bits, round half up.  Every product c_{n,d} q^n t^d is exact, the real and
the imaginary sum are exact, and each is rounded once (the single-rounding
dot of Ogita, Rump and Oishi, SIAM J. Sci. Comput. 2005); as the sum is
exact, its grouping (per degree, then over the degrees) moves no bit.  A
cut moves a power by at most 2^-(prec + 7.5) of it, so the read is within
sum_n sum_d |c_{n,d}| |q|^n |t|^d (n + d) 2^-(prec + 7) of the exact sum
over that q, plus its one final rounding.  The tests pin `_dot` and the
read bit for bit to those statements summed in Fractions.  A power depends
only on its exponent, not on how far a chain runs, so a read with n_max
gives the bits of `truncated(n_max)` whatever lies above n_max.

Instances are treated as immutable: all operations return new values; only
those kept q-expansions gain frequencies in place.
"""

from __future__ import annotations

from itertools import islice, zip_longest
from operator import mul

from mpmath import mp, mpc
from mpmath.libmp import (
    from_man_exp,
    fzero,
    mpc_expjpi,
    mpc_mul_int,
    mpf_div,
    mpf_mul_int,
    mpf_neg,
    mpf_sub,
)

Poly = tuple  # coefficient tuple, index = power of t
GUARD_BITS = 8  # bits the power chains of `ExpPoly.__call__` keep beyond the working precision


def _ptrim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [mpc(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pscale(a: Poly, c) -> Poly:
    return _ptrim(x * c for x in a)


class ExpPoly:
    """Finite sum of polynomial-times-exponential terms; see module docstring."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Poly] | None = None):
        clean: dict[int, Poly] = {}
        if terms:
            for n, poly in terms.items():
                p = _ptrim(poly)
                if p:
                    if n < 0:
                        raise ValueError("frequencies must be nonnegative")
                    clean[n] = p
        self.terms = clean

    @classmethod
    def from_qseries(cls, coeffs: dict[int, object]) -> "ExpPoly":
        """ExpPoly with constant polynomials: sum_n coeffs[n] e^{2 pi i n t}."""
        return cls({n: (mpc(c),) for n, c in coeffs.items() if c != 0})

    def is_zero(self) -> bool:
        return not self.terms

    def max_freq(self) -> int:
        return max(self.terms, default=0)

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        out = dict(self.terms)
        for n, p in other.terms.items():
            out[n] = _padd(out.get(n, ()), p)
        return ExpPoly(out)

    def scale(self, c) -> "ExpPoly":
        c = mpc(c)
        if c == 0:
            return ExpPoly()
        return ExpPoly({n: _pscale(p, c) for n, p in self.terms.items()})

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        out: dict[int, Poly] = {}
        for n1, p1 in self.terms.items():
            for n2, p2 in other.terms.items():
                n = n1 + n2
                out[n] = _padd(out.get(n, ()), _pmul(p1, p2))
        return ExpPoly(out)

    def truncated(self, n_cut: int) -> "ExpPoly":
        """Drop frequencies above n_cut."""
        return ExpPoly({n: p for n, p in self.terms.items() if n <= n_cut})

    def tail_integral(self, alpha: int) -> "ExpPoly":
        """g(t) = int_t^{i oo} f(s) s^{alpha-1} ds, termwise; rejects frequency 0."""
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        if 0 in self.terms:
            raise ValueError("nonzero frequency-0 part: tail integral diverges")
        prec, rnd = mp._prec_rounding
        two_pi_i = 2 * mp.pi * mpc(0, 1)
        out: dict[int, list] = {}
        for n, p in self.terms.items():
            b = (two_pi_i * n)._mpc_[1]  # c = 2 pi i n = i b, real part exactly 0
            q = [fzero] * (2 * alpha - 2) + _flat(p)  # Q = P_n(s) s^{alpha-1}
            acc = [fzero] * len(q)
            x = y = None  # parts of (m+1) r_{m+1}; none above the top
            for k in range(len(q) - 2, -1, -2):  # r_m from m = D down, k = 2m
                wx, wy = q[k], q[k + 1]
                if x is not None:  # w = q_m - (m+1) r_{m+1}, as mpc subtraction rounds it
                    wx = mpf_neg(x) if wx == fzero else mpf_sub(wx, x, prec, rnd)
                    wy = mpf_neg(y) if wy == fzero else mpf_sub(wy, y, prec, rnd)
                # r_m = w / (i b) = (Im w - i Re w) / b; the integral's coefficient is -r_m
                u = fzero if wy == fzero else mpf_div(wy, b, prec, rnd)
                v = fzero if wx == fzero else mpf_div(wx, b, prec, rnd)
                acc[k], acc[k + 1] = mpf_neg(u), v
                m = k >> 1
                x = fzero if u == fzero else mpf_mul_int(u, m, prec, rnd)
                y = fzero if v == fzero else mpf_mul_int(mpf_neg(v), m, prec, rnd)
            out[n] = acc
        return _from_flat(out)

    def __call__(self, t, n_max: int | None = None) -> mpc:
        """Value at t: sum_{n <= n_max} q^n sum_d c_{n,d} t^d, q = e^{2 pi i t},
        over the power chains of q and t (`_powers`), as one exact sum (a `_dot`
        per degree, then one over the degrees) whose real and imaginary parts
        are each rounded once; with n_max, of `self.truncated(n_max)`, bit for
        bit."""
        t = mpc(t)
        terms = [(n, p) for n, p in self.terms.items() if n_max is None or n <= n_max]
        if not terms:
            return mpc(0)
        prec, rnd = mp._prec_rounding
        q_pows = list(islice(_q_powers(t._mpc_, prec, rnd), max(n for n, _ in terms) + 1))
        qs = [q_pows[n] for n, _ in terms]
        # sum_d t^d sum_n c_{n,d} q^n: a dot per degree over the frequencies, a
        # shorter polynomial padded with zeros, then one over the degrees
        cols = zip_longest(*[p for _, p in terms], fillvalue=mp.make_mpc((fzero, fzero)))
        sums = [_dot([_block(c._mpc_) for c in col], qs) for col in cols]
        return mp.make_mpc(_round(_dot(sums, _powers(t._mpc_, prec)), prec, rnd))

    def dump(self) -> str:
        """Debug format: one line per frequency, 'n; c0, c1, ...'."""
        lines = []
        for n in sorted(self.terms):
            cs = ", ".join(mp.nstr(c, mp.dps) for c in self.terms[n])
            lines.append(f"{n}; {cs}")
        return "\n".join(lines)

    def __repr__(self):
        return f"ExpPoly(<{len(self.terms)} frequencies, max {self.max_freq()}>)"


# The kernels work on flat lists of raw mpf parts, re and im of each coefficient
# side by side.


def _flat(p: Poly) -> list:
    return [x for z in p for x in z._mpc_]


def _from_flat(parts: dict[int, list]) -> ExpPoly:
    """ExpPoly from flat part lists, trimmed as the constructor trims."""
    make = mp.make_mpc
    out = ExpPoly()
    for n, flat in parts.items():
        end = len(flat)
        while end and flat[end - 1] == fzero and flat[end - 2] == fzero:
            end -= 2
        if end:
            # from a list: a tuple built from a generator is allocated long and
            # shrunk, so freed ones pile up in the per-size tuple free lists
            out.terms[n] = tuple([make((flat[k], flat[k + 1])) for k in range(0, end, 2)])
    return out


def _block(z: tuple) -> tuple:
    """The raw mpc z as a complex block float (a, b, e), z = (a + ib) 2^e exactly."""
    (xs, xm, xe, _), (ys, ym, ye, _) = z
    if not ym:
        return (-xm if xs else xm), 0, xe
    if not xm:
        return 0, (-ym if ys else ym), ye
    e = min(xe, ye)
    return (-xm if xs else xm) << (xe - e), (-ym if ys else ym) << (ye - e), e


def _dot(zs, ws) -> tuple:
    """The exact sum_j z_j w_j of complex block floats (a, b, e), value
    (a + ib) 2^e, as one block: every product exact, the sum kept on the least
    exponent so far; (0, 0, 0) for no terms.  A real z (b = 0, as every row
    of an L table) costs two products."""
    re = im = 0
    e = None
    for (za, zb, ze), (wa, wb, we) in zip(zs, ws):
        if zb:
            a, b = za * wa - zb * wb, za * wb + zb * wa
        else:
            a, b = za * wa, za * wb
        x = ze + we
        if e is None:
            re, im, e = a, b, x
        elif x >= e:
            re += a << (x - e)
            im += b << (x - e)
        else:
            re, im, e = (re << (e - x)) + a, (im << (e - x)) + b, x
    return re, im, e or 0


def _round(z: tuple, prec: int, rnd: str) -> tuple:
    """The block z = (a + ib) 2^e as raw mpc parts, each rounded once."""
    a, b, e = z
    return from_man_exp(a, e, prec, rnd), from_man_exp(b, e, prec, rnd)


def _powers(z: tuple, prec: int):
    """z^0, z^1, ... of the raw mpc z as complex block floats (a, b, e), value
    (a + ib) 2^e: z^{j+1} is z^j times z exactly, its mantissas then cut back
    to prec + GUARD_BITS bits (the wider of a and b), round half up.

    Each cut moves each part by at most 2^-(prec + GUARD_BITS) |z^{j+1}|, so
    z^j is within j 2^-(prec + GUARD_BITS - 1/2) of the exact power of z,
    relatively, to first order, and z^j never depends on how far the chain is
    taken."""
    a, b, e = _block(z)
    keep = prec + GUARD_BITS
    pa, pb, pe = 1, 0, 0
    while True:
        yield pa, pb, pe
        pa, pb, pe = pa * a - pb * b, pa * b + pb * a, pe + e
        s = max(pa.bit_length(), pb.bit_length()) - keep
        if s > 0:
            half = 1 << (s - 1)
            pa, pb, pe = (pa + half) >> s, (pb + half) >> s, pe + s


def _q_powers(t: tuple, prec: int, rnd: str):
    """The power chain (`_powers`) of q = e^{2 pi i t} for the raw mpc t, q
    rounded as mp.expjpi(2 * t) rounds it at prec and rnd."""
    return _powers(mpc_expjpi(mpc_mul_int(t, 2, prec, rnd), prec, rnd), prec)


def mul_qseries(g: ExpPoly, coeffs, n_cut: int, n_lo: int = 0) -> ExpPoly:
    """(sum_{1<=n<=n_cut} coeffs[n] e^{2 pi i n t}) * g at the frequencies n_lo < n <= n_cut.

    `coeffs` holds Python integers (index 0 unused), e.g. a `sigma_table`.
    Each part (re or im of a coefficient) of an output frequency n is the exact
    convolution sum_{n1 + n2 = n} coeffs[n1] g_{n2}, rounded once: each part
    position of g becomes a column of integers over n2 on that position's
    least exponent, so every product and the sum are exact integers.  The
    value does not depend on n_lo or n_cut beyond which frequencies it holds;
    pairs outside (n_lo, n_cut] are never formed.
    """
    prec, rnd = mp._prec_rounding
    src = [(n2, _flat(p)) for n2, p in g.terms.items() if n2 < n_cut]
    size = max((len(flat) for _, flat in src), default=0)
    a = coeffs[1:n_cut + 1]
    out: dict[int, list] = {}
    for k in range(size):
        nonzero = [(n2, flat[k]) for n2, flat in src if k < len(flat) and flat[k][1]]
        if not nonzero:
            continue
        e = min(x[2] for _, x in nonzero)
        col = [0] * n_cut  # g_{n2} at position k is col[n2] 2^e exactly
        for n2, (sign, man, x, _) in nonzero:
            col[n2] = (-man if sign else man) << (x - e)
        lo = min(n2 for n2, _ in nonzero)
        stop = lo - 1 if lo else None
        for n in range(max(n_lo, lo) + 1, n_cut + 1):
            # coeffs[n1] col[n - n1] for n1 = 1 .. n - lo
            acc = sum(map(mul, a[:n - lo], col[n - 1:stop:-1]))
            if acc:
                out.setdefault(n, [fzero] * size)[k] = from_man_exp(acc, e, prec, rnd)
    return _from_flat(out)


def elem_exp_tail(n: int, alpha: int, a) -> mpc:
    """int_a^{i oo} e^{2 pi i n t} t^{alpha-1} dt for n, alpha >= 1, by
    `ExpPoly.tail_integral` of the single term e^{2 pi i n t}, evaluated at a.

    Equals -e^{2 pi i n a} sum_{j=0}^{alpha-1} (-1)^j [(alpha-1)!/(alpha-1-j)!]
    a^{alpha-1-j} / (2 pi i n)^{j+1}.
    """
    if n < 1 or alpha < 1:
        raise ValueError("n and alpha must be >= 1")
    a = mpc(a)
    if not a.imag > 0:
        raise ValueError("Im a must be positive")
    return ExpPoly.from_qseries({n: 1}).tail_integral(alpha)(a)
