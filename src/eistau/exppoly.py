"""Exponential polynomials: closed-form carrier for iterated tail integrals.

An ExpPoly represents  f(t) = sum_n P_n(t) e^{2 pi i n t}  with nonnegative
integer frequencies n and polynomial coefficients P_n over mpmath complex
numbers.  The class is closed under addition, products, multiplication by
powers of t, and the tail integral

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
  the frequency pairs n1 + n2 <= n_cut and sums each output frequency in
  place in ascending n1, so it rounds exactly as `ExpPoly.__mul__` followed by
  `truncated`.
* `ExpPoly.tail_integral` runs that recurrence, O(D) operations per frequency
  of degree D, and returns -R.  c = i b is exactly imaginary, so a division by
  c is two real divisions, (x + iy) / (ib) = (y - ix) / b, each rounded once;
  the subtraction and the product (m+1) r_{m+1} round as mpc arithmetic rounds
  them.  The tests pin it bit for bit to that statement on mpc values, and
  within 2^(4-prec) of each frequency's largest coefficient to the sum over
  derivatives at 30 more digits.

Both skip exact zeros (the parts below s^{alpha-1} after the shift, and the
zero halves of exactly real or imaginary coefficients) where skipping changes
no bit.

`ExpPoly.__call__` computes one q = e^{2 pi i t} and runs Horner in q from the
highest frequency (at most n_max) down, each P_n(t) by Horner in t.

Instances are treated as immutable: all operations return new values.
"""

from __future__ import annotations

from mpmath import mp, mpc
from mpmath.libmp import (
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul_int,
    mpf_neg,
    mpf_sub,
    to_int,
)

Poly = tuple  # coefficient tuple, index = power of t


def _ptrim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
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


def _pshift(a: Poly, m: int) -> Poly:
    """Multiply by t^m."""
    if not a:
        return ()
    return (mpc(0),) * m + tuple(a)


def _peval(a: Poly, t) -> mpc:
    acc = mpc(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


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
    def zero(cls) -> "ExpPoly":
        return cls()

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

    def mul_tpow(self, m: int) -> "ExpPoly":
        if m < 0:
            raise ValueError("only nonnegative powers of t")
        return ExpPoly({n: _pshift(p, m) for n, p in self.terms.items()})

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
        """Value at t by Horner in q = e^{2 pi i t}, from the highest frequency
        (<= n_max) down; with n_max, of `self.truncated(n_max)`, bit for bit."""
        t = mpc(t)
        terms = self.terms
        top = max((n for n in terms if n_max is None or n <= n_max), default=None)
        if top is None:
            return mpc(0)
        q = mp.expjpi(2 * t)
        acc = _peval(terms[top], t)
        for n in range(top - 1, -1, -1):
            acc *= q
            p = terms.get(n)
            if p:
                acc += _peval(p, t)
        return acc

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
# side by side.  Every sum in them adds values already rounded at the working
# precision, so adding an exact zero, or a product with one, changes nothing
# and is skipped.


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


def mul_qseries(g: ExpPoly, coeffs, n_cut: int) -> ExpPoly:
    """(sum_{1<=n<=n_cut} coeffs[n] e^{2 pi i n t}) * g, truncated at frequency n_cut.

    `coeffs` holds Python integers (index 0 unused), e.g. a `sigma_table`.  The
    value is bit-identical to `(ExpPoly.from_qseries(...) * g).truncated(n_cut)`:
    each term coeffs[n1] * g_{n2} is rounded once as the mpc product is, and the
    terms of each output frequency are summed in ascending n1; pairs beyond
    n_cut are never formed.
    """
    prec, rnd = mp._prec_rounding
    src = []  # (n2, flat length, nonzero parts (k, x)) in ascending n2
    for n2, p in sorted(g.terms.items()):
        if n2 < n_cut:
            flat = _flat(p)
            src.append((n2, len(flat), [(k, x) for k, x in enumerate(flat) if x != fzero]))
    out: dict[int, list] = {}
    for n1 in range(1, n_cut + 1):
        a = coeffs[n1]
        if not a:
            continue
        if a.bit_length() > prec:  # mpc(a) would round it first
            a = to_int(from_int(a, prec, rnd))
        for n2, size, nonzero in src:
            n = n1 + n2
            if n > n_cut:
                break
            acc = out.setdefault(n, [])
            if len(acc) < size:
                acc.extend([fzero] * (size - len(acc)))
            for k, x in nonzero:
                x = mpf_mul_int(x, a, prec, rnd)
                y = acc[k]
                acc[k] = x if y == fzero else mpf_add(y, x, prec, rnd)
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
