"""q-expansions: the integer row table of folds and L-series, and ExpPoly.

Both families of the engine are q-expansions with divisor-sum numerators.  An
iterated tail integral (a fold, `integrals`) and a multiple L-series
(`lseries`) at tau are

    (2 pi i)^{-h} sum_n q^n sum_d rho_{n,d} w^d,    q = e^{2 pi i tau},  w = 2 pi i tau,

with rational rho; an L-series has degree 0 only.  A chain of operations,
innermost first, builds the rows rho and h:

* series, the innermost (PRODUCT, k): rho_{n,0} = sigma_{2k-1}(n), h = 0;
* product (PRODUCT, k): each degree column convolved with sigma_{2k-1};
* tail integral (TAIL, alpha), int_t^{i oo} f(s) s^{alpha-1} ds termwise: per
  frequency n, from the top degree m down,
  r_m = (kappa_m - (m+1) r_{m+1}) / n with kappa_m = rho_{n,m-alpha+1}; the new
  rho is -r and h grows by alpha.  (R = sum_j (-1)^j Q^(j) / c^{j+1} solves
  c R + R' = Q for c = 2 pi i n; Q has the coefficients
  (2 pi i)^{m+1-h-alpha} kappa_m, and R has (2 pi i)^{m-h-alpha} r_m.)  A
  nonzero frequency-0 part would diverge; no chain makes one;
* L layer (LAYER, alpha): row n divided by n^alpha, h grows by alpha.

`_Rows` keeps the rows of one chain in one ring, degree columns cols[d][n],
and grows them in place: `Fraction`s for bits None, and for an int bits = B
the fixed-point integers R = rho 2^B, each division a floor.  Row n needs
the inner rows up to n only, so the rows up to N of a table grown further are
those of a table grown to N.  `_rows` keeps one table per (chain, bits), a
bounded `lru_cache`, whose inner table is the kept one of the chain's prefix:
chains that share a prefix share its rows, and an evicted table lives on as
the inner table of a kept one.

Certificate (`_majorants`).  A bound (P, c, h) states |x_{n,d}| <= c_d n^P for
every n >= 1.  The majorant bounds rho: sigma_{2k-1}(n) <= sigma_majorant(k)
n^{2k-1}; a product is one step of `eisenstein._product_majorant`; a tail
step gives |r_m| <= n^{P-1} sum_{j >= m} (j!/m!) c_{j-alpha+1}, so
c'_e = c_{e-alpha+1} + (e+1) c'_{e+1} from the top down and P drops by one
(not below 0, as n >= 1); a layer lowers P by alpha.  The deficit
d = rho 2^B - R of the fixed-point rows has a bound of the same form: the
series and the products are exact, a product giving |d| <= sum sigma |d_in|,
and every floor adds less than 1: |d_r(m)| <= (|d_kappa(m)| + (m+1)
|d_r(m+1)|) / n + 1 in a tail step, |d| <= |d_in| / n^alpha + 1 in a layer.
At tau a bound scales to (2 pi)^{-h} sum_d c_d (2 pi |tau|)^d, so a
read of the rows up to N is within 2^-B N^{P+1} times the deficit's scale of
the read of exact rows; `_fixed_bits` picks B from that.  The deficit's scale
over that of the value's first term, or of its majorant, does not depend on
tau, so B moves with tau only where eps, not the precision, sets it.  The
cutoffs are sized on logs in doubles, from `_certificate`, kept per chain,
and `_log_majorant` or `_log_lead` at tau: math.log takes the bounds' ints
at any size, so no chain overflows.

The read (`_Rows.read`) is one exact sum over the power chains of q and w
(`_powers`): a dot per degree over the frequencies, one over the degrees
(`_read_dot`), with w formed exactly from the block of tau and a mantissa of
2 pi (`_w`); then `_scaled` applies 2^-B, i^{-h} exactly and (2 pi)^{-h} at
prec + GUARD_BITS bits, and rounds each part once.  The dot has one home,
`_dot`: every product of complex block floats (a + ib) 2^e is exact, the sum
is exact, and `_round` rounds each part once (the single-rounding dot of
Ogita, Rump and Oishi, SIAM J. Sci. Comput. 2005).  A power chain multiplies
exactly and cuts each power back to prec + GUARD_BITS bits, so z^j is within
j 2^-(prec + 7.5) of the exact power, relatively, and does not depend on how
far the chain runs: a read up to N gives the bits of a table grown to N.

The tail read (`_Rows.tail_read`) integrates a table's q-expansion g once
more without growing a table for it, as one exact dot rounded once:

    int_tau^{i oo} g(s) s^{alpha-1} ds
        = (2 pi i)^{-h-alpha} 2^-B sum_{n <= N} sum_m R_{n,m} J'_{n,m+alpha-1}(tau),
    J'_{n,e}(tau) = (2 pi i)^{e+1} int_tau^{i oo} e^{2 pi i n s} s^e ds.

J' is kept per tau and working precision and grown in place (`_tails`), so
at tau = i every R word of `mmv` at one precision reads one table.  By parts,
K_{n,e} = n^{e+1} J'_{n,e} = -(n^e q^n w^e + e K_{n,e-1}), summed exactly over
the power chains of q (at prec + GUARD_BITS bits) and of w, and each J' is K /
n^{e+1} floored to prec + GUARD_BITS bits (`_quo`): no pi enters the
recurrence, and no rounding accumulates along it.  The elementary tail
integral `elem_exp_tail` is one entry of the same table, scaled and rounded
once: the engine has one evaluator of int_tau^{i oo} e^{2 pi i n s} s^e ds.

A fixed-point table prints as text, its h, B and int rows (`_Rows.dump`, for
`eistau eval-int --dump-exppoly`): it keeps all that the read uses.

ExpPoly, f(t) = sum_n P_n(t) e^{2 pi i n t} with mpc polynomial coefficients,
is the tests' independent reference, public for the benchmark's tracer; no
engine path builds one.  Its algebra (`__add__`, `scale`, `__mul__`,
`truncated`, and `tail_integral`, the recurrence above at c = 2 pi i n in mpc
arithmetic) checks the rows, and `ExpPoly.__call__` reads it as the row read
does (`_read_dot`), with t in place of w.  Instances are immutable.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat, zip_longest
from math import exp, floor, hypot, inf, ldexp, log, pi, prod
from operator import floordiv, mul, truediv

from mpmath import mp, mpc
from mpmath.libmp import (from_man_exp, mpc_abs, mpc_expjpi, mpc_mul_int, mpf_pi, mpf_pow_int,
                          to_float)

from .eisenstein import _eps_logs, _product_majorant, sigma_majorant, sigma_table

Poly = tuple  # coefficient tuple, index = power of t
GUARD_BITS = 8  # bits the power chains keep beyond the working precision
PRODUCT, TAIL, LAYER = "product", "tail", "layer"
# Every N below 64 takes the bits of 64 (`_fixed_bits`), so reads at moderate Im tau
# (N <= 24 at Im tau >= 0.7 and eps 1e-30) share one table per chain and precision.
_MIN_N_BITS = 6
# B is the working precision plus a multiple of this (`_fixed_bits`): the bits a
# chain needs above the precision differ between chains, and one step holds them
# all on the benchmark's workloads, so that they share their inner tables.
_BITS_STEP = 128
LOG_2, LOG_2PI = log(2), log(2 * pi)
# A log of the cutoffs in doubles is within LOG_ULPS (1 + m) of the exact one, m
# the sum of the moduli of the logs it is made of: 64 ulps, over 3 times its rounding.
LOG_ULPS = 2.0**-47


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
        """g(t) = int_t^{i oo} f(s) s^{alpha-1} ds, termwise; rejects frequency 0.

        Per frequency, r_m = (q_m - (m+1) r_{m+1}) / c from the top m down for
        Q = P_n(s) s^{alpha-1} and c = 2 pi i n = i b, in mpc arithmetic: a
        division by c is two real divisions, (x + iy) / (ib) = (y - ix) / b.
        The integral's coefficients are -r."""
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        if 0 in self.terms:
            raise ValueError("nonzero frequency-0 part: tail integral diverges")
        two_pi_i = 2 * mp.pi * mpc(0, 1)
        out = {}
        for n, p in self.terms.items():
            b = (two_pi_i * n).imag
            q = [mpc(0)] * (alpha - 1) + list(p)
            r = [None] * len(q)
            for m in range(len(q) - 1, -1, -1):
                w = q[m] if m == len(q) - 1 else q[m] - (m + 1) * r[m + 1]
                r[m] = mpc(w.imag / b, -(w.real / b))
            out[n] = tuple(-x for x in r)
        return ExpPoly(out)

    def __call__(self, t) -> mpc:
        """Value at t: sum_n q^n sum_d c_{n,d} t^d, q = e^{2 pi i t}, over the
        power chains of q and t, as one exact sum (`_read_dot`) whose real and
        imaginary parts are each rounded once.  A partial sum up to frequency n
        is `self.truncated(n)(t)`."""
        t = mpc(t)
        if not self.terms:
            return mpc(0)
        prec, rnd = mp._prec_rounding
        q_pows = list(islice(_q_powers(t._mpc_, prec, rnd), self.max_freq() + 1))
        qs = [q_pows[n] for n in self.terms]
        # degree columns of blocks, a shorter polynomial padded with zero blocks
        cols = zip_longest(*[[_block(c._mpc_) for c in p] for p in self.terms.values()],
                           fillvalue=(0, 0, 0))
        return mp.make_mpc(_round(_read_dot(cols, qs, _block(t._mpc_), prec), prec, rnd))

    def __repr__(self):
        return f"ExpPoly(<{len(self.terms)} frequencies, max {self.max_freq()}>)"


class _Rows:
    """Rows 0..n of one chain in one ring, kept and grown (row 0 is 0): degree
    columns cols[d][m] of exact `Fraction`s for bits None, and for an int bits
    = B of the fixed-point integers of rho 2^B; see module docstring.  The op
    (op, arg) is the chain's last, `inner` the table of its prefix (None for
    the series), and the value carries (2 pi i)^{-h}.  A fixed-point table is
    read at tau (`read`), integrated once more (`tail_read`) or printed (`dump`)."""

    __slots__ = ("op", "arg", "inner", "bits", "h", "cols")

    def __init__(self, op: str, arg: int, inner: "_Rows | None", bits: int | None):
        self.op, self.arg, self.inner, self.bits = op, arg, inner, bits
        self.h = 0 if inner is None else inner.h + (arg if op != PRODUCT else 0)
        degrees = 1 if inner is None else len(inner.cols) + (arg - 1 if op == TAIL else 0)
        zero = Fraction(0) if bits is None else 0
        self.cols = [[zero] for _ in range(degrees)]

    @property
    def n(self) -> int:
        return len(self.cols[0]) - 1

    def grow(self, n: int) -> None:
        """Extend the rows from the kept n to n, the inner table first."""
        n0, cols = self.n, self.cols
        if n <= n0:
            return
        new = range(n0 + 1, n + 1)
        zero = cols[0][0]  # starts each sum, so that an empty one stays in the ring
        if self.inner is None:
            one = Fraction(1) if self.bits is None else 1 << self.bits
            sig = sigma_table(2 * self.arg - 1, n)
            cols[0].extend(sig[m] * one for m in new)
            return
        self.inner.grow(n)
        inner, arg = self.inner.cols, self.arg
        quo = truediv if self.bits is None else floordiv
        if self.op == PRODUCT:  # exact: sum_u sigma(u) x(m - u), per degree column
            sig = sigma_table(2 * arg - 1, n)
            for col, src in zip(cols, inner):
                col.extend(sum(map(mul, sig[1:m], src[m - 1:0:-1]), zero) for m in new)
        elif self.op == LAYER:
            cols[0].extend(quo(inner[0][m], m**arg) for m in new)
        else:  # TAIL: r_j = (kappa_j - (j+1) r_{j+1}) / m from the top degree down
            for m in new:
                r = zero
                for j in range(len(cols) - 1, -1, -1):
                    kappa = inner[j - arg + 1][m] if j >= arg - 1 else zero
                    r = quo(kappa - (j + 1) * r, m)
                    cols[j].append(-r)

    def coeffs(self, n: int) -> tuple:
        """rho_{1..n,0} of a table grown to n: an L-series's c(1..n)."""
        return tuple(self.cols[0][1:n + 1])

    def read(self, tau: tuple, n: int) -> tuple:
        """The raw mpc (2 pi i)^{-h} 2^{-B} sum_{m <= n} q^m sum_d R_{m,d} w^d of
        a fixed-point table grown to n at the raw mpc tau, at the working
        precision: one exact sum over the power chains of q and w
        (`_read_dot`), scaled and rounded once (`_scaled`)."""
        prec, rnd = mp._prec_rounding
        q_pows = list(islice(_q_powers(tau, prec, rnd), 1, n + 1))
        cols = (zip(islice(col, 1, n + 1), repeat(0), repeat(0)) for col in self.cols)
        return _scaled(_read_dot(cols, q_pows, _w(tau, prec), prec), self.h, self.bits, prec, rnd)

    def tail_read(self, alpha: int, tau: tuple, n: int) -> tuple:
        """The raw mpc int_tau^{i oo} g(s) s^{alpha-1} ds at the raw mpc tau and
        the working precision, g the q-expansion of a fixed-point table grown
        to n: one exact dot against the J' table (`_tails`), scaled and
        rounded once (`_scaled`); see module docstring."""
        prec, rnd = mp._prec_rounding
        table, cols = _tails(tau, prec), self.cols
        table.grow(n, len(cols) + alpha - 2)
        js = table.rows
        zs = ((col[m], 0, 0) for col in cols for m in range(1, n + 1))
        ws = (js[m][d + alpha - 1] for d in range(len(cols)) for m in range(1, n + 1))
        return _scaled(_dot(zs, ws), self.h + alpha, self.bits, prec, rnd)

    def dump(self, n: int) -> str:
        """A fixed-point table grown to n as text, lossless: 'h = H, B = B', then
        'm; R_{m,0}, R_{m,1}, ...' for m in 1..n, zero rows included."""
        lines = [f"h = {self.h}, B = {self.bits}"]
        lines += [f"{m}; " + ", ".join(str(col[m]) for col in self.cols) for m in range(1, n + 1)]
        return "\n".join(lines)


@lru_cache(maxsize=1024)
def _rows(chain: tuple, bits: int | None) -> _Rows:
    """The kept table of `chain` in the ring `bits` (None for exact rows); its
    inner table is the kept one of the chain's prefix in the same ring."""
    return _Rows(*chain[-1], _rows(chain[:-1], bits) if len(chain) > 1 else None, bits)


def _integrated(c: tuple, alpha: int, one: int) -> tuple:
    """c'_e = q_e + one + (e+1) c'_{e+1} from the top down, q = c shifted up by
    alpha - 1 degrees: a tail step of a bound, `one` the floor's share."""
    q = (0,) * (alpha - 1) + c
    out = [q[-1] + one]
    for e in range(len(q) - 2, -1, -1):
        out.append(q[e] + one + (e + 1) * out[-1])
    return tuple(reversed(out))


@lru_cache(maxsize=1024)
def _majorants(chain: tuple) -> tuple:
    """(majorant, deficit) of the rows of `chain`, each a bound (P, c, h),
    carried from its prefix's; see module docstring.  The deficit of exact
    rows is (0, (0, ...), h), and a product keeps it so."""
    op, arg = chain[-1]
    if len(chain) == 1:
        return (2 * arg - 1, (sigma_majorant(arg),), 0), (0, (Fraction(0),), 0)
    (power, c, h), (d_power, d, _) = _majorants(chain[:-1])
    if op == PRODUCT:
        power, s = _product_majorant(arg, power)
        if any(d):
            d_power, t = _product_majorant(arg, d_power)
            d = tuple(x * t for x in d)
        return (power, tuple(x * s for x in c), h), (d_power, d, h)
    if op == LAYER:
        return ((max(power - arg, 0), c, h + arg),
                (max(d_power - arg, 0), tuple(x + 1 for x in d), h + arg))
    return ((max(power - 1, 0), _integrated(c, arg, 0), h + arg),
            (max(d_power - 1, 0), _integrated(d, arg, 1), h + arg))


_Cert = namedtuple("_Cert", "power d_power h logs size spread log_c log_inv_first")


@lru_cache(maxsize=1024)
def _certificate(chain: tuple) -> _Cert:
    """The certificate record of a fold or L chain, in doubles from the exact
    `_majorants` (P, c, h) and (P', d, h): logs l_d = log p - log q - h log
    2 pi for c_d = p/q, each within 2^-50 (1 + size) of the exact log, size =
    max_d (|log p| + |log q|) + h log 2 pi (+ log 1/c(r)), and 2^spread >= the
    deficit's scale over the lead (`_fixed_bits`).  A fold's lead is its
    majorant: spread bounds d_d / c_d.  An L chain's (last op a layer) is its
    first term, whose row 1/c(r) = prod_i (i + 1)^alpha_i over its layers
    innermost out (every part 1): spread bounds d / c(r), and the record
    keeps log c and log 1/c(r)."""
    (power, c, h), (d_power, d, _) = _majorants(chain)
    parts = [(log(x.numerator), log(x.denominator)) for x in c]
    logs = tuple(p - q - h * LOG_2PI for p, q in parts)
    size = max(abs(p) + abs(q) for p, q in parts) + h * LOG_2PI
    if chain[-1][0] != LAYER:
        spread = max(_log2_ceil(x / y) for x, y in zip(d, c))
        return _Cert(power, d_power, h, logs, size, spread, None, None)
    inv_first = prod((i + 1) ** alpha for i, (_, alpha) in enumerate(chain[1::2]))
    ((p, q),) = parts
    return _Cert(power, d_power, h, logs, size + log(inv_first), _log2_ceil(d[0] * inv_first),
                 p - q, log(inv_first))


def _log_majorant(cert: _Cert, tau: mpc, einf: Fraction) -> tuple:
    """(log (einf C), an upper bound on it) in doubles, for the majorant C of
    the fold's certificate record `cert` at tau and einf = p/q: m + log sum_d
    e^(a_d - m) over a_d = l_d + d x, x = log(2 pi |tau|), m the largest a_d
    (Blanchard, Higham and Higham, IMA J. Numer. Anal. 41, 2021), plus log p -
    log q.  The bound adds beta = LOG_ULPS (1 + size + D (1 + |x|) + |log p| +
    |log q| + |log C|), D the top degree: to first order the roundings sum to
    less than 2^-53 (8 (1 + size) + 23 D (1 + |x|) + 5 (|log p| + |log q|) +
    2 |log C|), and a term that the double exp drops is below 2^-1074."""
    x = LOG_2PI + _log_abs(tau)
    terms = [ell + d * x for d, ell in enumerate(cert.logs)]
    top = max(terms)
    log_c = top + log(sum(exp(a - top) for a in terms))
    size = cert.size + (len(terms) - 1) * (1 + abs(x))
    if einf != 1:
        p, q = log(einf.numerator), log(einf.denominator)
        log_c, size = log_c + p - q, size + abs(p) + abs(q)
    return log_c, log_c + LOG_ULPS * (1 + size + abs(log_c))


def _log_lead(cert: _Cert, t: int, tau: mpc) -> tuple:
    """(log scale, an upper bound on log lead) in doubles at tau for the L chain
    of the record `cert` times tau^t: scale = |tau|^t (2 pi)^-h, and lead =
    scale c(r) the first term's modulus over |q|^r.  The bound adds beta =
    LOG_ULPS (1 + size + |t| (1 + |log |tau||) + |log lead|) to log lead: its
    roundings sum to less than 2^-53 (1 + 4 size + 6 |t| (1 + |log |tau||) + |log lead|)."""
    log_tau = _log_abs(tau) if t else 0.0
    log_scale = t * log_tau - cert.h * LOG_2PI
    log_lead = log_scale - cert.log_inv_first
    size = cert.size + (abs(t) * (1 + abs(log_tau)) + abs(log_lead))
    return log_scale, log_lead + LOG_ULPS * (1 + size)


def _log_abs(z: mpc) -> float:
    """log |z| in doubles, within 2^-53 (5 + 3 |log |z||) of the exact log;
    outside the double range, from the exponent of |z| at 53 bits."""
    x = hypot(*map(to_float, z._mpc_))
    if 0 < x < inf:
        return log(x)
    _, man, exp, bits = mpc_abs(z._mpc_, 53)
    return log(ldexp(man, -bits)) + (exp + bits) * LOG_2


def _log2_ceil(x: Fraction) -> int:
    """An int >= log2 x for x > 0 (at most 2 above it)."""
    return x.numerator.bit_length() - x.denominator.bit_length() + 1


def _fixed_bits(power: int, n: int, spread: int, log_lead: float, eps) -> int:
    """B for fixed-point rows read up to N = n at the working precision, whose
    read moves by at most 2^(spread - B) lead n^{power+1}: (power, c, h) the
    deficit bound, and lead the modulus of the value's first term (an
    L-series) or of its majorant (a fold, whose first term has no known lower
    bound), so that 2^spread bounds the deficit's scale over lead, and
    log_lead an upper bound on log lead.

    B makes that at most eps 2^-24 (certified: lead < 2^mag and eps >= 2^(m-1),
    m of `_eps_logs`), and at most 2^-(prec + GUARD_BITS) lead, below the
    rounding of the read.  The log2 step: mag - 1 is the floor of y = (log_lead
    + 2^-50 |log_lead|) / log 2 in doubles, whose roundings move y by less than
    the 2^-50 |log_lead| added, so y >= log2 lead, and mag = mp.mag(lead) unless
    an integer lies between them.  n^{power+1} < 2^{(power+1) b} for b the bit
    length of n, taken at least _MIN_N_BITS.  B is that rounded up to the
    working precision plus a multiple of _BITS_STEP, so chains whose needs lie
    in one step share it."""
    mag = floor((log_lead + 2**-50 * abs(log_lead)) / LOG_2) + 1
    spread += (power + 1) * max(n.bit_length(), _MIN_N_BITS)
    need = spread + max(mp.prec + GUARD_BITS, mag + 25 - _eps_logs(eps)[1]) - mp.prec
    return mp.prec + -(-need // _BITS_STEP) * _BITS_STEP


@lru_cache(maxsize=256)
def _two_pi_power(h: int, prec: int) -> tuple:
    """(m, x) with (2 pi)^{-h} = m 2^x rounded to prec + GUARD_BITS bits."""
    _, m, x, _ = mpf_pow_int(mpf_pi(prec + 2 * GUARD_BITS), -h, prec + GUARD_BITS, "n")
    return m, x - h  # pi^{-h} 2^{-h}


def _scaled(z: tuple, h: int, bits: int, prec: int, rnd: str) -> tuple:
    """The block z times (2 pi i)^{-h} 2^{-bits} as raw mpc parts, each rounded
    once: i^{-h} exactly, (2 pi)^{-h} from `_two_pi_power`."""
    a, b, e = z
    for _ in range(h % 4):
        a, b = b, -a  # times i^{-1}
    m, x = _two_pi_power(h, prec)
    return _round((a * m, b * m, e + x - bits), prec, rnd)


def _w(tau: tuple, prec: int) -> tuple:
    """w = 2 pi i tau for the raw mpc tau as an exact block: tau's block times
    2 pi at prec + GUARD_BITS bits."""
    a, b, e = _block(tau)
    _, m, x, _ = mpf_pi(prec + GUARD_BITS)
    return -b * m, a * m, e + x + 1


def _block(z: tuple) -> tuple:
    """The raw mpc z as a complex block float (a, b, e), z = (a + ib) 2^e exactly."""
    (xs, xm, xe, _), (ys, ym, ye, _) = z
    if not ym:
        return (-xm if xs else xm), 0, xe
    if not xm:
        return 0, (-ym if ys else ym), ye
    e = min(xe, ye)
    return (-xm if xs else xm) << (xe - e), (-ym if ys else ym) << (ye - e), e


def _read_dot(cols, qs: list, w: tuple, prec: int) -> tuple:
    """sum_d w^d sum_j z_{d,j} q_j as one exact block, for the degree columns
    `cols` of blocks z_{d,j} and the blocks qs: a `_dot` per degree over the
    frequencies, then one over the degrees against the power chain of the
    block w (`_powers`); a single column (an L-series) needs no w."""
    sums = [_dot(col, qs) for col in cols]
    return _dot(sums, _powers(w, prec)) if len(sums) > 1 else sums[0]


def _dot(zs, ws) -> tuple:
    """The exact sum_j z_j w_j of complex block floats (a, b, e), value
    (a + ib) 2^e, as one block: every product exact, the sum kept on the least
    exponent so far; (0, 0, 0) for no terms.  A real z (b = 0, as every row
    of the table) costs two products."""
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
    """z^0, z^1, ... of the block z = (a, b, e) as blocks: z^{j+1} is z^j times
    z exactly, its mantissas then cut back to prec + GUARD_BITS bits (the
    wider of a and b), round half up.

    Each cut moves each part by at most 2^-(prec + GUARD_BITS) |z^{j+1}|, so
    z^j is within j 2^-(prec + GUARD_BITS - 1/2) of the exact power of z,
    relatively, to first order, and z^j never depends on how far the chain is
    taken."""
    a, b, e = z
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
    return _powers(_block(mpc_expjpi(mpc_mul_int(t, 2, prec, rnd), prec, rnd)), prec)


def _quo(z: tuple, d: int, keep: int) -> tuple:
    """The block z divided by the int d > 0, floored to keep bits at least."""
    a, b, e = z
    s = max(keep + d.bit_length() - max(a.bit_length(), b.bit_length()), 0)
    return (a << s) // d, (b << s) // d, e - s


class _Tails:
    """J'_{n,e}(tau) = (2 pi i)^{e+1} int_tau^{i oo} e^{2 pi i n s} s^e ds at one
    tau and working precision, as blocks rows[n][e] for 1 <= n < len(rows),
    grown in place; see module docstring."""

    __slots__ = ("q_chain", "w_chain", "q_pows", "w_pows", "rows", "ks")

    def __init__(self, tau: tuple, prec: int):
        self.q_chain = _q_powers(tau, prec + GUARD_BITS, mp._prec_rounding[1])
        self.w_chain = _powers(_w(tau, prec), prec)
        self.q_pows, self.w_pows = [next(self.q_chain)], [next(self.w_chain)]
        self.rows, self.ks = [None], [None]

    def grow(self, n: int, e: int) -> None:
        """Rows 1..n, each with J'_{m,0..e} at least."""
        keep = mp.prec + GUARD_BITS
        q_pows, w_pows, rows, ks = self.q_pows, self.w_pows, self.rows, self.ks
        while len(w_pows) <= e:
            w_pows.append(next(self.w_chain))
        while len(rows) <= n:
            q_pows.append(next(self.q_chain))
            rows.append([])
            ks.append(None)
        for m in range(1, n + 1):
            row, k = rows[m], ks[m]
            for j in range(len(row), e + 1):
                qw = _dot((q_pows[m],), (w_pows[j],))
                k = _dot(((-m**j, 0, 0), (-j, 0, 0)), (qw, k)) if j else (-qw[0], -qw[1], qw[2])
                row.append(_quo(k, m ** (j + 1), keep))
            ks[m] = k


@lru_cache(maxsize=8)
def _tails(tau: tuple, prec: int) -> _Tails:
    """The J' table at tau (raw parts) and working precision prec, shared by
    every tail read there and grown in place."""
    return _Tails(tau, prec)


def elem_exp_tail(n: int, alpha: int, a) -> mpc:
    """int_a^{i oo} e^{2 pi i n t} t^{alpha-1} dt for n, alpha >= 1 and Im a > 0:
    (2 pi i)^{-alpha} J'_{n,alpha-1}(a), one entry of the J' table at a and the
    working precision (`_tails`), scaled and rounded once (`_scaled`).

    Equals -e^{2 pi i n a} sum_{j=0}^{alpha-1} (-1)^j [(alpha-1)!/(alpha-1-j)!]
    a^{alpha-1-j} / (2 pi i n)^{j+1}.
    """
    if n < 1 or alpha < 1:
        raise ValueError("n and alpha must be >= 1")
    a = mpc(a)
    if not a.imag > 0:
        raise ValueError("Im a must be positive")
    prec, rnd = mp._prec_rounding
    table = _tails(a._mpc_, prec)
    table.grow(n, alpha - 1)
    return mp.make_mpc(_scaled(table.rows[n][alpha - 1], alpha, 0, prec, rnd))
