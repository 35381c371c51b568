"""Circle measures: atoms plus piecewise-constant densities on [0, 1).

Constructions (smooth martingale-driven measures, Salem-type Cantor
measures), moduli of continuity/smoothness, closed-form Fourier
coefficients, and Beurling-Carleson entropy of candidate supports.

Construction takes arrays: atoms as (k, 2) rows (x, mass), pieces as (k, 3)
rows (a, b, density), or sequences of such tuples, and sorts, merges and
splits them with array operations; a support's arcs and gaps are (k, 2)
arrays too.  The representation is exact: pieces keep their real endpoints
(Salem's d-adic geometry is never snapped to a dyadic grid).  Every mass
query reads one periodic CDF table built at construction: the cumulative
mass at the interleaved piece edges, linear in between, plus the atoms'
cumulative masses.  An interval mass is a difference of two CDF values, and
both moduli scan finite differences of that one table with one routine: the
modulus of continuity first differences (window masses), the modulus of
smoothness second differences, each distinct half-width of its grid once.

Fourier coefficients come from one blocked kernel (``fourier_many``):
writing n = qB + j turns the sum over atoms and pieces into a product of a
row (q) and a column (j) factor matrix, with every phase reduced modulo 1
exactly.  It takes a range of n, fills the rows that cover it in place,
and returns the slice of them that holds it.  Each measure also owns one
lazily grown cache of hat mu(1..N) (``coefficients``), which every reader
of the coefficients shares; a request beyond it fills the missing n into
the cache by one of three strategies fixed at construction: a measure
without atoms whose pieces are exactly 2^N uniform leaves takes one FFT of
the leaf densities, and copies its table cyclically into the cache from
the start of the missing n mod 2^N; a Salem measure, whose parents of a
generation all split alike, takes its Riesz product at O(J) per n, within
1e-15 of that product over the same float steps (``fourier_many`` on its
stored pieces differs by their rounding, 5e-13 for n <= 4096 at depth 11);
any other measure sends the missing n to the blocked kernel in ranges of a
fixed size, and copies each result in.
The ring kernel of ``models`` folds the coefficients of the pieces only:
a measure with atoms keeps its pieces as a second measure, built once
(``_piece_measure``), whose folds that kernel reads (``ring_folds``).  The
folds follow the same strategy: 2^N uniform leaves fold their table, for
n hat mu(n) is p-periodic, against the reciprocals 1/n, which they form
ring by ring, and fill no cache; any other measure folds its cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_DEPTH
from .profiles import SmoothnessProfile

__all__ = [
    "CircleMeasure", "IntervalSet", "SalemSpec",
    "lebesgue", "atomic", "kahane_smooth", "salem_measure",
    "choose_salem_parameters", "modulus_continuity", "modulus_smoothness",
    "smoothness_constant", "bc_entropy",
]

_BLOCK = 64               # n = qB + j: columns per row of the Fourier kernel
_TERM_CHUNK = 1 << 14     # atoms or pieces per product of the Fourier kernel
_WORKSPACE = 1 << 20      # elements per row chunk of the Fourier kernel
_FILL = 1 << 20           # entries per block of a leaf fill (16 MiB)
_FOLD_ROWS = 16           # rows of 1/n per block of a leaf fold (8 MiB at 2^16)
_RANGE = 1 << 16          # coefficients per block of a non-leaf fill (1 MiB)
_BUDGET = 1 << 26         # coefficients the cache may hold (1 GiB)


def _check_budget(count: int) -> None:
    """ValueError when a request for count coefficients passes _BUDGET."""
    if count > _BUDGET:
        raise ValueError(f"{count} Fourier coefficients exceed the cache "
                         f"budget of {_BUDGET} ({16 * _BUDGET >> 30} GiB)")


def _grown(buf: np.ndarray, filled: int, count: int) -> np.ndarray:
    """buf when it holds count entries, else a new buffer of 3/2 of its
    capacity (or count, if larger; at most _BUDGET) holding its first
    ``filled`` entries.  np.empty: capacity that is never written stays
    unmapped."""
    if count <= buf.size:
        return buf
    out = np.empty(min(max(count, 3 * buf.size // 2), _BUDGET), dtype=buf.dtype)
    out[:filled] = buf[:filled]
    return out


def _cyclic(table: np.ndarray, start: int, count: int) -> np.ndarray:
    """table[(start + q) mod p], q < count, p = table.size, from slices: a
    view while it does not wrap, else one copy (count > p repeats the
    rotated table)."""
    p = table.size
    s = start % p
    if s + count <= p:
        return table[s:s + count]
    turn = np.concatenate([table[s:], table[:min(s + count - p, s)]])
    return turn if count <= p else np.resize(turn, count)


def _split(x):
    """x = hi + lo, each part with at most 26 significant bits (Veltkamp),
    so its product with an integer of at most 26 significant bits is exact."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _midpoint_length(a, b):
    """Midpoints (a + b)/2 and lengths b - a, each as parts whose sum is
    exact: the two _split halves of the float result plus its rounding
    error."""
    s, e = _two_sum(a, b)
    ln, le = _two_sum(b, -a)
    return (*_split(0.5 * s), 0.5 * e), (*_split(ln), le)


def _phase(k, parts, period=1.0):
    """k x modulo period, in [-period/2, period/2], as the outer product of
    integers k and points x = sum(parts).  Each part's products are reduced
    on their own, exactly for _split parts and k of at most 26 significant
    bits (j < B, and qB for |q| < 2^26, that is |n| < 2^32), so the result
    is within one rounding of the true phase."""
    total = 0.0
    for p in parts:
        y = np.multiply.outer(k, p)
        total = total + (y - period * np.round(y / period))
    return total - period * np.round(total / period)


def _cis(t):
    """e^{-2 pi i t}."""
    return np.exp(-2j * np.pi * t)


def _sin_cos_pi(t):
    return np.sin(np.pi * t), np.cos(np.pi * t)


def _turn(x):
    """x modulo 1 in [0, 1): x % 1.0 rounds a negative x within 2^-54 of
    0 up to 1.0, which is the turn 0."""
    x = x % 1.0
    return np.where(x == 1.0, 0.0, x)


def _unique(x) -> np.ndarray:
    """np.unique(x) of an array without NaNs, flattened, by numpy's own
    sort and mask: a plain np.unique asks np.ma whether x is masked, and
    importing numpy.ma costs 13 ms and about 0.8 MiB."""
    x = np.sort(x, axis=None)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _rows(values, width: int, name: str) -> np.ndarray:
    """Width-tuples or a (k, width) array as a (k, width) float array;
    ValueError on any other shape or on a non-finite entry."""
    rows = np.asarray(values, dtype=float)
    if rows.shape == (0,):
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name}s must be {width}-tuples or a (k, {width}) "
                         f"array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError(f"non-finite {name} value")
    return rows


class CircleMeasure:
    """Positive atoms plus disjoint constant-density pieces on the circle
    [0, 1)."""

    def __init__(self, atoms=(), pieces=()):
        atoms, pieces = _rows(atoms, 2, "atom"), _rows(pieces, 3, "piece")
        # sorted positions; duplicates merge, their masses summed left to
        # right in input order
        self.atom_x, group = np.unique(_turn(atoms[:, 0]), return_inverse=True)
        self.atom_m = np.zeros(self.atom_x.size)
        np.add.at(self.atom_m, group, atoms[:, 1])

        a, b, d = pieces.T
        bad = ~(b > a)
        if bad.any():
            raise ValueError(f"piece [{a[bad][0]}, {b[bad][0]}) is empty or reversed")
        bad = b - a > 1.0 + 1e-15
        if bad.any():
            raise ValueError(f"piece [{a[bad][0]}, {b[bad][0]}) longer than the circle")
        length = np.minimum(b - a, 1.0)  # before a is reduced modulo 1
        a = _turn(a)
        # a wrap-around piece splits at the seam: its copy right after it
        # takes the part [0, a + length - 1)
        k = np.repeat(np.arange(a.size), 1 + (a + length > 1.0 + 1e-15))
        pa, pb, pd = a[k], np.minimum(a + length, 1.0)[k], d[k]
        tail = np.flatnonzero(k[1:] == k[:-1]) + 1
        pa[tail] = 0.0
        pb[tail] = (a + length - 1.0)[k[tail]]
        order = np.argsort(pa, kind="stable")
        self.piece_a, self.piece_b, self.piece_d = pa[order], pb[order], pd[order]
        if (self.piece_a[1:] < self.piece_b[:-1] - 1e-15).any():
            raise ValueError("pieces overlap")
        if (self.atom_m < 0).any():
            raise ValueError("negative atom mass in positive measure")
        if (self.piece_d < 0).any():
            raise ValueError("negative density in positive measure")
        piece_masses = self.piece_d * (self.piece_b - self.piece_a)
        with np.errstate(over="ignore"):  # an overflow is refused below
            self.total_mass = float(self.atom_m.sum() + piece_masses.sum())
        if not math.isfinite(self.total_mass):
            raise ValueError(f"total mass {self.total_mass} is not finite")
        # the CDF table: the density part is linear between the interleaved
        # piece edges (kept nondecreasing where pieces touch within 1e-15),
        # and the atoms are a step function of their cumulative masses
        cum = np.concatenate([[0.0], np.cumsum(piece_masses)])
        self._knots = np.maximum.accumulate(np.concatenate([
            [0.0], np.column_stack([self.piece_a, self.piece_b]).ravel(), [1.0]]))
        self._knot_cdf = np.concatenate([
            [0.0], np.column_stack([cum[:-1], cum[1:]]).ravel(), [cum[-1]]])
        self._atom_cum = np.concatenate([[0.0], np.cumsum(self.atom_m)])
        self._period = cum[-1] + self._atom_cum[-1]
        # the coefficient strategy: one FFT when there are no atoms and the
        # pieces are exactly p = 2^N uniform leaves, else the blocked kernel
        p = self.piece_a.size
        edges = np.arange(p + 1) / max(p, 1)
        self._leaves = bool(
            self.atom_x.size == 0 and p and not p & (p - 1)
            and np.array_equal(self.piece_a, edges[:-1])
            and np.array_equal(self.piece_b, edges[1:]))
        self._leaf_table = None
        self._riesz = None  # (d, steps s_j, leaf length L): salem_measure
        self._coef = np.empty(0, dtype=complex)
        self._ncoef = 0
        self._pieces = None

    # -- mass queries ------------------------------------------------------

    def cdf(self, x) -> np.ndarray:
        """mu([0, x)) for real x, extended to all of R by
        F(x + 1) = F(x) + mu(T), so F(b) - F(a) = mu([a, b)) for a <= b."""
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        f = x - k
        mass = np.interp(f, self._knots, self._knot_cdf)
        if self.atom_x.size:
            mass = mass + self._atom_cum[np.searchsorted(self.atom_x, f,
                                                         side="left")]
        return mass + k * self._period

    def interval_mass_many(self, a, b):
        """mu([a, b)) for arrays of endpoints; intervals wrap modulo 1."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        length = b - a
        if (length < -1e-15).any() or (length > 1.0 + 1e-15).any():
            raise ValueError("interval length must lie in [0, 1]")
        a = a % 1.0
        m = self.cdf(a + np.minimum(length, 1.0)) - self.cdf(a)
        return np.where(length >= 1.0, self.total_mass, m)

    def closed_arc_mass(self, a, b):
        """mu([a, b]) for a <= b (scalars or arrays): both boundary atoms
        counted, and an arc ending at 1 closes on the atom at 0."""
        b = np.asarray(b, dtype=float)
        fb = b - np.floor(b)
        on_b = (self._atom_cum[np.searchsorted(self.atom_x, fb, side="right")]
                - self._atom_cum[np.searchsorted(self.atom_x, fb, side="left")])
        return self.cdf(b) - self.cdf(a) + on_b

    @property
    def breakpoints(self) -> np.ndarray:
        """Positions where the window-mass derivative can change."""
        return _unique(np.concatenate([
            self.atom_x, self.piece_a, self.piece_b % 1.0, [0.0]]))

    def _piece_measure(self) -> "CircleMeasure":
        """The pieces alone, as a measure of their own built once: the ring
        kernel sums the atoms directly and folds the coefficients of this
        measure, so its cache never holds the atoms' terms, which do not
        decay.  A measure without atoms is its own pieces."""
        if not self.atom_x.size:
            return self
        if self._pieces is None:
            self._pieces = CircleMeasure(pieces=np.column_stack(
                [self.piece_a, self.piece_b, self.piece_d]))
        return self._pieces

    # -- Fourier ----------------------------------------------------------

    def fourier_many(self, ns: range) -> np.ndarray:
        """hat mu(n) = int e^{-2 pi i n x} dmu(x) for the n of a range (step
        1), closed form.

        With n = qB + j (B = 64, 0 <= j < B) each sum over atoms and pieces
        is a (rows q) @ (columns j) matrix product (_fourier_rows), with
        phases reduced exactly for |n| < 2^32.  The rows from start // B to
        (stop - 1) // B are filled in place, in chunks, and the result is
        the slice of them that holds the range.  No product has a single
        row: BLAS would take its matrix-vector path, whose rounding differs,
        so a row has the same bits whichever range it was computed for.
        """
        if ns.step != 1:
            raise ValueError("Fourier frequencies must be a range of step 1")
        chunk = max(2, _WORKSPACE // (2 * min(self.piece_a.size, _TERM_CHUNK)
                                      + min(self.atom_x.size, _TERM_CHUNK) + _BLOCK))
        q0 = ns.start // _BLOCK
        rows = np.arange(q0, max((ns.stop - 1) // _BLOCK + 1, q0 + 2))
        span = np.empty((rows.size, _BLOCK), dtype=complex)
        s = 0
        while s < rows.size:
            e = s + chunk + (rows.size - s - chunk == 1)  # no lone last row
            self._fourier_rows(rows[s:e], span[s:e])
            s = e
        out = span.ravel()[ns.start - q0 * _BLOCK:ns.stop - q0 * _BLOCK]
        if ns.start <= 0 < ns.stop:
            out[-ns.start] = self.total_mass
        return out

    def _fourier_rows(self, q, out) -> None:
        """Fill the (len(q), B) array out with hat mu(qB + j), j = 0..B-1,
        except at n = 0, which the caller sets to mu(T).

        An atom is a rank-one term: e^{-2 pi i n x} = e^{-2 pi i qBx}
        e^{-2 pi i jx}.  A piece of density d, midpoint c and length L gives
        d e^{-2 pi i n c} sin(pi n L)/(pi n), free of the cancellation in
        (e^{-2 pi i n a} - e^{-2 pi i n b})/(2 pi i n); with
        sin(pi (qB + j) L) = sin(pi qBL) cos(pi jL) + cos(pi qBL) sin(pi jL)
        it is a rank-two term.  Every phase is reduced exactly (_phase).
        """
        j = np.arange(_BLOCK)
        qb = q * _BLOCK
        out[...] = 0.0
        for s in range(0, self.atom_x.size, _TERM_CHUNK):
            x = _split(self.atom_x[s:s + _TERM_CHUNK])
            out += (_cis(_phase(qb, x)) * self.atom_m[s:s + _TERM_CHUNK]) \
                @ _cis(_phase(j, x)).T
        if self.piece_a.size:
            acc = np.zeros_like(out)
            for s in range(0, self.piece_a.size, _TERM_CHUNK):
                c, length = _midpoint_length(self.piece_a[s:s + _TERM_CHUNK],
                                             self.piece_b[s:s + _TERM_CHUNK])
                eq = _cis(_phase(qb, c)) * self.piece_d[s:s + _TERM_CHUNK]
                sq, cq = _sin_cos_pi(_phase(qb, length, 2.0))
                ej = _cis(_phase(j, c)).T
                sj, cj = _sin_cos_pi(_phase(j, length, 2.0).T)
                acc += np.hstack([eq * sq, eq * cq]) @ np.vstack([ej * cj, ej * sj])
            pi_n = np.pi * (qb[:, None] + j)
            pi_n[pi_n == 0] = 1.0
            acc /= pi_n
            out += acc

    def coefficients(self, count: int) -> np.ndarray:
        """hat mu(1..count) as a read-only view of the measure's one cache.

        The cache grows lazily: a request beyond it fills the missing n by
        the strategy fixed at construction, so no array the size of the
        request is made beside the cache.  A leaf measure writes them in
        place (_fill_leaves); a Salem measure writes its Riesz product in
        blocks of _RANGE = 2^16 (about 5 MiB of temporaries) with no BLAS
        call, within 1e-15 of the exact product over its float steps
        (_fill_product); any other sends them to fourier_many in ranges of
        at most _RANGE coefficients and copies each result into the cache,
        so a fill holds about 2 MiB beside it (a row has the same bits
        whichever range computed it).  The ring kernel reads the cache of
        a non-leaf measure's pieces alone (_piece_measure, ring_folds): an
        atom's coefficients, which do not decay, are filled only when a
        caller asks for hat mu itself, and a leaf measure's ring folds read
        its table and form the reciprocals 1/n instead (_leaf_folds).
        Ring-length arrays that no sweep holds across rings (the spectrum
        and its inverse FFT) are allocated on every ring; they are not
        mapped afresh each time only while a freed block of at least 8 MiB
        keeps glibc's mmap and trim thresholds raised.  On a leaf measure
        the fold's block of 1/n frees one on every ring (_FOLD_ROWS rows of
        M, 8 MiB at M = 2^16), allocated for the ring and freed after it:
        four Besov passes of the Kahane depth 12 brown-shields row in one
        process take 8-9k minor faults in the first and at most 1k in each
        of the others, against 100-190k in every pass (0.5-0.7 s against
        0.35-0.5 s) with blocks of 4 MiB.  A block held across rings (as a
        sweep holds its log |f'|) frees nothing, and the pass refaults the
        same way.
        A full buffer is reallocated at 3/2 of its capacity (or the request,
        if larger), so the copies cost O(1) per coefficient; a ring sweep
        that asks for its largest count first sizes it once.  A count above
        _BUDGET raises ValueError before anything is allocated.
        """
        _check_budget(count)
        if count > self._ncoef:
            self._coef = _grown(self._coef, self._ncoef, count)
            if self._leaves:
                self._fill_leaves(self._ncoef + 1, self._coef[self._ncoef:count])
            elif self._riesz:
                self._fill_product(self._ncoef + 1, self._coef[self._ncoef:count])
            else:
                for n in range(self._ncoef + 1, count + 1, _RANGE):
                    stop = min(n + _RANGE, count + 1)
                    self._coef[n - 1:stop - 1] = self.fourier_many(range(n, stop))
            self._ncoef = count
        view = self._coef[:count]
        view.flags.writeable = False
        return view

    def _table(self) -> np.ndarray:
        """The leaf table T[k] = D[k] (1 - e^{-2 pi i k/p}), k < p, D the FFT
        of the p leaf densities, built once: n hat mu(n) = T[n mod p]/(2 pi i)
        for n >= 1."""
        if self._leaf_table is None:
            k = np.arange(self.piece_d.size)
            self._leaf_table = np.fft.fft(self.piece_d) * (
                1.0 - np.exp(-2j * np.pi * k / k.size))
        return self._leaf_table

    def _fill_leaves(self, start: int, out: np.ndarray) -> None:
        """out[k] = hat mu(n), n = start + k >= 1, for p uniform leaves:
        T[n mod p]/(2 pi i n).  The table (_table) is copied cyclically
        (_cyclic), so every phase is exact, however large n; the copy and
        the division go in blocks of _FILL."""
        table = self._table()
        for s in range(0, out.size, _FILL):
            block = out[s:s + _FILL]
            block[...] = _cyclic(table, start + s, block.size)
            block /= 2j * np.pi * np.arange(start + s, start + s + block.size)

    def _fill_product(self, start: int, out: np.ndarray) -> None:
        """out[k] = hat mu(n), n = start + k >= 1, of a Riesz product
        (salem_measure): prod_j D_d(n s_j) e^{-pi i n L} sin(pi n L)/(pi n L),
        D_d(x) = e^{-pi i (d - 1) x} sin(pi d x)/(d sin(pi x)), 1 at x = 0.
        Each n s_j and n L is reduced exactly (_phase: n <= _BUDGET has at
        most 26 significant bits), the phases are summed modulo 1 and each n
        takes one complex exponential, in blocks of _RANGE."""
        d, steps, length = self._riesz
        for s in range(0, out.size, _RANGE):
            n = np.arange(start + s, start + min(s + _RANGE, out.size), dtype=float)
            t = _phase(n, _split(length), 2.0)
            amp = np.sin(np.pi * t) / (np.pi * length * n)
            turn = 0.5 * t
            for step in steps:
                x = _phase(n, _split(step))
                den = d * np.sin(np.pi * x)
                amp *= np.divide(np.sin(np.pi * (d * x)), den,
                                 out=np.ones_like(den), where=den != 0.0)
                turn += 0.5 * (d - 1) * x
                turn -= np.round(turn)
            out[s:s + n.size] = _cis(turn) * amp

    def ring_folds(self, count: int, m: int, w: np.ndarray) -> np.ndarray:
        """The folds of the ring kernel (models._spectrum): with
        n = jM + q + 1 <= count and row factors w_j, j = 0..count // M, a
        (2, min(count + 1, M)) array whose row 0 holds
        sum_j w_j hat mu(n) and row 1 sum_j w_j n hat mu(n) at bin q, zero
        from bin min(count, M) on.

        The strategy is the coefficients': a leaf measure folds its table
        against the reciprocals 1/n (_leaf_folds) and fills no cache; any
        other measure folds its cached coefficients, viewed as rows of
        length M, by one (2, rows) @ (rows, M) product, with the weights
        w_j and jM w_j, and adds (q + 1) times the first fold to the second.
        """
        if self._leaves:
            return self._leaf_folds(count, m, w)
        c = self.coefficients(count)
        rows, rem = divmod(count, m)
        k = min(count, m)
        weights = np.stack([w, (np.arange(rows + 1) * m) * w])
        folds = weights[:, :rows] @ c[:rows * m].reshape(rows, m)[:, :k + 1]
        folds[:, :rem] += weights[:, rows:] * c[rows * m:]
        folds[1, :k] += np.arange(1, k + 1) * folds[0, :k]
        return folds

    def _leaf_folds(self, count: int, m: int, w: np.ndarray) -> np.ndarray:
        """ring_folds of p uniform leaves, from n hat mu(n) = T[n mod p]/(2 pi i)
        (_table), without the coefficients.

        The rows j whose jM agree modulo p, j = c modulo p/gcd(M, p), form a
        class that shares one table entry per bin, T_c[q] = T[(cM + q + 1)
        mod p] (_cyclic, a slice of the table): the class gives
        T_c/(2 pi i) times sum_j w_j in row 1, and times sum_j w_j/n in
        row 0.  The reciprocals 1/n = 1/(jM + q + 1) are formed _FOLD_ROWS
        rows at a time in one scratch block that is freed with the ring
        (see coefficients); n is an exact float, so each 1/n is correctly
        rounded.  np.einsum contracts them with the real parts of the
        weights, and with their imaginary parts only when the offset is not
        0: it makes no BLAS call, so the fold runs on its own thread (see
        norms.besov_seminorm).  When p divides M there is one class, and T_c
        broadcasts over the bins viewed as M/p rows of p."""
        table = self._table()
        p = table.size
        rows, rem = divmod(count, m)
        k = min(count, m)
        classes = p // math.gcd(m, p)
        parts = np.stack([w.real, w.imag]) if w.imag.any() else w.real[None]
        folds = np.zeros((2, min(count + 1, m)), dtype=complex)
        period = p if k % p == 0 else k
        value, deriv = (row.reshape(-1, period) for row in folds[:, :k])
        bins = np.arange(1.0, k + 1.0)
        scratch = np.empty((min(_FOLD_ROWS, rows + 1), k))
        for c in range(min(classes, rows + 1)):
            acc = np.zeros((len(parts), k))
            for s in range(c, rows, classes * _FOLD_ROWS):
                js = np.arange(s, min(rows, s + classes * _FOLD_ROWS), classes)
                block = np.add.outer(js * float(m), bins, out=scratch[:js.size])
                np.divide(1.0, block, out=block)
                acc += np.einsum("ij,jk->ik", parts[:, js], block)
            t = _cyclic(table, c * m + 1, period) / (2j * np.pi)
            deriv += t * w[c:rows:classes].sum()
            if c == rows % classes:                   # the last row, j = rows
                last = np.add(bins[:rem], rows * m, out=scratch[0, :rem])
                np.divide(1.0, last, out=last)
                acc[:, :rem] += parts[:, rows, None] * last
                folds[1, :rem] += np.resize(t, rem) * w[rows]
            fold = acc[0] if len(parts) == 1 else acc[0] + 1j * acc[1]
            value += t * fold.reshape(-1, period)
        return folds

    def __repr__(self):
        return (f"CircleMeasure(atoms={len(self.atom_x)}, "
                f"pieces={len(self.piece_a)}, mass={self.total_mass:.6g})")


# -- constructors ----------------------------------------------------------


def lebesgue(total_mass: float = 1.0) -> CircleMeasure:
    """Absolutely continuous baseline: constant density on the circle."""
    if total_mass <= 0:
        raise ValueError("total mass must be positive")
    return CircleMeasure(pieces=[(0.0, 1.0, total_mass)])


def atomic(points) -> CircleMeasure:
    """Purely atomic measure; duplicate positions merge with summed mass."""
    pts = _rows(points, 2, "atom")
    if (pts[:, 1] <= 0).any():
        raise ValueError("atom masses must be positive")
    return CircleMeasure(atoms=pts)


def kahane_smooth(phi: SmoothnessProfile, depth: int, seed: int = 0) -> CircleMeasure:
    """Random-sign martingale measure with increments phi(2^-n)/2 at each level.

    Starting from density 1, each node of value m splits into
    m +/- min(phi(2^-n)/2, m) with the sign drawn independently per node
    from the seeded generator; the clip at m keeps densities nonnegative
    without renormalizing, so the mean-value property stays exact.  The
    result is the depth-N piecewise-constant measure of the leaf densities.
    """
    if depth < 0 or depth > MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}")
    rng = np.random.default_rng(seed)
    level = np.ones(1)
    for n in range(1, depth + 1):
        half = float(phi.phi(2.0**-n)) / 2.0
        delta = np.minimum(half, level)
        signs = rng.integers(0, 2, size=level.size) * 2 - 1
        child = np.empty(2 * level.size)
        child[0::2] = level + signs * delta
        child[1::2] = level - signs * delta
        level = child
    edges = np.arange(level.size + 1) / level.size
    return CircleMeasure(pieces=np.column_stack([edges[:-1], edges[1:], level]))


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Disjoint closed arcs (support candidate) plus complementary open gaps.

    ``gap_generation[k]`` records at which construction step gap k appeared,
    when the set comes from a Cantor-type recursion; otherwise it is 0.
    """

    arcs: np.ndarray     # (k, 2) rows (a, b): closed, sorted, disjoint
    gaps: np.ndarray     # (k, 2) rows (a, b): open, the complement
    gap_generation: np.ndarray

    @staticmethod
    def from_arcs(arcs) -> "IntervalSet":
        arcs = _rows(arcs, 2, "arc")
        arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
        if (arcs[1:, 0] < arcs[:-1, 1]).any():
            raise ValueError("arcs overlap")
        # each arc's end to the next arc's start, the last wrapping around
        gaps = (np.column_stack([arcs[:, 1], np.append(arcs[1:, 0], arcs[:1, 0] + 1.0)])
                if arcs.size else np.array([[0.0, 1.0]]))
        gaps = gaps[gaps[:, 1] > gaps[:, 0]]
        return IntervalSet(arcs=arcs, gaps=gaps, gap_generation=np.zeros(len(gaps), int))


@dataclass(frozen=True)
class SalemSpec:
    """Parameters of a Salem-style Cantor construction.

    Branching d >= 2, ratio 0 < xi < 1/d, spacing nu = (xi + 1/d)/2; at step j
    each interval spawns d children of length xi_j * |I| whose consecutive
    left endpoints sit nu * |I| apart, with xi_j drawn uniformly from
    [(1 - 1/(j+1)^2) xi, xi].  Every parent of a generation splits alike, so
    the measure is a Riesz product, and it shows no power Fourier decay: at
    J = 12 the log-log slopes of its envelope over octaves 2-12 read -0.113
    to -0.032 on 24 seeds, against the target alpha/2 = 0.4.
    """

    alpha: float
    epsilon: float
    d: int
    xi: float
    generations: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.d < 2:
            raise ValueError("branching d must be at least 2")
        if not 0.0 < self.xi < 1.0 / self.d:
            raise ValueError("need 0 < xi < 1/d")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        # generations > MAX_DEPTH alone exceeds the bound (d >= 2); testing
        # it first keeps the power small
        if self.generations > MAX_DEPTH or self.d ** self.generations > 2 ** MAX_DEPTH:
            raise ValueError(f"d^generations = {self.d}^{self.generations} leaves "
                             f"exceed 2^{MAX_DEPTH}")

    @property
    def nu(self) -> float:
        return (self.xi + 1.0 / self.d) / 2.0

    def xi_sequence(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        js = np.arange(1, self.generations + 1)
        lo = (1.0 - 1.0 / (js + 1) ** 2) * self.xi
        return lo + rng.random(self.generations) * (self.xi - lo)


def choose_salem_parameters(alpha: float, epsilon: float) -> tuple[int, float]:
    """Heuristic (d, xi) = (2, 2^(-1/alpha)); the exact dependence on
    (alpha, epsilon) is not pinned down by the construction, only that
    xi = d^(-1/alpha) matches Hausdorff dimension alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = 2
    xi = d ** (-1.0 / alpha)
    if 1.0 / d - xi < 1e-2:
        import warnings

        warnings.warn(f"xi={xi:.4f} is close to the 1/d={1 / d} boundary; "
                      "gap lengths degenerate", stacklevel=2)
    return d, xi


def salem_measure(spec: SalemSpec) -> tuple[CircleMeasure, IntervalSet]:
    """Generation-J Cantor construction with the uniform mass d^-J per leaf.

    Returns the piecewise-constant measure and the IntervalSet holding the
    closed leaves of E_J together with every discarded gap, labeled by the
    generation at which it appeared.
    """
    d, J, nu = spec.d, spec.generations, spec.nu
    if (d - 1) * nu + spec.xi >= 1.0:
        raise ValueError("children would overflow the parent interval")
    # one description builds both the pieces and the product: the lengths
    # L_j and the steps s_j = nu L_{j-1} between siblings
    lengths = np.cumprod(np.concatenate([[1.0], spec.xi_sequence()]))
    steps = nu * lengths[:-1]
    starts = np.array([0.0])
    gaps, gap_gen = [], []
    for j in range(1, J + 1):
        kids = starts[:, None] + np.arange(d) * steps[j - 1]
        # each parent's gaps: between consecutive children, then trailing
        ends = np.column_stack([kids[:, 1:], starts + lengths[j - 1]])
        gaps.append(np.stack([kids + lengths[j], ends], axis=-1).reshape(-1, 2))
        gap_gen.append(np.full(kids.size, j))
        starts = kids.ravel()  # sorted: each parent's children in order
    length = lengths[J]
    density = float(d) ** -J / length
    arcs = np.column_stack([starts, starts + length])
    measure = CircleMeasure(pieces=np.column_stack([arcs, np.full(starts.size, density)]))
    measure._riesz = (d, steps, length)
    gaps = np.concatenate(gaps)
    order = np.argsort(gaps[:, 0], kind="stable")
    support = IntervalSet(arcs=arcs, gaps=gaps[order],
                          gap_generation=np.concatenate(gap_gen)[order])
    return measure, support


# -- moduli ----------------------------------------------------------------


def _t_grid(t) -> np.ndarray:
    """t as a 1-D grid in (0, 1]."""
    grid = np.asarray(t, dtype=float)
    if grid.ndim != 1:
        raise ValueError("t must be a 1-D grid")
    bad = ~((grid > 0.0) & (grid <= 1.0))
    if bad.any():
        raise ValueError(f"t must be in (0, 1], got {float(grid[bad][0])}")
    return grid


def modulus_continuity(mu: CircleMeasure, t) -> np.ndarray:
    """delta_mu(t) = sup over intervals |I| <= t of mu(I), one per t of the
    1-D grid t.  For a positive measure it is attained at |I| = t: the
    largest window mass F(x + t) - F(x), a first difference scanned by
    _difference_sup, and mu(T) at t = 1."""
    grid = _t_grid(t)
    b = mu.breakpoints
    return _atom_floor(mu, np.array([mu.total_mass if s == 1.0 else
                                     _difference_sup(mu, b, s, (1.0, -1.0))
                                     for s in grid]))


def _atom_floor(mu: CircleMeasure, moduli: np.ndarray) -> np.ndarray:
    """Both moduli of a positive measure are at least its largest atom mass
    at every t > 0, which the scan misses where t is below the nudge or the
    float spacing at the atom (the window around it rounds to empty)."""
    return np.maximum(moduli, mu.atom_m.max()) if mu.atom_x.size else moduli


def _smoothness_h_candidates(b: np.ndarray, ts: np.ndarray) -> list:
    """For each t of the grid, the sorted half-widths 0 < h <= t to scan:
    t itself, breakpoint gaps, dyadic lengths, and (for small breakpoint
    sets) all pairwise spans and their halves."""
    gaps = np.diff(np.concatenate([b, [b[0] + 1.0]]))
    cands = [gaps, 2.0 ** -np.arange(0, 25)]
    if b.size <= 64:  # small case: all pairwise spans and their halves
        diffs = (b[None, :] - b[:, None]).ravel() % 1.0
        diffs = diffs[diffs > 0]
        cands.extend([diffs, diffs / 2.0])
    h = _unique(np.concatenate(cands))
    return [_unique(np.append(h[h <= t], t)) for t in ts]


def _difference_sup(mu: CircleMeasure, b: np.ndarray, h: float, weights) -> float:
    """sup_x |sum_k w_k F(x + (1 - k) h)|, F = mu.cdf, b the breakpoints:
    weights (1, -1) give window masses, (1, -2, 1) second differences.  The
    sum is piecewise linear in x between the translates x = b - (1 - k') h
    (also nudged by +/- 1e-14 where mu has atoms, at whose translates it
    jumps), so the scan over those is exact.  The nudge is well above the
    rounding of b + jh (a few 1e-16) and small enough that the pieces' mass
    it moves past, a density times 1e-14, stays far below 1e-12.  There the
    sum is sum_k w_k F(b + (k' - k) h): F is read once per breakpoint and
    shift."""
    d, sup = len(weights), 0.0
    for e in (0.0, 1e-14, -1e-14) if mu.atom_x.size else (0.0,):
        f = [mu.cdf(b + (e + j * h)) for j in range(1 - d, d)]
        for kp in range(d):
            total = sum(w * f[kp - k + d - 1] for k, w in enumerate(weights))
            sup = max(sup, float(np.abs(total).max()))
    return sup


def modulus_smoothness(mu: CircleMeasure, t) -> np.ndarray:
    """omega_mu(t): sup over adjacent equal-length windows |I| = |J| <= t
    of |mu(I) - mu(J)| = |F(x + h) - 2 F(x) + F(x - h)|, F = mu.cdf, one
    per t of the 1-D grid t.

    omega(t) is the max of g(h) = sup_x |F(x + h) - 2 F(x) + F(x - h)|
    over the window lengths where the two-parameter supremum can live for
    the stored measure class (_smoothness_h_candidates).  The candidate sets
    of a grid overlap almost completely, so g is evaluated once per distinct
    h of their union, and each t takes the max over its own candidates.
    g(1) = 0, as F(x + 1) = F(x) + mu(T): scanned, it reads an atom's mass
    where a breakpoint lies within rounding of the atom's translate.
    """
    grid = _t_grid(t)
    b = mu.breakpoints
    cands = _smoothness_h_candidates(b, grid)
    hs = _unique(np.concatenate(cands)) if cands else np.empty(0)
    g = np.array([0.0 if h == 1.0 else _difference_sup(mu, b, h, (1.0, -2.0, 1.0))
                  for h in hs])
    return _atom_floor(mu, np.array([g[np.searchsorted(hs, c)].max()
                                     for c in cands]))


def smoothness_constant(mu: CircleMeasure, phi: SmoothnessProfile, t_grid) -> float:
    """Least admissible C on the grid for omega_mu(t) <= C t phi(t)."""
    ts = _t_grid(t_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float((modulus_smoothness(mu, ts) / (ts * phi.phi(ts))).max())


# -- Beurling-Carleson entropy --------------------------------------------


@dataclass
class BCEntropyReport:
    total: float
    generation_subtotals: list   # (generation, sum |I| log(1/|I|))
    verdict: str                 # convergent | divergent | trivial

    @property
    def convergent(self) -> bool:
        return self.verdict in ("convergent", "trivial")


def bc_entropy(E: IntervalSet) -> BCEntropyReport:
    """sum |I_n| log(1/|I_n|) over the stored complementary gaps.

    For Cantor-type sets the per-generation subtotals are reported; the
    verdict is convergent when the subtotal sequence decays geometrically
    (its mean rate over the later half of the generations is below 0.98).
    """
    lengths = E.gaps[:, 1] - E.gaps[:, 0]
    keep = lengths > 0
    lengths, gens = lengths[keep], E.gap_generation[keep]
    terms = lengths * np.log(1.0 / lengths)
    total = float(terms.sum())
    subtotals = [(int(g), float(terms[gens == g].sum())) for g in _unique(gens)]
    if len(subtotals) <= 1:
        verdict = "trivial"
    else:
        # decide from the tail rate: early generations can tick upward while
        # the log factor still grows, so use the geometric mean over the
        # second half of the generations
        vals = np.array([s for _, s in subtotals])
        j0 = max(1, len(vals) // 2)
        if vals[j0 - 1] <= 0:
            verdict = "convergent"
        else:
            rate = (vals[-1] / vals[j0 - 1]) ** (1.0 / (len(vals) - j0))
            verdict = "convergent" if rate < 0.98 else "divergent"
    return BCEntropyReport(total, subtotals, verdict)

