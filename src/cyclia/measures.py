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
the cache by the strategy fixed at construction from the pieces: a measure
without atoms whose pieces are exactly 2^N uniform leaves takes one FFT of
the leaf densities, and copies its table cyclically into the cache from
the start of the missing n mod 2^N; any other measure sends the missing n
to the blocked kernel in ranges of a fixed size, and copies each result in.
The ring kernel of ``models`` folds the coefficients of the pieces only:
a measure with atoms keeps its pieces as a second measure, built once
(``_piece_measure``), whose cache that kernel reads.
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
_FILL = 1 << 20           # coefficients per block of a leaf fill (16 MiB)
_RANGE = 1 << 16          # coefficients per fourier_many call of a fill (1 MiB)
_BUDGET = 1 << 26         # coefficients the cache may hold (1 GiB)


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
        self.atom_x, group = np.unique(atoms[:, 0] % 1.0, return_inverse=True)
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
        a = a % 1.0
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
        self.total_mass = float(self.atom_m.sum() + piece_masses.sum())
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
        return (np.interp(f, self._knots, self._knot_cdf)
                + self._atom_cum[np.searchsorted(self.atom_x, f, side="left")]
                + k * self._period)

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
        return np.unique(np.concatenate([
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
        place (_fill_leaves); any other sends them to fourier_many in ranges
        of at most _RANGE = 2^16 coefficients and copies each result into the
        cache, so a fill holds about 2 MiB beside it (a row has the same bits
        whichever range computed it).  The ring kernel reads the cache of
        the pieces alone (_piece_measure): an atom's coefficients, which do
        not decay, are filled only when a caller asks for hat mu itself.
        The leaf fill keeps blocks of _FILL: its freed 16 MiB temporaries
        raise glibc's mmap threshold, so the ring temporaries that follow
        are not mapped afresh on every ring.
        A full buffer is reallocated at 3/2 of its capacity (or the request,
        if larger), so the copies cost O(1) per coefficient; a ring sweep
        that asks for its largest count first sizes it once.  A count above
        _BUDGET raises ValueError before anything is allocated.
        """
        if count > _BUDGET:
            raise ValueError(f"{count} Fourier coefficients exceed the cache "
                             f"budget of {_BUDGET} ({16 * _BUDGET >> 30} GiB)")
        if count > self._ncoef:
            if count > self._coef.size:
                # np.empty: capacity that is never written stays unmapped
                buf = np.empty(min(max(count, 3 * self._coef.size // 2), _BUDGET),
                               dtype=complex)
                buf[:self._ncoef] = self._coef[:self._ncoef]
                self._coef = buf
            if self._leaves:
                self._fill_leaves(self._ncoef + 1, self._coef[self._ncoef:count])
            else:
                for n in range(self._ncoef + 1, count + 1, _RANGE):
                    stop = min(n + _RANGE, count + 1)
                    self._coef[n - 1:stop - 1] = self.fourier_many(range(n, stop))
            self._ncoef = count
        view = self._coef[:count]
        view.flags.writeable = False
        return view

    def _fill_leaves(self, start: int, out: np.ndarray) -> None:
        """out[k] = hat mu(n), n = start + k >= 1, for p uniform leaves of
        densities d_k: (1 - e^{-2 pi i n/p}) D[n mod p]/(2 pi i n), D the FFT
        of d.  The table T[k] = D[k] (1 - e^{-2 pi i k/p}), k < p, is built
        once and copied cyclically from start mod p, so every phase is
        exact, however large n; the division goes in blocks of _FILL."""
        if self._leaf_table is None:
            k = np.arange(self.piece_d.size)
            self._leaf_table = np.fft.fft(self.piece_d) * (
                1.0 - np.exp(-2j * np.pi * k / k.size))
        table = self._leaf_table
        p, k0 = table.size, start % table.size
        head = min(out.size, p - k0)
        out[:head] = table[k0:k0 + head]
        rest = min(out.size, p) - head
        out[head:head + rest] = table[:rest]
        head += rest
        while head < out.size:  # out[:head] has period p: double it
            more = min(head, out.size - head)
            out[head:head + more] = out[:more]
            head += more
        for s in range(0, out.size, _FILL):
            block = out[s:s + _FILL]
            block /= 2j * np.pi * np.arange(start + s, start + s + block.size)

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
    """Parameters of the Cantor-type construction with polynomial Fourier decay.

    Branching d >= 2, ratio 0 < xi < 1/d, spacing nu = (xi + 1/d)/2; at step j
    each interval spawns d children of length xi_j * |I| whose consecutive
    left endpoints sit nu * |I| apart, with xi_j drawn uniformly from
    [(1 - 1/(j+1)^2) xi, xi].
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

    def gamma_sequence(self) -> np.ndarray:
        """Gamma_j = prod_{i<=j} (nu - xi_i), the discarded-length bookkeeping."""
        return np.cumprod(self.nu - self.xi_sequence())

    def gamma_bound(self, j: int) -> float:
        """((1/d - xi)/2)^j * exp((pi^2/6 - 1) * 2 xi / (1/d - xi))."""
        base = (1.0 / self.d - self.xi) / 2.0
        return base**j * math.exp((math.pi**2 / 6 - 1.0)
                                  * 2.0 * self.xi / (1.0 / self.d - self.xi))


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
    xis = spec.xi_sequence()
    starts = np.array([0.0])
    length = 1.0
    gaps, gap_gen = [], []
    for j in range(1, J + 1):
        child_len = xis[j - 1] * length
        kids = starts[:, None] + np.arange(d) * (nu * length)
        # each parent's gaps: between consecutive children, then trailing
        ends = np.column_stack([kids[:, 1:], starts + length])
        gaps.append(np.stack([kids + child_len, ends], axis=-1).reshape(-1, 2))
        gap_gen.append(np.full(kids.size, j))
        starts = kids.ravel()  # sorted: each parent's children in order
        length = child_len
    mass = float(d) ** -J
    density = mass / length
    arcs = np.column_stack([starts, starts + length])
    measure = CircleMeasure(pieces=np.column_stack([arcs, np.full(starts.size, density)]))
    gaps = np.concatenate(gaps)
    order = np.argsort(gaps[:, 0], kind="stable")
    support = IntervalSet(arcs=arcs, gaps=gaps[order],
                          gap_generation=np.concatenate(gap_gen)[order])
    return measure, support


# -- moduli ----------------------------------------------------------------

_NUDGE = 1e-12


def _t_grid(t) -> np.ndarray:
    """t as a 1-D grid in (0, 1]."""
    grid = np.asarray(t, dtype=float)
    if grid.ndim != 1:
        raise ValueError("t must be a 1-D grid")
    bad = ~((grid > 0.0) & (grid <= 1.0))
    if bad.any():
        raise ValueError(f"t must be in (0, 1], got {float(grid[bad][0])}")
    return grid


def _off_atoms(mu: CircleMeasure, xs: np.ndarray) -> np.ndarray:
    """xs, and, where mu has atoms (at whose translates window masses
    jump), xs nudged by +/- 1e-12, modulo 1."""
    if mu.atom_x.size:
        xs = np.concatenate([xs, (xs + _NUDGE) % 1.0, (xs - _NUDGE) % 1.0])
    return xs


def modulus_continuity(mu: CircleMeasure, t) -> np.ndarray:
    """delta_mu(t) = sup over intervals |I| <= t of mu(I), one per t of the
    1-D grid t.  For a positive measure it is attained at |I| = t: the
    largest window mass F(x + t) - F(x), a first difference scanned by
    _difference_sup, and mu(T) at t = 1."""
    grid = _t_grid(t)
    b = mu.breakpoints
    return np.array([mu.total_mass if s == 1.0
                     else _difference_sup(mu, b, s, (1.0, -1.0)) for s in grid])


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
    h = np.unique(np.concatenate(cands))
    return [np.unique(np.append(h[h <= t], t)) for t in ts]


def _difference_sup(mu: CircleMeasure, b: np.ndarray, h: float, weights) -> float:
    """sup_x |sum_k w_k F(x + (1 - k) h)|, F = mu.cdf, b the breakpoints:
    weights (1, -1) give window masses, (1, -2, 1) second differences.  The
    sum is piecewise linear in x between the translates b - (1 - k) h, so
    the scan over those (nudged off atoms) is exact."""
    xs = _off_atoms(mu, np.concatenate(
        [(b - (1 - k) * h) % 1.0 for k in range(len(weights))]))
    total = sum(w * mu.cdf(xs + (1 - k) * h) for k, w in enumerate(weights))
    return float(np.abs(total).max())


def modulus_smoothness(mu: CircleMeasure, t) -> np.ndarray:
    """omega_mu(t): sup over adjacent equal-length windows |I| = |J| <= t
    of |mu(I) - mu(J)| = |F(x + h) - 2 F(x) + F(x - h)|, F = mu.cdf, one
    per t of the 1-D grid t.

    omega(t) is the max of g(h) = sup_x |F(x + h) - 2 F(x) + F(x - h)|
    over the window lengths where the two-parameter supremum can live for
    the stored measure class (_smoothness_h_candidates).  The candidate sets
    of a grid overlap almost completely, so g is evaluated once per distinct
    h of their union, and each t takes the max over its own candidates.
    """
    grid = _t_grid(t)
    b = mu.breakpoints
    cands = _smoothness_h_candidates(b, grid)
    hs = np.unique(np.concatenate(cands)) if cands else np.empty(0)
    g = np.array([_difference_sup(mu, b, h, (1.0, -2.0, 1.0)) for h in hs])
    return np.array([g[np.searchsorted(hs, c)].max() for c in cands])


def smoothness_constant(mu: CircleMeasure, phi: SmoothnessProfile, t_grid) -> float:
    """Least admissible C on the grid for omega_mu(t) <= C t phi(t)."""
    ts = _t_grid(t_grid)
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
    subtotals = [(int(g), float(terms[gens == g].sum())) for g in np.unique(gens)]
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

