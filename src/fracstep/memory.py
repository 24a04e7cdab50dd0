"""The memory core shared by every time stepper.

Each fractional term of a scheme, discretized by convolution quadrature with
starting weights, has one shape at time level n,

    scale * ( sum_{k=0}^{n} c_{n-k} x^k + sum_{r=1}^{m} w_{n,r} x^r ),

a lower-triangular Toeplitz convolution with kernel c plus m starting-weight
columns (Lubich 1986), on a scalar history x^0, x^1, ... of shape (levels,)
or a field history of shape (levels, d).  The WSGL weights with their
tables, the L1 weights in value form and the product trapezoid (one kernel,
by ``reciprocal``) are all such terms, so a stepper needs the implicit
diagonal and the known part at level n (a ``History``) and the coefficients
of the coupled startup block.

After its startup levels 0..m a march goes in runs: the levels [s, e) up to
the next multiple of _BASE = 32 (``runs``).  Inside a run the far field is
fixed, so a march feeds its history once per run, and a linear march solves
a run as one lower-triangular Toeplitz system per history column, its lags
shared or per column (``known_run``, ``run_inverse``, ``solve_run``):
``linear_march`` is that march for a diagonal per column, which the
subdiffusion (one column per mode) and a linear FODE (one column) share.

A study (``study_tables``) keeps, read-only, the tau-free tables by key
(``shared_table``) and the run inverses by the bytes of their float64 inputs
(``study_value``), so that its cells build each once.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import irfft, rfft

__all__ = ["RUN", "Term", "History", "check_march", "convolve", "linear_march", "reciprocal", "run_inverse",
           "runs", "shared_table", "solve_run", "startup_matrix", "study_tables", "study_value"]

_BASE = 32  # lags summed directly at each level; longer lags go through the far field
RUN = _BASE  # the most levels in one run
_CHUNK = 1 << 16  # elements of a far-field block transformed at once
_DIRECT = 1 << 14  # entries of the largest lag-Toeplitz block a node multiplies
_study = ContextVar("study_tables", default=None)  # the open study's kept arrays by key


@contextmanager
def study_tables():
    """Scope of one study (``harness.run_study``), in which ``study_value`` keeps
    what it builds; it belongs to the calling context, so another thread sees none."""
    token = _study.set({})
    try:
        yield
    finally:
        _study.reset(token)


def study_value(key, build, fits=lambda value: True):
    """``build()``, an array, built anew outside ``study_tables``; inside, kept
    read-only under ``key`` and handed out again while ``fits`` holds of it."""
    values = _study.get()
    if values is None:
        return build()
    value = values.get(key)
    if value is None or not fits(value):
        value = values[key] = build()
        value.flags.writeable = False
    return value


def shared_table(key, n_max: int, build) -> np.ndarray:
    """Rows 0..n_max of ``build(n_max)``, a table whose rows do not depend on
    its length: inside ``study_tables`` a read-only prefix of the longest
    table built for ``key``, which a longer request replaces."""
    return study_value(key, lambda: build(n_max), lambda table: len(table) > n_max)[: n_max + 1]


@dataclass(frozen=True)
class Term:
    """scale * (kernel convolution + starting-weight table); ``table`` has one
    row per level and one column per corrected level 1..m."""

    scale: float
    kernel: np.ndarray
    table: np.ndarray | None = None


def _direct(r: int, L: int) -> bool:
    """Whether a node of size L with r targets goes by a product with its
    r x L lag block (at most _DIRECT entries) rather than by FFT, which is
    the slower of the two on blocks that small.  Full nodes of up to 128
    levels go direct, their blocks kept (168 KB), and so does a larger
    clipped node with few targets (one, at 2^k + 1 levels)."""
    return r * L <= _DIRECT


def _toeplitz(a: np.ndarray, rows: int, cols: int, copy: bool = True) -> np.ndarray:
    """The rows x cols Toeplitz block T[i, j] = a[..., i - j + cols - 1], copied
    out of a strided view of the contiguous ``a``, one block per leading index;
    with ``copy=False`` the read-only view itself."""
    step = a.itemsize
    shape, strides = a.shape[:-1] + (rows, cols), a.strides[:-1] + (step, -step)
    view = np.ndarray(shape, a.dtype, a, (cols - 1) * step, strides)
    if copy:
        return view.copy()
    view.flags.writeable = False
    return view


def _add_node(c: np.ndarray, cache: dict, src: np.ndarray, out: np.ndarray) -> None:
    """Add the lags >= _BASE of c applied to a completed block src = x[s:s+L]
    to its first r <= L targets out = y[s+L:s+L+r]: the lag of out[i] on
    src[j] is L + i - j.  Levels run along axis -2 and history columns along
    axis -1; a stack of nodes of one size shares the leading axes, and each
    node of it is computed as alone.  A direct product uses the cached L x L
    lag-Toeplitz block of its size if that has at most _DIRECT entries, also
    for a clipped node (BLAS rounds a row differently with fewer rows), and
    else builds the first r rows.  An FFT node transforms a zero-padded block
    of 2L; ``cache`` holds the blocks and spectra, keyed by (L, direct)."""
    L, r = src.shape[-2], out.shape[-2]
    if _direct(r, L):
        block = cache.get((L, True))
        if block is None:
            rows = L if L * L <= _DIRECT else r  # a block small enough to keep is built whole
            a = np.zeros(L + rows - 1)  # lags 1 .. L+rows-1; the near field owns those below _BASE
            lags = c[_BASE : L + rows]
            a[_BASE - 1 : _BASE - 1 + len(lags)] = lags
            block = _toeplitz(a, rows, L)
            if rows == L:
                cache[L, True] = block
        out += (block @ src)[..., :r, :]
        return
    if (L, False) not in cache:  # lags >= _BASE, shifted: target s+L+i comes out at L-_BASE+i
        cache[L, False] = rfft(c[_BASE : 2 * L], 2 * L)[:, None]
    step = max(1, _CHUNK * src.shape[-1] // (2 * src.size))  # column chunks bound the transient memory
    for j in range(0, src.shape[-1], step):
        spectrum = rfft(src[..., j : j + step], 2 * L, axis=-2)
        spectrum *= cache[L, False]
        out[..., j : j + step] += irfft(spectrum, 2 * L, axis=-2)[..., L - _BASE : L - _BASE + r, :]


class History:
    """Known parts of ``terms`` on a history ``x`` that a march fills, plus
    a ``fixed`` part per level known in advance.  ``known(n)`` is every
    contribution at level n except c_0 x^n: its far field (``far_run``) plus
    its lags 1.._BASE-1 (``near``); ``known_run(s, e)`` is that of the
    levels of one run [s, e) from the levels below s alone.  With m the
    widest starting-weight table (0 if none), all hold from m on once
    ``feed(m)`` has run.

    The feed contract: ``feed(n)`` does work only at n = m and at the end of
    a run (n + 1 a multiple of _BASE, below the last level).  So a march
    feeds each startup level k = 0..m once it is final, then ``feed(e - 1)``
    once the levels of a run are final, before it reads the next run;
    feeding every level is the same arithmetic.

    The kernels are summed into one, c (c[0] is the implicit diagonal).  The
    lags 1.._BASE-1, which carry the largest weights, are one dot per level;
    the rest come from the far field: once the left half [s, s+L) of a
    dyadic node [s, s+2L), L >= _BASE, is complete, ``_add_node`` adds its
    convolution with the lags >= _BASE of c to the targets [s+L, s+L+r)
    inside x, by a lag-Toeplitz product or a cyclic FFT of length 2L
    (``_direct``), O(N log^2 N) for N levels (Hairer, Lubich & Schlichte
    1985).  Every node that reaches a run ends at or below its start, so a
    run's far field is final once the levels below it are fed.  It starts as
    ``fixed``, and ``feed(m)`` adds the starting-weight columns on x[1..m]
    to every level at once."""

    def __init__(self, terms, x: np.ndarray, fixed=0.0):
        self.x = x
        self.c = sum(t.scale * t.kernel for t in terms)
        self.terms = terms
        self.m = max((t.table.shape[1] for t in terms if t.table is not None), default=0)
        self.far = np.full_like(x, fixed)
        self._far2d = self.far.reshape(len(x), -1)
        self._nodes = {}  # per node size: its Toeplitz block or kernel spectrum
        self._near = np.ascontiguousarray(self.c[_BASE - 1 : 0 : -1])  # lags _BASE-1, ..., 1

    def feed(self, n: int) -> None:
        if n == self.m:  # x[0..m] are final: fold the starting-weight columns into the far field
            for t in self.terms:
                if t.table is not None:
                    self.far += t.table[: len(self.x)] @ (t.scale * self.x[1 : t.table.shape[1] + 1])
        L = (n + 1) & -(n + 1)  # x[n] completes the left half [n+1-L, n+1)
        if L < _BASE or n + 1 == len(self.x):
            return
        _add_node(self.c, self._nodes, self.x[n + 1 - L : n + 1].reshape(L, -1), self._far2d[n + 1 : n + 1 + L])

    def near(self, n: int):
        """The lags 1.._BASE-1 of level n, clipped at level 0."""
        if n >= _BASE - 1:
            return self._near.dot(self.x[n - _BASE + 1 : n])
        return self.c[n:0:-1].dot(self.x[:n])

    def far_run(self, s: int, e: int) -> list:
        """The far field of the levels s..e-1 of a run, as Python floats."""
        return self.far[s:e].tolist()

    def known(self, n: int):
        return self.far[n] + self.near(n)

    def known_run(self, s: int, e: int):
        """The far field of the levels s..e-1 of a run plus their lags up to
        _BASE-1 on x[s-_BASE+1:s] (clipped at level 0), by one product with a
        cached lag block; the lags on x[s:e] are the run's own system."""
        lo = max(s - _BASE + 1, 0)
        return self.far[s:e] + self._run_lags[: e - s, lo - s + _BASE - 1 :] @ self.x[lo:s]

    @cached_property
    def _run_lags(self) -> np.ndarray:
        """The lag block of ``known_run``, built on first use."""
        a = np.zeros(2 * _BASE - 2)  # level s+i on x[s-_BASE+1+j]: lag i+_BASE-1-j, kept up to _BASE-1
        a[: len(self._near)] = self.c[1:_BASE]
        return _toeplitz(a, _BASE, _BASE - 1)


def runs(start: int, stop: int):
    """The runs [s, e) that tile the levels start..stop-1: each ends at the
    next multiple of _BASE, or at stop."""
    while start < stop:
        end = min(stop, (start // _BASE + 1) * _BASE)
        yield start, end
        start = end


def run_inverse(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The inverses of the lower-triangular Toeplitz matrices of one run, one
    per history column k, for ``solve_run``: d[k] on the diagonal and the lags
    c[1], ..., c[RUN-1] below it, shared by every column (c of shape (lags,))
    or c[k, 1], ..., c[k, RUN-1] per column (shape (columns, lags)); lags past
    the end of c are zero.  Each inverse is Toeplitz; its first column is
    forward substitution, y_0 = 1 / d, y_i = -(c_i y_0 + ... + c_1 y_{i-1}) / d,
    in the precision of c and d, rounded to double once.  The inverses are a
    read-only strided (columns, RUN, RUN) view on the first columns, (columns,
    2 RUN - 1) in memory, allocated first: a study keeps them, and kept below
    the substitution's temporaries they leave the heap those free reusable."""
    first = np.empty((len(d), 2 * _BASE - 1))
    dtype = np.result_type(c, d)
    lags = np.zeros(c.shape[:-1] + (_BASE,), dtype)
    lags[..., : min(c.shape[-1], _BASE)] = c[..., :_BASE]
    y = np.zeros((len(d), 2 * _BASE - 1), dtype)  # y_i of column k at [k, _BASE-1+i], after _BASE-1 zeros
    y[:, _BASE - 1] = 1.0 / d
    for i in range(1, _BASE):
        window = y[:, _BASE - 1 : _BASE - 1 + i]
        dots = window @ lags[i:0:-1] if lags.ndim == 1 else np.vecdot(window, lags[:, i:0:-1])
        y[:, _BASE - 1 + i] = -dots / d
    first[...] = y
    return _toeplitz(first, _BASE, _BASE, copy=False)


def solve_run(inverse: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Levels s..e-1 of a linear field march from the loads of their run,
    shape (e-s, columns): every column's Toeplitz system at once, one batched
    product with the leading blocks of ``run_inverse`` or a dense copy.  A
    march whose level n reads d x^n + known(n) = b^n has the loads
    b[s:e] - known_run(s, e) and the inverse ``run_inverse(c, d)``."""
    r = len(loads)
    return (inverse[:, :r, :r] @ loads.T[:, :, None])[:, :, 0].T


def linear_march(hist: History, shift, m: int, solver: str, tau: float, error=ValueError) -> None:
    """Solve (c_0 + shift) x^n + known(n) = b^n for the levels 1.. of the
    history x of ``hist``, shape (levels,) or (levels, columns), one shift
    per column; each level enters holding its load b^n.  Levels 1..m couple
    through the starting weights: one m x m system per column.  Then one
    ``run_inverse`` (``study_value``), copied dense, and per run its loads
    less ``known_run`` times it (``solve_run``) and one feed.  ``check_march``
    names a non-finite level, raised as ``error``, as is a singular startup block."""
    x = hist.x.reshape(len(hist.x), -1)
    finite = np.isfinite(x).all(axis=1)
    if m >= 1:
        A = startup_matrix(hist.terms, m)[1:] + np.multiply.outer(shift, np.eye(m))  # (columns, m, m)
        try:
            x[1 : m + 1] = np.linalg.solve(A, x[1 : m + 1].T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError as exc:
            raise error(f"{solver}: steps 1..{m}, t <= {m * tau:g}: singular startup block") from exc
    d = hist.c[0] + shift
    inverse = study_value(("run", hist.c[:RUN].tobytes(), d.tobytes()), lambda: run_inverse(hist.c, d)).copy()
    for k in range(m + 1):
        hist.feed(k)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite level is named below
        for s, e in runs(m + 1, len(x)):
            x[s:e] = solve_run(inverse, x[s:e] - hist.known_run(s, e).reshape(e - s, -1))
            hist.feed(e - 1)
    check_march(solver, x, m, tau, finite, error)


def check_march(solver: str, x: np.ndarray, m: int, tau: float, finite: np.ndarray, error=ValueError) -> None:
    """Name the first non-finite level of a finished march, shape (levels,
    columns), or the startup block 1..m that holds it.  A run solve spreads
    a non-finite load over its run (0 * nan is nan), so given ``finite``,
    whether each level's load was finite before the march, the level named
    is the first non-finite load of the run from the first bad level on."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size and 1 <= bad[0] <= m:
        raise error(f"{solver}: steps 1..{m}, t <= {m * tau:g}: startup block solution is not finite")
    if bad.size:
        s, e = next(runs(int(bad[0]), len(x)))
        n = s + int(np.argmin(finite[s:e]))  # argmin is the first False, or 0
        raise error(f"{solver}: step {n}, t = {n * tau:g}: solution is not finite")


def convolve(c: np.ndarray, x: np.ndarray, levels: int | None = None) -> np.ndarray:
    """sum_{k=0}^{n} c[n-k] x[k] at every level n < ``levels`` (default
    len(x)) of x, shape (levels,) or (levels, d), x zero past its end, by the
    split of ``History`` without a march; c is read up to lag 2L-1 by an FFT
    node of size L, as far as it reaches.  Per node size, largest first, the
    full nodes are one ``_add_node`` call on their stack and the clipped
    last node one more; then the lags below _BASE are one product per block
    of _BASE levels and the block before it.  Nodes and blocks that read
    only the zeros past the end of x are skipped: they would add exact
    zeros.  So level n does not depend on the number of levels when c
    reaches lag 2(levels-1), except below a clipped node that ``_direct``
    sums directly where a longer x transforms the full node."""
    n_x = len(x)
    n_levels = n_x if levels is None else levels
    B, nb = _BASE, -(-n_levels // _BASE)
    x2 = x.reshape(n_x, -1)
    d = x2.shape[1]
    padded = np.zeros((d, (nb + 1) * B))  # x transposed, after a zero block: blocks are contiguous runs
    padded[:, B : B + n_x] = x2.T
    xt = padded[:, B : B + n_levels]
    yt = np.zeros((d, nb * B))
    L = 1 << max(n_levels - 1, 1).bit_length() - 1  # the largest node size with a target
    while L >= _BASE:
        cache = {}  # one size at a time: its block or spectrum lives for one pass
        full = n_levels // (2 * L)
        live = min(full, -(-n_x // (2 * L)))  # the full nodes whose left half reads x
        if live:  # nodes [2kL, 2kL+2L), k < live, as stacks (live, 2, L, d): left halves in, right out
            src, dst = (z[:, : 2 * L * live].reshape(d, live, 2, L).transpose(1, 2, 3, 0) for z in (xt, yt))
            _add_node(c, cache, src[:, 0], dst[:, 1])
        s = 2 * L * full
        if s + L < n_levels and s < n_x:
            _add_node(c, cache, xt[:, s : s + L].T, yt[:, s + L : n_levels].T)
        L //= 2
    nw = min(nb, -(-n_x // B) + 1)  # the blocks whose window reads x
    step = padded.itemsize  # windows[b] = levels [(b-1)B, (b+1)B) of x, read in place
    windows = np.ndarray((nw, 2 * B, d), padded.dtype, padded, 0, (B * step, step, (nb + 1) * B * step))
    a = np.zeros(3 * B - 1)  # lags 1-B .. 2B-1 of a window; the near field keeps 0 .. B-1
    a[B - 1 : B - 1 + min(B, len(c))] = c[:B]
    yt.reshape(d, nb, B).transpose(1, 2, 0)[:nw] += _toeplitz(a, B, 2 * B) @ windows  # block b-1, block b
    return yt[:, :n_levels].T.reshape((n_levels,) + x.shape[1:])


def reciprocal(c: np.ndarray) -> np.ndarray:
    """The power series 1 / c to the length of c (c[0] != 0), the kernel of
    the inverse Toeplitz matrix, by Newton doubling: if c y = 1 + z^L e mod
    z^2L, then 1 / c = y - z^L y e mod z^2L, two ``convolve`` products, the
    first on y[:L] alone (y is zero from L on)."""
    n = len(c)
    y = np.zeros(n)
    y[0], L = 1.0 / c[0], 1
    while L < n:
        h = min(2 * L, n)
        y[L:h] = -convolve(y[: h - L], convolve(c[:h], y[:L], h)[L:])
        L = h
    return y


def startup_matrix(terms, m: int) -> np.ndarray:
    """(m+1) x m coefficients of x^1..x^m in the memory at levels 0..m."""
    lag = np.arange(m + 1)[:, None] - np.arange(1, m + 1)[None, :]
    P = np.zeros((m + 1, m))
    for t in terms:
        P += t.scale * np.where(lag >= 0, t.kernel[np.maximum(lag, 0)], 0.0)
        if t.table is not None:
            P[:, : t.table.shape[1]] += t.scale * t.table[: m + 1]
    return P
