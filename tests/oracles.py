"""Independent pointwise oracles for the weight tables, the memory core and
the special functions.

Each function evaluates one operator value, one row of starting weights at a
single step, one known part of a memory at a single level or one series sum
at a single point, straight from its defining formula, so the vectorised
tables, convolutions and sums in ``fracstep`` can be checked against it.
``s_factor`` is the error-amplitude factor of a correction set, which the
tests compare with the observed error decay.  ``wave_march`` and
``subdiffusion_march`` are the field marches in physical space: each step
solves its SPD step matrix with a Cholesky inverse (a mat-vec per step),
against which the modal marches of ``fracstep.tfpde`` are checked.
``wave_march_by_level`` is the modal wave march one level at a time, against
which its run solve is checked.  ``lgl_nodes_by_table`` and the
``*_by_loop`` functions are the spectral-element set-up in loop form, which
``fracstep.sem`` must match bit for bit.
"""

import math

import numpy as np

from fracstep.corrections import CorrectionSet, d1_weight_table, starting_weight_table
from fracstep.glweights import SampledPath, gl_weights, step_count, wsgl_weights
from fracstep.memory import History, Term, convolve, reciprocal, startup_matrix
from fracstep.sem import h1_projection, spd_inverse
from fracstep.specfun import gamma


def sample(f, tau: float, T: float) -> SampledPath:
    """f sampled at t_k = k*tau, k = 0..T/tau."""
    n_t = int(round(T / tau))
    if abs(n_t * tau - T) > 1e-12 * max(1.0, T):
        raise ValueError(f"tau={tau:g} does not divide T={T:g}")
    t = np.arange(n_t + 1) * tau
    return SampledPath(tau, np.array([f(tk) for tk in t], dtype=float))


def apply_shifted_gl(path: SampledPath, alpha: float, q: int, n: int) -> float:
    """Shifted GL operator B_q at step n: tau^(-alpha) sum_{k=0}^{n+q} w_k U^{n-k+q}.
    Samples past t_{n_T} are an error, not an extrapolation."""
    if n < abs(q):
        raise ValueError(f"n >= |q| required (n={n}, q={q})")
    if n + q > path.n_steps:
        raise IndexError(f"step n+q={n + q} exceeds available samples (n_T={path.n_steps})")
    window = path.values[n + q :: -1]
    return path.tau ** (-alpha) * float(np.dot(gl_weights(alpha, n + q), window))


def apply_wsgl_pair(path: SampledPath, alpha: float, p: int, q: int, n: int) -> float:
    """(alpha-2q)/(2(p-q)) B_p + (2p-alpha)/(2(p-q)) B_q; for (p, q) = (0, -1)
    this is tau^(-alpha) sum_k g_{n-k} U^k."""
    if p == q:
        raise ValueError("shifts p and q must differ")
    cp = (alpha - 2.0 * q) / (2.0 * (p - q))
    cq = (2.0 * p - alpha) / (2.0 * (p - q))
    return cp * apply_shifted_gl(path, alpha, p, n) + cq * apply_shifted_gl(path, alpha, q, n)


def history(terms, x, n: int):
    """Known part of the memory ``terms`` (``fracstep.memory.Term``) at level
    n by the direct sum: every contribution except c_0 x^n.  Reads the levels
    x[0..n-1] and the corrected levels x[1..m]."""
    acc = 0.0
    for t in terms:
        acc = acc + t.scale * (x[:n].T @ t.kernel[n:0:-1])
        if t.table is not None:
            acc = acc + t.scale * (x[1 : t.table.shape[1] + 1].T @ t.table[n])
    return acc


def known_parts(terms, x):
    """``history`` at every level of x at once: one ``np.convolve`` (a direct
    sum) per term and history column, its lag 0 left out, plus the
    starting-weight columns."""
    n = len(x)
    columns = x.reshape(n, -1)
    acc = np.zeros(columns.shape)
    for t in terms:
        lags = np.concatenate([[0.0], t.kernel[1:n]])
        acc += t.scale * np.array([np.convolve(lags, col)[:n] for col in columns.T]).T
        if t.table is not None:
            acc += t.scale * (t.table[:n] @ columns[1 : t.table.shape[1] + 1])
    return acc.reshape(x.shape)


class DirectHistory:
    """``fracstep.memory.History`` by the direct sum, to march a solver
    without the FFT far field: its far field is the ``fixed`` part alone, and
    ``near(n)`` sums every lag."""

    def __init__(self, terms, x, fixed=0.0):
        self.terms, self.x = terms, x
        self.c = sum(t.scale * t.kernel for t in terms)  # c[0] is the implicit diagonal
        self.fixed = np.full_like(x, fixed)

    def feed(self, n: int) -> None:
        pass

    def near(self, n: int):
        return history(self.terms, self.x, n)

    def far_run(self, s: int, e: int) -> list:
        return self.fixed[s:e].tolist()

    def known(self, n: int):
        return self.fixed[n] + history(self.terms, self.x, n)

    def known_run(self, s: int, e: int):
        """Known parts of the levels s..e-1 from the levels below s alone."""
        below = np.zeros_like(self.x)
        below[:s] = self.x[:s]
        return self.fixed[s:e] + np.array([history(self.terms, below, n) for n in range(s, e)])


def _power_rows(exponents) -> np.ndarray:
    m = len(exponents)
    return np.array([[float(k) ** s for k in range(1, m + 1)] for s in exponents])


def starting_weights_step(alpha: float, cset, n: int) -> np.ndarray:
    """Starting weights w_{n,1..m} at one step n >= 1 from the exactness
    conditions sum_k w_{n,k} k^s = Gamma(s+1)/Gamma(s+1-alpha) n^(s-alpha)
    - sum_{k=0}^n g_{n-k} k^s."""
    g = wsgl_weights(alpha, n)
    ks = np.arange(n + 1, dtype=float)
    rhs = [
        gamma(s + 1.0) / gamma(s + 1.0 - alpha) * float(n) ** (s - alpha)
        - float(np.dot(g[::-1], ks**s))
        for s in cset.sigmas
    ]
    return np.linalg.solve(_power_rows(cset.sigmas), rhs)


def d1_weights_step(exponents, n: int) -> np.ndarray:
    """Averaged-first-difference correction weights at one step n:
    sum_k u_{n,k} k^s = s/2 ((n+1)^(s-1) + n^(s-1)) - ((n+1)^s - n^s)."""
    x = float(n)
    rhs = [s / 2.0 * ((x + 1.0) ** (s - 1.0) + x ** (s - 1.0)) - ((x + 1.0) ** s - x**s) for s in exponents]
    return np.linalg.solve(_power_rows(exponents), rhs)


def corrected_wsgl_apply(path: SampledPath, alpha: float, cset, n: int) -> float:
    """Corrected WSGL operator at step n: the (0, -1) pair plus
    tau^(-alpha) sum_{k=1}^m w_{n,k} U^k."""
    base = apply_wsgl_pair(path, alpha, 0, -1, n)
    if cset.m == 0:
        return base
    w = starting_weights_step(alpha, cset, n)
    return base + path.tau ** (-alpha) * float(np.dot(w, path.values[1 : cset.m + 1]))


def ml_series_scalar(alpha: float, z: float):
    """Double-precision Taylor sum of E_alpha(z) at one point, term by term:
    t_{k+1} = t_k z Gamma(k alpha + 1) / Gamma((k+1) alpha + 1), stopping once
    a term falls below 1e-16 of the running sum twice in a row.

    Returns (value, condition, terms, last_ratio) where condition is
    sum|t_k| / |sum t_k| and last_ratio is |t_last| / |partial sum| at
    termination.
    """
    total = 1.0
    abs_total = 1.0
    term = 1.0
    small_runs = 0
    k = 0
    last_ratio = 0.0
    while k < 200_000:
        term *= z * math.exp(math.lgamma(k * alpha + 1.0) - math.lgamma((k + 1) * alpha + 1.0))
        k += 1
        total += term
        abs_total += abs(term)
        last_ratio = abs(term) / abs(total) if total != 0.0 else math.inf
        if abs(term) < 1e-16 * abs(total):
            small_runs += 1
            if small_runs >= 2:
                break
        else:
            small_runs = 0
    else:
        raise ArithmeticError(f"series did not converge (alpha={alpha:g}, z={z:g})")
    cond = abs_total / abs(total) if total != 0.0 else math.inf
    return total, cond, k, last_ratio


def s_factor(sigma: float, cset) -> float:
    """Error-amplitude factor prod_k |sigma - sigma_k|; empty product is 1.
    Vanishes when sigma is one of the corrected exponents, which is why a few
    well-placed corrections buy disproportionate accuracy."""
    out = 1.0
    for s in cset.sigmas:
        out *= abs(sigma - s)
    return out


def _physical_space(problem, n_t: int, tau: float):
    """Interior mass, stiffness and source rows (levels, dofs) of a field problem."""
    mesh = problem.mesh
    forms, I = mesh.forms(), mesh.interior
    x = mesh.nodes[I]
    f = problem.source(x[None, :], (np.arange(n_t + 1) * tau)[:, None]) * np.ones((n_t + 1, len(I)))
    return forms.mass0(), forms.stiffness0(), I, f


def _level_columns(W: np.ndarray, m: int) -> np.ndarray:
    """Weights W[n, r-1] on x^r - x^0 (r = 1..k) as coefficients of the
    levels x^0..x^m."""
    C = np.zeros((m, m + 1))
    C[:, 1 : W.shape[1] + 1] = W
    C[:, 0] = -W.sum(axis=1)
    return C


def wave_march(problem, tau: float, sigma=(), m1: int = 0, m2: int = 0, m3: int = 0):
    """Interior (u, v) levels of the corrected diffusion-wave scheme in
    physical space: the startup block by the V-reduced md x md system, then
    one Cholesky-inverse mat-vec per step.  The memory is one term
    nu_j tau^-alpha_j (WSGL weights + starting weights on sigma_r - 1) per
    fractional term, c_0 their summed implicit coefficient."""
    sigma = sigma if isinstance(sigma, CorrectionSet) else CorrectionSet(tuple(sigma))
    mu = problem.mu
    n_t = step_count(tau, problem.T)
    m = max(m1, m2, m3)
    Md, S, I, fr = _physical_space(problem, n_t, tau)
    cset = sigma.truncated(m3).shifted(-1.0)
    mem = [
        Term(v * tau ** (-a), wsgl_weights(a, n_t + 1), starting_weight_table(a, cset, n_t + 1) if m3 else None)
        for v, a in zip(problem.nu, problem.alphas)
    ]
    c0 = sum(t.scale * t.kernel[0] for t in mem)
    Wu1 = d1_weight_table(sigma.truncated(m1), n_t)
    Wv2 = d1_weight_table(sigma.truncated(m2).shifted(-1.0), n_t)
    u = np.zeros((n_t + 1, len(I)))
    v = np.zeros((n_t + 1, len(I)))
    u[0] = h1_projection(problem.phi0, problem.mesh)[I]
    v[0] = h1_projection(problem.psi0, problem.mesh)[I]
    if m:
        step = np.eye(m, m + 1, 1) - np.eye(m, m + 1)
        avg = 0.5 * (np.eye(m, m + 1, 1) + np.eye(m, m + 1))
        P = startup_matrix(mem, m)
        v_on_v = step / tau + 0.5 * _level_columns(P[:-1] + P[1:], m) + _level_columns(Wv2[:m], m) / tau
        u_on_u = step + _level_columns(Wu1[:m], m)
        u_on_v = -tau * avg
        u_on_v[:, 0] -= Wu1[:m] @ (np.arange(1, Wu1.shape[1] + 1) * tau)
        b_v = Md * 0.5 * (fr[:m] + fr[1 : m + 1]) - np.outer(v_on_v[:, 0], Md * v[0])
        b_v -= np.outer(avg[:, 0], mu * (S @ u[0]))
        b_u = -np.outer(u_on_u[:, 0], u[0]) - np.outer(u_on_v[:, 0], v[0])
        Kuu_inv = np.linalg.inv(u_on_u[:, 1:])
        G = avg[:, 1:] @ Kuu_inv
        A = np.kron(v_on_v[:, 1:], np.diag(Md)) - np.kron(G @ u_on_v[:, 1:], mu * S)
        V = np.linalg.solve(A, (b_v - (G @ b_u) @ (mu * S)).ravel()).reshape(m, -1)
        v[1 : m + 1] = V
        u[1 : m + 1] = Kuu_inv @ (b_u - u_on_v[:, 1:] @ V)
    vh = v - v[0]
    fixed = Md * (0.5 * (fr[:-1] + fr[1:]) - (Wv2[:n_t] @ vh[1 : m2 + 1]) / tau + 0.5 * c0 * v[0])
    if m1:
        u[m + 1 :] = -(Wu1[m:n_t] @ (u[1 : m1 + 1] - u[0] - np.outer(np.arange(1, m1 + 1) * tau, v[0])))
        fixed[m:] -= 0.5 * mu * (u[m + 1 :] @ S.T)
    step_inv = spd_inverse(np.diag((1.0 / tau + 0.5 * c0) * Md) + (mu * tau / 4.0) * S)
    hist = History(mem, vh)
    for k in range(m + 1):
        hist.feed(k)
    for n in range(m, n_t):
        frac = hist.known(n) + c0 * vh[n] + hist.known(n + 1)
        rhs = Md * (v[n] / tau - 0.5 * frac) + fixed[n] - S @ (mu * u[n] + (mu * tau / 4.0) * v[n])
        v[n + 1] = step_inv @ rhs
        vh[n + 1] = v[n + 1] - v[0]
        hist.feed(n + 1)
        u[n + 1] += u[n] + (tau / 2.0) * (v[n + 1] + v[n])
    return u, v


def wave_march_by_level(hist, uh, vh, start: int, tau: float, D, P, Q) -> None:
    """``fracstep.tfpde._march_wave`` one level at a time, as a drop-in for
    it: D vh^{n+1} = P vh^n + Q uh^n + F^n - K / 2, K the known memory at
    levels n and n + 1 summed, then the trapezoid uh^{n+1} = G^n + uh^n
    + tau (vh^{n+1} + vh^n) / 2, with the history fed every level."""
    P, Q, s = P / D, Q / D, 0.5 / D
    vh[start + 1 :] /= D
    for k in range(start + 1):
        hist.feed(k)
    known_next = hist.known(start)
    for n in range(start, len(vh) - 1):
        known_n, known_next = known_next, hist.known(n + 1)
        vh[n + 1] = P * vh[n] + Q * uh[n] + vh[n + 1] - s * (known_n + known_next)
        hist.feed(n + 1)
        uh[n + 1] += uh[n] + (tau / 2.0) * (vh[n + 1] + vh[n])


def subdiffusion_march(problem, tau: float, terms, m: int):
    """Interior U levels of a subdiffusion scheme with the memory ``terms``
    in physical space: the startup block as one md x md system, then one
    Cholesky-inverse mat-vec per step."""
    n_t = step_count(tau, problem.T)
    Md, S, I, fr = _physical_space(problem, n_t, tau)
    u0 = h1_projection(problem.phi0, problem.mesh)[I]
    rhs = Md * fr - problem.mu * (S @ u0)
    uh = np.zeros((n_t + 1, len(I)))
    if m:
        A = np.kron(startup_matrix(terms, m)[1:], np.diag(Md)) + np.kron(np.eye(m), problem.mu * S)
        uh[1 : m + 1] = np.linalg.solve(A, rhs[1 : m + 1].ravel()).reshape(m, -1)
    hist = History(terms, uh)
    step_inv = spd_inverse(np.diag(hist.c[0] * Md) + problem.mu * S)
    for k in range(m + 1):
        hist.feed(k)
    for n in range(m + 1, n_t + 1):
        uh[n] = step_inv @ (rhs[n] - Md * hist.known(n))
        hist.feed(n)
    return uh + u0


def trap_memory(a1: float, a2: float, n_t: int, tau: float):
    """The kernel G cd, b = cf_0 and G u of the product trapezoid from its
    tau-scaled rules, G = reciprocal(cf / cf_0): the form before the
    tau-free tables, against which ``fode._trap_memory`` is checked."""

    def kernel(alpha):
        j = np.arange(1, n_t + 1, dtype=float)
        c = np.ones(n_t + 1)
        c[1:] = (j + 1.0) ** (alpha + 1.0) - 2.0 * j ** (alpha + 1.0) + (j - 1.0) ** (alpha + 1.0)
        return tau**alpha / gamma(2.0 + alpha) * c

    cd, cf = kernel(a1 - a2), kernel(a1)
    cd[0] += 1.0
    u = (np.arange(n_t + 1) * tau) ** a1 / gamma(1.0 + a1)
    k, gu = convolve(reciprocal(cf / cf[0]), np.stack([cd, u], axis=1)).T
    return k, float(cf[0]), gu


def lgl_nodes_by_table(N: int):
    """The LGL rule of degree N (``fracstep.sem.lgl_rules``), one degree at
    a time, with the Legendre recurrence filling the whole (N + 1)^2
    Vandermonde table, column by column."""
    x = -np.cos(np.pi * np.arange(N + 1) / N)
    P = np.zeros((N + 1, N + 1))
    for _ in range(50):
        x_old = x.copy()
        P[:, 0] = 1.0
        P[:, 1] = x
        for k in range(2, N + 1):
            P[:, k] = ((2 * k - 1) * x * P[:, k - 1] - (k - 1) * P[:, k - 2]) / k
        x = x_old - (x * P[:, N] - P[:, N - 1]) / ((N + 1) * P[:, N])
        if np.max(np.abs(x - x_old)) < 1e-15:
            break
    w = 2.0 / (N * (N + 1) * P[:, N] ** 2)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def barycentric_weights_by_loop(x: np.ndarray) -> np.ndarray:
    """b_j = 1 / prod_{k != j} (x_j - x_k), one node at a time."""
    b = np.ones(len(x))
    for j in range(len(x)):
        b[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return b


def diff_matrix_by_loop(x: np.ndarray) -> np.ndarray:
    """The barycentric differentiation matrix entry by entry, each diagonal
    entry minus the sum of its row."""
    n = len(x)
    b = barycentric_weights_by_loop(x)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (b[j] / b[i]) / (x[i] - x[j])
        D[i, i] = -np.sum(D[i, np.arange(n) != i])
    return D


def lagrange_eval_matrix_by_loop(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The Lagrange basis on ``nodes`` at ``pts``, one point at a time, by
    the barycentric formula, or a row of the identity on a node."""
    b = barycentric_weights_by_loop(nodes)
    E = np.zeros((len(pts), len(nodes)))
    for i, xp in enumerate(pts):
        diff = xp - nodes
        hit = np.where(diff == 0.0)[0]
        if hit.size:
            E[i, hit[0]] = 1.0
        else:
            t = b / diff
            E[i] = t / np.sum(t)
    return E
