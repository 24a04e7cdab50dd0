"""Study orchestration: parse flat key-value configs, run tau-refinement
sweeps over solver/correction-count columns one cell after another, compute
observed orders, and emit CSV tables.

Config files are INI-style: one study per section, one assignment per line.
Numbers may use the ``2^-9`` power notation.  See the README for the schema
of each study kind (fode, wave, subdiff, operator, diagnostics).
"""

from __future__ import annotations

import math
from configparser import ConfigParser
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import problems

if TYPE_CHECKING:
    from .fode import MultiTermProblem
    from .sem import SpectralMesh
    from .tfpde import FieldHistory

__all__ = [
    "StudyConfig",
    "ConvergenceTable",
    "RowTable",
    "observed_order",
    "parse_config",
    "run_study",
]


def _parse_number(tok: str) -> float:
    tok = tok.strip()
    if "^" in tok:
        base, expo = tok.split("^")
        return float(base) ** float(expo)
    return float(tok)


def _parse_list(val: str) -> list:
    return [tok for tok in val.replace(",", " ").split() if tok]


def _numbers(val: str) -> list[float]:
    return [_parse_number(t) for t in _parse_list(val)]


@dataclass(frozen=True)
class StudyConfig:
    """One parsed study section."""

    kind: str
    name: str
    params: dict

    def get(self, key, default=None):
        return self.params.get(key, default)

    def require(self, key):
        if key not in self.params:
            raise KeyError(f"study '{self.name}' is missing required key '{key}'")
        return self.params[key]


def parse_config(path) -> list[StudyConfig]:
    """Parse every study section of an INI-style config file, check it
    (``_check``), and import the modules of each kind it names (``_KINDS``),
    so that a study run imports none."""
    cp = ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    studies = []
    for section in cp.sections():
        raw = dict(cp.items(section))
        if "kind" not in raw:
            raise ValueError(f"section [{section}] has no 'kind'")
        kind = raw.pop("kind").strip()
        if kind not in _KINDS:
            raise ValueError(f"unknown study kind '{kind}' in [{section}]")
        _check(section, kind, raw)
        for module in _KINDS[kind][1]:
            import_module(f".{module}", __package__)
        studies.append(StudyConfig(kind, section, raw))
    return studies


def _check(section: str, kind: str, raw: dict) -> None:
    """Reject a key that the kind does not take or that the section's variant
    of it does not read, a degree that is not an integer >= 1, and a sigma
    rule that does not expand to the study's largest correction count, before
    any solve."""
    keys = _KINDS[kind][2].split() + ["out"]
    unread = {  # a key that the kind takes: why this section does not read it, if it does not
        "alpha": kind == "wave" and "alphas" in raw and "the wave's orders are its 'alphas'",
        "alphas": raw.get("problem") == "two_term_ml" and "problem two_term_ml reads 'alpha'",
        "degrees": "mesh" not in raw and "'degrees' goes with 'mesh'",
    }
    for key in raw:
        if key not in keys:
            raise ValueError(f"[{section}] unknown key '{key}': a {kind} study takes {', '.join(keys)}")
        if unread.get(key):
            raise ValueError(f"[{section}] unread key '{key}': {unread[key]}")
    for tok in _parse_list(raw.get("degrees", "")):
        if not (tok.isdecimal() and int(tok) >= 1):
            raise ValueError(f"[{section}] degrees = {raw['degrees']}: {tok} is not an integer >= 1")
    if "sigma_rule" in raw:
        m = max((int(col) for col in _parse_list(raw.get("columns", "")) if col.isdigit()), default=0)
        try:
            sigma_list(raw["sigma_rule"], m, 1.0)  # no alpha stops a rule from expanding
        except ValueError as exc:
            raise ValueError(f"[{section}] {exc}") from exc


def observed_order(errors) -> list[float]:
    """log2(e_i / e_{i+1}) down a halving chain; nonpositive entries yield
    NaN order markers."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two errors")
    out = []
    for a, b in zip(errors, errors[1:]):
        if a <= 0 or b <= 0:
            out.append(math.nan)
        else:
            out.append(math.log2(a / b))
    return out


@dataclass
class RowTable:
    """Plain header + rows table (diagnostics and operator studies)."""

    header: list
    rows: list

    def to_csv(self, path) -> None:
        lines = [",".join(self.header)]
        lines += [",".join(row) for row in self.rows]
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class ConvergenceTable:
    """tau-refinement table: one error column (and derived order column) per
    (column label, norm) pair."""

    taus: list
    norms: list
    groups: dict  # label -> {norm: [errors]}

    def to_csv(self, path) -> None:
        header, cols = ["tau"], [[f"{tau:.6e}" for tau in self.taus]]
        for label, data in self.groups.items():
            for norm in self.norms:
                orders = observed_order(data[norm]) if len(self.taus) > 1 else []
                header += [f"{label}_{norm}_error", f"{label}_{norm}_order"]
                cols += [[f"{e:.4e}" for e in data[norm]], [""] + [f"{o:.4f}" for o in orders]]
        RowTable(header, list(zip(*cols))).to_csv(path)


def sigma_list(rule: str, m: int, alpha: float) -> tuple:
    """Expand a sigma-rule string to m exponents (m = 0 checks the rule).

    Grammar: ``k*alpha``, ``(k+1)*alpha`` (each with an optional ``+offset``
    suffix), ``k+1`` (integers 2, 3, ...), or ``list: v1 v2 ...``.
    """
    rule = rule.strip()
    if rule.startswith("list:"):
        vals = _numbers(rule[5:])
        if len(vals) < m:
            raise ValueError(f"sigma_rule = {rule}: fewer than m = {m} exponents")
        return tuple(vals[:m])
    if rule == "k+1":
        return tuple(float(k + 1) for k in range(1, m + 1))
    for stem, shift in (("k*alpha", 0), ("(k+1)*alpha", 1)):
        if rule == stem or rule.startswith(stem + "+"):
            offset = _parse_number(rule[len(stem) + 1 :]) if rule != stem else 0.0
            return tuple((k + shift) * alpha + offset for k in range(1, m + 1))
    raise ValueError(f"unknown sigma rule '{rule}'")


# ---------------------------------------------------------------------------
# convergence studies


def _norms(key: str, norms: list, allowed: tuple) -> list:
    """The study's error norms, checked against ``allowed``."""
    if not set(norms) <= set(allowed):
        raise ValueError(f"{key} = {' '.join(norms)}: pick from {', '.join(allowed)}")
    return norms


def _reference(cfg: StudyConfig, exact, *methods):
    """(method, tau) of the study's ``reference``: ``exact`` (the default,
    tau None) or ``<method>:<tau>`` with one of the kind's methods."""
    spec = cfg.get("reference", "exact")
    method, _, tau = spec.partition(":")
    if spec == "exact" and exact is not None or method in methods and tau:
        return method, _parse_number(tau) if tau else None
    forms = ["exact"] * (exact is not None) + [f"{m}:<tau>" for m in methods]
    raise ValueError(f"reference = {spec}: this {cfg.kind} study takes {' or '.join(forms)}")


def _distinct(key: str, tokens: list, parse=str) -> list:
    """``parse`` of the config ``key``'s tokens; a repeat, solved twice under one header, raises."""
    values = [parse(tok) for tok in tokens]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{key} = {' '.join(tokens)}: {tokens[i]} repeats")
    return values


def _columns(cfg: StudyConfig) -> list:
    """(label, spec) of each of the study's columns: a baseline, or a
    correction count m labelled m<m>."""
    cols = _distinct("columns", _parse_list(cfg.require("columns")))
    return [(col if col in ("l1", "trap") else f"m{col}", col) for col in cols]


def _convergence(taus, norms, columns, reference_for, solve, error) -> ConvergenceTable:
    """The errors error(solve(spec, tau), ref), each a {norm: value} dict, of
    every (label, spec) column down the tau chain, ref = reference_for(spec)
    made first.  The cells are solved finest first, so that each tau-free
    table of a column is built once, at its finest level, and the coarser
    cells read prefixes of it (``memory.study_tables``).  An error of a
    column's reference or cell is raised again with its label (and tau)."""

    def column(label, spec):
        # a column's reference is dropped before the next column makes its own
        where = f"{label} reference"
        try:
            ref, done = reference_for(spec), {}
            for tau in sorted(set(taus)):
                where = f"{label}, tau = {tau:g}"
                done[tau] = error(solve(spec, tau), ref)
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        return {norm: [done[tau][norm] for tau in taus] for norm in norms}

    return ConvergenceTable(taus, norms, {label: column(label, spec) for label, spec in columns})


def _fode_problem(cfg: StudyConfig):
    name = cfg.require("problem")
    if name == "two_term_ml":
        alpha = _parse_number(cfg.require("alpha"))
        T = _parse_number(cfg.get("t_end", "1"))
        return problems.two_term_ml_problem(alpha, T), problems.two_term_ml_exact(alpha)
    if name == "nonlinear_cubic":
        a1, a2 = _numbers(cfg.require("alphas"))
        T = _parse_number(cfg.get("t_end", "10"))
        return problems.nonlinear_cubic_problem(a1, a2, T), None
    raise ValueError(f"unknown fode problem '{name}'")


def _fode_reference(cfg: StudyConfig, problem: MultiTermProblem, exact, taus):
    from . import fode
    from .glweights import step_count

    method, tau = _reference(cfg, exact, "trapezoidal", "l1")
    if method != "exact":
        try:
            return getattr(fode, f"solve_{method}")(problem, tau)
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"reference = {cfg.get('reference')}: {exc}") from exc
    # one call over the union of the cells' grids; each cell reads its own
    # times back, with the same bits as a call on its own grid
    grids = [np.arange(step_count(tau, problem.T) + 1) * tau for tau in taus]
    times = sorted({t for grid in grids for t in grid.tolist()})
    index = {t: i for i, t in enumerate(times)}
    values = exact(times)

    def sampled(t):
        try:
            return values[[index[tk] for tk in np.ravel(t).tolist()]]
        except KeyError as exc:
            raise ValueError(f"exact reference was not evaluated at t = {exc.args[0]!r}") from None

    return sampled


def _run_fode(cfg: StudyConfig) -> ConvergenceTable:
    from .fode import error_report, solve_corrected_wsgl, solve_l1, solve_trapezoidal

    problem, exact = _fode_problem(cfg)
    taus, columns = _numbers(cfg.require("taus")), _columns(cfg)
    norms = _norms("norms", _parse_list(cfg.get("norms", "max final avg")), ("max", "final", "avg"))
    # sigma rules count in the study's base order (the config alpha when
    # given), not the problem's leading order
    rule_alpha = _parse_number(cfg.get("alpha", str(problem.alphas[0])))
    rule = cfg.get("sigma_rule", "k*alpha")
    reference = _fode_reference(cfg, problem, exact, taus)

    def solve(col, tau):
        if col == "l1":
            return solve_l1(problem, tau)
        if col == "trap":
            return solve_trapezoidal(problem, tau)
        return solve_corrected_wsgl(problem, tau, sigma_list(rule, int(col), rule_alpha))

    return _convergence(taus, norms, columns, lambda col: reference, solve, error_report)


def _mesh_from(cfg: StudyConfig, default) -> SpectralMesh:
    """The config's ``mesh``/``degrees``, else ``default()``."""
    from .sem import SpectralMesh

    if "mesh" not in cfg.params:
        return default()
    return SpectralMesh(_numbers(cfg.require("mesh")), [int(t) for t in _parse_list(cfg.require("degrees"))])


def _decimated(ref: FieldHistory, taus) -> FieldHistory:
    """A copy of the reference's modal U at every g-th level, g the gcd of
    the cells' strides tau / ref.tau, its tau scaled to match; g = 1 unless
    every tau has a stride (``reference_stride``), and ``l2_error`` then
    rejects the cell that has none."""
    from .glweights import reference_stride
    from .tfpde import FieldHistory

    try:
        g = math.gcd(*(reference_stride(tau, 0, ref.tau, ref.n_steps) for tau in taus))
    except ValueError:
        g = 1
    Phi, uh, shift = ref.modal_u
    return FieldHistory(ref.mesh, ref.tau * g, (Phi, uh[::g].copy(), shift))


def _field_study(cfg: StudyConfig, columns, solve, default_norm: str, exact=None) -> ConvergenceTable:
    """A wave or subdiff study: L2 errors of U against the exact solution, or
    against a ``self:<tau>`` solve of each column, made once per column and
    ``_decimated`` (the error norms read U only)."""
    from .tfpde import l2_error

    taus = _numbers(cfg.require("taus"))
    norms = _norms("norm", [cfg.get("norm", default_norm)], ("final", "average"))
    method, ref_tau = _reference(cfg, exact, "self")
    return _convergence(
        taus,
        norms,
        columns,
        lambda spec: exact if method == "exact" else _decimated(solve(spec, ref_tau), taus),
        solve,
        lambda hist, ref: {n: l2_error(hist, ref, at=n) for n in norms},
    )


def _run_wave(cfg: StudyConfig) -> ConvergenceTable:
    from .tfpde import solve_wave

    case = cfg.get("case", "smooth")
    apply_to = cfg.get("apply_to", "all")
    rule = cfg.get("sigma_rule", "k+1" if case == "smooth" else "(k+1)*alpha")
    mesh = _mesh_from(cfg, problems.three_zone_mesh)
    if case == "smooth":
        nu = _parse_number(cfg.get("nu", "2"))
        problem, exact = lambda alpha: problems.wave_smooth_problem(alpha, nu, mesh), problems.wave_smooth_exact()
    elif case == "forced":
        if "nu" in cfg.params:
            raise ValueError("unknown key 'nu': the forced wave fixes nu = 1")
        problem, exact = lambda alpha: problems.wave_forced_problem(alpha, mesh), None
    else:
        raise ValueError(f"unknown wave case '{case}'")
    if apply_to not in ("all", "m3"):
        raise ValueError(f"unknown apply_to '{apply_to}'")

    def column(alpha, m):
        k = m if apply_to == "all" else 0
        # repr: the shortest string that reads back as alpha, so distinct alphas get distinct labels
        return f"a{alpha!r}_m{m}", (problem(alpha), sigma_list(rule, m, alpha), k, k, m)

    key = "alphas" if "alphas" in cfg.params else "alpha"
    alphas = _distinct(key, _parse_list(cfg.get(key, "0.5")), _parse_number)
    ms = _distinct("columns", _parse_list(cfg.require("columns")), int)
    columns = [column(alpha, m) for alpha in alphas for m in ms]
    return _field_study(cfg, columns, lambda spec, tau: solve_wave(spec[0], tau, *spec[1:]), "final", exact)


def _run_subdiff(cfg: StudyConfig) -> ConvergenceTable:
    from .tfpde import solve_subdiffusion, solve_subdiffusion_l1_baseline

    rule = cfg.get("sigma_rule", "list:0.75 1.0 1.25 1.5 1.75 2.0 2.25 2.5 2.75 3.0")
    problem = problems.subdiffusion_forced_problem(_mesh_from(cfg, problems.two_zone_unit_mesh))

    def solve(col, tau):
        if col == "l1":
            return solve_subdiffusion_l1_baseline(problem, tau)
        return solve_subdiffusion(problem, tau, sigma_list(rule, int(col), problem.alphas[0]))

    return _field_study(cfg, _columns(cfg), solve, "average")


# ---------------------------------------------------------------------------
# operator / diagnostics studies


def _run_operator(cfg: StudyConfig) -> RowTable:
    from .corrections import CorrectionSet, starting_weight_table
    from .glweights import rl_deriv_power, step_count, wsgl_weights

    alpha = _parse_number(cfg.require("alpha"))
    tau = _parse_number(cfg.require("tau"))
    T = _parse_number(cfg.get("t_end", "1"))
    m_values = [int(t) for t in _parse_list(cfg.require("columns"))]
    rule = cfg.get("sigma_rule", "k*alpha")
    expos = _numbers(cfg.require("u_exponents"))
    n_t = step_count(tau, T)
    t = np.arange(n_t + 1) * tau
    U = sum(t**p for p in expos)
    exact = np.zeros(n_t + 1)
    exact[1:] = sum(rl_deriv_power(alpha, p, 1.0) * t[1:] ** (p - alpha) for p in expos)
    g = wsgl_weights(alpha, n_t)

    def run_cell(m):
        base = tau ** (-alpha) * np.convolve(g, U)[: n_t + 1]
        if m:
            cset = CorrectionSet(sigma_list(rule, m, alpha))
            W = starting_weight_table(alpha, cset, n_t)
            base = base + tau ** (-alpha) * (W @ U[1 : m + 1])
        return np.abs(base - exact)

    errs = [run_cell(m) for m in m_values]
    header = ["t"] + [f"m{m}_error" for m in m_values]
    rows = []
    for n in range(1, n_t + 1):
        rows.append([f"{t[n]:.6e}"] + [f"{e[n]:.4e}" for e in errs])
    return RowTable(header, rows)


def _run_diagnostics(cfg: StudyConfig) -> RowTable:
    from .corrections import CorrectionSet, vandermonde_diagnostics

    alphas = _numbers(cfg.require("alphas"))
    m_values = [int(t) for t in _parse_list(cfg.require("columns"))]
    rule = cfg.get("sigma_rule", "k*alpha")

    rows = []
    for alpha in alphas:
        for m in m_values:
            diag = vandermonde_diagnostics(alpha, CorrectionSet(sigma_list(rule, m, alpha)))
            rows.append([f"{alpha:g}", f"{m}", f"{diag.condition_number:.4e}", f"{diag.max_residual:.4e}"])
    return RowTable(["alpha", "m", "condition", "residual"], rows)


# study kind -> (its runner; the fracstep modules it takes its names from, which
# parse_config imports, each with corrections, which run_study reads, and the
# weights and memory core under it; the config keys it reads but kind and out)
_FIELD_KEYS = "taus columns sigma_rule norm reference mesh degrees"
_KINDS = {
    "fode": (_run_fode, ("fode",), "problem alpha alphas t_end taus columns sigma_rule norms reference"),
    "wave": (_run_wave, ("sem", "tfpde"), "case nu alpha alphas apply_to " + _FIELD_KEYS),
    "subdiff": (_run_subdiff, ("sem", "tfpde"), _FIELD_KEYS),
    "operator": (_run_operator, ("corrections",), "alpha tau t_end u_exponents columns sigma_rule"),
    "diagnostics": (_run_diagnostics, ("corrections",), "alphas columns sigma_rule"),
}


def run_study(config: StudyConfig, out: str | None = None):
    """Run one study; returns its table and writes the CSV when ``out`` (or
    the config's own ``out`` key) names a target.  Its tau-free tables are
    built once per study (``memory.study_tables``)."""
    from .memory import study_tables

    with study_tables():
        table = _KINDS[config.kind][0](config)
    target = out or config.get("out")
    if target:
        table.to_csv(target)
    return table
