import ast
import importlib
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import numpy as np
import pytest

import fracstep
from fracstep.cli import main as cli_main
from fracstep.harness import (
    ConvergenceTable,
    observed_order,
    parse_config,
    run_study,
    sigma_list,
)


def test_observed_order_examples():
    assert observed_order([4e-4, 1e-4]) == pytest.approx([2.0])
    # published tables carry inconsistently rounded order columns; the exact
    # log2 ratio of the printed errors is 0.9387
    (order,) = observed_order([8.1812e-4, 4.2685e-4])
    assert abs(order - 0.93) < 0.01
    assert observed_order([0.5, 0.5]) == pytest.approx([0.0])
    orders = observed_order([1e-3, 0.0, -1.0])
    assert all(math.isnan(o) for o in orders)
    with pytest.raises(ValueError):
        observed_order([1e-3])


def test_sigma_list_rules():
    assert sigma_list("k*alpha", 3, 0.1) == pytest.approx([0.1, 0.2, 0.3])
    assert sigma_list("(k+1)*alpha", 2, 0.5) == pytest.approx([1.0, 1.5])
    assert sigma_list("(k+1)*alpha+0.05", 2, 0.1) == pytest.approx([0.25, 0.35])
    assert sigma_list("k*alpha+0.05", 2, 0.1) == pytest.approx([0.15, 0.25])
    assert sigma_list("k+1", 3, 0.7) == pytest.approx([2.0, 3.0, 4.0])
    assert sigma_list("list: 0.4 0.9 1.3", 2, 0.1) == pytest.approx([0.4, 0.9])
    assert sigma_list("k*alpha", 0, 0.1) == ()
    with pytest.raises(ValueError):
        sigma_list("bogus", 2, 0.1)
    with pytest.raises(ValueError):
        sigma_list("list: 0.4", 2, 0.1)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


FODE_STUDY = """
[table]
kind = fode
problem = two_term_ml
alpha = 0.5
taus = 2^-5 2^-6
columns = 0 2
sigma_rule = (k+1)*alpha
norms = max final
reference = exact
"""


CUBIC_STUDY = """
[cubic]
kind = fode
problem = nonlinear_cubic
alphas = 0.7 0.5
t_end = 1
taus = 2^-4 2^-5 2^-3
columns = l1
sigma_rule = list: 0.7 0.9
norms = max final
reference = trapezoidal:2^-6
"""


def test_parse_config(tmp_path):
    path = _write(tmp_path, "study.ini", FODE_STUDY)
    studies = parse_config(path)
    assert len(studies) == 1
    assert studies[0].kind == "fode"
    assert studies[0].name == "table"
    assert studies[0].require("taus") == "2^-5 2^-6"
    with pytest.raises(FileNotFoundError):
        parse_config(tmp_path / "missing.ini")


def test_parse_config_rejects_unknown_kind(tmp_path):
    path = _write(tmp_path, "bad.ini", "[x]\nkind = nonsense\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_fode_study_table_shape(tmp_path):
    path = _write(tmp_path, "study.ini", FODE_STUDY)
    (study,) = parse_config(path)
    table = run_study(study)
    assert isinstance(table, ConvergenceTable)
    assert table.taus == pytest.approx([2.0**-5, 2.0**-6])
    assert list(table.groups) == ["m0", "m2"]
    assert len(table.groups["m0"]["max"]) == 2
    # the corrected column is strictly better
    assert table.groups["m2"]["max"][0] < table.groups["m0"]["max"][0]


def test_csv_deterministic_and_consistent(tmp_path):
    path = _write(tmp_path, "study.ini", FODE_STUDY)
    (study,) = parse_config(path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_study(study, str(out1))
    run_study(study, str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    # orders recomputed from the emitted errors match the emitted orders
    lines = out1.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for col, name in enumerate(header):
        if not name.endswith("_error"):
            continue
        errs = [float(r[col]) for r in rows]
        emitted = [float(r[col + 1]) for r in rows[1:]]
        recomputed = observed_order(errs)
        for a, b in zip(emitted, recomputed):
            assert abs(a - b) <= 0.005


def test_single_tau_study_has_empty_order_column(tmp_path):
    cfg = FODE_STUDY.replace("taus = 2^-5 2^-6", "taus = 2^-5")
    path = _write(tmp_path, "one.ini", cfg)
    (study,) = parse_config(path)
    out = tmp_path / "one.csv"
    run_study(study, str(out))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[2] == "" and row[4] == ""


def test_diagnostics_study(tmp_path):
    path = _write(
        tmp_path,
        "diag.ini",
        "[diag]\nkind = diagnostics\nalphas = 0.1 0.3\ncolumns = 2 3\nsigma_rule = k*alpha\n",
    )
    (study,) = parse_config(path)
    table = run_study(study)
    assert table.header == ["alpha", "m", "condition", "residual"]
    assert len(table.rows) == 4
    # alpha = 0.1, m = 3 condition lands on the published magnitude
    row = [r for r in table.rows if r[0] == "0.1" and r[1] == "3"][0]
    assert float(row[2]) == pytest.approx(3.20e3, rel=0.05)


def test_operator_study(tmp_path):
    path = _write(
        tmp_path,
        "op.ini",
        "[op]\nkind = operator\nalpha = 0.05\ntau = 1e-2\ncolumns = 1 6\n"
        "sigma_rule = k*alpha\nu_exponents = 0.4\n",
    )
    (study,) = parse_config(path)
    table = run_study(study)
    assert table.header == ["t", "m1_error", "m6_error"]
    assert len(table.rows) == 100
    tail = np.array([[float(r[1]), float(r[2])] for r in table.rows if float(r[0]) >= 0.2])
    assert tail[:, 1].max() < tail[:, 0].max()


def test_operator_study_rejects_tau_not_dividing_t_end(tmp_path, capsys):
    # tau = 0.3 used to stop silently at t = 0.9
    path = _write(
        tmp_path,
        "op.ini",
        "[op-short]\nkind = operator\nalpha = 0.5\ntau = 0.3\nt_end = 1\ncolumns = 1\n"
        "u_exponents = 0.5\n",
    )
    (study,) = parse_config(path)
    with pytest.raises(ValueError, match=r"tau=0\.3 must divide T=1"):
        run_study(study)
    code = cli_main(["operator-study", "--config", str(path), "--out", str(tmp_path / "op.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "[op-short]" in err and "tau=0.3" in err and "T=1" in err
    assert not (tmp_path / "op.csv").exists()


DIAGNOSTICS = "[d]\nkind = diagnostics\nalphas = 0.5\ncolumns = 1 2\n"


def test_cli_roundtrip(tmp_path, capsys):
    cfg = _write(tmp_path, "d.ini", DIAGNOSTICS)
    out = tmp_path / "diag.csv"
    code = cli_main(["diagnostics", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "alpha,m,condition,residual"


def test_cli_kind_mismatch(tmp_path):
    cfg = _write(tmp_path, "d.ini", DIAGNOSTICS)
    code = cli_main(["fode", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_error_path(tmp_path):
    cfg = _write(tmp_path, "bad.ini", "[d]\nkind = diagnostics\nalphas = 0.5\n")  # missing columns
    code = cli_main(["diagnostics", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_cli_error_names_the_study(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "two.ini",
        DIAGNOSTICS.replace("[d]", "[fine]") + "[broken]\nkind = diagnostics\nalphas = 0.5\n",
    )
    code = cli_main(["diagnostics", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "[broken]" in err and "columns" in err


def test_wave_study_smoke(tmp_path):
    cfg = _write(
        tmp_path,
        "wave.ini",
        "[wave]\nkind = wave\ncase = smooth\nalphas = 0.5\nnu = 2\n"
        "taus = 2^-4 2^-5\ncolumns = 0 1\napply_to = m3\nsigma_rule = k+1\n"
        "mesh = -1 0 1\ndegrees = 10 10\n",
    )
    (study,) = parse_config(cfg)
    table = run_study(study)
    assert list(table.groups) == ["a0.5_m0", "a0.5_m1"]
    orders = observed_order(table.groups["a0.5_m1"]["final"])
    assert 1.5 <= orders[0] <= 2.5


def test_wave_labels_tell_close_alphas_apart(tmp_path):
    # both alphas read 0.5 at 6 significant digits; each label must still
    # name its own column, in the table and in the CSV header
    cfg = _write(
        tmp_path,
        "wave.ini",
        "[wave]\nkind = wave\ncase = smooth\nalphas = 0.5000001 0.5000002\n"
        "taus = 2^-2\ncolumns = 0\nmesh = -1 0 1\ndegrees = 4 4\n",
    )
    (study,) = parse_config(cfg)
    table = run_study(study, str(tmp_path / "wave.csv"))
    assert list(table.groups) == ["a0.5000001_m0", "a0.5000002_m0"]
    header = (tmp_path / "wave.csv").read_text().splitlines()[0].split(",")
    assert len(header) == len(set(header)) == 5
    first, second = (data["final"] for data in table.groups.values())
    assert first != second


def test_subdiff_study_smoke(tmp_path):
    cfg = _write(
        tmp_path,
        "sub.ini",
        "[sub]\nkind = subdiff\ntaus = 2^-4 2^-5\ncolumns = l1 1\n"
        "sigma_rule = list: 0.75 1.0\nreference = self:2^-8\n"
        "mesh = 0 0.5 1\ndegrees = 8 8\n",
    )
    (study,) = parse_config(cfg)
    table = run_study(study)
    assert list(table.groups) == ["l1", "m1"]
    assert all(e > 0 for e in table.groups["m1"]["average"])


def test_wave_forced_study_self_reference(tmp_path):
    cfg = _write(
        tmp_path,
        "wf.ini",
        "[wf]\nkind = wave\ncase = forced\nalpha = 0.5\ntaus = 2^-4 2^-5\n"
        "columns = 1\nsigma_rule = list: 2.0 2.5\nreference = self:2^-7\n"
        "mesh = -1 0 1\ndegrees = 8 8\n",
    )
    (study,) = parse_config(cfg)
    table = run_study(study)
    assert len(table.groups["a0.5_m1"]["final"]) == 2


FIELD_STUDIES = {
    # kind -> (its solvers, the rest of a two-column study with a self reference)
    "wave": (("solve_wave",), "case = forced\nalpha = 0.5\ncolumns = 0 1\nsigma_rule = list: 2.0 2.5\nmesh = -1 0 1\n"),
    "subdiff": (
        ("solve_subdiffusion", "solve_subdiffusion_l1_baseline"),
        "columns = l1 1\nsigma_rule = list: 0.75 1.0\nmesh = 0 0.5 1\n",
    ),
}


FIELD_STUDY = "[f]\nkind = {}\ntaus = 2^-4 2^-5\nreference = self:2^-7\ndegrees = 8 8\n"


def _field_study(tmp_path, kind, extra=""):
    text = FIELD_STUDY.format(kind) + FIELD_STUDIES[kind][1] + extra
    (study,) = parse_config(_write(tmp_path, "f.ini", text))
    return study


@pytest.mark.parametrize("kind", ["wave", "subdiff"])
def test_wave_self_reference_solved_once_per_column(tmp_path, monkeypatch, kind):
    # each column solves its reference once, then its cells finest first, so
    # that each of its tau-free tables is built once, at the reference's level
    from fracstep import tfpde

    taus_solved = []
    for name in FIELD_STUDIES[kind][0]:

        def counting_solve(problem, tau, *args, solve=getattr(tfpde, name), **kwargs):
            taus_solved.append(tau)
            return solve(problem, tau, *args, **kwargs)

        monkeypatch.setattr(tfpde, name, counting_solve)
    table = run_study(_field_study(tmp_path, kind))
    assert taus_solved == [2.0**-7, 2.0**-5, 2.0**-4] * 2
    assert [len(errors) for data in table.groups.values() for errors in data.values()] == [2, 2]


def _no_solves(monkeypatch):
    from fracstep import fode, tfpde

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the study was checked")

    for name in ("solve_corrected_wsgl", "solve_l1", "solve_trapezoidal"):
        monkeypatch.setattr(fode, name, no_solve)
    for name in ("solve_wave", "solve_subdiffusion", "solve_subdiffusion_l1_baseline"):
        monkeypatch.setattr(tfpde, name, no_solve)


@pytest.mark.parametrize("norm", ["max", "final average"])
@pytest.mark.parametrize("kind", ["fode", "wave", "subdiff"])
def test_unknown_norm_is_rejected_before_any_solve(tmp_path, monkeypatch, kind, norm):
    # a PDE norm other than final or average used to be written as a final-time
    # error under its own name; a bad fode norm used to fail after the solves
    _no_solves(monkeypatch)
    if kind == "fode":
        (study,) = parse_config(_write(tmp_path, "f.ini", CUBIC_STUDY.replace("max final", f"{norm} bogus")))
        what = f"norms = {norm} bogus: pick from max, final, avg"
    else:
        study = _field_study(tmp_path, kind, f"norm = {norm}\n")
        what = f"norm = {norm}: pick from final, average"
    with pytest.raises(ValueError, match=f"^{re.escape(what)}$"):
        run_study(study)


@pytest.mark.parametrize(
    "kind, key, value, repeated",
    [
        ("fode", "columns", "l1 1 l1", "l1"),
        ("fode", "columns", "0 2 2", "2"),
        ("wave", "columns", "0 1 0", "0"),
        ("wave", "alphas", "0.5 0.2 0.50", "0.50"),
        ("subdiff", "columns", "l1 1 1", "1"),
    ],
)
def test_repeated_column_is_rejected_before_any_solve(tmp_path, monkeypatch, kind, key, value, repeated):
    # a repeated column used to be solved again and written twice under one
    # CSV header; the fode study's trapezoidal reference is not solved either
    _no_solves(monkeypatch)
    if kind == "fode":
        (study,) = parse_config(_write(tmp_path, "f.ini", CUBIC_STUDY.replace("columns = l1", f"columns = {value}")))
    else:  # replace the key's line, which reads "alpha = 0.5" for the wave's alphas
        solvers, text = FIELD_STUDIES[kind]
        text = re.sub(rf"^{key.rstrip('s')}s? = .*$", f"{key} = {value}", text, flags=re.M)
        monkeypatch.setitem(FIELD_STUDIES, kind, (solvers, text))
        study = _field_study(tmp_path, kind)
    what = f"{key} = {value}: {repeated} repeats"
    with pytest.raises(ValueError, match=f"^{re.escape(what)}$"):
        run_study(study)


@pytest.mark.parametrize(
    "text, what",
    [
        # the wave and subdiff spelling of the norm key
        (
            FODE_STUDY.replace("norms = max final", "norm = max"),
            "[table] unknown key 'norm': a fode study takes problem, alpha, alphas, t_end, taus, columns, "
            "sigma_rule, norms, reference, out",
        ),
        (FODE_STUDY + "sigma_rul = (k+1)*alpha+0.3\n", "[table] unknown key 'sigma_rul': a fode study takes "),
        (FIELD_STUDY.format("subdiff") + FIELD_STUDIES["subdiff"][1] + "alphas = 0.6 0.3\n", "[f] unknown key 'alphas'"),
        (FIELD_STUDY.format("wave") + FIELD_STUDIES["wave"][1] + "nu = 3\n", "unknown key 'nu': the forced wave fixes nu = 1"),
        # every column a baseline: the rule is still checked, before the reference is solved
        (CUBIC_STUDY.replace("l1", "l1 trap").replace("list: 0.7 0.9", "bogus"), "[cubic] unknown sigma rule 'bogus'"),
        (FODE_STUDY.replace("(k+1)*alpha", "list: 1.0"), "[table] sigma_rule = list: 1.0: fewer than m = 2 exponents"),
        # keys that the section's variant of its kind does not read, each of which used to be ignored
        (
            FIELD_STUDY.format("wave") + FIELD_STUDIES["wave"][1] + "alphas = 0.4 0.6\n",
            "[f] unread key 'alpha': the wave's orders are its 'alphas'",
        ),
        (FODE_STUDY + "alphas = 0.9 0.1\n", "[table] unread key 'alphas': problem two_term_ml reads 'alpha'"),
        (
            FIELD_STUDY.format("subdiff") + FIELD_STUDIES["subdiff"][1].replace("mesh = 0 0.5 1\n", ""),
            "[f] unread key 'degrees': 'degrees' goes with 'mesh'",
        ),
        # a degree that used to fail at run time, with "invalid literal for int()"
        (
            FIELD_STUDY.format("wave").replace("degrees = 8 8", "degrees = 8.5 8") + FIELD_STUDIES["wave"][1],
            "[f] degrees = 8.5 8: 8.5 is not an integer >= 1",
        ),
        (
            FIELD_STUDY.format("subdiff").replace("degrees = 8 8", "degrees = 8 0") + FIELD_STUDIES["subdiff"][1],
            "[f] degrees = 8 0: 0 is not an integer >= 1",
        ),
    ],
    ids=["fode-norm", "fode-typo", "subdiff-alphas", "forced-wave-nu", "baselines-bogus-rule", "short-list",
         "wave-alpha-beside-alphas", "two-term-alphas", "degrees-without-mesh", "fractional-degree", "zero-degree"],
)
def test_unread_key_and_bad_sigma_rule_are_rejected_before_any_solve(tmp_path, monkeypatch, text, what):
    # each of these used to write a table: the key was never read, or the rule
    # was expanded only in the first corrected cell
    _no_solves(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(what)}"):
        for study in parse_config(_write(tmp_path, "s.ini", text)):
            run_study(study)


MEMO_STUDIES = {
    # kind -> (a study with two columns or more at each tau, its distinct
    # (kernel, shift) run inverses: one per tau, and for a subdiff study one
    # per tau for its L1 column and one for its WSGL columns)
    "wave": (FIELD_STUDY.format("wave") + FIELD_STUDIES["wave"][1], 3),
    "subdiff": (FIELD_STUDY.format("subdiff") + "columns = l1 1 2\nsigma_rule = list: 0.75 1.0\nmesh = 0 0.5 1\n", 6),
    "fode": (FODE_STUDY, 2),
}


@pytest.mark.parametrize("kind", MEMO_STUDIES)
def test_study_builds_one_run_inverse_per_kernel_and_shift(tmp_path, monkeypatch, kind):
    # each cell used to build its run inverse again, the same at one tau
    from fracstep import memory, tfpde

    text, distinct = MEMO_STUDIES[kind]
    built, build = [], memory.run_inverse

    def counting(c, d):
        built.append((c, d))
        return build(c, d)

    monkeypatch.setattr(memory, "run_inverse", counting)
    monkeypatch.setattr(tfpde, "run_inverse", counting)
    (study,) = parse_config(_write(tmp_path, "s.ini", text))
    run_study(study)
    same = lambda a, b: a[0].shape == b[0].shape and all(np.array_equal(x, y) for x, y in zip(a, b))
    assert len(built) == distinct and not any(same(a, b) for i, a in enumerate(built) for b in built[:i])


def test_benchmark_configs_pass_the_parse_checks(tmp_path, monkeypatch):
    # every shipped study and every benchmark workload variant, at full size
    # and tiny, through the key and sigma-rule checks of parse_config, which
    # solves nothing: a config the checks reject fails here, not in a
    # benchmark run
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    configs = sorted((root / "studies").glob("*.ini"))
    for name, w in workloads.items():
        for variant in range(len(w.menu)):
            for tiny in (False, True):
                configs.append(_write(tmp_path, f"{name}-{variant}-{tiny}.ini", w.config_text(variant, tiny)))
    assert len(configs) == 7 + 2 * sum(len(w.menu) for w in workloads.values()) == 31
    for path in configs:
        assert parse_config(path)


def test_failing_fode_reference_names_its_spec(tmp_path, capsys):
    # the cells' taus divide t_end = 1 but the reference's does not; the
    # error used to be a bare "tau=0.3 must divide T=1"
    cfg = _write(tmp_path, "tr.ini", CUBIC_STUDY.replace("[cubic]", "[tr]").replace("trapezoidal:2^-6", "trapezoidal:0.3"))
    (study,) = parse_config(cfg)
    what = "reference = trapezoidal:0.3: tau=0.3 must divide T=1"
    with pytest.raises(ValueError, match=f"^{re.escape(what)}$"):
        run_study(study)
    assert cli_main(["fode", "--config", str(cfg), "--out", str(tmp_path / "tr.csv")]) == 1
    assert f"error in study [tr]: {what}" in capsys.readouterr().err


def test_fode_exact_reference_holds_where_its_series_cancels(tmp_path):
    # at alpha = 0.1 and t up to 100 the exact solution's Mittag-Leffler
    # terms reach 2e46, so every error of the table rests on the re-sum
    # carrying digits for them; the solution itself lies in (0, 1)
    cfg = _write(
        tmp_path,
        "ml.ini",
        "[long]\nkind = fode\nproblem = two_term_ml\nalpha = 0.1\nt_end = 100\ntaus = 50 25\n"
        "columns = 0 1\nsigma_rule = (k+1)*alpha\nnorms = max\nreference = exact\n",
    )
    out = tmp_path / "ml.csv"
    assert cli_main(["fode", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    errors = [float(row[i]) for row in rows for i in (1, 3)]
    assert len(errors) == 4 and max(errors) < 0.05


REFERENCE_FORMS = {
    # study -> (its kind and problem, the reference forms it takes)
    "subdiff": ("kind = subdiff\n", "self:<tau>"),
    "wave-forced": ("kind = wave\ncase = forced\n", "self:<tau>"),
    "wave-smooth": ("kind = wave\ncase = smooth\n", "exact or self:<tau>"),
    "fode-cubic": ("kind = fode\nproblem = nonlinear_cubic\nalphas = 0.7 0.5\n", "trapezoidal:<tau> or l1:<tau>"),
    "fode-ml": ("kind = fode\nproblem = two_term_ml\nalpha = 0.5\n", "exact or trapezoidal:<tau> or l1:<tau>"),
}


@pytest.mark.parametrize(
    "name, reference",
    [
        (name, ref)
        for name, (_, forms) in REFERENCE_FORMS.items()
        for ref in ("exact", "self", "l1:", "bogus:2^-6")
        if not (ref == "exact" and forms.startswith("exact"))
    ],
)
def test_bad_reference_names_the_accepted_forms(tmp_path, name, reference):
    # reference = exact on a problem with no exact solution used to fail on an
    # unpacking error
    kind, forms = REFERENCE_FORMS[name]
    cfg = f"[r]\n{kind}taus = 2^-3\ncolumns = 1\nreference = {reference}\n"
    (study,) = parse_config(_write(tmp_path, "r.ini", cfg))
    what = f"reference = {reference}: this {study.kind} study takes {forms}"
    with pytest.raises(ValueError, match=f"^{re.escape(what)}$"):
        run_study(study)


def test_smooth_wave_honours_a_self_reference(tmp_path):
    # a smooth wave study given self:<tau> used to be scored against the exact
    # solution
    from fracstep import problems, sem, tfpde

    text = "case = smooth\nalpha = 0.5\ntaus = 2^-3 2^-4\ncolumns = 1\napply_to = m3\nmesh = -1 0 1\ndegrees = 8 8\n"
    tables = {}
    for reference in ("exact", "self:2^-5"):
        (study,) = parse_config(_write(tmp_path, "w.ini", f"[w]\nkind = wave\n{text}reference = {reference}\n"))
        tables[reference] = run_study(study).groups["a0.5_m1"]["final"]
    prob = problems.wave_smooth_problem(0.5, 2.0, sem.SpectralMesh([-1.0, 0.0, 1.0], (8, 8)))
    ref = tfpde.solve_wave(prob, 2.0**-5, (2.0,), 0, 0, 1)
    assert tables["self:2^-5"] == [tfpde.l2_error(tfpde.solve_wave(prob, 2.0**-p, (2.0,), 0, 0, 1), ref) for p in (3, 4)]
    assert tables["exact"] == [
        tfpde.l2_error(tfpde.solve_wave(prob, 2.0**-p, (2.0,), 0, 0, 1), problems.wave_smooth_exact()) for p in (3, 4)
    ]


def test_failing_cell_names_its_column_and_tau(tmp_path, capsys):
    cfg = _write(tmp_path, "f.ini", FODE_STUDY.replace("2^-5 2^-6", "0.5").replace("0 2", "0 3"))
    (study,) = parse_config(cfg)
    what = "m3, tau = 0.5: solve_corrected_wsgl: n_T = 2 < m = 3: horizon too short for the correction stencil"
    with pytest.raises(ValueError, match=f"^{re.escape(what)}$"):
        run_study(study)
    assert cli_main(["fode", "--config", str(cfg), "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    assert "[table]" in err and what in err
    # a self reference is made per column, and a failing one names its column
    text = "[w]\nkind = wave\ncase = forced\ntaus = 2^-4\ncolumns = 2\nsigma_rule = list: 2.0 2.5\nreference = self:1\n"
    (study,) = parse_config(_write(tmp_path, "w.ini", text + "mesh = -1 0 1\ndegrees = 8 8\n"))
    what = "a0.5_m2 reference: solve_wave: n_T = 1 < m = 2: horizon too short for the correction stencil"
    with pytest.raises(ValueError, match=f"^{re.escape(what)}$"):
        run_study(study)


def test_fode_exact_reference_evaluated_once(tmp_path, monkeypatch):
    from fracstep import problems

    sizes, ml_calls = [], []
    make_exact, ml = problems.two_term_ml_exact, problems.mittag_leffler

    def counting_make_exact(alpha):
        exact = make_exact(alpha)

        def counted(t):
            sizes.append(np.size(t))
            return exact(t)

        return counted

    def counting_ml(alpha, z):
        ml_calls.append(alpha)
        return ml(alpha, z)

    monkeypatch.setattr(problems, "two_term_ml_exact", counting_make_exact)
    monkeypatch.setattr(problems, "mittag_leffler", counting_ml)
    (study,) = parse_config(_write(tmp_path, "f.ini", FODE_STUDY))
    run_study(study)
    # one call over the union of the 2^-5 and 2^-6 grids, which is the 2^-6 grid
    assert sizes == [65]
    assert ml_calls == [0.5]


@pytest.mark.parametrize("taus", ["2^-4 2^-5 2^-6", "0.1 0.04"])
def test_fode_exact_reference_matches_per_cell_evaluation(tmp_path, monkeypatch, taus):
    # the shared evaluation gives each cell the bits of a call on its own grid,
    # on a nested chain and on one whose grids share only some times
    from fracstep import harness

    text = FODE_STUDY.replace("2^-5 2^-6", taus).replace("0 2", "0 2 l1")
    text = text.replace("max final", "max final avg")
    (study,) = parse_config(_write(tmp_path, "f.ini", text))
    shared = run_study(study)
    monkeypatch.setattr(harness, "_fode_reference", lambda cfg, problem, exact, taus: exact)
    per_cell = run_study(study)
    assert shared.groups == per_cell.groups


def test_fode_study_builds_each_tau_free_table_once(tmp_path, monkeypatch):
    # one starting-weight table per (column, term) and one trapezoid table set
    # per study, built finest first; the store ends with the study
    from fracstep import corrections, fode

    built = []

    def spy(module, name):
        build = getattr(module, name)

        def counted(*args):
            built.append((name, args[-1]))
            return build(*args)

        monkeypatch.setattr(module, name, counted)

    spy(corrections, "_starting_weights")
    spy(fode, "_trap_tables")
    text = CUBIC_STUDY.replace("columns = l1", "columns = 0 2 trap")
    (study,) = parse_config(_write(tmp_path, "f.ini", text))
    table = run_study(study)
    # the reference's trapezoid at 64 steps, then column 2 from its finest cell
    assert built == [("_trap_tables", 64)] + [("_starting_weights", 32)] * 2
    assert [len(errors) for data in table.groups.values() for errors in data.values()] == [3] * 6
    built.clear()
    fracstep.starting_weight_table(0.5, fracstep.CorrectionSet((1.0, 1.5)), 16)
    assert built == [("_starting_weights", 16)]


def test_package_modules_stay_below_the_compile_step():
    # CPython 3.11 compiles a module of 4096 parser tokens or more with more
    # memory, which the benchmark's peak_rss_mb reads on every workload;
    # comments and non-logical newlines do not reach the parser
    sizes = {}
    for path in sorted(pathlib.Path(fracstep.__file__).parent.glob("*.py")):
        with path.open("rb") as f:
            skip = (tokenize.ENCODING, tokenize.NL, tokenize.COMMENT)
            sizes[path.name] = sum(t.type not in skip for t in tokenize.tokenize(f.readline))
    assert {name: n for name, n in sizes.items() if n >= 4096} == {}


def test_fode_exact_reference_rejects_times_off_its_grids(tmp_path):
    from fracstep import harness, problems

    (study,) = parse_config(_write(tmp_path, "f.ini", FODE_STUDY))
    exact = problems.two_term_ml_exact(0.5)
    sampled = harness._fode_reference(study, problems.two_term_ml_problem(0.5), exact, [0.25, 0.1])
    t = np.array([0.0, 0.1, 0.25, 0.5, 1.0])
    assert np.array_equal(sampled(t), exact(t))
    with pytest.raises(ValueError, match=r"t = 0\.15\b"):
        sampled(np.array([0.2, 0.15]))
    with pytest.raises(ValueError, match=r"t = 1\.25\b"):
        sampled(np.array([1.25]))


def test_wave_study_builds_one_mesh(tmp_path, monkeypatch):
    from fracstep import sem

    built = []
    init = sem.SpectralMesh.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(sem.SpectralMesh, "__init__", counting_init)
    for mesh in ("", "mesh = -1 0 1\ndegrees = 8 8\n"):
        built.clear()
        cfg = _write(
            tmp_path,
            "wf.ini",
            "[wf]\nkind = wave\ncase = forced\nalphas = 0.4 0.5\ntaus = 2^-2 2^-3\n"
            "columns = 0 1\nsigma_rule = list: 2.0 2.5\nreference = self:2^-4\n" + mesh,
        )
        (study,) = parse_config(cfg)
        run_study(study)
        assert len(built) == 1


def test_wave_study_inverts_the_projection_stiffness_once(tmp_path, monkeypatch):
    # every H1 projection and every march of the study's one mesh reads the
    # same inverse and the same modal basis
    from fracstep import sem

    S0 = sem.SpectralMesh([-1.0, 0.0, 1.0], (8, 8)).forms().stiffness0()
    inverted, decomposed = [], []
    spd_inverse, eigh = sem.spd_inverse, np.linalg.eigh

    def counting(A):
        inverted.append(np.array_equal(A, S0))
        return spd_inverse(A)

    def counting_eigh(A, *args, **kwargs):
        decomposed.append(A.shape)
        return eigh(A, *args, **kwargs)

    monkeypatch.setattr(sem, "spd_inverse", counting)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = _write(
        tmp_path,
        "wf.ini",
        "[wf]\nkind = wave\ncase = forced\nalphas = 0.4 0.5\ntaus = 2^-2 2^-3\n"
        "columns = 0 1\nsigma_rule = list: 2.0 2.5\nreference = self:2^-4\n"
        "mesh = -1 0 1\ndegrees = 8 8\n",
    )
    (study,) = parse_config(cfg)
    run_study(study)
    assert sum(inverted) == 1
    assert decomposed == [S0.shape]


def test_decimated_reference_gives_bit_identical_errors():
    # the harness keeps every g-th reference level, g the gcd of the cells'
    # ratios tau / tau_ref; every error norm reads the same levels
    from fracstep.harness import _decimated
    from fracstep.problems import subdiffusion_forced_problem, two_zone_unit_mesh
    from fracstep.tfpde import l2_error, solve_subdiffusion

    prob = subdiffusion_forced_problem(two_zone_unit_mesh(8))
    ref = solve_subdiffusion(prob, 2.0**-8, (0.75, 1.0))
    taus = [2.0**-4, 2.0**-6]
    kept = _decimated(ref, taus)
    assert kept.tau == 2.0**-6 and kept.n_steps == 64 and not np.shares_memory(kept.u, ref.u)
    for tau in taus:
        hist = solve_subdiffusion(prob, tau, (0.75, 1.0))
        for at in ("final", "average"):
            assert l2_error(hist, kept, at=at) == l2_error(hist, ref, at=at)
    # a ratio that is not an integer keeps every level, and is still rejected
    full = _decimated(ref, [2.0**-4, 0.1])
    assert full.tau == ref.tau and np.array_equal(full.u, ref.u)
    with pytest.raises(ValueError, match="integer multiple"):
        l2_error(solve_subdiffusion(prob, 0.1, (0.75, 1.0)), full)


def test_short_or_misaligned_reference_is_rejected_alike_for_paths_and_fields():
    # fode's error_report and tfpde's l2_error take a finer reference by one
    # stride rule, so a path and a field history fail with the same message
    from fracstep.fode import error_report
    from fracstep.glweights import SampledPath
    from fracstep.problems import two_zone_unit_mesh
    from fracstep.tfpde import FieldHistory, l2_error

    mesh = two_zone_unit_mesh(4)
    k = len(mesh.interior)
    field = lambda tau, n: FieldHistory(mesh, tau, (np.eye(k), np.zeros((n + 1, k)), 0.0))
    path = lambda tau, n: SampledPath(tau, np.zeros(n + 1))
    for ref_tau, ref_n in ((0.125, 6), (0.1, 10)):  # too short; not a divisor of 0.25
        with pytest.raises(ValueError, match=f"tau = {ref_tau:g} with {ref_n} steps") as path_error:
            error_report(path(0.25, 4), path(ref_tau, ref_n))
        with pytest.raises(ValueError, match="tau = 0.25 with 4 steps") as field_error:
            l2_error(field(0.25, 4), field(ref_tau, ref_n))
        assert str(path_error.value) == str(field_error.value)


def test_package_has_no_cross_module_private_imports():
    # weights and helpers are shared through public names only, and every
    # exported name resolves
    offenders = []
    for path in sorted(pathlib.Path(fracstep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []
    assert [name for name in fracstep.__all__ if not hasattr(fracstep, name)] == []


def test_every_public_solver_runs_in_a_study_kind():
    # a solver that no study kind calls is an API only the tests use
    source = (pathlib.Path(fracstep.__file__).parent / "harness.py").read_text()
    solvers = [name for name in fracstep.__all__ if name.startswith("solve_")]
    assert len(solvers) >= 5
    assert [name for name in solvers if not re.search(rf"\b{name}\b", source)] == []


def test_shipped_study_configs_parse():
    here = pathlib.Path(__file__).resolve().parent.parent / "studies"
    files = sorted(here.glob("*.ini"))
    assert files, "study configs missing"
    kinds = set()
    for f in files:
        for study in parse_config(f):
            kinds.add(study.kind)
    assert {"fode", "wave", "subdiff", "diagnostics", "operator"} <= kinds


def test_import_path_loads_neither_scipy_nor_mpmath(tmp_path):
    # the CLI's set-up (import and config parse) stays on numpy alone; mpmath
    # is imported only by the rare Mittag-Leffler re-sum.  Importing the CLI
    # loads no solver, the parse loads the modules of the config's study
    # kinds and no others, and the run that follows loads no fracstep module
    src = pathlib.Path(fracstep.__file__).resolve().parent.parent
    code = (
        "import json, sys, fracstep, fracstep.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('fracstep.') or m in ('scipy', 'mpmath'))\n"
        "imported = loaded()\n"
        "fracstep.parse_config(sys.argv[2])\n"
        "parsed = loaded()\n"
        "rc = fracstep.cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])\n"
        "print(json.dumps([rc, imported, parsed, loaded()]))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    tables = {"fode": "two_term_alpha_half", "wave": "wave_smooth", "subdiff": "subdiffusion"}
    runs = {
        kind: subprocess.Popen(
            [sys.executable, "-c", code, kind, str(src.parent / "studies" / f"{stem}.ini"), str(tmp_path / f"{stem}.csv")],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        for kind, stem in tables.items()
    }
    cli = {f"fracstep.{m}" for m in ("cli", "harness", "problems", "specfun")}
    core = cli | {f"fracstep.{m}" for m in ("corrections", "glweights", "memory")}
    kinds = {"fode": core | {"fracstep.fode"}, "wave": core | {"fracstep.sem", "fracstep.tfpde"}}
    kinds["subdiff"] = kinds["wave"]
    for kind, proc in runs.items():
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        rc, imported, parsed, ran = json.loads(out.splitlines()[-1])
        assert rc == 0 and set(imported) == cli and set(parsed) == kinds[kind] and ran == parsed, kind
        _assert_table_as_shipped(f"{tables[kind]}.csv", tmp_path / f"{tables[kind]}.csv")


EXPECTED = pathlib.Path(__file__).resolve().parents[1] / "studies" / "expected"
# README's all-tables loop, which rewrites studies/expected/ from the repository root
REFRESH = (
    "for cfg in studies/*.ini; do kind=$(sed -n 's/^kind *= *//p' \"$cfg\" | head -n 1); "
    "[ \"$kind\" = operator ] && kind=operator-study; PYTHONPATH=src python -m fracstep.cli \"$kind\" "
    "--config \"$cfg\" --out \"studies/expected/$(basename \"$cfg\" .ini).csv\"; done"
)


def _assert_table_as_shipped(table: str, written: pathlib.Path) -> None:
    """``written`` holds the bytes of studies/expected/<table>; a mismatch
    names the table, the first differing row and column, and both values."""
    expected, got = (EXPECTED / table).read_text(), written.read_text()
    if got == expected:
        return
    cells = lambda text: [line.split(",") for line in text.splitlines()]
    want, have = cells(expected), cells(got)
    rows = enumerate(itertools.zip_longest(want, have, fillvalue=[]))
    diffs = ((r, c, x, y) for r, (a, b) in rows for c, (x, y) in enumerate(itertools.zip_longest(a, b)) if x != y)
    cell = next(diffs, None)
    where = "a line ending"
    if cell:
        row, col, x, y = cell
        key = f" ({want[0][0]} = {want[row][0]})" if 0 < row < len(want) else ""
        where = f"row {row}{key}, column {want[0][col] if col < len(want[0]) else col}: expected {x!r}, got {y!r}"
    pytest.fail(
        f"{table}: {where}.  The expected bytes were written with numpy 2.4.6 and OpenBLAS 0.3.31 "
        f"(x86-64, Haswell kernels; this run has numpy {np.__version__}), and another numpy or BLAS build "
        "may round a digit differently.  If the change is meant, refresh the tables from the repository "
        f"root with\n{REFRESH}\nand list each changed cell in CHANGES.md."
    )


def test_shipped_tables_match_the_expected_bytes(tmp_path):
    # the five tables that test_import_path_loads_neither_scipy_nor_mpmath does
    # not write, regenerated in-process and named as the CLI names them
    checked = {"two_term_alpha_half.csv", "wave_smooth.csv", "subdiffusion.csv"}  # by that test
    for stem in ("diagnostics", "operator_pointwise", "two_term_alpha_tenth", "wave_forced"):
        studies = parse_config(EXPECTED.parent / f"{stem}.ini")
        for study in studies:
            table = f"{stem}.csv" if len(studies) == 1 else f"{stem}-{study.name}.csv"
            run_study(study, str(tmp_path / table))
            _assert_table_as_shipped(table, tmp_path / table)
            checked.add(table)
    assert checked == {p.name for p in EXPECTED.glob("*.csv")}
    assert REFRESH in (EXPECTED.parents[1] / "README.md").read_text()


def test_package_names_load_their_submodule_on_access():
    for name in fracstep.__all__:
        assert name in dir(fracstep)
        module = importlib.import_module(f"fracstep.{fracstep._SUBMODULE[name]}")
        assert getattr(fracstep, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'solve_heat'"):
        fracstep.solve_heat


def test_readme_library_example_runs():
    # README's "Library example" block, run as written: a name it imports or
    # calls that leaves the API fails here, not silently in the docs
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"]["max"] < 1e-6
