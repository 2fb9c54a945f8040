import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import wigner_ldp
from wigner_ldp import cli, dyson, mc, oracles, profiles, ratefn
from wigner_ldp.cli import _build_parser, main
from wigner_ldp.dyson import (
    ConvergenceError, log_potential, solve_dyson, solve_dyson_finite, spectral_measure,
    stieltjes_inverse, stieltjes_total, support_edge,
)
from wigner_ldp.profiles import (
    ContinuousProfileSpec, ProfileConfigError, UsageError, block_profile, constant_profile,
    discretize, load_profile_file, wishart_profile,
)
from wigner_ldp.ratefn import (
    eval_F, eval_F_hat, eval_J, eval_K, eval_phi, f_hat_gradient, find_tilt_theta,
    outlier_equation_z, rate_function, rate_function_concave, rate_sweep, sup_theta,
)


@pytest.fixture(scope="module")
def prof_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("profiles")
    t = (np.arange(32) + 0.5) / 32
    s, u = np.meshgrid(t, t, indexing="ij")
    np.savetxt(d / "sigma.txt", 1 + 2 * np.exp(-4 * (s - u) ** 2) + s * u)
    paths = {}
    for name, cfg in {
        "constant": {"kind": "constant"},
        "wishart": {"kind": "wishart", "alpha": 2.0},
        "block": {"kind": "block", "alpha": 0.5, "sigma1": 1.0, "sigma2": 4.0},
        "grid8": {"kind": "grid", "file": "sigma.txt", "p": 8},
        "grid": {"kind": "grid", "file": "sigma.txt"},  # no block count p
        # the small block gets no row at N <= 8
        "light": {"kind": "piecewise_constant", "weights": [0.05, 0.95],
                  "sigma": [[1.0, 0.5], [0.5, 2.0]]},
        "three": {"kind": "piecewise_constant", "weights": [0.2, 0.3, 0.5],
                  "sigma": [[1.0, 0.4, 0.2], [0.4, 2.0, 0.7], [0.2, 0.7, 0.5]]},
        # a block part read from a grid file named relative to the profile
        "nested": {"kind": "block", "alpha": 0.5, "sigma1": {"kind": "grid", "file": "sigma.txt", "p": 2},
                   "sigma2": 4.0},
    }.items():
        p = d / f"{name}.json"
        p.write_text(json.dumps(cfg))
        paths[name] = str(p)
    return paths


def test_edge_constant(prof_paths, tmp_path, capsys):
    out = tmp_path / "edge.json"
    code = main(["--out", str(out), "edge", "--profile", prof_paths["constant"]])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["r_edge"] == pytest.approx(2.0, abs=1e-4)
    assert d["l_edge"] == -d["r_edge"]
    assert d["manifest"]["command"] == "edge"


def test_edge_payload_carries_duality_gap(prof_paths, tmp_path):
    out = tmp_path / "edge.json"
    assert main(["--out", str(out), "edge", "--profile", prof_paths["constant"]]) == 0
    d = json.loads(out.read_text())
    assert d["r_edge"] == pytest.approx(2.0, abs=1e-10)
    assert d["tolerances"] == {"duality_gap": 1e-10 * (1.0 + d["r_edge"])}


def test_edge_missing_file(tmp_path):
    assert main(["edge", "--profile", str(tmp_path / "nope.json")]) == 2


_DROP = object()


def _edit(cfg, path, value):
    """A copy of a JSON config with the item at path set to value, or dropped for _DROP."""
    cfg = json.loads(json.dumps(cfg))
    *head, last = path
    parent = cfg
    for k in head:
        parent = parent[k]
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    return cfg


def _items(node, path=()):
    """(path, value) of every item below a JSON node, in document order."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in children:
        yield (*path, k), v
        yield from _items(v, (*path, k))


def _malformed(cfg, rng):
    """(case, config) for each item of cfg: a key dropped, the item set to null, a number
    replaced by a non-numeric string (picked by rng) and a scalar by a one-item list; the
    block count p also as 2.7 and as true."""
    strings = ["abc", "", "one", "1,2", "two words"]
    for path, v in _items(cfg):
        edits = {"null": None}
        if isinstance(path[-1], str):
            edits["drop"] = _DROP
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            edits["string"] = strings[rng.integers(len(strings))]
        if not isinstance(v, (dict, list)):
            edits["list"] = [v]
        if path[-1] == "p":
            edits.update({"2.7": 2.7, "true": True})
        for what, value in edits.items():
            yield "/".join(map(str, path)) + f"-{what}", _edit(cfg, path, value)


@pytest.mark.parametrize("name", ["constant", "wishart", "block", "grid8", "grid", "light", "nested"])
def test_malformed_config_corpus_exits_2(prof_paths, tmp_path, capsys, name):
    # every malformed variant of each profile exits 2 through main, with no traceback, and
    # load_profile_file raises ProfileConfigError, except for a grid left without its block
    # count p, a valid ContinuousProfileSpec that only the CLI's block-form check rejects
    src = Path(prof_paths[name])
    (tmp_path / "sigma.txt").write_bytes(src.with_name("sigma.txt").read_bytes())
    cases = list(_malformed(json.loads(src.read_text()), np.random.default_rng(23)))
    assert len(cases) >= 3  # kind alone: dropped, null, a list
    for case, cfg in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["edge", "--profile", str(path)]) == 2, case
        assert capsys.readouterr().err.startswith("usage error: "), case
        try:
            prof = load_profile_file(path)
        except ProfileConfigError:
            continue
        assert case == "p-drop" and isinstance(prof, ContinuousProfileSpec), case


@pytest.mark.parametrize(
    "cfg",
    [
        None,  # a directory given as the profile
        {"kind": "grid", "file": 123, "p": 2},
        {"kind": "grid", "file": "text.txt", "p": 2},
        {"kind": "grid", "file": "sigma.txt", "p": 2.7},
        {"kind": "block", "alpha": 0.5, "sigma1": {"kind": "grid", "file": "sigma.txt"}, "sigma2": 1},
    ],
    ids=["directory", "file-123", "grid-file-of-text", "p-fractional", "block-part-without-p"],
)
def test_malformed_profile_exits_2(tmp_path, capsys, cfg):
    np.savetxt(tmp_path / "sigma.txt", np.ones((4, 4)))
    (tmp_path / "text.txt").write_text("a b\nc d\n")
    path = tmp_path / "bad.json"
    if cfg is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(cfg))
    assert main(["edge", "--profile", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_nested_grid_part_payload_independent_of_working_directory(prof_paths, tmp_path, monkeypatch):
    # a nested part's relative grid file resolves against the profile's directory
    texts = []
    for cwd in (tmp_path, Path(prof_paths["nested"]).parent):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"{len(texts)}.json"
        assert main(["--out", str(out), "density", "--profile", prof_paths["nested"],
                     "--xmin", "-3", "--xmax", "3", "--points", "7"]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_out_into_a_missing_directory_exits_2(prof_paths, tmp_path, capsys, monkeypatch):
    # rejected before the command runs: edge never reaches its solve
    calls = []
    monkeypatch.setattr("wigner_ldp.cli.support_edge", lambda *a: calls.append(a))
    out = tmp_path / "missing" / "edge.json"
    assert main(["--out", str(out), "edge", "--profile", prof_paths["constant"]]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.parent.exists() and calls == []


def test_density_csv(prof_paths, tmp_path):
    out = tmp_path / "dens.csv"
    code = main([
        "--out", str(out), "density", "--profile", prof_paths["constant"],
        "--xmin", "-2.5", "--xmax", "2.5", "--points", "101",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "x,density,density_block_1"
    mid = lines[2 + 50].split(",")
    assert float(mid[0]) == pytest.approx(0.0)
    assert float(mid[1]) == pytest.approx(1 / np.pi, abs=1e-4)
    footer = lines[-1]
    assert footer.startswith("# total_mass,")
    # the exact density integrates like the closed form on this grid: the
    # trapezoid rule of oracles.sc_density over the 101 points, to every digit
    assert float(footer.split(",")[1]) == pytest.approx(0.9985214762431167, abs=1e-12)


def test_density_bad_points(prof_paths):
    code = main([
        "density", "--profile", prof_paths["constant"],
        "--xmin", "-2.0", "--xmax", "2.0", "--points", "-5",
    ])
    assert code == 2


def _exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv", [
    ["density", "--xmin", "-2", "--xmax", "2", "--points", "11", "--eta", "0.01"],
    ["rate", "--x", "3.0", "--starts", "2"],
    ["rate", "--x", "3.0", "--tol", "1e-9"],
], ids=["density-eta", "rate-starts", "rate-tol"])
def test_method_settings_are_not_options(prof_paths, argv, capsys):
    # the eta schedule, the number of starts and the stop tolerance are the program's own
    code = _exit_code([argv[0], "--profile", prof_paths["constant"], *argv[1:]])
    assert code == 2 and f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("xmin,xmax", [("2", "-2"), ("1", "1"), ("nan", "2"), ("-2", "inf")])
def test_density_bad_bounds(prof_paths, xmin, xmax):
    code = _exit_code([
        "density", "--profile", prof_paths["constant"],
        "--xmin", xmin, "--xmax", xmax, "--points", "11",
    ])
    assert code == 2


def test_mc_tail_zero_N(prof_paths):
    code = _exit_code([
        "mc", "tail", "--profile", prof_paths["constant"], "--x", "2.2", "--N", "0",
        "--samples", "100",
    ])
    assert code == 2


def test_mc_tail_zero_samples(prof_paths):
    code = _exit_code([
        "mc", "tail", "--profile", prof_paths["constant"], "--x", "2.2", "--N", "20",
        "--samples", "0",
    ])
    assert code == 2


def test_mc_dirichlet_zero_samples(prof_paths):
    code = _exit_code([
        "mc", "dirichlet", "--profile", prof_paths["block"], "--N", "20", "--samples", "0",
    ])
    assert code == 2


def test_edge_non_finite_profile(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"kind": "piecewise_constant", "weights": [NaN, 1.0], "sigma": [[1, 0], [0, 1]]}'
    )
    assert _exit_code(["edge", "--profile", str(path)]) == 2


@pytest.mark.parametrize("text", [
    '{"kind": "wishart", "alpha": "2"}',
    '{"kind": "block", "alpha": 0.5, "sigma1": true, "sigma2": "4"}',
    pytest.param("[" * 100_000, id="100000-brackets"),
    pytest.param('{"kind": "block", "alpha": 0.5, "sigma1": ' * 400 + "1" + ', "sigma2": 1}' * 400,
                 id="block-nested-400-deep"),
])
def test_strict_numbers_and_deep_nesting_exit_2(tmp_path, capsys, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert main(["edge", "--profile", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_rate_csv_rows(prof_paths, tmp_path):
    edge_out = tmp_path / "edge.json"
    assert main(["--out", str(edge_out), "edge", "--profile", prof_paths["constant"]]) == 0
    r_edge = json.loads(edge_out.read_text())["r_edge"]
    out = tmp_path / "rate.csv"
    code = main([
        "--out", str(out), "rate", "--profile", prof_paths["constant"],
        "--x", f"3.0,{r_edge!r},0.0",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("x,I,theta_star,psi_star_1,spread")
    row3 = lines[2].split(",")
    assert float(row3[1]) == pytest.approx(oracles.goe_rate(3.0), abs=1e-3)
    row_edge = lines[3].split(",")
    assert float(row_edge[1]) == 0.0
    row0 = lines[4].split(",")
    assert row0[1] == "inf"


def _csv_and_json(tmp_path, argv):
    """One command's CSV rows, split into cells after the manifest line, and its JSON text."""
    csv_out, json_out = tmp_path / "payload.csv", tmp_path / "payload.json"
    assert main(["--format", "csv", "--out", str(csv_out), *argv]) == 0
    assert main(["--format", "json", "--out", str(json_out), *argv]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("# {")
    return [line.split(",") for line in lines[1:]], json_out.read_text()


def test_density_csv_rows_match_json(prof_paths, tmp_path):
    rows, text = _csv_and_json(tmp_path, ["density", "--profile", prof_paths["block"],
                                          "--xmin", "-3", "--xmax", "3", "--points", "41"])
    d = json.loads(text)
    assert rows[0] == ["x", "density", "density_block_1", "density_block_2"]
    assert rows[-1] == ["# total_mass", repr(float(np.trapezoid(d["density"], d["x"])))]
    assert abs(float(rows[-1][1]) - 1.0) == d["total_mass_error"]
    table = np.array(rows[1:-1], dtype=float)
    assert table.shape == (41, 4)
    assert table[:, 0].tolist() == d["x"] and table[:, 1].tolist() == d["density"]
    assert table[:, 2:].T.tolist() == d["block_densities"]


def test_density_json_total_mass_is_the_csv_footer(prof_paths, tmp_path):
    # the signed mass tells wishart(2)'s missed atom (mass 1/3 at x = 0) from an
    # excess of mass, which |mass - 1| alone cannot
    rows, text = _csv_and_json(tmp_path, ["density", "--profile", prof_paths["wishart"],
                                          "--xmin", "-3", "--xmax", "3", "--points", "501"])
    d = json.loads(text)
    assert rows[-1] == ["# total_mass", repr(d["total_mass"])]
    assert abs(d["total_mass"] - 2.0 / 3.0) < 1e-3 and d["total_mass_error"] == 1.0 - d["total_mass"]


@pytest.mark.parametrize("x", ["1e160", "1e300"])
def test_rate_rejects_x_above_the_limit(prof_paths, tmp_path, capsys, x):
    # past ~1e154 the rate's x^2-sized terms overflow; the limit is named, not a false message
    out = tmp_path / "rate.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--out", str(out), "rate", "--profile", prof_paths["constant"], "--x", x]) == 2
    assert "at most 1e+30" in capsys.readouterr().err and not out.exists()
    assert main(["--out", str(out), "rate", "--profile", prof_paths["constant"], "--x", "1e10"]) == 0
    assert out.read_text().splitlines()[1:3] == ["x,I,theta_star,psi_star_1,spread",
                                                 "10000000000.0,2.5e+19,5000000000.0,1.0,0.0"]


def test_rate_csv_rows_match_json_reports(prof_paths, tmp_path):
    # the below-edge x reads inf in the CSV and Infinity in the JSON
    rows, text = _csv_and_json(tmp_path, ["rate", "--profile", prof_paths["block"],
                                          "--x", "3.2,0.5,4.0"])
    reports = json.loads(text)["reports"]
    assert rows[0] == ["x", "I", "theta_star", "psi_star_1", "psi_star_2", "spread"]
    assert len(rows) == 1 + len(reports) == 4
    for row, rep in zip(rows[1:], reports):
        assert [float(c) for c in row] == [rep["x"], rep["I"], rep["theta_star"],
                                           *rep["psi_star"], rep["spread"]]
    assert rows[2][1] == "inf" and reports[1]["I"] == np.inf and '"I": Infinity' in text


def test_mc_batch_csv_matches_json(prof_paths, tmp_path):
    rows, text = _csv_and_json(tmp_path, ["mc", "batch", "--profile", prof_paths["block"],
                                          "--N", "12", "--samples", "6"])
    d = json.loads(text)
    assert rows[0] == ["seed_index", "lambda1", "rho_1", "rho_2"]
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(6)]
    table = np.array(rows[1:], dtype=float)
    assert float(table[:, 1].mean()) == d["lambda1_mean"]
    assert table[:, 2:].mean(axis=0).tolist() == d["rho_mean"]


def test_mc_tilt_csv_rows_match_json(prof_paths, tmp_path):
    rows, text = _csv_and_json(tmp_path, ["mc", "tilt", "--profile", prof_paths["constant"],
                                          "--x", "3.0", "--N", "20", "--samples", "5"])
    assert rows[0] == ["seed_index", "lambda1"]
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(5)]
    lam1 = np.array([row[1] for row in rows[1:]], dtype=float)
    assert float(lam1.mean()) == json.loads(text)["mean_lambda1"]


def test_table_writes_each_cell_as_the_per_cell_writer_did():
    # the column-wise writer against the one it replaced, inlined here: a str
    # cell as it is, any other as repr(float(v)), one row at a time
    def per_cell(header, rows):
        return "".join(",".join(c if isinstance(c, str) else repr(float(c)) for c in line) + "\n"
                       for line in (header, *rows))

    odd = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e22, 0.1, 2.0])
    index = [str(i) for i in range(odd.size)]
    cols = [index, odd, odd[::-1].astype(np.float32), np.arange(odd.size), odd.tolist()]
    header = ["seed_index", "a", "b", "c", "d"]
    assert cli._table(header, cols) == per_cell(header, zip(*cols))
    footer = ["# total_mass", np.float64(0.75)]
    assert cli._table(header, cols, footer=footer) == per_cell(header, [*zip(*cols), footer])
    assert cli._table(header, [[], []]) == per_cell(header, [])


def test_parser_is_built_once_and_reused(prof_paths, tmp_path):
    # a second run through the same parser sees nothing of the runs before it
    assert _build_parser() is _build_parser()
    rate = ["--format", "json", "rate", "--profile", prof_paths["block"], "--x", "3.2,0.5"]
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(["--out", str(first), *rate]) == 0
    assert main(["--out", str(tmp_path / "density.csv"), "density", "--profile",
                 prof_paths["block"], "--xmin", "-3", "--xmax", "3", "--points", "11"]) == 0
    assert main(["--out", str(again), *rate]) == 0
    assert first.read_bytes() == again.read_bytes()
    options = [json.dumps(json.loads(p.read_text())["manifest"]["options"]) for p in (first, again)]
    assert options[0] == options[1]


def test_validate_identities(prof_paths, tmp_path):
    out = tmp_path / "val.json"
    code = main([
        "--out", str(out), "--seed", "5",
        "validate", "--profile", prof_paths["constant"], "--suite", "identities",
    ])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["passed"] is True
    names = {c["name"] for c in d["checks"]}
    assert {"plateau_F_zero", "form_equality", "upper_bound_quarter_a"} <= names


def test_identities_suite_is_its_scalar_loop(const_prof, block_14, wishart2, grid3):
    # the stacked checks take exactly the maxima of the loop over the public
    # one-point functions at the suite's 200 draws, drawn as the suite draws them
    for prof in (const_prof, block_14, wishart2, grid3):
        got = {c["name"]: c["value"] for c in cli._suite_identities(prof, 3, 1)}
        _, r = support_edge(prof)
        rng = np.random.default_rng(3)
        xs, psis = r + rng.uniform(0.05, 1.0, 200), rng.dirichlet(np.ones(prof.p), 200)
        us, th_hats = rng.uniform(0.0, 0.5, 200), rng.uniform(0.0, 2.0, 200)
        worst_plateau = worst_eq = 0.0
        for x, psi, u, th_hat in zip(xs.tolist(), psis, us.tolist(), th_hats.tolist()):
            G = stieltjes_total(prof, x)
            worst_plateau = max(worst_plateau, abs(eval_F(prof, u * G / 2, x, psi)))
            gap = abs(eval_F_hat(prof, th_hat, x, psi) - eval_F(prof, th_hat + G / 2, x, psi))
            worst_eq = max(worst_eq, gap)
        assert got["plateau_F_zero"] == worst_plateau and got["form_equality"] == worst_eq


@pytest.mark.parametrize("suite", ["identities", "dyson"])
def test_validate_payload_independent_of_memo_history(prof_paths, tmp_path, monkeypatch, suite):
    # a result depends only on its inputs: cold memos, warm memos and a real-axis
    # memo filled beforehand, x by x in reversed order, with every x the suite
    # solved give the same bytes
    batches, solve = [], dyson._solve_real
    for module in (dyson, ratefn):
        monkeypatch.setattr(module, "_solve_real", lambda p, xs: batches.append((p, list(xs))) or solve(p, xs))

    def payload():
        out = tmp_path / "val.json"
        argv = ["--out", str(out), "--seed", "4", "validate", "--profile", prof_paths["grid8"],
                "--suite", suite]
        assert main(argv) == 0
        return out.read_bytes()

    def clear():
        support_edge.cache_clear()
        dyson._solve_real_at.cache_clear()

    clear()
    cold = payload()
    assert max(len(xs) for _, xs in batches) >= 50  # the suite solves in batches
    warm = payload()
    clear()
    for p, xs in batches[::-1]:
        for x in xs[::-1]:
            dyson._solve_real_at(p, x)
    assert payload() == warm == cold


def test_rate_and_identities_run_with_a_plain_real_solve(prof_paths, tmp_path, monkeypatch):
    # the rate paths call the real solve through ratefn's module name, which a
    # tracer replaces by a plain wrapper function
    monkeypatch.setattr(ratefn, "_solve_real", lambda *a: dyson._solve_real(*a))
    out = str(tmp_path / "out.json")
    for argv in (["rate", "--profile", prof_paths["block"], "--x", "3.0,3.5"],
                 ["validate", "--profile", prof_paths["constant"], "--suite", "identities"]):
        assert main(["--out", out, *argv]) == 0, argv


def test_each_x_is_solved_once(prof_paths, tmp_path, monkeypatch):
    # validate --suite identities hands its 200 xs to the real solve in one
    # batch (and rate_sweep's 3 in another), and rate --x solves each x above
    # the edge exactly once
    calls, counted, solve = [], [], dyson._solve_real
    monkeypatch.setattr(ratefn, "_solve_real", lambda p, xs: calls.append(list(xs)) or solve(p, xs))
    monkeypatch.setattr(dyson, "_solve_real", lambda p, xs: counted.extend(xs) or solve(p, xs))
    out = str(tmp_path / "out.json")
    assert main(["--out", out, "validate", "--profile", prof_paths["block"], "--suite", "identities"]) == 0
    assert [len(c) for c in calls] == [200, 3]
    calls.clear()
    above = [3.0, 3.5, 4.25, 5.0]  # the edge is about 2.83
    assert main(["--out", out, "rate", "--profile", prof_paths["block"], "--x", "3.0,3.5,0.5,4.25,5.0"]) == 0
    solved = [x for c in calls for x in c] + counted
    assert [solved.count(x) for x in above] == [1, 1, 1, 1] and 0.5 not in solved


def test_traced_names_exist():
    # perfbench/tracer.py wraps these names by attribute: a rename that would
    # stop traced benchmark runs fails here (the tracer is loaded, not installed)
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"wigner_ldp.{layer}")
        assert [n for n in names if not callable(getattr(module, n, None))] == [], layer
    assert ratefn._solve_real is dyson._solve_real and callable(mc.dpotrf)
    # a hook reads its function's arguments by parameter name (a["N_list"], a.get("dist")):
    # each name it reads, found in the hook's own source, is a parameter of what it wraps
    read_any = set()
    for full, hook in tracer.HOOKS.items():
        layer, name = full.split(".")
        params = inspect.signature(getattr(importlib.import_module(f"wigner_ldp.{layer}"), name)).parameters
        arg = inspect.getfullargspec(hook).args[1]
        read = set()
        for node in ast.walk(ast.parse(inspect.getsource(hook))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
                node = ast.Subscript(value=node.func.value, slice=node.args[0])
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == arg and isinstance(node.slice, ast.Constant)):
                read.add(node.slice.value)
        assert read - set(params) == set(), full
        read_any |= read
    assert read_any  # the search found the names the hooks read


def test_validate_mc_heavy(prof_paths, tmp_path):
    out = tmp_path / "heavy.json"
    code = main(["--out", str(out), "validate", "--profile", prof_paths["constant"], "--suite", "mc-heavy"])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["passed"] is True
    assert [c["name"] for c in d["checks"]] == ["edge_concentration", "tilted_outlier", "tail_trend"]


def test_validate_unknown_suite(prof_paths):
    assert main(["validate", "--profile", prof_paths["constant"], "--suite", "zzz"]) == 2


def test_validate_blocks_needs_block_profile(prof_paths):
    # sigma > 0 links all blocks of these into one part, so H does not split
    for name in ("constant", "wishart", "grid8", "three"):
        assert main(["validate", "--profile", prof_paths[name], "--suite", "blocks"]) == 2, name


_REDUCIBLE = {
    # block-diagonal once blocks 0 and 2 are neighbours: exited 2 when the suite cut only
    # between contiguous blocks
    "permuted": {"kind": "piecewise_constant", "weights": [0.3, 0.4, 0.3],
                 "sigma": [[1.0, 0.0, 1.0], [0.0, 4.0, 0.0], [1.0, 0.0, 1.0]]},
    # three interleaved parts: the zero-diagonal pair {0, 3}, the block {1} and the pair {2, 4}
    "three_parts": {"kind": "piecewise_constant", "weights": [0.1, 0.2, 0.3, 0.15, 0.25],
                    "sigma": [[0.0, 0.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 1.0, 0.0, 0.5], [2.0, 0.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.5, 0.0, 3.0]]},
}


@pytest.mark.parametrize("name", ["block", "nested", *_REDUCIBLE])
def test_validate_blocks_passes_on_any_reducible_profile(prof_paths, tmp_path, name):
    # H is block-diagonal over the parts c of mass alpha_c, so r = max_c sqrt(alpha_c) r_c and
    # I(x) = min_c alpha_c I_c(x / sqrt(alpha_c)) hold exactly, within the solvers' tolerances
    path = prof_paths.get(name) or tmp_path / f"{name}.json"
    if name in _REDUCIBLE:
        path.write_text(json.dumps(_REDUCIBLE[name]))
    out = tmp_path / "val.json"
    assert main(["--out", str(out), "validate", "--profile", str(path), "--suite", "blocks"]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert list(checks) == ["edge_scaling", "block_rate_identity"]
    prof = load_profile_file(path)
    _, r = support_edge(prof)
    rates = [rep.I for rep in rate_sweep(prof, r + np.array([0.15, 0.45, 0.9]))]
    assert checks["edge_scaling"]["bound"] == 2 * dyson.EDGE_GAP_TOL * (1 + r)
    assert checks["block_rate_identity"]["bound"] in [1e-9 * (1 + rate) for rate in rates]
    assert all(c["pass"] and c["value"] <= c["bound"] for c in checks.values())


def test_mc_tail_zero_hits_exit4(prof_paths, tmp_path):
    out = tmp_path / "tail.json"
    code = main([
        "--out", str(out), "mc", "tail", "--profile", prof_paths["constant"],
        "--x", "3.5", "--N", "20", "--samples", "300",
    ])
    assert code == 4
    d = json.loads(out.read_text())
    pt = d["points"][0]
    assert pt["one_sided"] is True and np.isfinite(pt["rate_lo"])


def test_mc_tail_all_hits_rate_is_positive_zero(prof_paths, tmp_path):
    # p_hat = 1 gives -log(1)/N = -0.0, which the payload must not carry
    out = tmp_path / "tail.json"
    code = main([
        "--out", str(out), "mc", "tail", "--profile", prof_paths["constant"],
        "--x", "0.0", "--N", "10", "--samples", "50",
    ])
    assert code == 0
    text = out.read_text()
    pt = json.loads(text)["points"][0]
    assert pt["hits"] == 50
    assert math.copysign(1.0, pt["rate"]) == 1.0 and math.copysign(1.0, pt["rate_lo"]) == 1.0
    assert "-0.0" not in text


def test_mc_tail_payload(prof_paths, tmp_path):
    out = tmp_path / "tail2.json"
    code = main([
        "--out", str(out), "mc", "tail", "--profile", prof_paths["constant"],
        "--x", "2.2", "--N", "20,30", "--samples", "3000",
    ])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["reference_rate"] == pytest.approx(oracles.goe_rate(2.2), abs=1e-3)
    assert [p["N"] for p in d["points"]] == [20, 30]


def test_mc_tail_reference_fails_before_sampling(prof_paths, monkeypatch):
    # a failed reference rate exits 3 without throwing a sampling run away
    def fail(*args, **kwargs):
        raise ConvergenceError("reference rate failed")

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the reference rate")

    monkeypatch.setattr(cli, "rate_function", fail)
    monkeypatch.setattr(mc, "_chunks", no_sampling)
    assert main(["mc", "tail", "--profile", prof_paths["constant"], "--x", "2.2", "--N", "20",
                 "--samples", "300"]) == 3


def test_rate_values_do_not_read_the_seed(prof_paths, tmp_path):
    # the rate is a function of (profile, x): its body, and mc tail's reference,
    # are the same at every --seed on a 3-block profile whose edge is about 1.856
    def run(seed, *argv):
        out = tmp_path / "out.json"
        assert main(["--seed", seed, "--out", str(out), *argv, "--profile", prof_paths["three"]]) == 0
        body = json.loads(out.read_text())
        del body["manifest"]
        return body

    rates = [run(seed, "--format", "json", "rate", "--x", "1.9,2.5,3.0") for seed in "012"]
    assert rates[0] == rates[1] == rates[2]
    tail = ["mc", "tail", "--x", "2.2", "--N", "10", "--samples", "300"]
    assert run("1", *tail)["reference_rate"] == run("2", *tail)["reference_rate"]


def test_mc_tilt(prof_paths, tmp_path):
    out = tmp_path / "tilt.json"
    code = main([
        "--out", str(out), "mc", "tilt", "--profile", prof_paths["constant"],
        "--x", "3.0", "--N", "80", "--samples", "10",
    ])
    assert code == 0
    d = json.loads(out.read_text())
    assert abs(d["mean_lambda1"] - 3.0) < 0.3


def test_mc_tilt_just_above_edge(prof_paths, tmp_path):
    out = tmp_path / "tilt.json"
    code = main([
        "--out", str(out), "mc", "tilt", "--profile", prof_paths["constant"],
        "--x", "2.000005", "--N", "20", "--samples", "2",
    ])
    assert code == 0


def test_mc_dirichlet(prof_paths, tmp_path):
    out = tmp_path / "dir.json"
    code = main([
        "--out", str(out), "mc", "dirichlet", "--profile", prof_paths["block"],
        "--N", "60", "--samples", "20000",
    ])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["max_mean_dev"] < 0.01


@pytest.mark.parametrize("weights", [[0.05, 0.95], [0.95, 0.05]])
def test_mc_dirichlet_empty_block(tmp_path, weights):
    # at N = 8 the small block gets no row: its mass is 0, the other block's 1
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "kind": "piecewise_constant", "weights": weights, "sigma": [[1.0, 0.5], [0.5, 2.0]],
    }))
    out = tmp_path / "dir.json"
    code = _exit_code([
        "--out", str(out), "mc", "dirichlet", "--profile", str(path), "--N", "8",
        "--samples", "2000",
    ])
    assert code == 0
    d = json.loads(out.read_text())
    assert sum(d["mean_emp"]) == pytest.approx(1.0, abs=1e-12)
    assert d["mean_emp"] == pytest.approx(d["mean_exact"], abs=1e-12)


def test_mc_annealed_exit4_on_empty_window(prof_paths, tmp_path):
    code = main([
        "mc", "annealed", "--profile", prof_paths["wishart"],
        "--theta", "0.5", "--N", "150", "--samples", "1500",
        "--delta", "0.005", "--phi", "0.95,0.05",
    ])
    assert code == 4


def test_mc_annealed_phi_is_normalised(prof_paths, tmp_path):
    # masses summing to 2 name the same window as masses summing to 1
    payloads = []
    for phi in ("1,1", "0.5,0.5"):
        out = tmp_path / f"ann-{phi}.json"
        code = main([
            "--out", str(out), "mc", "annealed", "--profile", prof_paths["wishart"],
            "--theta", "0.5", "--N", "40", "--samples", "2000", "--phi", phi,
        ])
        assert code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0])["manifest"]["options"]["phi"] == [0.5, 0.5]


def test_mc_spherical(prof_paths, tmp_path):
    out = tmp_path / "sph.json"
    code = main([
        "--out", str(out), "mc", "spherical", "--profile", prof_paths["constant"],
        "--x", "3.0", "--theta", "0.15", "--N", "80", "--samples", "20000",
    ])
    assert code == 0
    d = json.loads(out.read_text())
    assert abs(d["estimate"] - d["reference_J"]) < 0.05


def test_manifest_excludes_threads(prof_paths, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, threads in ((a, "1"), (b, "8")):
        code = main([
            "--threads", threads, "--seed", "3", "--out", str(path),
            "validate", "--profile", prof_paths["block"], "--suite", "mc-light",
        ])
        assert code == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("module, scipy_part", [
    ("wigner_ldp.cli", "scipy.stats"),
    ("wigner_ldp.cli", "scipy.optimize"),
    ("wigner_ldp", "scipy"),
])
def test_import_loads_no_scipy_part(module, scipy_part):
    # every CLI run pays its imports (2-core Xeon): scipy.stats would add about
    # 0.5 s and 20 MB, scipy.optimize about 0.15 s and 20 MB; the package
    # itself (profiles, dyson) needs numpy only
    src = str(Path(wigner_ldp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    probe = (f"import sys, {module}; "
             f"print([m for m in sys.modules if m == {scipy_part!r} or m.startswith({scipy_part + '.'!r})])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_mc_light_zero_diagonal_profile(prof_paths, tmp_path):
    # wishart has zero diagonal blocks, so the diagonal variance target is 0;
    # run as a process to see the exit code and stderr a user would see
    out = tmp_path / "val.json"
    src = str(Path(wigner_ldp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "wigner_ldp.cli", "--out", str(out), "validate",
         "--profile", prof_paths["wishart"], "--suite", "mc-light"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode in (0, 2, 3, 4)
    assert "Traceback" not in proc.stderr
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["variance_diag"]["pass"] is True
    assert checks["variance_diag"]["bound"] == 0.0
    # every bound is the number its check compares against
    assert checks["bulk_event_frequency"]["bound"] == 0.95


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "annealed", "--profile", "constant", "--theta", "nan", "--N", "40",
         "--samples", "2000"],
        ["mc", "annealed", "--profile", "constant", "--theta", "0.5", "--N", "40",
         "--samples", "2000", "--phi", "1,2"],
        ["mc", "annealed", "--profile", "wishart", "--theta", "0.5", "--N", "40",
         "--samples", "2000", "--phi=-1,2"],
        ["mc", "annealed", "--profile", "constant", "--theta", "0.5", "--N", "40",
         "--samples", "2000", "--delta", "0"],
        ["mc", "tail", "--profile", "constant", "--x", "nan", "--N", "20", "--samples", "300"],
        ["mc", "spherical", "--profile", "constant", "--x", "3.0", "--theta", "0.3", "--N", "40",
         "--samples", "500"],
        ["mc", "tilt", "--profile", "wishart", "--x", "3.0", "--N", "40", "--samples", "2",
         "--psi", "0,0"],
        ["rate", "--profile", "constant", "--x", "nan"],
        ["mc", "spherical", "--profile", "constant", "--x", "1.0", "--theta", "0.3", "--N", "40",
         "--samples", "2000"],
        ["mc", "tilt", "--profile", "constant", "--x", "1.0", "--N", "40", "--samples", "2"],
        ["--threads", "0", "mc", "tail", "--profile", "constant", "--x", "2.2", "--N", "20",
         "--samples", "300"],
        ["--threads", "-1", "mc", "tail", "--profile", "constant", "--x", "2.2", "--N", "20",
         "--samples", "300"],
        ["mc", "tilt", "--profile", "wishart", "--x", "3.0", "--N", "40", "--samples", "2",
         "--psi", "1,0"],
        ["mc", "annealed", "--profile", "constant", "--theta", "-0.5", "--N", "40",
         "--samples", "2000"],
        ["mc", "spherical", "--profile", "constant", "--x", "3.0", "--theta", "-0.3", "--N", "40",
         "--samples", "2000"],
        ["validate", "--profile", "block", "--suite", "wishart"],
        ["--seed", "-1", "mc", "tail", "--profile", "constant", "--x", "2.2", "--N", "20",
         "--samples", "300"],
        ["rate", "--profile", "constant", "--x", "abc"],
        ["mc", "tail", "--profile", "constant", "--x", "2.2", "--N", "x", "--samples", "300"],
        ["mc", "tail", "--profile", "constant", "--x", "2.2", "--N", ",", "--samples", "300"],
        ["edge", "--profile", "grid"],
        ["rate", "--profile", "constant", "--x", ""],
    ],
    ids=["annealed-theta-nan", "annealed-phi-length", "annealed-phi-negative",
         "annealed-delta-zero", "tail-x-nan", "spherical-few-samples", "tilt-psi-zero-sum",
         "rate-x-nan", "spherical-x-below-edge", "tilt-x-below-edge", "threads-zero",
         "threads-negative", "tilt-psi-zero-form", "annealed-theta-negative",
         "spherical-theta-negative", "wishart-suite-not-concave", "seed-negative",
         "rate-x-not-a-number", "tail-N-not-an-integer", "tail-N-empty-list",
         "edge-grid-without-p", "rate-x-empty-list"],
)
def test_bad_numeric_options_exit_2(prof_paths, argv, monkeypatch):
    # an argument error is rejected before any matrix or sphere is drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the argument was rejected")

    for name in ("_chunks", "_matrices"):  # every draw passes through one of them
        monkeypatch.setattr(mc, name, no_sampling)
    argv = [prof_paths[a] if prev == "--profile" else a for prev, a in zip([None, *argv], argv)]
    assert _exit_code(argv) == 2


@pytest.mark.parametrize("option,text,message", [
    ("--N", "2.5", "argument --N: not a nonempty comma-separated list of ints: '2.5'"),
    ("--N", "8,x", "argument --N: not a nonempty comma-separated list of ints: '8,x'"),
    ("--x", "abc", "argument --x: invalid float value: 'abc'"),
])
def test_text_that_is_no_number_is_refused_by_argparse(prof_paths, capsys, option, text, message):
    # the one refusal left to argparse, with a message that names the option and the text
    argv = ["mc", "tail", "--profile", prof_paths["constant"], "--x", "2.5", "--N", "8", option, text]
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("name", ["constant", "wishart", "block", "light"])
def test_validate_dyson_accepts_rounding_level_errors(prof_paths, tmp_path, name):
    # the N-row solve equals the block solve at the row fractions n_k/N up to rounding
    # (gaps 0 to ~1e-16), also on wishart, whose distance to the limit m is 6.8e-4 at N = 50
    out = tmp_path / "val.json"
    code = main(["--out", str(out), "validate", "--profile", prof_paths[name], "--suite", "dyson"])
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["finite_N_consistency"]["pass"] is True
    assert code == 0


def _random_block_configs(seed, count):
    """Block profiles with p = 2..5, sigma uniform on [0, 2] with about 30% of its
    entries zero, and Dirichlet weights."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(2, 6))
        S = np.triu(rng.uniform(0, 2, (p, p)) * (rng.random((p, p)) >= 0.3))
        yield {"kind": "piecewise_constant", "weights": rng.dirichlet(np.ones(p)).tolist(),
               "sigma": (S + np.triu(S, 1).T).tolist()}


def test_validate_dyson_passes_however_the_rows_sample_the_weights(tmp_path):
    # sup|m^N - m| need not fall from N = 50 to 200 (3.8e-4, 6.2e-4, 1.1e-16 on the first
    # profile): it depends on how the rows sample the weights. The finite-N check is the
    # identity with the block system at n_k/N, which holds at every N
    first = {"kind": "piecewise_constant", "weights": [0.485, 0.105, 0.41],
             "sigma": [[1.0, 0.4, 0.2], [0.4, 2.0, 0.7], [0.2, 0.7, 0.5]]}
    for k, cfg in enumerate([first, *_random_block_configs(1, 10)]):
        path, out = tmp_path / f"prof{k}.json", tmp_path / f"val{k}.json"
        path.write_text(json.dumps(cfg))
        code = main(["--out", str(out), "validate", "--profile", str(path), "--suite", "dyson"])
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["finite_N_consistency"]["pass"] is True, (k, checks["finite_N_consistency"])
        assert checks["finite_N_consistency"]["bound"] == 1e-10
        assert code == 0, k


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_validate_dyson_payload_is_strict_json(prof_paths, tmp_path):
    for name, path in prof_paths.items():
        if name == "grid":  # no block count p: exits 2 and writes nothing
            continue
        out = tmp_path / f"{name}.json"
        assert main(["--out", str(out), "validate", "--profile", path, "--suite", "dyson"]) == 0
        checks = json.loads(out.read_text(), parse_constant=_no_constant)["checks"]
        assert {c["name"]: c["bound"] for c in checks}["G_above_edge_finite"] == 1e3


def _grid_commands(x):
    suites = [["validate", "--suite", s]
              for s in ("dyson", "identities", "blocks", "wishart", "mc-light")]
    return [
        ["edge"],
        ["density", "--xmin", "-4", "--xmax", "4", "--points", "41"],
        ["rate", "--x", x],
        *suites,
        ["mc", "tail", "--x", x, "--N", "8,12", "--samples", "300"],
        ["mc", "spherical", "--x", x, "--theta", "0.3", "--N", "20", "--samples", "1000"],
        ["mc", "annealed", "--theta", "0.4", "--N", "20", "--samples", "500", "--delta", "0.3"],
        ["mc", "tilt", "--x", x, "--N", "12", "--samples", "3"],
        ["mc", "dirichlet", "--N", "8", "--samples", "500"],
        ["mc", "batch", "--N", "8", "--samples", "4"],
    ]


@pytest.mark.parametrize("name", ["constant", "wishart", "block", "grid8", "light"])
def test_exit_code_grid(prof_paths, tmp_path, name):
    # every subcommand and every suite but mc-heavy (its sizes are fixed inside; see
    # test_validate_mc_heavy)
    path = prof_paths[name]
    x = repr(support_edge(load_profile_file(path))[1] + 0.5)
    for i, cmd in enumerate(_grid_commands(x)):
        head = cmd[:2] if cmd[0] == "mc" else cmd[:1]
        argv = ["--seed", "3", "--out", str(tmp_path / f"{i}.out"), *head, "--profile", path,
                *cmd[len(head):]]
        assert _exit_code(argv) in (0, 2, 3, 4), argv


def _subcommand_parsers():
    """(argv head, subparser) for every leaf subcommand of the CLI parser."""
    def leaves(parser, head):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [(head, parser)]
        return [leaf for name, p in subs[0].choices.items() for leaf in leaves(p, [*head, name])]

    return leaves(_build_parser(), [])


def test_manifest_options_are_the_parsed_options(prof_paths, tmp_path):
    # every subcommand, and mc annealed on its exit-4 path, records exactly its own options
    parsers = {tuple(head): p for head, p in _subcommand_parsers()}
    x = repr(support_edge(load_profile_file(prof_paths["constant"]))[1] + 0.5)
    runs = [("constant", cmd) for cmd in _grid_commands(x)[:4] + _grid_commands(x)[-6:]]
    runs.append(("wishart", ["mc", "annealed", "--theta", "0.5", "--N", "150", "--samples",
                             "1500", "--delta", "0.005", "--phi", "0.95,0.05"]))
    for i, (name, cmd) in enumerate(runs):
        head = cmd[:2] if cmd[0] == "mc" else cmd[:1]
        out = tmp_path / f"{i}.out"
        argv = ["--format", "json", "--out", str(out), *head, "--profile", prof_paths[name],
                *cmd[len(head):]]
        assert _exit_code(argv) in (0, 4), argv
        dests = {a.dest for a in parsers[tuple(head)]._actions} - {"help", "profile"}
        assert set(json.loads(out.read_text())["manifest"]["options"]) == dests, argv
    assert {tuple(cmd[:2] if cmd[0] == "mc" else cmd[:1]) for _, cmd in runs} == set(parsers)


def _number_type(action):
    """int or float for an option argparse turns into numbers (a comma list by its
    item), else action.type."""
    if isinstance(action.type, partial):
        return action.type.keywords["item"]
    return float if action.type is cli._comma_list else action.type


def test_every_numeric_cli_option_is_read_by_the_library(prof_paths, tmp_path, capsys, monkeypatch):
    # argparse only turns text into numbers: a value that parses but breaks a rule reaches
    # the library reader of its option, which refuses it before any draw with one stderr line
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the argument was rejected")

    for name in ("_chunks", "_matrices"):
        monkeypatch.setattr(mc, name, no_sampling)
    bad = {float: ("nan", "inf", "-inf"), int: ("0", "-1")}

    def bad_options(parser):
        """--option=value for each numeric option of parser and each value it refuses."""
        out = []
        for a in parser._actions:
            if a.option_strings and a.type not in (None, str):
                assert _number_type(a) in bad, a.option_strings
                values = ("-1",) if a.dest == "seed" else bad[_number_type(a)]
                out += [f"{a.option_strings[0]}={v}" for v in values]
        return out

    x = repr(support_edge(load_profile_file(prof_paths["constant"]))[1] + 0.5)
    commands = {}
    for cmd in _grid_commands(x):
        n = 2 if cmd[0] == "mc" else 1
        commands.setdefault(tuple(cmd[:n]), cmd[n:])  # validate: its first suite
    out, runs = tmp_path / "out", []
    for head, parser in _subcommand_parsers():
        rest = commands[tuple(head)]
        for option in bad_options(_build_parser()):
            runs.append([option, *head, *rest])
        for option in bad_options(parser):
            name = option.split("=")[0]
            i = rest.index(name) if name in rest else len(rest)  # the option and its value go
            runs.append([*head, *rest[:i], *rest[i + 2:], option])
    for argv in runs:
        argv = ["--out", str(out), *argv, "--profile", prof_paths["constant"]]
        assert _exit_code(argv) == 2, argv
        err = capsys.readouterr().err
        assert any(line.startswith("usage error: ") for line in err.splitlines()), (argv, err)
        assert "Traceback" not in err and not out.exists(), argv
    assert len(runs) >= 60


def test_usage_error_is_the_one_argument_error():
    assert issubclass(UsageError, ValueError) and issubclass(ProfileConfigError, UsageError)
    assert wigner_ldp.UsageError is UsageError


def _bad_mass_vector_calls():
    """Every entry point of a mass vector, each with a NaN, an inf, a wrong
    length, a negative entry, a sum of 1.1, strings and a ragged list (the
    profiles have p = 2)."""
    wish, block = wishart_profile(2.0), block_profile(0.5, 1.0, 4.0)
    entries = {
        "eval_phi": lambda v: eval_phi(wish, 0.5, 3.0, v),
        "eval_K": lambda v: eval_K(wish, 0.3, v),
        "eval_F": lambda v: eval_F(wish, 0.5, 3.0, v),
        "eval_F_hat": lambda v: eval_F_hat(wish, 0.1, 3.0, v),
        "f_hat_gradient": lambda v: f_hat_gradient(wish, 0.1, 3.0, v),
        "sup_theta": lambda v: sup_theta(block, 3.5, v),
        "find_tilt_theta": lambda v: find_tilt_theta(block, 3.5, v),
        "outlier_equation_z": lambda v: outlier_equation_z(block, 1.0, 3.5, v),
        "annealed_integral_mc": lambda v: mc.annealed_integral_mc(wish, 0.3, v, 0.1, 20, 10),
        "tilted_outlier_check": lambda v: mc.tilted_outlier_check(block, 3.5, v, 5, 2),
    }
    bad = {"nan": [np.nan, np.nan], "inf": [np.inf, 0.0], "length": [0.5, 0.25, 0.25],
           "negative": [-0.1, 1.1], "sum-1.1": [0.6, 0.5], "strings": ["a", "b"],
           "ragged": [[0.5], [0.5, 0.1]]}
    return [pytest.param(partial(f, v), id=f"{name}-{kind}")
            for name, f in entries.items() for kind, v in bad.items()]


_NEARLY_SYMMETRIC = np.array([[0.0, 1.0], [1.000009, 0.0]])


# Each call carries its own id, so removing one renames no other.  The
# "<lambda>k" ids are the positional ids the calls were first collected under,
# which saved lists of test ids name; a new call gets an id
# "<function>-<what is wrong>", and a count given a non-integer value the id
# "<function>-<parameter>-<value>" that the completeness test below reads.
_ARGUMENT_CHECKS = [
    pytest.param(lambda: spectral_measure(constant_profile(), 1.0, -1.0, 5), id="<lambda>0"),
    pytest.param(lambda: spectral_measure(constant_profile(), -1.0, 1.0, 1), id="<lambda>1"),
    pytest.param(lambda: stieltjes_total(constant_profile(), 1.9), id="<lambda>2"),
    pytest.param(lambda: log_potential(constant_profile(), 2.0), id="<lambda>3"),
    pytest.param(lambda: eval_J(constant_profile(), 3.0, -0.1), id="<lambda>4"),
    pytest.param(lambda: eval_J(constant_profile(), 1.0, 0.3), id="<lambda>5"),
    pytest.param(lambda: eval_phi(constant_profile(), 0.0, 3.0, [1.0]), id="<lambda>6"),
    pytest.param(lambda: eval_K(constant_profile(), -0.1, [1.0]), id="<lambda>7"),
    pytest.param(lambda: eval_K(wishart_profile(2.0), 0.5, [1.0, 1.0]), id="<lambda>8"),
    pytest.param(lambda: eval_phi(wishart_profile(2.0), 0.5, 3.0, [0.5, 0.6]), id="<lambda>9"),
    pytest.param(lambda: rate_function(constant_profile(), np.nan), id="<lambda>10"),
    pytest.param(lambda: rate_function(constant_profile(), np.inf), id="<lambda>11"),
    pytest.param(lambda: rate_sweep(constant_profile(), [3.0, np.nan]), id="<lambda>12"),
    pytest.param(lambda: stieltjes_total(constant_profile(), np.inf), id="<lambda>13"),
    pytest.param(lambda: log_potential(constant_profile(), np.inf), id="<lambda>14"),
    pytest.param(lambda: sup_theta(constant_profile(), np.inf, [1.0]), id="<lambda>15"),
    pytest.param(lambda: find_tilt_theta(constant_profile(), np.inf, [1.0]), id="<lambda>16"),
    pytest.param(lambda: eval_J(constant_profile(), 3.0, np.nan), id="<lambda>17"),
    pytest.param(lambda: eval_J(constant_profile(), 3.0, np.inf), id="<lambda>18"),
    pytest.param(lambda: eval_phi(constant_profile(), np.nan, 3.0, [1.0]), id="<lambda>19"),
    pytest.param(lambda: eval_phi(constant_profile(), np.inf, 3.0, [1.0]), id="<lambda>20"),
    pytest.param(lambda: eval_K(constant_profile(), np.nan, [1.0]), id="<lambda>21"),
    pytest.param(lambda: eval_K(constant_profile(), np.inf, [1.0]), id="<lambda>22"),
    pytest.param(lambda: eval_F(constant_profile(), np.nan, 3.0, [1.0]), id="<lambda>23"),
    pytest.param(lambda: eval_F(constant_profile(), np.inf, 3.0, [1.0]), id="<lambda>24"),
    pytest.param(lambda: eval_F_hat(constant_profile(), np.nan, 3.0, [1.0]), id="<lambda>25"),
    pytest.param(lambda: eval_F_hat(constant_profile(), np.inf, 3.0, [1.0]), id="<lambda>26"),
    pytest.param(lambda: f_hat_gradient(constant_profile(), np.nan, 3.0, [1.0]),
                 id="<lambda>27"),
    pytest.param(lambda: f_hat_gradient(constant_profile(), np.inf, 3.0, [1.0]),
                 id="<lambda>28"),
    pytest.param(lambda: f_hat_gradient(constant_profile(), -0.1, 3.0, [1.0]), id="<lambda>29"),
    pytest.param(lambda: f_hat_gradient(constant_profile(), 0.5, 1.0, [1.0]), id="<lambda>30"),
    pytest.param(lambda: outlier_equation_z(constant_profile(), np.nan, 3.0, [1.0]),
                 id="<lambda>31"),
    pytest.param(lambda: outlier_equation_z(constant_profile(), 0.0, 3.0, [1.0]),
                 id="<lambda>32"),
    pytest.param(lambda: rate_function_concave(block_profile(0.5, 1.0, 4.0), 3.5),
                 id="<lambda>33"),
    pytest.param(lambda: find_tilt_theta(wishart_profile(2.0), 3.0, [1.0, 0.0]),
                 id="<lambda>34"),
    pytest.param(lambda: eval_K(wishart_profile(2.0), 0.5, [0.5, 0.6]), id="<lambda>35"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [20], 0), id="<lambda>36"),
    pytest.param(lambda: mc.collect_batch(constant_profile(), 0, 3), id="<lambda>37"),
    pytest.param(lambda: mc.tilted_outlier_check(constant_profile(), 3.0, [1.0], 5, 0),
                 id="<lambda>38"),
    pytest.param(lambda: mc.annealed_integral_mc(constant_profile(), 0.3, [1.0], 0.1, 20, 0),
                 id="<lambda>39"),
    pytest.param(lambda: mc.annealed_integral_mc(wishart_profile(2.0), 0.3, [0.5], 0.1, 20, 10),
                 id="<lambda>40"),
    pytest.param(lambda: mc.annealed_integral_mc(wishart_profile(2.0), 0.3, 0.5, 0.1, 20, 10),
                 id="<lambda>41"),
    pytest.param(lambda: mc.annealed_integral_mc(wishart_profile(2.0), 0.3, [0.5, 0.5], -1.0, 20, 10),
                 id="<lambda>42"),
    pytest.param(lambda: mc.annealed_integral_mc(wishart_profile(2.0), np.nan, [0.5, 0.5], 0.1, 20, 10),
                 id="<lambda>43"),
    pytest.param(lambda: mc.profile_dirichlet_check(constant_profile(), 0, 10),
                 id="<lambda>44"),
    pytest.param(lambda: mc.spherical_integral_mc(np.eye(5), 0.3, 999), id="<lambda>45"),
    pytest.param(lambda: mc.spherical_integral_mc(np.eye(5), np.nan, 1000), id="<lambda>46"),
    pytest.param(lambda: mc.quantile_spectrum_matrix(constant_profile(), 0, 3.0),
                 id="<lambda>47"),
    pytest.param(lambda: mc.quantile_spectrum_matrix(constant_profile(), -3, 3.0),
                 id="<lambda>48"),
    pytest.param(lambda: mc.eig_top(np.zeros((0, 0))), id="<lambda>49"),
    pytest.param(lambda: discretize(ContinuousProfileSpec(np.ones((4, 4))), 5),
                 id="<lambda>50"),
    pytest.param(lambda: eval_F_hat(constant_profile(), -0.1, 3.0, [1.0]),
                 id="eval_F_hat-theta_hat-negative"),
    pytest.param(lambda: eval_F_hat(constant_profile(), 0.5, 1.0, [1.0]),
                 id="eval_F_hat-x-below-edge"),
    pytest.param(lambda: solve_dyson(constant_profile(), complex(np.nan, 1.0)),
                 id="solve_dyson-Re-z-nan"),
    pytest.param(lambda: solve_dyson(constant_profile(), complex(1.0, np.nan)),
                 id="solve_dyson-Im-z-nan"),
    pytest.param(lambda: solve_dyson(constant_profile(), np.inf), id="solve_dyson-z-inf"),
    pytest.param(lambda: solve_dyson_finite(np.ones((2, 2)), complex(1.0, np.nan)),
                 id="solve_dyson_finite-Im-z-nan"),
    pytest.param(lambda: stieltjes_inverse(constant_profile(), np.nan),
                 id="stieltjes_inverse-two_theta-nan"),
    pytest.param(lambda: stieltjes_inverse(constant_profile(), np.inf),
                 id="stieltjes_inverse-two_theta-inf"),
    pytest.param(lambda: spectral_measure(constant_profile(), -1.0, 1.0, 2.5),
                 id="spectral_measure-points-2.5"),
    pytest.param(lambda: discretize(ContinuousProfileSpec(np.ones((4, 4))), 2.5),
                 id="discretize-p-2.5"),
    pytest.param(lambda: mc.sample_matrix(constant_profile(), 2.5), id="sample_matrix-N-2.5"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [2.5], 10),
                 id="tail_estimate-N_list-2.5"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [20], np.nan),
                 id="tail_estimate-samples-nan"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [20], True),
                 id="tail_estimate-samples-True"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [20], 10, threads=0),
                 id="tail_estimate-threads-0"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [20], 10, threads=2.5),
                 id="tail_estimate-threads-2.5"),
    pytest.param(lambda: mc.collect_batch(constant_profile(), True, 3), id="collect_batch-N-True"),
    pytest.param(lambda: mc.collect_batch(constant_profile(), 5, 2.5),
                 id="collect_batch-samples-2.5"),
    pytest.param(lambda: mc.tilted_outlier_check(constant_profile(), 3.0, [1.0], 2.5, 2),
                 id="tilted_outlier_check-N-2.5"),
    pytest.param(lambda: mc.tilted_outlier_check(constant_profile(), 3.0, [1.0], 5, 2.5),
                 id="tilted_outlier_check-samples-2.5"),
    pytest.param(lambda: mc.annealed_integral_mc(constant_profile(), 0.3, [1.0], 0.1, 2.5, 10),
                 id="annealed_integral_mc-N-2.5"),
    pytest.param(lambda: mc.annealed_integral_mc(constant_profile(), 0.3, [1.0], 0.1, 20, 2.5),
                 id="annealed_integral_mc-samples-2.5"),
    pytest.param(lambda: mc.profile_dirichlet_check(constant_profile(), 2.5, 10),
                 id="profile_dirichlet_check-N-2.5"),
    pytest.param(lambda: mc.profile_dirichlet_check(constant_profile(), 5, 2.5),
                 id="profile_dirichlet_check-samples-2.5"),
    pytest.param(lambda: mc.quantile_spectrum_matrix(constant_profile(), 2.5, 3.0),
                 id="quantile_spectrum_matrix-N-2.5"),
    pytest.param(lambda: mc.spherical_integral_mc(np.eye(5), 0.3, 1000.5),
                 id="spherical_integral_mc-samples-1000.5"),
    pytest.param(lambda: mc.wilson_interval(1, 2.5), id="wilson_interval-n-2.5"),
    pytest.param(lambda: eval_J(constant_profile(), 3.0, "0.3"), id="eval_J-theta-string"),
    pytest.param(lambda: eval_K(constant_profile(), True, [1.0]), id="eval_K-theta-True"),
    pytest.param(lambda: eval_K(wishart_profile(2.0), 0.3, ["0.5", "0.5"]), id="eval_K-phi-strings"),
    pytest.param(lambda: eval_K(wishart_profile(2.0), 0.3, [True, False]), id="eval_K-phi-booleans"),
    pytest.param(lambda: eval_K(wishart_profile(2.0), 0.3, [True, 0.0]),
                 id="eval_K-phi-mixed-boolean"),
    # symmetric to within numpy's default rtol of 1e-5 but not to the absolute 1e-12
    pytest.param(lambda: mc.eig_top(_NEARLY_SYMMETRIC), id="eig_top-matrix-rtol"),
    pytest.param(lambda: mc.projected_empirical(_NEARLY_SYMMETRIC, wishart_profile(2.0)),
                 id="projected_empirical-matrix-rtol"),
    pytest.param(lambda: mc.spherical_integral_mc(_NEARLY_SYMMETRIC, 0.3, 1000),
                 id="spherical_integral_mc-matrix-rtol"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [6], 10, seed=2.5),
                 id="tail_estimate-seed-2.5"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [6], 10, seed=-1),
                 id="tail_estimate-seed-negative"),
    pytest.param(lambda: mc.tail_estimate(constant_profile(), 2.2, [6], 10, seed="3"),
                 id="tail_estimate-seed-string"),
    pytest.param(lambda: mc.spherical_integral_mc(np.eye(5), 0.3, 1000, seed=True),
                 id="spherical_integral_mc-seed-True"),
    pytest.param(lambda: mc.annealed_integral_mc(constant_profile(), 0.3, [1.0], 0.1, 20, 10, 2.5),
                 id="annealed_integral_mc-seed-2.5"),
    pytest.param(lambda: mc.profile_dirichlet_check(constant_profile(), 5, 10, seed=True),
                 id="profile_dirichlet_check-seed-True"),
    pytest.param(lambda: mc.tilted_outlier_check(constant_profile(), 3.0, [1.0], 5, 2, seed=2.5),
                 id="tilted_outlier_check-seed-2.5"),
    pytest.param(lambda: mc.collect_batch(constant_profile(), 5, 3, seed=True),
                 id="collect_batch-seed-True"),
    *_bad_mass_vector_calls(),
]


@pytest.mark.parametrize("call", _ARGUMENT_CHECKS)
def test_library_argument_checks_raise_usage_error(call):
    with pytest.raises(UsageError):
        call()


_COUNT_PARAMETERS = {"N", "N_list", "samples", "points", "p", "n", "threads", "seed"}


def test_every_count_parameter_has_a_non_integer_row():
    # every public function taking a size, a count or a seed is refused a non-integer one;
    # sample_matrix hands its seed to numpy, which also takes a derivation list
    ids = {c.id for c in _ARGUMENT_CHECKS}
    missing = []
    for module in (profiles, dyson, ratefn, mc):
        for name, f in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(f) or f.__module__ != module.__name__:
                continue
            for param in _COUNT_PARAMETERS & set(inspect.signature(f).parameters):
                if (name, param) == ("sample_matrix", "seed"):
                    continue
                if not any(f"{name}-{param}-{v}" in ids for v in ("2.5", "1000.5", "nan", "True")):
                    missing.append(f"{name}({param})")
    assert not missing, missing


def test_integral_floats_and_numpy_ints_read_as_counts():
    prof = constant_profile()
    pts = [mc.tail_estimate(prof, 2.2, [6], s, seed=1) for s in (4, 4.0, np.int64(4))]
    assert pts[1] == pts[0] and pts[2] == pts[0] and type(pts[1][0].samples) is int
    ref = spectral_measure(prof, -1.0, 1.0, 4)
    for points in (4.0, np.int64(4)):
        sm = spectral_measure(prof, -1.0, 1.0, points)
        assert np.array_equal(sm.x_grid, ref.x_grid) and np.array_equal(sm.density, ref.density)
