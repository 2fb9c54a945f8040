import json

import numpy as np
import pytest

from wigner_ldp import oracles
from wigner_ldp.cli import main


@pytest.fixture(scope="module")
def prof_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("profiles")
    paths = {}
    for name, cfg in {
        "constant": {"kind": "constant"},
        "wishart": {"kind": "wishart", "alpha": 2.0},
        "block": {"kind": "block", "alpha": 0.5, "sigma1": 1.0, "sigma2": 4.0},
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


def test_edge_missing_file(tmp_path):
    assert main(["edge", "--profile", str(tmp_path / "nope.json")]) == 2


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
    assert float(footer.split(",")[1]) == pytest.approx(1.0, abs=1e-3)


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


def test_density_eta_not_decreasing(prof_paths):
    code = _exit_code([
        "density", "--profile", prof_paths["constant"],
        "--xmin", "-2.0", "--xmax", "2.0", "--points", "11", "--eta", "0.001,0.01",
    ])
    assert code == 2


def test_density_eta_not_positive(prof_paths):
    code = _exit_code([
        "density", "--profile", prof_paths["constant"],
        "--xmin", "-2.0", "--xmax", "2.0", "--points", "11", "--eta", "0.01,0",
    ])
    assert code == 2


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


def test_validate_unknown_suite(prof_paths):
    assert main(["validate", "--profile", prof_paths["constant"], "--suite", "zzz"]) == 2


def test_validate_blocks_needs_block_profile(prof_paths):
    assert main(["validate", "--profile", prof_paths["constant"], "--suite", "blocks"]) == 2


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


def test_mc_tilt(prof_paths, tmp_path):
    out = tmp_path / "tilt.json"
    code = main([
        "--out", str(out), "mc", "tilt", "--profile", prof_paths["constant"],
        "--x", "3.0", "--N", "80", "--samples", "10",
    ])
    assert code == 0
    d = json.loads(out.read_text())
    assert abs(d["mean_lambda1"] - 3.0) < 0.3


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
        ["rate", "--profile", "constant", "--x", "3.0", "--starts", "-3"],
        ["mc", "spherical", "--profile", "constant", "--x", "1.0", "--theta", "0.3", "--N", "40",
         "--samples", "2000"],
        ["mc", "tilt", "--profile", "constant", "--x", "1.0", "--N", "40", "--samples", "2"],
    ],
    ids=["annealed-theta-nan", "annealed-phi-length", "annealed-phi-negative",
         "annealed-delta-zero", "tail-x-nan", "spherical-few-samples", "tilt-psi-zero-sum",
         "rate-x-nan", "rate-starts-negative", "spherical-x-below-edge", "tilt-x-below-edge"],
)
def test_bad_numeric_options_exit_2(prof_paths, argv):
    argv = [prof_paths.get(a, a) for a in argv]
    assert _exit_code(argv) == 2


def test_rate_zero_starts_runs_the_deterministic_starts(prof_paths, tmp_path):
    out = tmp_path / "rate.json"
    code = main(["--format", "json", "--out", str(out), "rate", "--profile", prof_paths["wishart"],
                 "--x", "2.0", "--starts", "0"])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["manifest"]["options"]["starts"] == 0
    assert d["reports"][0]["starts_used"] == 3  # the weights and one vertex per block
