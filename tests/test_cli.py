import math

import numpy as np
import pytest

from wavetank import cli
from wavetank.cli import ConfigError, main, make_signal, parse_config, parse_initial_spec
from wavetank.lab import KernelAudit, KernelAuditRow


def test_defaults_for_verify():
    cfg = parse_config("verify")
    assert cfg.k_modes == 256
    assert cfg.l_modes == 10_000
    assert cfg.mu_list == (1e-1, 1e-2, 1e-3, 1e-4)
    assert cfg.effective_dt == pytest.approx(1e-3 * cfg.tau)


def test_mu_range_error_message():
    with pytest.raises(ConfigError, match=r"mu must be in \(0, 1\]"):
        parse_config("simulate", overrides={"mu": "0"})
    with pytest.raises(ConfigError, match=r"mu must be in \(0, 1\]"):
        parse_config("simulate", "mu=1.5\n")


def test_mu_list_parsing():
    cfg = parse_config("sweep", "mu_list=1e-1,1e-2,1e-3\n")
    assert cfg.mu_list == (0.1, 0.01, 0.001)
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config("sweep", "mu_list=1e-3,1e-2\n")


def test_unknown_key_and_syntax_errors():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config("verify", "bogus=1\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("verify", "what is this\n")


def test_comments_and_blank_lines():
    cfg = parse_config("verify", "# a comment\n\ntau=2.0  # trailing\n")
    assert cfg.tau == 2.0


def test_flag_overrides_file():
    cfg = parse_config("simulate", "mu=0.5\n", overrides={"mu": "0.25"})
    assert cfg.mu == 0.25


def test_config_round_trip():
    cfg = parse_config("sweep", "mu=0.125\nmu_list=1e-1,1e-3\ndt=0.005\ngrid=30,40\n")
    again = parse_config("sweep", cfg.to_text())
    assert again == cfg


def test_initial_spec_language():
    v = parse_initial_spec("zero", 4)
    assert np.all(v.coeffs == 0.0)
    v = parse_initial_spec("cos1", 4)
    assert v.coeffs[1] == 1.0 and v.coeffs.sum() == 1.0
    v = parse_initial_spec("smooth8", 16)
    np.testing.assert_allclose(v.coeffs[1:9], 1.0 / np.arange(1, 9) ** 2)
    assert np.all(v.coeffs[9:] == 0.0)
    v = parse_initial_spec("mode:2:0.5+mode:0:1.25", 4)
    assert v.coeffs[0] == 1.25 and v.coeffs[2] == 0.5
    with pytest.raises(ConfigError, match="initial-data"):
        parse_initial_spec("mode:9:1", 4)
    with pytest.raises(ConfigError, match="initial-data"):
        parse_initial_spec("garbage", 4)


def test_signal_spec_language():
    sig = make_signal("zero", 0.1, 5)
    assert np.all(sig.values == 0.0)
    sig = make_signal("const:2.5", 0.1, 4)
    assert np.all(sig.values == 2.5)
    sig = make_signal("pulse:0:0.2:1", 0.1, 5)
    np.testing.assert_allclose(sig.values, [1, 1, 0, 0, 0])
    with pytest.raises(ConfigError, match="signal"):
        make_signal("sine:1", 0.1, 5)


def test_main_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["simulate", "--mu", "0"]) == 1
    assert "mu must be in" in capsys.readouterr().err
    assert main(["simulate", "--config", "/nonexistent/path.cfg"]) == 1


def test_simulate_zero_run(tmp_path):
    rc = main(
        ["simulate", "--out", str(tmp_path), "--mu", "0.25", "--k-modes", "4",
         "--l-modes", "500", "--tau", "0.5", "--dt", "0.1", "--init", "zero", "--signal", "zero"]
    )
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,zeta_0,") and ",dzeta_0," in lines[0]
    assert len(lines) == 7
    row = lines[3].split(",")
    assert float(row[0]) == pytest.approx(0.2)
    assert all(float(v) == 0.0 for v in row[1:])


def test_simulate_limit_system(tmp_path):
    rc = main(
        ["simulate", "--out", str(tmp_path), "--system", "limit", "--k-modes", "2",
         "--tau", "1.0", "--dt", "0.5", "--init", "cos1", "--signal", "zero"]
    )
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    assert last[2] == pytest.approx(math.cos(1.0), abs=1e-12)


def test_simulate_ignores_l_modes(tmp_path):
    # the forcing is the closed form; l_modes only truncates the series oracle
    outputs = []
    for l_modes in ("1", "10000"):
        out = tmp_path / l_modes
        args = ["simulate", "--out", str(out), "--k-modes", "8", "--tau", "0.1", "--dt", "0.05"]
        assert main(args + ["--l-modes", l_modes]) == 0
        outputs.append((out / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_audit_failure_exits_2(tmp_path, capsys, monkeypatch):
    failing = KernelAudit(rows=(KernelAuditRow("F", "forced violation", 2.0, 1.0),), mu_grid=(1.0,), k_max=1)
    monkeypatch.setattr(cli, "audit_kernels", lambda **kw: failing)
    rc = main(["verify", "--out", str(tmp_path), "--k-modes", "16", "--seed", "5"])
    assert rc == 2
    assert "BOUND VIOLATION" in capsys.readouterr().out
    assert (tmp_path / "audit.txt").read_text().endswith("verify: BOUND VIOLATION\n")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("dt", ["0.3", "0.35", "5"])
def test_horizon_not_whole_number_of_steps_exits_1(tmp_path, capsys, command, dt):
    # 0.3 would stop at t = 0.9, 0.35 overshoot to t = 1.05, 5 take no step
    rc = main([command, "--out", str(tmp_path), "--k-modes", "4", "--tau", "1", "--dt", dt, "--k-max", "10"])
    assert rc == 1
    assert "tau=1 is not a whole number of steps" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_default_dt_reaches_horizon():
    for tau in ("0.1", "1", "7.3", "10", "20", "12345.678"):
        cfg = parse_config("simulate", overrides={"tau": tau})
        assert cli._n_steps(cfg) == 1000


def test_sweep_outputs_and_determinism(tmp_path):
    args = [
        "sweep", "--mu-list", "1e-1,1e-2", "--k-modes", "16", "--l-modes", "500",
        "--tau", "1.0", "--dt", "0.01", "--init", "cos1", "--signal", "pulse:0:0.5:1",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    lines = (out1 / "sweep.csv").read_text().splitlines()
    assert lines[0] == "mu,err_half,err_deriv"
    assert len(lines) == 3


def test_field_outputs(tmp_path):
    rc = main(
        ["field", "--out", str(tmp_path), "--mu", "0.25", "--k-modes", "4",
         "--l-modes", "64", "--grid", "6,5", "--init", "cos1"]
    )
    assert rc == 0
    for name in ("field_dirichlet.csv", "field_neumann.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 6 * 5
    # dirichlet trace at y=0 on the first mode equals phi_1
    rows = [ln.split(",") for ln in (tmp_path / "field_dirichlet.csv").read_text().splitlines()[1:]]
    surf = {float(x): float(v) for x, y, v in rows if float(y) == 0.0}
    for x, v in surf.items():
        assert v == pytest.approx(math.sqrt(2 / math.pi) * math.cos(x), abs=1e-12)


def test_verify_quick_grid(tmp_path):
    rc = main(
        ["verify", "--out", str(tmp_path), "--k-max", "200", "--l-modes", "500",
         "--k-modes", "32", "--seed", "5"]
    )
    assert rc == 0
    text = (tmp_path / "audit.txt").read_text()
    assert "all proven bounds hold" in text
    assert "FAIL" not in text


def test_help_exits_zero():
    assert main(["--help"]) == 0
