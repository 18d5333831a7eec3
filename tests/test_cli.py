import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank import cli
from wavetank.basis import ModalVector, SpectralParams
from wavetank.cli import ConfigError, main, make_signal, parse_config, parse_initial_spec
from wavetank.evolution import make_initial, water_system
from wavetank.lab import KernelAudit, KernelAuditRow

from oracles import evolve


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
    for bad in ("2,1e-2", "1e-1,0", "1e-1,-1e-2", ""):
        with pytest.raises(ConfigError, match=r"mu_list must (be in \(0, 1\]|contain at least one value)"):
            parse_config("sweep", overrides={"mu_list": bad})


def test_grid_below_two_points_is_a_config_error():
    for bad in ("1,5", "5,1", "0,0"):
        with pytest.raises(ConfigError, match="grid must be >= 2"):
            parse_config("field", overrides={"grid": bad})


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


def test_flag_values_are_stripped_and_reject_comment_or_line_break():
    cfg = parse_config("sweep", overrides={"signal": "pulse:0:1:1 ", "out": " x", "mu": " 0.5"})
    assert (cfg.signal, cfg.out, cfg.mu) == ("pulse:0:1:1", "x", 0.5)
    for bad in ("a#b", "a\nb", "a\rb", "a\u2028b", "x\n"):
        with pytest.raises(ConfigError, match="out must contain neither"):
            parse_config("sweep", overrides={"out": bad})


def _padded(values):
    blanks = st.sampled_from(["", " ", "\t "])
    return st.builds(lambda pre, v, post: pre + v + post, blanks, values, blanks)


_FLAG_VALUES = {
    "out": st.one_of(st.text(max_size=12), _padded(st.text(max_size=8))),
    "mu": _padded(st.floats(0.0, 1.0, exclude_min=True).map(repr)),
    "mu_list": _padded(st.sampled_from(["1e-1,1e-2", "0.5 , 0.25", "1e-1,1e-2,3e-7"])),
    "k_modes": _padded(st.integers(1, 64).map(str)),
    "dt": _padded(st.sampled_from(["", "0.01", "1e-3"])),
    "grid": _padded(st.sampled_from(["5,6", "5 , 6", "2,300"])),
    "signal": _padded(st.sampled_from(["zero", "const:2", "pulse:0:1:1", "pulse: 0:1 :1"])),
    "init": _padded(st.sampled_from(["smooth8", "cos1", "mode:1:0.5 + mode:2:1"])),
    "init1": _padded(st.sampled_from(["zero", "mode:0:1e-3"])),
    "system": _padded(st.sampled_from(["water", "limit"])),
    "seed": _padded(st.integers(0, 10**6).map(str)),
}


@settings(deadline=None)
@given(command=st.sampled_from(cli.COMMANDS), overrides=st.fixed_dictionaries(_FLAG_VALUES),
       spoilt=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(_FLAG_VALUES)),
                                             st.sampled_from(["#", " #c", "#c ", "\n", "\r", "\u2028"]))))
def test_config_round_trips_or_raises(command, overrides, spoilt):
    # padded flag values; in about half the examples one of them ends in a comment or a line break
    if spoilt is not None:
        key, ending = spoilt
        overrides[key] += ending
    try:
        cfg = parse_config(command, overrides=overrides)
    except ConfigError:
        return
    assert parse_config(cfg.command, cfg.to_text()) == cfg


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
    for bad in ("mode:1:nan", "mode:1:-inf", "mode:1:1e308+mode:1:1e308", "mode:0:1e308+mode:0:1e308+mode:0:-inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_initial_spec(bad, 4)


def test_signal_spec_language():
    sig = make_signal("zero", 0.1, 5)
    assert np.all(sig.values == 0.0)
    sig = make_signal("const:2.5", 0.1, 4)
    assert np.all(sig.values == 2.5)
    sig = make_signal("pulse:0:0.2:1", 0.1, 5)
    np.testing.assert_allclose(sig.values, [1, 1, 0, 0, 0])
    with pytest.raises(ConfigError, match="signal"):
        make_signal("sine:1", 0.1, 5)


def _num(x: float) -> str:
    # '+' joins initial-data terms, so write 1e+308 as 1e308
    return repr(x).replace("e+", "e")


_drawn = st.one_of(st.floats(), st.sampled_from([1e308, -1e308]))


@settings(deadline=None)
@given(terms=st.lists(st.tuples(st.integers(-1, 5), _drawn), min_size=1, max_size=4),
       t0=_drawn, t1=_drawn, amp=_drawn)
def test_mini_languages_raise_only_config_error(terms, t0, t1, amp):
    specs = [
        (parse_initial_spec, "+".join(f"mode:{k}:{_num(a)}" for k, a in terms), 4),
        (make_signal, f"const:{_num(amp)}", 0.1, 8),
        (make_signal, f"pulse:{_num(t0)}:{_num(t1)}:{_num(amp)}", 0.1, 8),
    ]
    for fn, *args in specs:
        try:
            fn(*args)
        except ConfigError:
            pass


def test_main_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["simulate", "--mu", "0"]) == 1
    assert "mu must be in" in capsys.readouterr().err
    assert main(["simulate", "--config", "/nonexistent/path.cfg"]) == 1
    assert main(["simulate", "--init", "mode:1:nan"]) == 1


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


def test_simulate_streams_the_rows_of_evolve(tmp_path):
    # at K = 2000 a block holds 16 rows, so the 51 rows span four blocks
    args = ["simulate", "--out", str(tmp_path), "--k-modes", "2000", "--tau", "0.5", "--dt", "0.01",
            "--signal", "pulse:0:0.2:1"]
    assert main(args) == 0
    system = water_system(SpectralParams(mu=0.01, K=2000))
    initial = make_initial(parse_initial_spec("smooth8", 2000), ModalVector.zeros(2000), [system])
    rows = np.column_stack(evolve(initial, make_signal("pulse:0:0.2:1", 0.01, 50), system))
    expected = [",".join(f"{v:.17g}" for v in row) for row in rows]
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[1:] == expected


def test_simulate_non_finite_state_exits_1_naming_the_time(tmp_path, capsys):
    # the mode-0 elevation grows as 1e308 t^2 and overflows at t = 2.55, step 51 of 200
    args = ["simulate", "--out", str(tmp_path), "--k-modes", "2", "--signal", "const:1e308", "--tau", "10",
            "--dt", "0.05"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 1
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["wavetank: simulate: the state is not finite at t=2.55: the data or input overflow float64"]
    assert not any(tmp_path.iterdir())


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
    failing = KernelAudit("kernel audit", (KernelAuditRow("F", "forced violation", 2.0, 1.0),))
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


def test_horizon_too_large_to_count_exits_1(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path), "--k-modes", "4", "--tau", "1e308", "--dt", "1e-300"])
    assert rc == 1
    assert "too many steps" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, stage",
    [
        (["simulate", "--k-modes", "4", "--tau", "1e6", "--dt", "1e-9"], "simulate"),
        (["sweep", "--k-modes", "4", "--tau", "1e6", "--dt", "1e-9"], "sweep"),
        (["verify", "--k-modes", "1000000000000000000"], "config error"),
    ],
)
def test_run_too_large_to_allocate_exits_1(tmp_path, capsys, args, stage):
    # 10^15 signal samples need 7.11 PiB and 10^18 modes 6.94 EiB, more than any
    # 64-bit address space holds, so the allocation fails at once
    assert main([*args, "--out", str(tmp_path), "--k-max", "10"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"wavetank: {stage}: Unable to allocate"), err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_initial_elevation_overflow_exits_1_naming_the_mode(tmp_path, capsys, command):
    # beta_2 = omega_2 zeta0_2 = 2e308 overflows for the limit string
    args = [command, "--out", str(tmp_path), "--system", "limit", "--k-modes", "2", "--init", "mode:2:1e308",
            "--tau", "0.1", "--dt", "0.05", "--mu-list", "1e-1,1e-2", "--k-max", "10"]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"wavetank: {command}: init mode 2:"), err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, output", [("simulate", "trajectory.csv"), ("sweep", "sweep.csv")])
def test_initial_overflow_keeps_a_previous_runs_output(tmp_path, command, output):
    # the initial data are checked before the output is registered, so a failing run removes nothing it did not write
    (tmp_path / output).write_bytes(b"previous run\n")
    args = [command, "--out", str(tmp_path), "--system", "limit", "--k-modes", "2", "--init", "mode:2:1e308",
            "--tau", "0.1", "--dt", "0.05", "--mu-list", "1e-1,1e-2", "--k-max", "10"]
    assert main(args) == 1
    assert [p.name for p in tmp_path.iterdir()] == [output]
    assert (tmp_path / output).read_bytes() == b"previous run\n"


def test_sweep_error_norm_overflow_exits_1(tmp_path, capsys):
    # errors near 1e200 are finite, their squares are not
    args = ["sweep", "--out", str(tmp_path), "--k-modes", "16", "--init", "mode:1:1e200", "--tau", "1",
            "--dt", "0.01", "--mu-list", "1e-1,1e-2,1e-3", "--k-max", "50"]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not finite" in err[0], err
    assert not any(tmp_path.iterdir())


def test_field_overflow_exits_1_with_one_line(tmp_path, capsys):
    # each amplitude is finite; the surface field sums them past float64
    args = ["field", "--out", str(tmp_path), "--mu", "1", "--k-modes", "4", "--grid", "3,3",
            "--init", "mode:1:1.7e308+mode:0:1.7e308"]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == ["wavetank: field: field values must be finite"]
    assert not any(tmp_path.iterdir())


def test_output_error_exits_1_with_one_line(tmp_path, capsys):
    # summary.txt cannot replace a directory; the sweep.csv written before it is removed
    (tmp_path / "summary.txt").mkdir()
    args = ["sweep", "--out", str(tmp_path), "--mu-list", "1e-1,1e-2", "--k-modes", "4",
            "--tau", "0.1", "--dt", "0.05", "--k-max", "10", "--l-modes", "10"]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wavetank: sweep: ")
    assert [p.name for p in tmp_path.iterdir()] == ["summary.txt"]


def test_default_dt_reaches_horizon():
    for tau in ("0.1", "1", "7.3", "10", "20", "12345.678"):
        cfg = parse_config("simulate", overrides={"tau": tau})
        assert cli._n_steps(cfg) == 1000


def test_sweep_of_shallowness_one_ulp_apart_exits_0_quietly(tmp_path, capsys):
    # the rate fit sees two mu one ulp apart; a Vandermonde fit warned here
    args = ["sweep", "--out", str(tmp_path), "--mu-list", "1,1.0000000000000002e-08,1e-8", "--k-modes", "4",
            "--tau", "1", "--dt", "0.1", "--k-max", "10", "--l-modes", "10"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 0
    assert caught == []
    assert capsys.readouterr().err == ""


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


def test_field_neumann_profile_capped_at_512_lateral_modes(tmp_path):
    outputs = []
    for l_modes in ("512", "10000"):
        out = tmp_path / l_modes
        assert main(["field", "--out", str(out), "--k-modes", "4", "--grid", "6,5", "--l-modes", l_modes]) == 0
        outputs.append((out / "field_neumann.csv").read_bytes())
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("signal", ["pulse:1:0:1", "pulse:1:1:1", "pulse:nan:1:1", "pulse:0:inf:1", "pulse:0:1:nan"])
def test_empty_or_non_finite_pulse_is_a_config_error(tmp_path, capsys, signal):
    assert main(["simulate", "--out", str(tmp_path), "--tau", "10", "--signal", signal]) == 1
    assert capsys.readouterr().err.startswith(f"wavetank: config error: signal '{signal}': ")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("window", ["20:30", "0.001:0.002"])
def test_pulse_holding_no_step_start_exits_1_naming_window_and_grid(tmp_path, capsys, command, window):
    # past the horizon, or between two step starts, the pulse would be u = 0; amplitude 0 itself is allowed
    args = [command, "--out", str(tmp_path), "--k-modes", "4", "--tau", "10", "--k-max", "10", "--l-modes", "10"]
    assert main([*args, "--signal", f"pulse:{window}:1"]) == 1
    window_text = f"the window [{window.replace(':', ', ')}) holds no step start m*dt of the grid dt=0.01, m < 1000"
    assert capsys.readouterr().err == f"wavetank: {command}: signal 'pulse:{window}:1': {window_text}\n"
    assert not any(tmp_path.iterdir())
    assert main([*args, "--signal", "pulse:0:1:0"]) == 0
