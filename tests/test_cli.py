import contextlib
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank import cli, fields
from wavetank.cli import ConfigError, main, make_signal, parse_config, parse_initial_spec
from wavetank.evolution import water_system
from wavetank.lab import KernelAudit, KernelAuditRow

from oracles import evolve, expand, pulse_values


def test_defaults_for_verify():
    cfg = parse_config("verify")
    assert cfg.k_modes == 256
    assert cfg.l_modes == 10_000
    assert cfg.mu_list == (1e-1, 1e-2, 1e-3, 1e-4)
    assert cfg.dt == pytest.approx(1e-3 * cfg.tau)


def test_mu_range_error_message():
    # mu = 0 is the string, which every command but field accepts
    assert parse_config("simulate", overrides={"mu": "0"}).mu == 0.0
    for bad in ("-1e-300", "1.5"):
        with pytest.raises(ConfigError, match=r"^mu must be in \[0, 1\], got "):
            parse_config("simulate", f"mu={bad}\n")
    with pytest.raises(ConfigError, match=r"^mu must be in \(0, 1\] for field, got 0$"):
        parse_config("field", overrides={"mu": "0"})


def test_mu_list_parsing():
    cfg = parse_config("sweep", "mu_list=1e-1,1e-2,1e-3\n")
    assert cfg.mu_list == (0.1, 0.01, 0.001)
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config("sweep", "mu_list=1e-3,1e-2\n")
    for bad in ("2,1e-2", "1e-1,0", "1e-1,-1e-2", ""):
        with pytest.raises(ConfigError, match=r"mu_list must (be in \(0, 1\]|contain at least one value)"):
            parse_config("sweep", overrides={"mu_list": bad})
    # an empty item is an error, not one value fewer
    for bad in ("1e-1,,1e-2", "1e-1,1e-2,", ",1e-1"):
        with pytest.raises(ConfigError, match="mu_list must be a number, got ''"):
            parse_config("sweep", overrides={"mu_list": bad})


def test_grid_below_two_points_is_a_config_error():
    for bad in ("1,5", "5,1", "0,0"):
        with pytest.raises(ConfigError, match="grid must be >= 2"):
            parse_config("field", overrides={"grid": bad})


def test_mode_count_and_step_below_range_are_config_errors():
    with pytest.raises(ConfigError, match="k_modes must be >= 1, got 0"):
        parse_config("simulate", overrides={"k_modes": "0"})
    for bad in ("0", "-0.1", "nan"):
        with pytest.raises(ConfigError, match=r"dt must be in \(0, inf\]"):
            parse_config("simulate", overrides={"dt": bad})


def test_unknown_key_and_syntax_errors():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config("verify", "bogus=1\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("verify", "what is this\n")
    with pytest.raises(ConfigError, match=r"^unknown key 'mu_lst'; known keys: out, mu, mu_list,"):
        parse_config("sweep", overrides={"mu_lst": "1e-2"})


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
    "mu": _padded(st.one_of(st.just(0.0), st.floats(0.0, 1.0)).map(repr)),
    "mu_list": _padded(st.sampled_from(["1e-1,1e-2", "0.5 , 0.25", "1e-1,1e-2,3e-7"])),
    "k_modes": _padded(st.integers(1, 64).map(str)),
    "dt": _padded(st.sampled_from(["", "0.01", "1e-3"])),
    "grid": _padded(st.sampled_from(["5,6", "5 , 6", "2,300"])),
    "signal": _padded(st.sampled_from(["zero", "const:2", "pulse:0:1:1", "pulse: 0:1 :1"])),
    "init": _padded(st.sampled_from(["smooth8", "cos1", "mode:1:0.5 + mode:2:1"])),
    "init1": _padded(st.sampled_from(["zero", "mode:0:1e-3"])),
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
    assert np.all(v == 0.0)
    v = parse_initial_spec("cos1", 4)
    assert v[1] == 1.0 and v.sum() == 1.0
    v = parse_initial_spec("smooth8", 16)
    np.testing.assert_allclose(v[1:9], 1.0 / np.arange(1, 9) ** 2)
    assert np.all(v[9:] == 0.0)
    v = parse_initial_spec("mode:2:0.5+mode:0:1.25", 4)
    assert v[0] == 1.25 and v[2] == 0.5
    with pytest.raises(ConfigError, match="initial-data"):
        parse_initial_spec("mode:9:1", 4)
    with pytest.raises(ConfigError, match="initial-data"):
        parse_initial_spec("garbage", 4)
    for bad in ("mode:1:nan", "mode:1:-inf", "mode:1:1e308+mode:1:1e308", "mode:0:1e308+mode:0:1e308+mode:0:-inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_initial_spec(bad, 4)


@pytest.mark.parametrize("spec", ["zero", "cos1", "smooth8", "mode:2:0.5+mode:0:1.25"])
def test_initial_data_are_read_only_float64_arrays_of_the_mode_count(spec):
    # read-only, so no command can change the data that the config caches
    cfg = parse_config("simulate", overrides={"init": spec, "init1": spec, "k_modes": "16"})
    for v in (cfg.init_modes, cfg.init1_modes):
        assert isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (cfg.k_modes + 1,)
        assert not v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0


def test_signal_spec_language():
    assert make_signal("zero", 0.1, 5) == ((0.0, 5),)
    assert make_signal("const:2.5", 0.1, 4) == ((2.5, 4),)
    assert make_signal("pulse:0:0.2:1", 0.1, 5) == ((1.0, 2), (0.0, 3))
    with pytest.raises(ConfigError, match="signal"):
        make_signal("sine:1", 0.1, 5)


def _edges(dt, n):
    """Pulse edges at a step start m*dt, at a float next to one, or anywhere from before 0 to past the horizon."""
    m = st.integers(-3, n + 3)
    return st.one_of(
        m.map(lambda m: m * dt),
        m.map(lambda m: math.nextafter(m * dt, math.inf)),
        m.map(lambda m: math.nextafter(m * dt, -math.inf)),
        st.floats(-n * dt - 1.0, 2.0 * n * dt + 1.0),
    )


@settings(deadline=None)
@given(data=st.data(), dt=st.floats(1e-6, 10.0) | st.sampled_from([0.1, 1e-2, 1.0 / 3.0]), n=st.integers(1, 300))
def test_signal_runs_expand_to_the_per_step_signal_bitwise(data, dt, n):
    on, off = sorted([data.draw(_edges(dt, n)), data.draw(_edges(dt, n))])
    amplitude = data.draw(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]))
    expected = {
        f"const:{amplitude!r}": pulse_values(0.0, math.inf, amplitude, dt, n),
        "zero": pulse_values(0.0, math.inf, 0.0, dt, n),
        f"pulse:{on!r}:{off!r}:{amplitude!r}": pulse_values(on, off, amplitude, dt, n),
    }
    t = np.arange(n) * dt
    held = ((t >= on) & (t < off)).any()
    for spec, values in expected.items():
        if spec.startswith("pulse") and not held:
            with pytest.raises(ConfigError, match="holds no step start|needs T0 < T1"):
                make_signal(spec, dt, n)
            continue
        runs = make_signal(spec, dt, n)
        assert 1 <= len(runs) <= 3 and all(count > 0 for _, count in runs)
        np.testing.assert_array_equal(expand(runs).view(np.uint64), values.view(np.uint64))


def test_signal_memory_is_bounded_by_its_runs_not_its_steps():
    # 10^7 steps held as two runs; a value per step would take 80 MB
    tracemalloc.start()
    try:
        cfg = parse_config("sweep", overrides={"tau": "1000", "dt": "1e-4"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.signal_runs == ((1.0, 10_000), (0.0, 9_990_000))
    assert peak < 2**20


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
    assert main(["simulate", "--mu", "1.5"]) == 1
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
        ["simulate", "--out", str(tmp_path), "--mu", "0", "--k-modes", "2",
         "--tau", "1.0", "--dt", "0.5", "--init", "cos1", "--signal", "zero"]
    )
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    assert last[2] == pytest.approx(math.cos(1.0), abs=1e-12)


def test_field_at_mu_0_and_the_gone_system_key_exit_1_writing_nothing(tmp_path, capsys):
    # field's wave-maker extension divides by sqrt(mu), so it alone rejects the string's mu = 0; the system key
    # that once chose the string is gone, as a flag and as a config file's key
    (tmp_path / "limit.cfg").write_text("system=limit\n")
    runs = {
        ("field", "--mu", "0"): "wavetank: config error: mu must be in (0, 1] for field, got 0",
        ("simulate", "--system", "limit"): (
            "wavetank: usage error: unknown flag --system (wavetank --help lists the flags)"
        ),
        ("simulate", "--config", str(tmp_path / "limit.cfg")): (
            f"wavetank: config error: {tmp_path / 'limit.cfg'}:1: unknown key 'system'; {cli._KNOWN_KEYS}"
        ),
    }
    for argv, message in runs.items():
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
    assert [p.name for p in tmp_path.iterdir()] == ["limit.cfg"]


def test_simulate_streams_the_rows_of_evolve(tmp_path):
    # at K = 2000 a block holds 16 rows, so the 51 rows span four blocks
    args = ["simulate", "--out", str(tmp_path), "--k-modes", "2000", "--tau", "0.5", "--dt", "0.01",
            "--signal", "pulse:0:0.2:1"]
    assert main(args) == 0
    system = water_system(0.01, 2000)
    zeta0 = parse_initial_spec("smooth8", 2000)
    rows = np.column_stack(evolve(zeta0, np.zeros(2001), make_signal("pulse:0:0.2:1", 0.01, 50), 0.01, system))
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
    assert capsys.readouterr().err.startswith("wavetank: config error: tau=1 is not a whole number of steps")
    assert not any(tmp_path.iterdir())


def test_horizon_too_large_to_count_exits_1(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path), "--k-modes", "4", "--tau", "1e308", "--dt", "1e-300"])
    assert rc == 1
    assert capsys.readouterr().err == "wavetank: config error: tau=1e+308 holds too many steps of dt=1e-300 to count\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, stage",
    [
        (["simulate", "--k-modes", "4", "--tau", "1e6", "--dt", "1e-9"], "config error"),
        (["sweep", "--k-modes", "4", "--tau", "1e6", "--dt", "1e-9"], "config error"),
        (["verify", "--k-modes", "1000000000000000000"], "config error"),
    ],
)
def test_run_too_large_to_allocate_exits_1(tmp_path, capsys, args, stage):
    # 10^15 steps are past the step cap, and 10^18 modes need 6.94 EiB, more than
    # any 64-bit address space holds, so both runs stop before they start
    assert main([*args, "--out", str(tmp_path), "--k-max", "10"]) == 1
    err = capsys.readouterr().err.splitlines()
    reason = "Unable to allocate" if args[0] == "verify" else (
        "tau=1e+06 holds 1000000000000000 steps of dt=1e-09, more than the 1000000000 a run may take"
    )
    assert len(err) == 1 and err[0].startswith(f"wavetank: {stage}: {reason}"), err
    assert not any(tmp_path.iterdir())


def test_step_count_is_capped():
    # the cap itself is a run; one step more is a config error, both without stepping
    assert sum(n for _, n in parse_config("sweep", overrides={"tau": "1e9", "dt": "1"}).signal_runs) == 10**9
    with pytest.raises(ConfigError, match="holds 1000000001 steps of dt=1, more than the 1000000000"):
        parse_config("simulate", overrides={"tau": "1000000001", "dt": "1"})


def test_l_modes_is_capped():
    # the cap itself is accepted and one more is a config error, both at parsing, before the oracle runs
    assert parse_config("verify", overrides={"l_modes": "1000000000"}).l_modes == 10**9
    with pytest.raises(ConfigError, match="^l_modes must be <= 1000000000, got 1000000001$"):
        parse_config("verify", overrides={"l_modes": "1000000001"})


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_initial_elevation_overflow_exits_1_naming_the_mode(tmp_path, capsys, command):
    # the two terms of mode 2 sum past float64; the message quotes the spec that names it
    spec = "mode:1:1+mode:2:1e308+mode:2:1e308"
    args = [command, "--out", str(tmp_path), "--mu", "0", "--k-modes", "3", "--init", spec,
            "--tau", "0.1", "--dt", "0.05", "--mu-list", "1e-1,1e-2", "--k-max", "10"]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"wavetank: config error: initial-data amplitudes must sum to finite values, got {spec!r}"]
    assert not any(tmp_path.iterdir())


def test_finite_initial_data_run_until_the_state_or_the_norms_overflow(tmp_path, capsys):
    # omega_2 zeta0_2 = 2e308 is not a float64, but the state (zeta, zeta_t) is:
    # simulate starts from it, while the sweep's squared errors overflow
    args = ["--mu", "0", "--k-modes", "2", "--init", "mode:2:1e308", "--tau", "0.1", "--dt", "0.05"]
    assert main(["simulate", "--out", str(tmp_path / "simulate"), *args]) == 0
    first = (tmp_path / "simulate" / "trajectory.csv").read_text().splitlines()[1]
    assert first.split(",") == ["0", "0", "0", "1e+308", "0", "0", "0"]
    assert main(["sweep", "--out", str(tmp_path / "sweep"), *args, "--mu-list", "1e-1,1e-2", "--k-max", "10"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["wavetank: sweep: error norms at mu=0.1 are not finite: the data or input overflow float64"]
    assert not any((tmp_path / "sweep").glob("*"))


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


def test_field_sums_up_to_the_float64_maximum_exit_0(tmp_path):
    # the surface field sums sqrt(2/pi) (1e308 + 1e308) < 1.8e308 at x = 0: finite on either summation route
    args = ["field", "--out", str(tmp_path), "--k-modes", "3", "--grid", "3,3", "--init", "mode:1:1e308+mode:2:1e308"]
    assert main(args) == 0
    for name in ("field_dirichlet.csv", "field_neumann.csv"):
        values = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 2]
        assert values.size == 9 and np.all(np.isfinite(values))


def test_output_error_exits_1_with_one_line(tmp_path, capsys):
    # summary.txt cannot replace a directory; the sweep.csv written before it is removed
    (tmp_path / "summary.txt").mkdir()
    args = ["sweep", "--out", str(tmp_path), "--mu-list", "1e-1,1e-2", "--k-modes", "4",
            "--tau", "0.1", "--dt", "0.05", "--k-max", "10", "--l-modes", "10"]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wavetank: sweep: ")
    assert [p.name for p in tmp_path.iterdir()] == ["summary.txt"]


def test_an_interrupted_command_leaves_no_partial_outputs(tmp_path, monkeypatch):
    # field writes field_dirichlet.csv, then is interrupted while it writes field_neumann.csv: the interrupt
    # propagates, and the CSV already written is removed, as after an error
    write, calls = cli.write_field_csv, []

    def interrupted_second_write(values, path, x, y):
        calls.append(path)
        if len(calls) == 2:
            raise KeyboardInterrupt
        write(values, path, x, y)

    monkeypatch.setattr(cli, "write_field_csv", interrupted_second_write)
    with pytest.raises(KeyboardInterrupt):
        main(["field", "--out", str(tmp_path), "--k-modes", "4", "--l-modes", "8", "--grid", "3,3"])
    assert [p.name for p in calls] == ["field_dirichlet.csv", "field_neumann.csv"]
    assert list(tmp_path.iterdir()) == []


def test_default_dt_reaches_horizon():
    for tau in ("0.1", "1", "7.3", "10", "20", "12345.678"):
        cfg = parse_config("simulate", overrides={"tau": tau})
        assert cli._n_steps(cfg) == 1000
        assert f"\ndt={cfg.dt:.17g}\n" in cfg.to_text()
    with pytest.raises(ConfigError, match=r"^the default dt = 1e-3\*tau underflows to 0 at tau=9.88131e-323; give dt$"):
        parse_config("verify", overrides={"tau": "1e-322"})


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


def test_field_ignores_l_modes(tmp_path):
    # the wave-maker profile has a fixed 512 lateral modes; l_modes only truncates the series oracle
    args = ["field", "--k-modes", "4", "--grid", "6,5"]
    outputs = []
    for extra in (["--l-modes", "1"], []):
        out = tmp_path / str(len(outputs))
        assert main([*args, *extra, "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in ("field_dirichlet.csv", "field_neumann.csv")})
    assert outputs[0] == outputs[1]


def test_field_grid_is_the_lattice(tmp_path, monkeypatch):
    # field's np.linspace grid is the lattice, where both series are folds and real FFTs; the general-point
    # factors are never built
    def general_points(*args):
        raise AssertionError("field summed off the lattice")

    monkeypatch.setattr(fields, "_phi", general_points)
    monkeypatch.setattr(fields, "_psi", general_points)
    for grid in ("2,2", "7,5", "50,50"):
        assert main(["field", "--out", str(tmp_path / grid), "--k-modes", "4", "--grid", grid]) == 0


def test_verify_quick_grid(tmp_path):
    rc = main(
        ["verify", "--out", str(tmp_path), "--k-max", "200", "--l-modes", "500",
         "--k-modes", "32", "--seed", "5"]
    )
    assert rc == 0
    text = (tmp_path / "audit.txt").read_text()
    assert "all proven bounds hold" in text
    assert "FAIL" not in text


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    # every config key is a flag, and help lists it
    text = capsys.readouterr().out
    for key, (_, metavar, _) in cli.CONFIG_KEYS.items():
        flag = f"--{key.replace('_', '-')}"
        assert f"{flag} {metavar}" in text
        assert cli._parse_argv(["verify", flag, "x"])[2][key] == "x"
    assert main(["verify", "-h", "--bogus"]) == 0
    assert capsys.readouterr().out == text


# every flag of the command line: help, the config file, and one per config key
_FLAG_NAMES = ["--help", "--config", *(f"--{key.replace('_', '-')}" for key in cli.CONFIG_KEYS)]


def _spellings(flag):
    """The flag and each shorter prefix of it that no other flag starts with."""
    return [flag[:n] for n in range(3, len(flag))
            if [f for f in _FLAG_NAMES if f.startswith(flag[:n])] == [flag]] + [flag]


def _grammar_line(data):
    """A drawn command line of flags in every spelling around one command, and the (key, value) pairs it sets."""
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(["config", *cli.CONFIG_KEYS]), st.text(max_size=8))))
    groups = []
    for key, value in pairs:
        spelled = data.draw(st.sampled_from(_spellings(f"--{key.replace('_', '-')}")))
        groups.append(data.draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]])))
    command = data.draw(st.sampled_from(cli.COMMANDS))
    groups.insert(data.draw(st.integers(0, len(groups))), [command])
    return groups, command, pairs


@settings(max_examples=300)
@given(data=st.data())
def test_flag_grammar_reads_every_spelling_and_rejects_each_misuse_in_one_line(data):
    groups, command, pairs = _grammar_line(data)
    expected = dict(pairs)  # a repeated key keeps its last value
    config = expected.pop("config", None)
    assert cli._parse_argv([arg for group in groups for arg in group]) == (command, config, expected)
    # each misuse, spliced in between two flags or at the end, is a usage error of one stderr line
    at = data.draw(st.integers(0, len(groups)))
    misuses = [
        groups[:at] + [["--bogus", "1"]] + groups[at:],
        groups + [[data.draw(st.sampled_from(_FLAG_NAMES[1:]))]],
        groups[:at] + [["--k-m", "3"]] + groups[at:],
        groups[:at] + [[data.draw(st.sampled_from(cli.COMMANDS))]] + groups[at:],
        [group for group in groups if group != [command]],
    ]
    for misuse in misuses:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([arg for group in misuse for arg in group]) == 1
        assert err.getvalue().startswith("wavetank: usage error: ") and err.getvalue().count("\n") == 1


def test_flags_stop_at_a_double_dash():
    assert cli._parse_argv(["--mu", "-1", "--", "verify"]) == ("verify", None, {"mu": "-1"})
    with pytest.raises(ConfigError, match="expected one command, got 'verify' and '--mu'"):
        cli._parse_argv(["--", "verify", "--mu", "1"])


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_commands_reuse_the_signal_that_parse_config_built(tmp_path, monkeypatch, command):
    built = []
    make = cli.make_signal
    monkeypatch.setattr(cli, "make_signal", lambda *args: built.append(args) or make(*args))
    args = [command, "--out", str(tmp_path), "--k-modes", "4", "--tau", "0.1", "--dt", "0.05", "--k-max", "10",
            "--l-modes", "10", "--mu-list", "1e-1,1e-2", "--signal", "pulse:0:0.05:2"]
    assert main(args) == 0
    assert built == [("pulse:0:0.05:2", 0.05, 2)]
    cfg = parse_config(command, overrides={"tau": "0.1", "dt": "0.05", "signal": "pulse:0:0.05:2"})
    assert cfg.signal_runs is cfg.signal_runs
    assert cfg.signal_runs == ((2.0, 1), (0.0, 1))


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
    assert capsys.readouterr().err == f"wavetank: config error: signal 'pulse:{window}:1': {window_text}\n"
    assert not any(tmp_path.iterdir())
    assert main([*args, "--signal", "pulse:0:1:0"]) == 0
