"""Config handling, rate fitting, experiment drivers, and the CLI."""

import json
import math

import numpy as np
import pytest

from womplab import acceptance, discretization
from womplab.cli import main
from womplab.experiments import (DEFAULTS, VALID, ConfigError, _sweep_cell,
                                 default_config, dump_config, fit_rate,
                                 parse_config,
                                 rate_sweep_compute, run_check_disc,
                                 run_find_points, run_fooling, run_rate_sweep,
                                 run_recover, schedule_m, target_exponent,
                                 zero_data_recovery)
from womplab.discretization import PointSet, draw_points
from womplab.trig import TrigSystem


# ------------------------------------------------------------------ config

def test_default_config_is_deep_copied():
    a = default_config()
    a["common"]["seed"] = 99
    assert default_config()["common"]["seed"] == 0


def test_parse_config_overrides_from_ini(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[common]\nseed = 5\n[recover]\nv = 3\ncertify = no\n")
    cfg = parse_config(str(path))
    assert cfg["common"]["seed"] == 5
    assert cfg["recover"]["v"] == 3
    assert cfg["recover"]["certify"] is False
    assert cfg["recover"]["p"] == 2.0  # untouched default


def test_parse_config_rejects_unknown_names(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad_section))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[recover]\nvv = 1\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad_key))
    bad_value = tmp_path / "c.ini"
    bad_value.write_text("[recover]\nv = three\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad_value))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.ini"))


def test_cli_overrides_beat_file_values(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[common]\nseed = 5\n")
    cfg = parse_config(str(path), {"seed": 11, "out": None})
    assert cfg["common"]["seed"] == 11
    assert cfg["common"]["out"] == "womplab-out"


def test_dump_config_roundtrips(tmp_path):
    cfg = default_config()
    cfg["common"]["seed"] = 42
    path = tmp_path / "dumped.ini"
    path.write_text(dump_config(cfg))
    back = parse_config(str(path))
    assert back["common"]["seed"] == 42
    assert back["rate-sweep"]["a"] == cfg["rate-sweep"]["a"]


# ------------------------------------------------------------ rate fitting

def test_target_exponent_frozen_values():
    assert target_exponent(2.0, 1.0, 2.0, 1) == pytest.approx(-2.5)
    assert target_exponent(4.0, 1.0, 2.0, 1) == pytest.approx(-2.25)
    assert target_exponent(2.0, 1.0, 1.0, 1) == pytest.approx(-1.5)
    assert target_exponent(2.0, 2.0, 1.0, 2) == pytest.approx(-0.5)


def test_schedule_m_frozen_values():
    assert schedule_m(1, 30.0) == 7
    assert schedule_m(2, 30.0) == 222
    assert schedule_m(8, 30.0) == 14184 or schedule_m(8, 30.0) == 14183


def test_fit_rate_recovers_exact_power_law():
    v = [1, 2, 3, 4, 6]
    medians = [float(x) ** -2 for x in v]
    fit = fit_rate(v, medians, p=2.0, target=-2.0, n_seeds=1)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.target_exponent == -2.0


def test_fit_rate_refuses_few_points():
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [1.0, 0.5, 0.3], p=2.0, target=-1.0, n_seeds=1)
    with pytest.raises(ValueError):
        # zero medians are dropped before the count check
        fit_rate([1, 2, 3, 4], [1.0, 0.5, 0.0, 0.0], p=2.0, target=-1.0,
                 n_seeds=1)


# ----------------------------------------------------------------- drivers

def _cfg(tmp_path, **sections):
    cfg = default_config()
    cfg["common"]["out"] = str(tmp_path / "out")
    for section, values in sections.items():
        cfg[section].update(values)
    return cfg


def test_run_find_points_writes_trail_and_points(tmp_path):
    cfg = _cfg(tmp_path, **{"find-points": {"degree": 2, "u": 2, "m0": 8,
                                            "m_cap": 2048}})
    found, reports = run_find_points(cfg)
    assert found is not None
    assert reports[-1].holds
    trail = (tmp_path / "out" / "find_points_trail.csv").read_text()
    assert trail.startswith("# config:")
    assert len(trail.strip().splitlines()) == 2 + len(reports)
    assert (tmp_path / "out" / "points.txt").exists()


def test_run_find_points_smallest_box_distribution(tmp_path):
    # one-sparse supports see only unimodular columns, whose discrete mean
    # square is identically one, so the doubling search must certify at the
    # very first attempt for every seed (and a fortiori by the m = 64 cap)
    ms = []
    for seed in range(10):
        cfg = _cfg(tmp_path / str(seed),
                   **{"find-points": {"degree": 1, "u": 1, "m0": 2,
                                      "m_cap": 64}})
        cfg["common"]["seed"] = seed
        found, reports = run_find_points(cfg)
        assert found is not None and found.m <= 64
        ms.append(found.m)
    assert ms == [2] * 10


def test_run_find_points_grid_fallback(tmp_path):
    cfg = _cfg(tmp_path, **{"find-points": {"degree": 3, "u": 3, "grid": True}})
    found, reports = run_find_points(cfg)
    assert found is not None and found.m == 7
    assert len(reports) == 1 and reports[0].holds


def test_run_find_points_validates_u(tmp_path):
    cfg = _cfg(tmp_path, **{"find-points": {"degree": 1, "u": 9}})
    with pytest.raises(ConfigError):
        run_find_points(cfg)


def test_run_check_disc_grid_mode(tmp_path):
    cfg = _cfg(tmp_path, **{"check-disc": {"degree": 3, "u": 2, "grid": True}})
    rep = run_check_disc(cfg)
    assert rep.holds
    assert rep.c_low == pytest.approx(1.0, abs=1e-10)
    assert (tmp_path / "out" / "discretization.csv").exists()


def test_run_recover_sparse_target_is_exact(tmp_path):
    cfg = _cfg(tmp_path, recover={"target": "sparse", "sparsity": 2, "v": 2,
                                  "m": 120, "degree": 4})
    rep = run_recover(cfg)
    assert rep.exact_recovery
    assert (tmp_path / "out" / "recovery.csv").exists()
    assert (tmp_path / "out" / "womp_trace.csv").exists()


def test_run_recover_class_target(tmp_path):
    cfg = _cfg(tmp_path, recover={"target": "saturated-spread", "v": 2,
                                  "m": 150, "degree": 15, "J": 3})
    rep = run_recover(cfg)
    assert rep.error_lp_mu > 0
    assert rep.v == 2


def test_run_recover_trace_starts_with_the_config_echo(tmp_path):
    run_recover(_cfg(tmp_path))
    out = tmp_path / "out"
    trace = (out / "womp_trace.csv").read_text().splitlines()
    assert trace[0].startswith("# config: ")
    assert trace[0] == (out / "recovery.csv").read_text().splitlines()[0]
    assert trace[1] == "step,chosen_index,chosen_ip,max_ip,residual_norm"


def test_cli_recover_from_one_sample_is_not_exact(tmp_path, capsys):
    # one sample lets any column fit it, so sigma_discrete is at rounding
    # level; the error is not, and sigma_ref says so
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[recover]\nm = 1\n")
    assert main(["recover", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "exact recovery" not in out
    assert "sigma_ref=" in out and "ratio=" in out
    rep = run_recover(_cfg(tmp_path, recover={"m": 1}))
    assert rep.sigma_discrete <= 1e-12 * rep.trace.residual_norms[0]
    assert rep.ratio_discrete is None and not rep.exact_recovery
    assert rep.error_lp_mu > 1


def test_run_recover_rejects_small_box_for_class_target(tmp_path):
    cfg = _cfg(tmp_path, recover={"target": "single-spike", "degree": 4,
                                  "J": 3})
    with pytest.raises(ConfigError):
        run_recover(cfg)


def test_rate_sweep_compute_deterministic_and_negative_slope():
    sec = default_config()["rate-sweep"]
    sec.update({"v_list": "1,2,3,4", "seeds": 2, "a": 8.0})
    cells, fits, dropped = rate_sweep_compute(sec, base_seed=0)
    assert dropped == []
    assert len(cells) == 8
    assert fits[2.0].slope < -1.0
    cells2, fits2, _ = rate_sweep_compute(sec, base_seed=0)
    assert [c["errors"] for c in cells2] == [c["errors"] for c in cells]
    sec["schedule"] = "nope"
    with pytest.raises(ConfigError):
        rate_sweep_compute(sec, base_seed=0)


def test_rate_sweep_single_spike_collapses_to_exact_recovery():
    # a single-spike target is one-sparse, so every cell recovers it
    # exactly and the coefficient drop tolerance zeroes the difference;
    # zero medians carry no decay information, so the fit must refuse
    # rather than report a slope fitted to nothing
    sec = default_config()["rate-sweep"]
    sec.update({"profile": "single-spike", "v_list": "1,2,3,4", "seeds": 2,
                "p_list": "2"})
    for v in (1, 2, 3, 4):
        cell = _sweep_cell((sec, 0, v, 0))
        assert cell["errors"][2.0] == 0.0
    with pytest.raises(ValueError, match="usable"):
        rate_sweep_compute(sec, base_seed=0)


def test_rate_sweep_threads_match_serial():
    sec = default_config()["rate-sweep"]
    sec.update({"v_list": "1,2,3,4", "seeds": 2, "a": 8.0})
    _, serial, _ = rate_sweep_compute(sec, base_seed=3, threads=1)
    _, threaded, _ = rate_sweep_compute(sec, base_seed=3, threads=4)
    assert serial[2.0].medians == threaded[2.0].medians


def test_run_rate_sweep_writes_tables(tmp_path):
    cfg = _cfg(tmp_path, **{"rate-sweep": {"v_list": "1,2,3,4", "seeds": 2,
                                           "a": 8.0}})
    cells, fits = run_rate_sweep(cfg)
    out = tmp_path / "out"
    assert (out / "rate_cells.csv").exists()
    assert (out / "rate_medians_p2.dat").exists()
    assert (out / "rate_medians_p4.dat").exists()
    summary = json.loads((out / "rate_fit.json").read_text())
    assert summary["p=2"]["slope"] == pytest.approx(fits[2.0].slope)
    lines = (out / "rate_cells.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + len(cells) * 2  # echo + header + one row per p


def test_run_rate_sweep_writes_certificate_columns(tmp_path, capsys):
    # with certify = true each cell's certificate fills cert_holds, c_low
    # and c_high; v = 3 and 4 exceed the subset cap, so theirs stay empty
    # and the CLI prints why, once per v
    sweep = {"v_list": "1,2,3,4", "seeds": 1, "a": 8.0, "certify": True}
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[rate-sweep]\n" + "".join(f"{k} = {v}\n"
                                                  for k, v in sweep.items()))
    assert main(["rate-sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "cli")]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")]
    cfg = _cfg(tmp_path, **{"rate-sweep": sweep})
    cells, _ = run_rate_sweep(cfg)
    assert warnings == [f"warning: v={c['v']}: {c['report'].cert_warning}"
                        for c in cells if c["v"] in (3, 4)]
    assert all("supports exceed the subset cap" in w for w in warnings)
    # [rate-sweep] has no randomized certificate, so no advice points there
    assert not any("randomized" in w for w in warnings)
    lines = (tmp_path / "out" / "rate_cells.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = iter(dict(zip(header, line.split(","))) for line in lines[2:])
    certified = 0
    for c in cells:
        cert = c["report"].certificate
        certified += cert is not None
        for p in (2.0, 4.0):
            row = next(rows)
            assert row["p"] == f"{p:g}"
            assert row["error_Lp_mu"] == f"{c['errors'][p]:.12g}"
            assert row["cert_holds"] == ("" if cert is None else str(cert.holds))
            assert row["c_low"] == ("" if cert is None else f"{cert.c_low:.12g}")
            assert row["c_high"] == ("" if cert is None else f"{cert.c_high:.12g}")
    assert certified == 2


def test_run_fooling_quarter_rule(tmp_path):
    cfg = _cfg(tmp_path, fooling={"box_list": "4,8", "seeds": 2})
    records = run_fooling(cfg)
    assert len(records) == 4
    assert all(r.instance.vanishing_defect <= 1e-9 for r in records)
    assert all(r.recovery_fooled for r in records)
    assert (tmp_path / "out" / "fooling.csv").exists()
    assert (tmp_path / "out" / "fooling_box4.txt").exists()


def test_run_fooling_explicit_budgets_must_align(tmp_path):
    cfg = _cfg(tmp_path, fooling={"box_list": "4,8", "m_rule": "explicit",
                                  "m_list": "2"})
    with pytest.raises(ConfigError):
        run_fooling(cfg)


def test_zero_data_recovery_map():
    system = TrigSystem(1, (3,))
    empty = zero_data_recovery(system, PointSet(1, np.zeros((0, 1))))
    assert empty(np.zeros(0)).coeffs == {}
    pts = draw_points(10, 1, seed=0)
    rec = zero_data_recovery(system, pts)
    assert rec(np.zeros(10, dtype=complex)).coeffs == {}


# --------------------------------------------------------------------- cli

def test_cli_check_disc_exit_codes(tmp_path, capsys):
    code = main(["check-disc", "--out", str(tmp_path / "o1"), "--seed", "3"])
    assert code == 0
    assert "holds=True" in capsys.readouterr().out


def test_cli_config_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[recover]\nwat = 1\n")
    code = main(["recover", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_truncated_points_file_is_exit_2(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("dim 1 3\n0.1\n0.2\n")
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[check-disc]\npoints_file = {points}\n")
    code = main(["check-disc", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{points}:4: file ends after 2 of 3 points" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["2", "4"])
def test_cli_randomized_check_disc_without_trials_is_exit_2(tmp_path, capsys, p):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[check-disc]\nmethod = randomized\ntrials = 0\np = {p}\n")
    code = main(["check-disc", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: [check-disc] trials" in err and "got 0" in err
    assert not (tmp_path / "o" / "discretization.csv").exists()


@pytest.mark.parametrize("args, ini, key", [
    (["--seed", "-1"], "", "[common] seed"),
    ([], "[fooling]\nseeds = 0\n", "[fooling] seeds"),
    ([], "[recover]\nd = 0\n", "[recover] d"),
    ([], "[recover]\nm = 0\n", "[recover] m"),
    ([], "[check-disc]\nm = 0\n", "[check-disc] m"),
    ([], "[recover]\nv = 0\n", "[recover] v"),
    ([], "[find-points]\nm0 = 0\n", "[find-points] m0"),
    ([], "[check-disc]\ntrials = 0\n", "[check-disc] trials"),
    ([], "[find-points]\nu = 0\n", "[find-points] u"),
])
def test_cli_out_of_range_config_value_is_exit_2(tmp_path, capsys, args, ini, key):
    # each once surfaced a raw numpy or Python message, or one that named
    # no key
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(ini)
    code = main(["recover", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")] + args)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: expected >= ")
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, ini, message", [
    ("find-points", "[find-points]\nu = 10\n",
     "[find-points] u: 10 exceeds the system size 9"),
    ("recover", "[recover]\nv = 5\n", "[recover] v: u = ceil((1 + c_emp) v) = "
     "15 exceeds the dictionary size N = 9"),
    ("fooling", "[fooling]\nbox_list = 4\nm_rule = explicit\nm_list = 5\n",
     "[fooling] m_list: m = 5 exceeds theta/2 = 4.5 on box 4"),
    ("recover", "[recover]\npoints_file = {points}\n",
     "[recover] points_file: {points} holds no points"),
    ("recover", "[recover]\np = 1\n",
     "[recover] p: recovery guarantees need p >= 2, got 1"),
    ("recover", "[recover]\nt = 2\n", "[recover] t: expected 0 < t <= 1, got 2"),
    ("recover", "[recover]\nselection = foo\n", "[recover] selection: expected "
     "one of argmax, adversarial-weak, got 'foo'"),
    ("check-disc", "[check-disc]\nu = 10\n",
     "[check-disc] u: expected 1 to N = 9, got 10"),
    ("check-disc", "[check-disc]\nmode = x\n", "[check-disc] mode: expected one "
     "of two-sided, one-sided-lower, got 'x'"),
    ("check-disc", "[check-disc]\np = 4\n", "[check-disc] p: p = 4 checks are "
     "randomized searches only; use [check-disc] method = randomized"),
    ("recover", "[recover]\npoints_file = {plane}\n", "[recover] points_file: "
     "{plane} holds points of dimension 2, the system has d = 1"),
    ("check-disc", "[check-disc]\npoints_file = {plane}\n", "[check-disc] "
     "points_file: {plane} holds points of dimension 2, the system has d = 1"),
])
def test_cli_value_refused_by_a_library_check_names_its_key(
        tmp_path, capsys, command, ini, message):
    # each once exited 2 with a message that named no key; the empty
    # points file also printed numpy RuntimeWarnings first
    files = {"points": tmp_path / "points.txt", "plane": tmp_path / "plane.txt"}
    files["points"].write_text("dim 1 0\n")
    files["plane"].write_text("dim 2 1\n0.5 1.5\n")
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(ini.format(**files))
    code = main([command, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {message.format(**files)}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, ini", [
    ("find-points", "degree = -1"), ("find-points", "m_cap = 0"),
    ("find-points", "mode = x"), ("check-disc", "degree = -1"),
    ("check-disc", "p = 0.5"), ("check-disc", "method = x"),
    ("check-disc", "p = inf\nmethod = randomized"),
    ("recover", "degree = -1"), ("recover", "c_emp = -1"),
    ("recover", "c_emp = -0.5"), ("recover", "target = foo"),
    ("recover", "r = 0"), ("recover", "beta = 3"), ("recover", "J = -2"),
    ("recover", "density = 0"), ("rate-sweep", "r = 0"),
    ("rate-sweep", "beta = 3"), ("rate-sweep", "profile = x"),
    ("rate-sweep", "density = 0"), ("rate-sweep", "p_list = 1"),
    ("rate-sweep", "v_list = 0"), ("rate-sweep", "a = 0"),
    ("rate-sweep", "t = 2"),
    ("rate-sweep", "c_emp = -1"), ("rate-sweep", "J = -2"),
    ("fooling", "box_list = 0"), ("fooling", "m_rule = x"),
    ("fooling", "m_list = -1"), ("fooling", "p = 0.5"), ("fooling", "q = 0.5"),
    ("check-disc", "grid = true\nd = 3\ndegree = 100"),
    ("find-points", "grid = true\nd = 3\ndegree = 100"),
])
def test_cli_value_outside_its_range_names_its_key(tmp_path, capsys, section,
                                                   ini):
    # each once printed a library message, a message that named no
    # section, an empty trail or no refusal at all
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[{section}]\n{ini}\n")
    command = "recover" if section == "common" else section
    code = main([command, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    key = ini.split(" = ")[0]
    assert capsys.readouterr().err.startswith(
        f"config error: [{section}] {key}: ")
    assert not (tmp_path / "o").exists()


def test_every_config_key_has_a_valid_rule():
    # booleans take any parsed value; out and points_file are paths, and
    # sparsity's range 0 to N depends on d and degree, so run_recover
    # checks it
    free = ("out", "points_file", "sparsity")
    unruled = [f"[{section}] {key}" for section, values in DEFAULTS.items()
               for key, val in values.items()
               if not isinstance(val, bool) and key not in free
               and key not in VALID and (section, key) not in VALID]
    assert unruled == []


def test_rate_sweep_compute_checks_its_section():
    # library callers pass sections that never went through parse_config
    sec = default_config()["rate-sweep"]
    sec["c_emp"] = -1.0
    with pytest.raises(ConfigError, match=r"^\[rate-sweep\] c_emp: "):
        rate_sweep_compute(sec, base_seed=0)


def test_removed_options_are_refused(tmp_path, capsys):
    # the thread pool option, the log^3 schedule and the two fooling
    # switches are gone: a config that still sets one must not run as if
    # it did not
    for section, ini in [("common", "threads = 1"),
                         ("rate-sweep", "schedule = log3"),
                         ("fooling", "run_recovery = false"),
                         ("fooling", "dump_instances = false")]:
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(f"[{section}]\n{ini}\n")
        command = "rate-sweep" if section == "common" else section
        assert main([command, "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 2
        key = ini.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"config error: unknown key {key!r} in section [{section}]\n")
        assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit) as exc:
        main(["rate-sweep", "--threads", "1", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    sec = {**default_config()["rate-sweep"], "schedule": "log3"}
    with pytest.raises(ConfigError, match=r"^unknown key 'schedule' in "
                                          r"section \[rate-sweep\]$"):
        rate_sweep_compute(sec, base_seed=0)


@pytest.mark.parametrize("ini, message", [
    ("a = 0.001", "[rate-sweep] a: a = 0.001 gives fewer samples than greedy "
     "steps at v = 1, 2, 3, 4, 6, 8, leaving 0 v; the fit needs 4"),
    ("v_list = 1,2", "[rate-sweep] v_list: expected at least 4 entries, none "
     "repeated, got '1,2'"),
    ("v_list = 2,2,2,2", "[rate-sweep] v_list: expected at least 4 entries, "
     "none repeated, got '2,2,2,2'"),
])
def test_cli_rate_sweep_refuses_a_section_the_fit_cannot_use(tmp_path, capsys,
                                                              ini, message):
    # these used to reach fit_rate, which named no key, or (for 2,2,2,2)
    # to fit a slope over the single v = 2
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[rate-sweep]\n{ini}\n")
    code = main(["rate-sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ini, message", [
    # c_emp = 20 drops v = 1 (7 samples, 20 steps) and stops at v = 2
    ("c_emp = 20", "[rate-sweep] c_emp: at v = 2, u = ceil((1 + c_emp) v) = 42 "
     "exceeds the dictionary size N = 15"),
    ("v_list = 1,2,3,400", "[rate-sweep] v_list: v = 400 takes m = 23959955 "
     "samples of N = 4095 columns, 98,116,015,725 entries; the scope ends at "
     "24,012,000"),
    ("p_list = 2,2", "[rate-sweep] p_list: expected no repeated entry, got '2,2'"),
])
def test_cli_rate_sweep_refuses_a_cell_before_it_runs(tmp_path, capsys, ini,
                                                      message):
    # c_emp = 20 exited with recover's keyless message, v = 400 with a raw
    # 1.43 TiB allocation error, and p_list = 2,2 wrote every cell twice
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[rate-sweep]\n{ini}\nseeds = 1\n")
    code = main(["rate-sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_rate_sweep_drops_v_below_their_step_count():
    # at a = 0.3 the budgets of v = 1 and 2 (1 and 3 samples) fall below
    # their 2 and 4 greedy steps; four v remain, so the sweep runs
    sec = {**default_config()["rate-sweep"], "a": 0.3, "seeds": 1}
    cells, fits, dropped = rate_sweep_compute(sec, base_seed=0)
    assert dropped == [1, 2]
    assert [c["v"] for c in cells] == [3, 4, 6, 8]
    assert fits[2.0].v_values == (3, 4, 6, 8)


def test_cli_only_check_disc_advises_a_randomized_method(tmp_path, capsys,
                                                         monkeypatch):
    # C(9, 2) = 36 supports at the defaults; only [check-disc] has a key
    # that selects a randomized check
    monkeypatch.setattr(discretization, "DEFAULT_SUBSET_CAP", 3)
    code = main(["check-disc", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: [check-disc] u: C(9,2) = 36 supports exceed the subset "
        "cap 3; use [check-disc] method = randomized\n")
    assert not (tmp_path / "o").exists()
    assert main(["find-points", "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == (
        "config error: [find-points] u: C(9,2) = 36 supports exceed the subset "
        "cap 3\n")
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("sparsity", [-1, 10])
def test_cli_sparse_target_outside_the_dictionary_is_exit_2(tmp_path, capsys,
                                                            sparsity):
    # N = 9 at the default degree 4; rng.choice used to raise numpy's
    # "Cannot take a larger sample than population"
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[recover]\ntarget = sparse\nsparsity = {sparsity}\n")
    code = main(["recover", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: [recover] sparsity: expected 0 to N = 9, got {sparsity}\n")
    assert not (tmp_path / "o").exists()


def test_cli_dump_config_prints_merged_view(tmp_path, capsys):
    code = main(["rate-sweep", "--seed", "9", "--dump-config"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[rate-sweep]" in out and "seed = 9" in out


def test_cli_dump_config_prints_exactly_these_keys(capsys):
    assert main(["verify", "--dump-config"]) == 0
    keys, section = set(), None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("["):
            section = line
        elif line:
            keys.add(f"{section} {line.split(' = ')[0]}")
    expected = {
        "common": "seed out",
        "find-points": "d degree u m0 m_cap mode grid",
        "check-disc": "d degree u p mode method trials m points_file grid",
        "recover": "d degree v p t c_emp m target sparsity r beta J density "
                   "selection certify points_file",
        "rate-sweep": "d r beta profile density p_list v_list seeds a t c_emp "
                      "certify J",
        "fooling": "d box_list m_rule m_list seeds p q",
    }
    assert keys == {f"[{sec}] {key}" for sec, names in expected.items()
                    for key in names.split()}


def test_cli_verify_list(capsys):
    code = main(["verify", "--list"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fejer-identities" in out and out.strip().splitlines()[-1].startswith("9")


def test_cli_verify_single_criterion(tmp_path, capsys):
    code = main(["verify", "--criteria", "1", "--out", str(tmp_path / "v")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[1] fejer-identities: PASS" in out
    payload = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["criteria"][0]["number"] == 1


def test_cli_verify_unknown_criterion_is_usage_error(tmp_path, capsys):
    code = main(["verify", "--criteria", "99", "--out", str(tmp_path / "v")])
    assert code == 2


def test_cli_verify_corrupted_threshold_fails(tmp_path, capsys, monkeypatch):
    # forcing an absurd bound must flip the gate to a named failure
    monkeypatch.setattr(acceptance, "LEBESGUE_RATIO", 0.01)
    code = main(["verify", "--criteria", "4", "--out", str(tmp_path / "v")])
    assert code == 1
    out = capsys.readouterr().out
    assert "[4] discrete-lebesgue-ratio: FAIL" in out
    payload = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert payload["passed"] is False


def test_cli_fooling_runs(tmp_path, capsys):
    cfgfile = tmp_path / "f.ini"
    cfgfile.write_text("[fooling]\nbox_list = 4\nseeds = 1\n")
    code = main(["fooling", "--config", str(cfgfile),
                 "--out", str(tmp_path / "fo")])
    assert code == 0
    assert "worst vanishing defect" in capsys.readouterr().out
