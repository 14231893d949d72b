"""Config handling, rate fitting, experiment drivers, and the CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import womplab
from womplab import acceptance, discretization, experiments
from womplab.cli import main
from womplab.experiments import (DEFAULTS, VALID, ConfigError, _cell_shape,
                                 _make_target, _sweep_cell,
                                 default_config, dump_config, fit_rate,
                                 parse_config,
                                 rate_sweep_compute, run_check_disc,
                                 run_find_points, run_fooling, run_rate_sweep,
                                 run_recover, schedule_m, target_exponent,
                                 zero_data_recovery)
from womplab.discretization import (PointSet, build_sampled, draw_points,
                                    write_pointset)
from womplab.greedy import womp
from womplab.recovery import write_fooling
from womplab.trig import TrigSystem, reconstruct


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


def test_cli_recover_says_why_it_has_no_sigma_references(tmp_path, capsys):
    # box 1000 holds N = 2001 columns, and C(2001, 2) = 2,001,000 exceeds
    # the subset cap: the references are skipped, and the run says so
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[recover]\ndegree = 1000\nv = 2\n")
    assert main(["recover", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out.splitlines()
    reason = "C(2001,2) = 2001000 supports exceed cap 2000000"
    assert out[:2] == [
        "warning: certificate skipped: C(2001,6) = 88489444277633400 supports "
        "exceed the subset cap 2000000",
        f"warning: sigma references skipped: {reason}"]
    assert out[2].startswith("m=64 v=2 u=6 p=2: error=") and len(out) == 3
    rep = run_recover(_cfg(tmp_path, recover={"degree": 1000, "v": 2}))
    assert rep.sigma_discrete is None and rep.sigma_ref is None
    assert rep.sigma_warning == f"sigma references skipped: {reason}"
    row = (tmp_path / "o" / "recovery.csv").read_text().splitlines()[-1]
    assert row.split(",")[13:15] == ["", ""]  # sigma_ref and ratio stay empty


def test_run_recover_rejects_small_box_for_class_target(tmp_path):
    cfg = _cfg(tmp_path, recover={"target": "single-spike", "degree": 4,
                                  "J": 3})
    with pytest.raises(ConfigError):
        run_recover(cfg)


def test_cli_recover_class_target_needs_box_degree_2_to_the_J_minus_1(
        tmp_path, capsys):
    # at v = 1 the default level is J = 2, whose class functions have
    # frequencies -3..3; degree 3 once was refused with ">= 7"
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[recover]\ntarget = saturated-spread\ndegree = 3\n")
    assert main(["recover", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    cfgfile.write_text("[recover]\ntarget = saturated-spread\ndegree = 2\n")
    assert main(["recover", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o2")]) == 2
    assert capsys.readouterr().err == ("config error: [recover] J: truncation "
                                       "level J=2 needs box degree >= 3\n")
    assert not (tmp_path / "o2").exists()


def test_every_default_rate_sweep_cell_passes_the_recover_level_check():
    sec = DEFAULTS["rate-sweep"]
    for v in map(int, sec["v_list"].split(",")):
        J, system, _ = _cell_shape(sec, v)
        target = {**DEFAULTS["recover"], "target": sec["profile"], "v": v, "J": J}
        f0 = _make_target(target, system, seed=0)
        assert f0.degree == max(system.box) == 2 ** J - 1


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
    # exactly: the difference is at rounding level, and _sweep_cell's
    # exactness threshold, relative to the target's sample norm, reports it
    # as 0; zero medians carry no decay information, so the fit must refuse
    # rather than report a slope fitted to nothing
    sec = default_config()["rate-sweep"]
    sec.update({"profile": "single-spike", "v_list": "1,2,3,4", "seeds": 2,
                "p_list": "2"})
    for v in (1, 2, 3, 4):
        cell = _sweep_cell((sec, 0, v, 0))
        assert cell["errors"][2.0] == 0.0
    with pytest.raises(ValueError, match="usable"):
        rate_sweep_compute(sec, base_seed=0)


def test_rate_sweep_compute_leaves_numpy_ma_unloaded():
    # np.median imported numpy.ma, about 2 MB resident, for one median per v
    code = ("import sys; from womplab.experiments import default_config, "
            "rate_sweep_compute; sec = default_config()['rate-sweep']; "
            "sec.update({'v_list': '1,2,3,4', 'seeds': 2, 'a': 8.0}); "
            "rate_sweep_compute(sec); print('numpy.ma' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(Path(womplab.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"



def test_import_leaves_concurrent_futures_unloaded():
    # the sweep's thread pool is the only user, and importing it costs
    # about 8 ms in every process
    code = "import sys, womplab; print('concurrent.futures' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(Path(womplab.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

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


def test_run_fooling_uses_a_given_m_list(tmp_path):
    # a given m_list once ran theta/4 = 4 points on box 8 and echoed
    # m_list=2 beside m_rule=quarter
    cfg = _cfg(tmp_path, fooling={"box_list": "8", "m_list": "2", "seeds": 1})
    records = run_fooling(cfg)
    assert [r.instance.pointset.m for r in records] == [2]
    lines = (tmp_path / "out" / "fooling.csv").read_text().splitlines()
    assert lines[2].split(",")[:3] == ["8", "17", "2"]


def test_run_fooling_explicit_budgets_must_align(tmp_path):
    cfg = _cfg(tmp_path, fooling={"box_list": "4,8", "m_list": "2"})
    with pytest.raises(ConfigError):
        run_fooling(cfg)


@pytest.mark.parametrize("section, values, run, tables", [
    ("find-points", {"degree": 2, "m_cap": 2048}, run_find_points,
     ["find_points_trail.csv"]),
    ("check-disc", {"degree": 3, "grid": True}, run_check_disc,
     ["discretization.csv"]),
    ("recover", {}, run_recover, ["recovery.csv", "womp_trace.csv"]),
    ("rate-sweep", {"v_list": "1,2,3,4", "seeds": 2, "a": 8.0},
     run_rate_sweep, ["rate_cells.csv"]),
    ("fooling", {"box_list": "4,6", "seeds": 2}, run_fooling, ["fooling.csv"]),
])
def test_every_driver_table_starts_with_its_section_and_seed(
        tmp_path, section, values, run, tables):
    # the echo is what reruns a row from the file alone: every key of the
    # section, sorted, plus the common seed
    cfg = _cfg(tmp_path, **{section: values})
    cfg["common"]["seed"] = 3
    run(cfg)
    echo = "# config: " + " ".join(
        f"{k}={v}" for k, v in sorted({**cfg[section], "seed": 3}.items()))
    for name in tables:
        first = (tmp_path / "out" / name).read_text().splitlines()[0]
        assert first == echo, name


def test_each_fooling_box_file_is_its_seed_0_instance(tmp_path):
    cfg = _cfg(tmp_path, fooling={"box_list": "4,6", "seeds": 2})
    records = run_fooling(cfg)
    for box, record in (("4", records[0]), ("6", records[2])):
        assert record.instance.box == (int(box),)
        write_fooling(record.instance, tmp_path / "expected.txt")
        assert ((tmp_path / "out" / f"fooling_box{box}.txt").read_bytes()
                == (tmp_path / "expected.txt").read_bytes())


def test_zero_data_recovery_map():
    system = TrigSystem(1, (3,))
    empty = zero_data_recovery(system, PointSet(1, np.zeros((0, 1))))
    assert empty(np.zeros(0)).coeffs == {}
    pts = draw_points(10, 1, seed=0)
    rec = zero_data_recovery(system, pts)
    assert rec(np.zeros(10, dtype=complex)).coeffs == {}


@pytest.fixture
def build_spy(monkeypatch):
    """Counts the sampled matrices zero_data_recovery builds and the
    evaluation matrices made while it runs."""
    calls = {"build_sampled": 0, "evaluate_at": 0}
    build, evaluate = experiments.build_sampled, TrigSystem.evaluate_at

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(experiments, "build_sampled", counted("build_sampled", build))
    monkeypatch.setattr(TrigSystem, "evaluate_at", counted("evaluate_at", evaluate))
    return calls


@pytest.mark.parametrize("d, box, m", [(1, (3,), 0), (1, (8,), 4), (2, (2, 3), 0), (2, (2, 3), 8)])
def test_zero_data_recovery_builds_nothing_for_zero_samples(build_spy, d, box, m):
    pts = draw_points(m, d, seed=1) if m else PointSet(d, np.zeros((0, d)))
    rec = zero_data_recovery(TrigSystem(d, box), pts)
    for samples in (np.zeros(m, dtype=complex), np.zeros(m), [-0.0] * m):
        zero = rec(samples)
        assert zero.dim == d and zero.coeffs == {} and zero._box.size == 0
    assert build_spy == {"build_sampled": 0, "evaluate_at": 0}


@pytest.mark.parametrize("d, box, m", [(1, (8,), 9), (2, (2, 3), 12)])
def test_zero_data_recovery_runs_womp_on_nonzero_samples(build_spy, d, box, m):
    # bit for bit the greedy on a sampled matrix built up front; the map
    # builds its own once, on the first nonzero samples
    system, pts = TrigSystem(d, box), draw_points(m, d, seed=2)
    rng = np.random.default_rng(2)
    rec = zero_data_recovery(system, pts)
    rec(np.zeros(m))
    sampled = build_sampled(system, pts)
    build_spy["build_sampled"] = 0
    for _ in range(2):
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        got = rec(y)
        trace = womp(sampled, y, steps=min(m, system.size))
        expect = reconstruct(system, trace.selected, trace.coefficients)
        assert got.coeffs and np.array_equal(got._lo, expect._lo)
        assert got._box.tobytes() == expect._box.tobytes()
    assert build_spy["build_sampled"] == 1


@pytest.mark.parametrize("m, samples", [(10, np.zeros(9)), (10, np.ones(11)),
                                        (10, np.zeros((10, 1))), (0, np.zeros(1))])
def test_zero_data_recovery_refuses_samples_of_another_shape(build_spy, m, samples):
    pts = draw_points(m, 1, seed=3) if m else PointSet(1, np.zeros((0, 1)))
    rec = zero_data_recovery(TrigSystem(1, (3,)), pts)
    with pytest.raises(ValueError, match=rf"expected \({m},\) samples"):
        rec(samples)
    assert build_spy["build_sampled"] == 0


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
    ("fooling", "[fooling]\nbox_list = 4\nm_list = 5\n",
     "[fooling] m_list: m = 5 exceeds theta/2 = 4.5 on box 4"),
    ("recover", "[recover]\npoints_file = {points}\n",
     "[recover] points_file: {points} holds no points"),
    # check-disc once reported holds=False c_low=0 on the empty file and
    # exited 1; at p = 4 it also warned "Mean of empty slice", c_low=nan
    ("check-disc", "[check-disc]\npoints_file = {points}\n",
     "[check-disc] points_file: {points} holds no points"),
    ("check-disc", "[check-disc]\npoints_file = {points}\nmethod = randomized\n",
     "[check-disc] points_file: {points} holds no points"),
    ("check-disc", "[check-disc]\npoints_file = {points}\np = 4\nmethod = randomized\n",
     "[check-disc] points_file: {points} holds no points"),
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
    ("check-disc", "[check-disc]\npoints_file = {three}\ngrid = true\n",
     "[check-disc] grid: expected false when points_file is set, got true"),
    # a missing file or a directory once exited 1 with a raw traceback
    ("check-disc", "[check-disc]\npoints_file = {missing}\n", "[check-disc] "
     "points_file: cannot read {missing}: No such file or directory"),
    ("recover", "[recover]\npoints_file = {missing}\n", "[recover] "
     "points_file: cannot read {missing}: No such file or directory"),
    ("check-disc", "[check-disc]\npoints_file = {folder}\n", "[check-disc] "
     "points_file: cannot read {folder}: Is a directory"),
    ("recover", "[recover]\npoints_file = {folder}\n", "[recover] "
     "points_file: cannot read {folder}: Is a directory"),
    # m0 above m_cap once made no attempt and exited 1 with an empty trail
    ("find-points", "[find-points]\nm0 = 5000\n",
     "[find-points] m0: expected <= m_cap = 4096, got 5000"),
])
def test_cli_value_refused_by_a_library_check_names_its_key(
        tmp_path, capsys, command, ini, message):
    # each once exited 2 with a message that named no key; the empty
    # points file also printed numpy RuntimeWarnings first
    files = {name: tmp_path / f"{name}.txt" for name in ("points", "plane", "three")}
    files["points"].write_text("dim 1 0\n")
    files["plane"].write_text("dim 2 1\n0.5 1.5\n")
    # grid = true with this file once ran on its 3 points and echoed grid=True
    files["three"].write_text("dim 1 3\n0.1\n0.5\n1.0\n")
    files["missing"] = tmp_path / "missing.txt"
    files["folder"] = tmp_path
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(ini.format(**files))
    code = main([command, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {message.format(**files)}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ini, out", [("", "--out"),
                                      ("[common]\nout = {taken}\n", None)])
def test_cli_output_path_naming_a_file_exits_2(tmp_path, capsys, ini, out):
    # os.makedirs on an existing file once exited 1 with a raw
    # FileExistsError traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(ini.format(taken=taken))
    args = [out, str(taken)] if out else []
    code = main(["check-disc", "--config", str(cfgfile), *args])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{taken}'\n"


@pytest.mark.parametrize("command", ["verify", "find-points", "check-disc",
                                     "recover", "rate-sweep", "fooling"])
@pytest.mark.parametrize("path, reason", [
    ("taken", "[Errno 17] File exists"),
    ("taken/sub", "[Errno 20] Not a directory"),
    ("", "[Errno 2] No such file or directory")])
def test_cli_unusable_output_path_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, command, path, reason):
    # verify once ran all nine criteria (about 5 s), and each driver its
    # whole run, before os.makedirs refused the path
    def reached(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(
        (num, name, reached) for num, name, _ in acceptance.CRITERIA))
    monkeypatch.setattr(TrigSystem, "evaluate_at", reached)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = str(tmp_path / path) if path else ""
    assert main([command, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {reason}: '{out}'\n"
    assert sorted(tmp_path.iterdir()) == [taken] and taken.read_text() == ""


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
    ("fooling", "box_list = 0"),
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


@pytest.mark.parametrize("section, ini", [
    ("check-disc", "d = 2\ndegree = 100\ngrid = true\nmethod = randomized"),
    ("find-points", "d = 2\ndegree = 100\ngrid = true"),
])
def test_cli_grid_past_the_scope_is_refused_before_sampling(
        tmp_path, capsys, monkeypatch, section, ini):
    # 201^2 = 40,401 grid points under the 2,000,000-point cap once
    # reached evaluate_at for a 40,401 x 40,401 complex matrix (26 GB)
    def refuse(self, points):
        raise AssertionError("evaluate_at reached")
    monkeypatch.setattr(TrigSystem, "evaluate_at", refuse)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[{section}]\n{ini}\n")
    assert main([section, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: [{section}] grid: 40401 grid points of N = 40401 "
        f"columns are 1,632,240,801 entries; the scope ends at 24,012,000\n")
    assert not (tmp_path / "o").exists()


def _refuse_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampling reached")
    monkeypatch.setattr(experiments, "draw_points", refuse)
    monkeypatch.setattr(TrigSystem, "evaluate_at", refuse)


@pytest.mark.parametrize("section", ["check-disc", "recover"])
def test_cli_m_past_the_scope_is_refused_before_sampling(
        tmp_path, capsys, monkeypatch, section):
    # m = 100,000,000,000 once ended in numpy's raw _ArrayMemoryError
    # (745 GiB) from draw_points; 2,668,001 points of the default N = 9
    # are the first count past the scope
    _refuse_sampling(monkeypatch)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[{section}]\nm = 2668001\n")
    assert main([section, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: [{section}] m: 2668001 points of N = 9 columns are "
        f"24,012,009 entries; the scope ends at 24,012,000\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section", ["check-disc", "recover"])
def test_cli_points_file_past_the_scope_is_refused_before_sampling(
        tmp_path, capsys, monkeypatch, section):
    # a file of 12,001 points against N = 2,001 columns once went on to
    # evaluate its 24,014,001-entry sampled matrix
    pts = tmp_path / "pts.txt"
    write_pointset(draw_points(12_001, 1, 0), pts)
    _refuse_sampling(monkeypatch)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[{section}]\ndegree = 1000\npoints_file = {pts}\n")
    assert main([section, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: [{section}] points_file: 12001 points of N = 2001 "
        f"columns are 24,014,001 entries; the scope ends at 24,012,000\n")
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
        "fooling": "d box_list m_list seeds p q",
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
