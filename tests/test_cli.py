"""End-to-end coverage for the catbell command line.

Each test drives cli.main with an in-memory stream.  Two subprocess tests at the
bottom run the real entry points: `python -m catbell` works from source (it
calls cli.entry, the console-script target), while the `catbell` console script
exists only after the package is installed, so its test is skipped without it.
"""

import io
import json
import math
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catbell import cli, experiment, protocols

RATES_KEYS = {
    "protocol", "alpha", "phi_rad", "sigma1_rad", "sigma2_rad",
    "loss_db_per_km", "distance_km_total", "alpha_prime_sq", "n_lost",
    "p_success", "p_max", "p_min", "visibility", "chsh_s",
    "r_success_per_s", "r_max_per_s", "r_min_per_s",
}

SWEEP_HEADER = "p_success,p_max,p_min,visibility,chsh_s,r_max_per_s,r_min_per_s"


def run_cli(argv):
    buf = io.StringIO()
    code = cli.main(argv, stream=buf)
    return code, buf.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_rates_table_four_fold_140km():
    code, out = run_cli([
        "rates", "--protocol", "usd4", "--distance-km-total", "140",
    ])
    assert code == 0
    assert "1.974" in out
    assert "0.28" in out
    assert "0.7515" in out


def test_rates_json_two_fold_defaults():
    code, out = run_cli(["rates", "--output", "json"])
    assert code == 0
    record = json.loads(out)
    assert set(record) == RATES_KEYS
    assert record["protocol"] == "usd2"
    assert abs(record["r_max_per_s"] - 5.3) / 5.3 < 0.02
    assert abs(record["r_min_per_s"] - 0.83) / 0.83 < 0.02
    assert abs(record["visibility"] - 0.73) < 0.005
    assert record["chsh_s"] > 2.0
    assert math.isclose(record["alpha_prime_sq"], 10.0, rel_tol=1e-6)
    assert math.isclose(record["n_lost"], 9990.0, rel_tol=1e-6)


def test_rates_zero_phase_note():
    code, out = run_cli(["rates", "--phi-rad", "0", "--output", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["p_success"] == 0 and record["r_max_per_s"] == 0
    assert "note" in record and "phi = 0" in record["note"]


def test_flag_beats_set_override():
    code, out = run_cli([
        "rates", "--set", "source.alpha=50", "--alpha", "100", "--output", "json",
    ])
    assert code == 0
    assert json.loads(out)["alpha"] == 100.0


def test_config_file(tmp_path):
    path = tmp_path / "link.ini"
    path.write_text(
        "[channel]\ndistance_km_total = 140\n\n[run]\nprotocol = usd4\noutput = json\n"
    )
    code, out = run_cli(["rates", "--config", str(path)])
    assert code == 0
    record = json.loads(out)
    assert record["protocol"] == "usd4"
    assert abs(record["r_max_per_s"] - 1.974) < 0.01


def test_config_errors(tmp_path, capsys):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[teleporter]\nrange = 9\n")
    code, _ = run_cli(["rates", "--config", str(bad_section)])
    assert code == 1
    assert "unknown config section [teleporter]" in capsys.readouterr().err

    bad_field = tmp_path / "b.ini"
    bad_field.write_text("[source]\nwavelength = 1550\n")
    code, _ = run_cli(["rates", "--config", str(bad_field)])
    assert code == 1
    assert "unknown config field source.wavelength" in capsys.readouterr().err

    code, _ = run_cli(["rates", "--set", "source.alpha=abc"])
    assert code == 1
    assert "expected a number" in capsys.readouterr().err

    code, _ = run_cli(["rates", "--config", str(tmp_path / "missing.ini")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err

    code, _ = run_cli(["rates", "--set", "alpha=3"])
    assert code == 1
    assert "SECTION.KEY=VALUE" in capsys.readouterr().err

    assert run_cli(["rates", "--frobnicate"])[0] == 1
    assert run_cli([])[0] == 1
    assert run_cli(["rates", "--alpha", "-5"])[0] == 1


# An infinite rate floor stays a valid, infeasible request (test_plan_infeasible).
NON_FINITE = [(f, text) for f in cli.FIELDS if f.kind is float
              for text in ("nan", "inf", "-inf") if not (f.inf_ok and text == "inf")]


@pytest.mark.parametrize("via", ["flag", "set", "ini"])
@pytest.mark.parametrize("field,text", NON_FINITE,
                         ids=[f"{f.name}-{text}" for f, text in NON_FINITE])
def test_non_finite_numbers_rejected(field, text, via, tmp_path, capsys):
    where = f"{field.section}.{field.key}"
    if via == "flag":
        argv = ["sweep", f"--{field.name.replace('_', '-')}={text}"]
    elif via == "set":
        argv = ["sweep", "--set", f"{where}={text}"]
    else:
        path = tmp_path / "bad.ini"
        path.write_text(f"[{field.section}]\n{field.key} = {text}\n")
        argv = ["sweep", "--config", str(path)]
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert f"error: {where}: expected a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["rates", "--alpha", "1e200"],
    # the branch pipeline behind oracle cannot form e^{2i phi} at phi = 1e308
    ["oracle", "--phi-rad", "1e308", "--alpha", "2", "--distance-km-total", "0"],
    ["montecarlo", "--coincidence-window-s", "1"],
])
def test_model_layer_errors_exit_1(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-phase warning of phi = 1e308
        assert run_cli(argv)[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_usd4_at_zero_km_serves():
    # No loss: the visibility is exactly 1 and the fringe minimum exactly 0.
    code, out = run_cli(["rates", "--protocol", "usd4", "--distance-km-total", "0",
                         "--output", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["p_min"] == 0.0 and record["r_min_per_s"] == 0.0
    assert record["visibility"] == 1 and record["p_max"] > 0.0
    code, out = run_cli(["sweep", "--protocol", "usd4", "--axis", "distance_km_total",
                         "--start", "0", "--stop", "10", "--steps", "3", "--output", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["p_min"] == "0" and rows[0]["visibility"] == "1"
    code, out = run_cli(["montecarlo", "--protocol", "usd4", "--distance-km-total", "0",
                         "--duration-s", "3", "--output", "json"])
    assert code == 0
    assert json.loads(out)["counts_max"] > 0


def test_rates_huge_phi_serves_with_warning():
    with pytest.warns(UserWarning, match="small-phase") as record:
        code, out = run_cli(["rates", "--phi-rad", "1e308", "--output", "json"])
    assert code == 0
    assert record[0].filename == cli.__file__
    report = json.loads(out)
    assert 0.0 <= report["p_min"] <= report["p_max"] <= 1.0


def test_rates_underflowing_envelope_is_zero():
    # u = (|a'| sin phi)^2 ~ 8e114: e^{-8u} underflows to 0 and u^4 would overflow.
    code, out = run_cli(["rates", "--alpha", "1e60", "--distance-km-total", "0",
                         "--protocol", "usd4", "--output", "json"])
    assert code == 0
    record = json.loads(out)
    for key in ("p_success", "p_max", "p_min", "visibility", "chsh_s",
                "r_success_per_s", "r_max_per_s", "r_min_per_s"):
        assert record[key] == 0.0


@pytest.mark.parametrize("argv", [
    ["rates", "--alpha", "1e200"],
    ["plan", "--alpha", "1e200"],
    ["montecarlo", "--alpha", "1e200", "--duration-s", "2"],
    ["sweep", "--axis", "alpha", "--start", "1", "--stop", "2e154", "--steps", "3"],
])
def test_alpha_with_infinite_square_names_alpha(argv, capsys):
    assert run_cli(argv) == (1, "")
    err = capsys.readouterr().err
    prefix = "error: sweep value 2e+154: " if argv[0] == "sweep" else "error: source: "
    assert err.startswith(prefix + "alpha must have a finite square")


def test_rates_sweep_montecarlo_build_no_branch_state(monkeypatch):
    def refuse(*args):
        raise AssertionError("the serving path built a branch state")

    monkeypatch.setattr(protocols, "build_analysis_state", refuse)
    assert run_cli(["rates", "--protocol", "usd4", "--output", "json"])[0] == 0
    for axis in cli.SWEEP_AXES:
        assert run_cli(["sweep", "--protocol", "usd4", "--axis", axis, "--start", "0.001",
                        "--stop", "0.5", "--steps", "3", "--output", "csv"])[0] == 0
    assert run_cli(["montecarlo", "--duration-s", "2", "--output", "json"])[0] == 0


def test_oracle_evaluates_pipeline_and_fock(monkeypatch):
    from catbell import fock

    calls = []
    for module, name in ((cli, "pipeline_prob"), (fock, "oracle_protocol_prob")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert run_cli(["oracle", "--alpha", "2", "--distance-km-total", "0"])[0] == 0
    assert sorted(calls) == ["oracle_protocol_prob"] * 6 + ["pipeline_prob"] * 6


def test_negative_seed_names_field(capsys):
    assert run_cli(["montecarlo", "--seed", "-1"])[0] == 1
    assert "run.seed: must be >= 0, got -1" in capsys.readouterr().err


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "1e-320", "1e308", "usd4", "json", "csv", "", "x"]),
)
_FUZZ_FIELDS = [f for f in cli.FIELDS
                if f.section != "sweep" and f.name not in ("duration_s", "seed")]


# Session lengths that draw at most 20 blocks, or are refused before any is drawn.
_DURATIONS = st.one_of(
    st.floats(0.0, 20.0).map(repr),
    st.floats(max_value=0.0, exclude_max=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf"]),
    st.floats(min_value=experiment.MAX_MC_BLOCKS, exclude_min=True).map(repr),
)


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(["rates", "plan", "oracle", "sweep", "montecarlo"]))
    argv = [command]
    for field in draw(st.lists(st.sampled_from(_FUZZ_FIELDS), max_size=4)):
        argv.append(f"--{field.name.replace('_', '-')}={draw(_NUMBERS)}")
    if command == "sweep":
        argv += [f"--axis={draw(st.sampled_from(cli.SWEEP_AXES + ('x',)))}",
                 f"--start={draw(_NUMBERS)}", f"--stop={draw(_NUMBERS)}",
                 f"--steps={draw(st.integers(-1, 5) | st.just(cli.MAX_SWEEP_STEPS + 1))}"]
    if command == "montecarlo":
        argv.append(f"--duration-s={draw(_DURATIONS)}")
    return argv


@settings(max_examples=60, deadline=None)
@given(_fuzz_argv())
def test_cli_fuzz_exit_codes(argv):
    # Any exception escaping main fails the test; the exit code must be documented.
    assert run_cli(argv)[0] in (0, 1, 2)


def test_sweep_fringe_shape():
    code, out = run_cli([
        "sweep", "--axis", "delta_sigma_rad", "--start", "0",
        "--stop", str(math.pi), "--steps", "9", "--output", "csv",
    ])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta_sigma_rad"] + SWEEP_HEADER.split(",")
    assert len(rows) == 9
    vis = float(rows[0]["visibility"])
    top = float(rows[-1]["p_success"])
    for row in rows:
        sigma = float(row["delta_sigma_rad"])
        expected = top * (1.0 - vis * math.cos(sigma)) / (1.0 + vis)
        assert math.isclose(float(row["p_success"]), expected, rel_tol=1e-9, abs_tol=1e-24)


def test_sweep_distance_visibility():
    code, out = run_cli([
        "sweep", "--axis", "distance_km_total", "--start", "100",
        "--stop", "400", "--steps", "4", "--output", "csv",
    ])
    assert code == 0
    _, rows = parse_csv(out)
    vis = [float(r["visibility"]) for r in rows]
    assert vis == sorted(vis, reverse=True)
    assert abs(vis[-1] - 0.7310411110998499) < 1e-9


def test_sweep_single_step():
    code, out = run_cli([
        "sweep", "--axis", "phi_rad", "--start", "0.0028", "--stop", "0.01",
        "--steps", "1", "--output", "csv",
    ])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["phi_rad"]) == 0.0028


def test_sweep_usage_errors(capsys):
    assert run_cli(["sweep", "--start", "0", "--stop", "1", "--steps", "3"])[0] == 1
    assert "exactly one sweep axis" in capsys.readouterr().err
    code, _ = run_cli([
        "sweep", "--set", "sweep.variable=phi_rad,alpha",
        "--start", "0", "--stop", "1", "--steps", "3",
    ])
    assert code == 1
    assert run_cli(["sweep", "--axis", "phi_rad", "--start", "0",
                    "--stop", "1", "--steps", "0"])[0] == 1
    assert run_cli(["sweep", "--axis", "alpha", "--start", "0",
                    "--stop", "2", "--steps", "3"])[0] == 1
    assert "alpha" in capsys.readouterr().err


def test_sweep_deterministic_and_reparse_stable():
    argv = ["sweep", "--axis", "delta_sigma_rad", "--start", "0",
            "--stop", "3.1", "--steps", "7", "--output", "csv"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second and first[0] == 0
    _, rows = parse_csv(first[1])
    for row in rows:
        for cell in row.values():
            assert f"{float(cell):.12g}" == cell


def test_oracle_agreement_pass():
    code, out = run_cli([
        "oracle", "--alpha", "2", "--distance-km-total", "0", "--output", "csv",
    ])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["protocol", "delta_sigma_rad", "p_pipeline", "p_oracle",
                      "abs_error", "ok"]
    assert len(rows) == 6
    assert all(row["ok"] == "true" for row in rows)
    assert {row["protocol"] for row in rows} == {"usd2", "usd4"}


def test_oracle_disagreement_exit(capsys):
    code, out = run_cli([
        "oracle", "--alpha", "2", "--phi-rad", "0.2", "--distance-km-total", "0",
        "--tolerance", "1e-20", "--output", "csv",
    ])
    assert code == 2
    assert "oracle disagreement" in capsys.readouterr().err
    _, rows = parse_csv(out)
    assert len(rows) == 6
    flags = {row["ok"] for row in rows}
    assert flags == {"true", "false"}


def test_oracle_budget_refusal(capsys):
    code, out = run_cli(["oracle", "--alpha", "50", "--distance-km-total", "0"])
    assert code == 2
    assert out == ""
    assert "recommended max" in capsys.readouterr().err


def test_plan_rate_limited():
    code, out = run_cli(["plan", "--rate-floor", "5.3", "--output", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["feasible"] is True
    assert record["limited_by"] == "rate"
    assert abs(record["max_range_km_total"] - 400.06) < 0.2
    assert record["chsh_margin"] > 0.0
    assert record["visibility_at_range"] > 1.0 / math.sqrt(2.0)
    assert math.isclose(record["chsh_s_at_range"],
                        2.0 * math.sqrt(2.0) * record["visibility_at_range"],
                        rel_tol=1e-9)


def test_plan_visibility_limited():
    code, out = run_cli(["plan", "--phi-rad", "0.004", "--rate-floor", "1",
                         "--output", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["limited_by"] == "visibility"
    assert abs(record["max_range_km_total"] - 45.125) < 0.2


def test_plan_infeasible(capsys):
    code, out = run_cli([
        "plan", "--set", "run.rate_floor_counts_per_s=inf", "--output", "json",
    ])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
    record = json.loads(out)
    assert record["feasible"] is False
    assert record["max_range_km_total"] is None
    assert record["rate_floor_counts_per_s"] == "inf"
    assert record["limited_by"] == "rate"


def test_plan_prints_a_feasible_range():
    # Rounded to nearest, this range would print as 177.103095147, 0.3e-9 km
    # past the edge; rounded down it stays on the feasible side.
    flags = {"alpha": 100.05638621284827, "phi_rad": 0.003013477718584912,
             "rate_floor": 1.0388191381224372}
    code, out = run_cli(["plan", *(f"--{k.replace('_', '-')}={v!r}" for k, v in flags.items()),
                         "--output", "json"])
    assert code == 0
    distance = json.loads(out)["max_range_km_total"]
    assert distance == 177.103095146
    channel = experiment.ChannelParams.from_total(0.15, distance)
    alpha_prime, n_lost = experiment.attenuate(flags["alpha"], channel)
    rate = 1e9 * protocols.success_prob("usd2", alpha_prime, n_lost, flags["phi_rad"], math.pi)
    assert rate >= flags["rate_floor"]
    assert protocols.visibility(n_lost, flags["phi_rad"], exact=True) > 1.0 / math.sqrt(2.0)


def test_plan_lossless_reaches_search_cap():
    code, out = run_cli(["plan", "--loss-db-per-km", "0", "--output", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["max_range_km_total"] == 50000.0
    assert record["limited_by"] == "rate"


def test_plan_infeasible_by_visibility():
    # The rate peaks at 4.2e6 counts/s near 2607 km, where the visibility is 0.
    code, out = run_cli(["plan", "--alpha", "1e100", "--rate-floor", "1", "--output", "json"])
    assert code == 2
    record = json.loads(out)
    assert record["feasible"] is False
    assert record["limited_by"] == "visibility"


def test_plan_visibility_edge_costs_a_handful_of_evaluations(monkeypatch):
    # Left of the rate peak the visibility edge is closed-form, not bisected.
    calls = []

    def counted(*args):
        calls.append(args)
        return protocols.success_prob(*args)

    monkeypatch.setattr(experiment, "success_prob", counted)
    code, _ = run_cli(["plan", "--alpha", "1e100"])
    assert code == 2
    assert 1 <= len(calls) <= 5


def test_sweep_steps_cap_refuses_before_any_row(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(cli, "protocol_report", refuse)
    code, out = run_cli(["sweep", "--axis", "alpha", "--start", "1", "--stop", "2",
                         f"--steps={cli.MAX_SWEEP_STEPS + 1}"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: sweep.steps: must be <= 1000000, got 1000001\n"


@pytest.mark.parametrize("axis", ["delta_sigma_rad", "phi_rad"])
@pytest.mark.parametrize("start, stop", [("-1e308", "1e308"), ("0", "1e308")])
def test_sweep_overflow_names_fields(axis, start, stop, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-phase warning of the rows before the overflow
        code, out = run_cli(["sweep", "--axis", axis, f"--start={start}", f"--stop={stop}",
                             "--steps=3"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: sweep.start/sweep.stop: ") and "overflows" in err


def test_montecarlo_reference_run():
    code, out = run_cli(["montecarlo", "--output", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["counts_max"] == 53120 and record["counts_min"] == 8182
    assert record["s_above_2_at_3sigma"] is True
    assert math.isclose(record["s_estimate"],
                        2.0 * math.sqrt(2.0) * record["estimated_visibility"],
                        rel_tol=1e-9)
    assert record["accidental_rate_per_s"] < 1e-12


def test_montecarlo_deterministic():
    argv = ["montecarlo", "--duration-s", "200", "--output", "json"]
    assert run_cli(argv) == run_cli(argv)


def test_montecarlo_bins_out(tmp_path):
    bins = tmp_path / "bins.csv"
    code, out = run_cli([
        "montecarlo", "--duration-s", "5", "--output", "json",
        "--bins-out", str(bins),
    ])
    assert code == 0
    record = json.loads(out)
    lines = bins.read_text().strip().splitlines()
    assert lines[0] == "block_index,t_start_s,counts_max,counts_min"
    assert len(lines) == 6
    cells = [line.split(",") for line in lines[1:]]
    assert [int(c[0]) for c in cells] == [0, 1, 2, 3, 4]
    assert sum(int(c[2]) for c in cells) == record["counts_max"]
    assert sum(int(c[3]) for c in cells) == record["counts_min"]


def test_montecarlo_bins_out_draws_each_block_once(tmp_path, monkeypatch):
    drawn = []
    draw = experiment._block_counts
    monkeypatch.setattr(experiment, "_block_counts",
                        lambda rng, key, *rest: drawn.append(key.tolist()) or draw(rng, key, *rest))
    code, _ = run_cli(["montecarlo", "--duration-s", "5.5", "--output", "json",
                       "--bins-out", str(tmp_path / "bins.csv")])
    assert code == 0
    # Six draws in block order, each on its own (seed 12345, block index) key.
    assert drawn == [np.random.SeedSequence(entropy=(12345, index)).generate_state(2, np.uint64)
                     .tolist() for index in range(6)]


def test_montecarlo_bins_out_unwritable(tmp_path, monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(experiment, "_block_counts", lambda *args: drawn.append(args))
    target = tmp_path / "missing" / "bins.csv"
    code, out = run_cli(["montecarlo", "--duration-s", "3", "--bins-out", str(target)])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --bins-out {str(target)!r}")
    assert "Traceback" not in err
    assert drawn == []
    assert not target.parent.exists()


def test_montecarlo_session_cap_names_field(tmp_path, capsys):
    target = tmp_path / "bins.csv"
    code, out = run_cli(["montecarlo", "--duration-s", "1000000.5", "--bins-out", str(target)])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: run.duration_s: must be <= 1000000, got 1000000.5")
    assert not target.exists()


def test_montecarlo_refused_session_leaves_no_file(tmp_path, capsys):
    target = tmp_path / "bins.csv"
    code, out = run_cli(["montecarlo", "--coincidence-window-s", "1",
                         "--bins-out", str(target)])
    assert code == 1 and out == ""
    assert "coincidence window" in capsys.readouterr().err
    assert not target.exists()


def test_montecarlo_zero_duration(capsys):
    code, out = run_cli(["montecarlo", "--duration-s", "0", "--output", "json"])
    assert code == 0
    assert "no counts" in capsys.readouterr().err
    record = json.loads(out)
    assert record["counts_max"] == 0
    assert record["estimated_visibility"] is None
    assert record["s_estimate"] is None
    assert record["s_above_2_at_3sigma"] is False


def test_montecarlo_window_too_wide(capsys):
    code, _ = run_cli(["montecarlo", "--coincidence-window-s", "2e-9"])
    assert code == 1
    assert "coincidence window" in capsys.readouterr().err


def test_module_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "catbell", "rates", "--output", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["r_max_per_s"] - 5.3) / 5.3 < 0.02


def test_cli_import_loads_no_scipy():
    # Only the oracle needs SciPy; every other command must start without it.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, catbell.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracle_loads_no_scipy():
    # The oracle exponentiates with numpy alone; SciPy is a test-only dependency.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, catbell.fock as fock; from catbell import cli; cfg = cli.load_config(None, []); "
         "print(fock.oracle_protocol_prob(cfg.params(), cfg.channel(), 'usd2')); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    p_oracle, scipy_modules = proc.stdout.splitlines()
    assert float(p_oracle) > 0.0
    assert scipy_modules == "[]"


def test_main_repeated_in_one_process_matches_fresh_runs(tmp_path, capsys):
    # main builds its parser once per process; no call may leave state for the next.
    bins = tmp_path / "bins.csv"
    calls = [
        ["rates", "--output", "json"],
        ["montecarlo", "--duration-s", "30", "--seed", "7", "--bins-out", str(bins)],
        ["sweep", "--set", "sweep.variable=alpha", "--set", "sweep.start=50",
         "--set", "sweep.stop=150", "--steps", "4", "--output", "csv"],
        ["rates", "--no-such-flag"],
        ["plan", "--set", "run.protocol=usd4", "--rate-floor", "0.5", "--output", "json"],
        ["oracle", "--alpha", "2", "--distance-km-total", "0", "--output", "csv"],
        ["rates", "--set", "source.alpha=50", "--protocol", "usd4"],
    ]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "catbell", *argv],
                              capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr,
                      bins.read_text() if "--bins-out" in argv else None))
    for _ in range(2):
        for argv, want in zip(calls, fresh):
            code = cli.main(argv)
            out, err = capsys.readouterr()
            got_bins = bins.read_text() if "--bins-out" in argv else None
            assert (code, out, err, got_bins) == want, argv


@pytest.mark.skipif(
    shutil.which("catbell") is None,
    reason="no `catbell` console script on PATH; install the package with `pip install -e .`",
)
def test_console_script_subprocess():
    exe = shutil.which("catbell")
    proc = subprocess.run(
        [exe, "plan", "--rate-floor", "5.3", "--output", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["max_range_km_total"] - 400.06) < 0.2
