"""Command-line surface: every subcommand runs and output is deterministic."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from smoothlab import (
    ExperimentConfig,
    export_results,
    export_unsmoothing,
    run_coset,
    run_unsmoothing,
    unsmoothing_slopes,
)
from smoothlab.cli import main
from smoothlab.inequalities import SUITES


def _readme_cli() -> tuple[list[list[str]], str]:
    """The argument lists of the smoothlab lines in README's CLI block, and
    README's example config."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    config = text.split("```json\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("smoothlab ")]
    return [shlex.split(line)[1:] for line in lines], config


README_EXAMPLES, README_CONFIG = _readme_cli()


def _run_argv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_example_runs(tmp_path, monkeypatch, capsys, argv):
    # the config example is saved as cfg.json, the name the experiment line reads
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(README_CONFIG, encoding="utf-8")
    code, out = _run_argv(capsys, argv)
    assert code == 0 and out


def test_count_plain_and_json(capsys):
    code, out = _run_argv(capsys, ["count", "100", "5", "--q", "3", "--a", "1"])
    assert code == 0 and "= 8" in out
    code, out = _run_argv(capsys, ["count", "100", "5", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["value"] == 34 and payload["exact"] is True


def test_count_weighted(capsys):
    from smoothlab import SmoothingKernel

    code, out = _run_argv(capsys, ["count", "4", "2", "--weighted", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["exact"] is False  # a float sum, not an integer count
    assert payload["value"] == pytest.approx(2.0 + SmoothingKernel().phi(1.0))


def test_saddle(capsys):
    code, out = _run_argv(capsys, ["saddle", "1000000", "100", "--json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["alpha"] == pytest.approx(0.6038567, abs=1e-5)
    assert payload["v"] is None  # no modulus given
    code, out = _run_argv(capsys, ["saddle", "1000000", "100", "--coprime-q", "7"])
    assert code == 0 and "alpha=" in out


def test_lfun_table_and_value(capsys):
    code, out = _run_argv(capsys, ["chars", "5"])
    assert code == 0
    assert "modulus 5: 4 characters" in out
    assert len(out.strip().splitlines()) == 6
    code, out = _run_argv(capsys, ["lfun", "2", "0", "2", "0", "3", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["value_re"] == pytest.approx(1.125)
    # the plain line prints the same three complex numbers
    code, out = _run_argv(capsys, ["lfun", "2", "0", "2", "0", "3"])
    value, log, deriv = (
        complex(payload[f"{key}_re"], payload[f"{key}_im"]) for key in ("value", "log", "logderiv")
    )
    assert code == 0
    assert out == f"L(2+0i, chi_0 mod 2; y=3) = {value!r}  log={log!r}  L'/L={deriv!r}\n"


# The exact chars text at moduli covering both power-of-two branches
# (the lone generator 3 mod 4, the pair -1, 5 mod 8), an odd prime power and
# a product of the three kinds.
LIST_CHARS_GOLDEN = {
    4: (
        "modulus 4: 2 characters\n"
        "index order conductor principal values_on_generators\n"
        "0 1 1 1 chi(3)=e(2pi*0)\n"
        "1 2 4 0 chi(3)=e(2pi*1/2)\n"
    ),
    8: (
        "modulus 8: 4 characters\n"
        "index order conductor principal values_on_generators\n"
        "0 1 1 1 chi(7)=e(2pi*0) chi(5)=e(2pi*0)\n"
        "1 2 8 0 chi(7)=e(2pi*0) chi(5)=e(2pi*1/2)\n"
        "2 2 4 0 chi(7)=e(2pi*1/2) chi(5)=e(2pi*0)\n"
        "3 2 8 0 chi(7)=e(2pi*1/2) chi(5)=e(2pi*1/2)\n"
    ),
    9: (
        "modulus 9: 6 characters\n"
        "index order conductor principal values_on_generators\n"
        "0 1 1 1 chi(2)=e(2pi*0)\n"
        "1 6 9 0 chi(2)=e(2pi*1/6)\n"
        "2 3 9 0 chi(2)=e(2pi*1/3)\n"
        "3 2 3 0 chi(2)=e(2pi*1/2)\n"
        "4 3 9 0 chi(2)=e(2pi*2/3)\n"
        "5 6 9 0 chi(2)=e(2pi*5/6)\n"
    ),
    24: (
        "modulus 24: 8 characters\n"
        "index order conductor principal values_on_generators\n"
        "0 1 1 1 chi(7)=e(2pi*0) chi(13)=e(2pi*0) chi(17)=e(2pi*0)\n"
        "1 2 3 0 chi(7)=e(2pi*0) chi(13)=e(2pi*0) chi(17)=e(2pi*1/2)\n"
        "2 2 8 0 chi(7)=e(2pi*0) chi(13)=e(2pi*1/2) chi(17)=e(2pi*0)\n"
        "3 2 24 0 chi(7)=e(2pi*0) chi(13)=e(2pi*1/2) chi(17)=e(2pi*1/2)\n"
        "4 2 4 0 chi(7)=e(2pi*1/2) chi(13)=e(2pi*0) chi(17)=e(2pi*0)\n"
        "5 2 12 0 chi(7)=e(2pi*1/2) chi(13)=e(2pi*0) chi(17)=e(2pi*1/2)\n"
        "6 2 8 0 chi(7)=e(2pi*1/2) chi(13)=e(2pi*1/2) chi(17)=e(2pi*0)\n"
        "7 2 24 0 chi(7)=e(2pi*1/2) chi(13)=e(2pi*1/2) chi(17)=e(2pi*1/2)\n"
    ),
}


def test_list_chars_golden(capsys):
    for q, want in LIST_CHARS_GOLDEN.items():
        code, out = _run_argv(capsys, ["chars", str(q)])
        assert code == 0
        assert out == want


def test_lfun_argument_errors(capsys):
    # a missing positional is argparse's refusal, as in count and saddle
    with pytest.raises(SystemExit) as exc:
        main(["lfun", "2", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: smoothlab lfun")
    assert "the following arguments are required: q, chi_index, y" in err
    assert main(["lfun", "2", "0", "5", "9", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "100", "1"], "smoothness bound y must be finite and >= 2"),
        (["count", "100", "5", "--q", "6", "--a", "2"], "gcd(2, 6) > 1"),
        (["count", "1e9", "10"], "exceeds the enumeration ceiling"),
        (
            ["count", "100", "5", "--q", str(10**20), "--a", "1"],
            f"modulus q={10**20} exceeds the int64 bound 2^63 - 1",
        ),
        (
            ["count", "100", "5", "--q", str(10**20), "--a", "1", "--weighted"],
            f"modulus q={10**20} exceeds the int64 bound 2^63 - 1",
        ),
        (["saddle", "10", "10", "--coprime-q", "-3"], "modulus q must be >= 1"),
        (["saddle", "10", "10", "--coprime-q", "0"], "modulus q must be >= 1"),
        (["experiment", "--config", "/nonexistent.json"], "cannot read config /nonexistent.json"),
        (
            ["experiment", "--config", {"xs": [100.0], "ys": [5.0], "qs": [1000000007]}],
            "modulus 1000000007 exceeds the table bound 1000000",
        ),
        (
            ["lfun", "2", "0"],
            "usage: smoothlab lfun [-h] [--json] s_re s_im q chi_index y\n"
            "smoothlab lfun: error: the following arguments are required: q, chi_index, y",
        ),
        (["lfun", "2", "0", "5", "9", "3"], "character index 9 out of range [0, 4)"),
        (
            ["contour", "--x", "1000", "--y", "10", "--q", "5", "--chi", "9", "--T", "80"],
            "character index 9 out of range [0, 4)",
        ),
        (["lfun", "1.2", "0.5", "5", "1", "inf"], "prime bound must be finite, got inf"),
        (["lfun", "1.2", "0.5", "5", "1", "nan"], "prime bound must be finite, got nan"),
        *(
            (
                ["contour", "--x", x, "--y", "10", "--q", "5", "--chi", "1"]
                + ["--T", "80", "--c", "0.5"],
                "threshold x must be finite and >= 1",
            )
            for x in ("inf", "nan", "0", "-5")
        ),
        (
            ["contour", "--x", "1e5", "--y", "10", "--q", "5", "--chi", "1", "--T", "10"]
            + ["--c", "70"],
            "abscissa c=70 too large for x=100000: x^c overflows a float",
        ),
        (
            ["contour", "--x", "1e5", "--y", "10", "--q", "5", "--chi", "1", "--T", "10"]
            + ["--c", "61"],
            "abscissa c=61 too large for x=100000 and hi=2: x^c hi^c overflows a float",
        ),
        (
            ["contour", "--x", "1e5", "--y", "10", "--q", "5", "--chi", "1", "--T", "1e12"],
            "panel count 1832338997199 outside [1, 65536]",
        ),
        (["saddle", "1e13", "1e13"], "prime bound 1e+13 exceeds the sieve bound 1e+08"),
        (
            ["lfun", "1.2", "0.5", "5", "1", "1e13"],
            "prime bound 1e+13 exceeds the sieve bound 1e+08",
        ),
        (
            ["contour", "--x", "1.5", "--y", "2", "--q", "1", "--chi", "0", "--T", "10"]
            + ["--c", "1200"],
            "abscissa c=1200 too large for the kernel (lo=0.5, hi=2): c log hi exceeds 675.8",
        ),
        (["verify", "--suite", "majorant", "--seeds", "-3"], "seed count must be >= 0, got -3"),
        (
            ["contour", "--x", "1000", "--y", "10", "--q", "5", "--chi", "1", "--T", "80"]
            + ["--kernel-hi", "inf"],
            "need 0 < lo < hi < inf, got lo=0.5, hi=inf",
        ),
        (
            ["contour", "--x", "1000", "--y", "10", "--q", "5", "--chi", "1", "--T", "80"]
            + ["--kernel-lo", "1", "--kernel-hi", "1.000000000000001"],
            "kernel transition too narrow for float arithmetic (lo=1.0, hi=1.000000000000001)",
        ),
        (
            ["count", "100", "5", "--kernel-lo", "0.3", "--kernel-hi", "0.1"],
            "count: --kernel-lo and --kernel-hi need --weighted",
        ),
        (
            ["experiment", "--config", {"xs": [100.0], "ys": [5.0], "qs": [3]}]
            + ["--mode", "unsmoothing", "--emit-plot-data", "plot.csv"],
            "experiment: --mode unsmoothing writes CSV only and no plot data",
        ),
        (
            ["experiment", "--mode", "unsmoothing", "--config"]
            + [{"xs": [100.0], "ys": [5.0], "qs": [3], "output_format": "json"}],
            "experiment: --mode unsmoothing writes CSV only and no plot data",
        ),
        (["verify", "--suite", "calculus", "--seed-base", "-5"], "seed base must be >= 0, got -5"),
    ],
    ids=[
        "y_below_2", "residue_not_coprime", "above_ceiling",
        "count_q_above_int64", "count_weighted_q_above_int64",
        "saddle_negative_coprime_q", "saddle_zero_coprime_q", "missing_config",
        "experiment_q_above_table_bound",
        "lfun_missing_positionals", "lfun_chi_out_of_range", "contour_chi_out_of_range",
        "lfun_infinite_y", "lfun_nan_y",
        "contour_infinite_x", "contour_nan_x", "contour_zero_x", "contour_negative_x",
        "contour_abscissa_overflows", "contour_abscissa_overflows_hi",
        "contour_panels_above_cap_by_height",
        "saddle_y_above_sieve_bound", "lfun_y_above_sieve_bound",
        "contour_abscissa_past_kernel_range", "verify_negative_seeds", "contour_kernel_hi_inf",
        "contour_kernel_too_narrow", "count_kernel_flags_without_weighted", "unsmoothing_plot_data", "unsmoothing_json",
        "verify_negative_seed_base",
    ],
)
def test_errors_are_one_line_with_status_2(capsys, tmp_path, argv, message):
    config = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, dict):  # a dict stands for a config file holding it
            config.write_text(json.dumps(arg))
    argv = [str(config) if isinstance(arg, dict) else arg for arg in argv]
    if message.startswith("usage: "):
        # argparse refuses a missing positional itself: its usage line, then one error line
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        return
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("smoothlab: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_contour(capsys):
    code, out = _run_argv(
        capsys, ["contour", "--x", "100", "--y", "5", "--q", "4", "--chi", "1", "--T", "40"]
    )
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"value_re", "value_im", "tail_bound", "quadrature_error_estimate"}


@pytest.mark.parametrize("flag", [["--order", "32"], ["--panel-width", "0.5"]])
def test_contour_has_no_quadrature_flags(capsys, flag):
    argv = ["contour", "--x", "100", "--y", "5", "--q", "4", "--chi", "1", "--T", "40"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_exit_zero(capsys):
    code, out = _run_argv(
        capsys, ["verify", "--suite", "pointwise", "--seeds", "5", "--seed-base", "3"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # 5 reports + summary
    assert json.loads(lines[-1])["violations"] == 0


def test_experiment_with_config(tmp_path, capsys):
    out_csv = tmp_path / "res.csv"
    cfg = {
        "xs": [100.0],
        "ys": [5.0],
        "qs": [3],
        "output_path": str(out_csv),
        "output_format": "csv",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    plot_path = tmp_path / "plot.csv"
    code, out = _run_argv(
        capsys,
        ["experiment", "--config", str(cfg_path), "--emit-plot-data", str(plot_path)],
    )
    assert code == 0 and "records=2" in out
    assert out_csv.exists() and plot_path.exists()


def _small_config(tmp_path, **extra):
    cfg_path = tmp_path / "cfg.json"
    cfg = {"xs": [100.0, 500.0], "ys": [5.0, 10.0], "qs": [3, 4], **extra}
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_experiment_coset_mode(tmp_path, capsys):
    out_csv = tmp_path / "coset.csv"
    cfg_path = _small_config(tmp_path, output_path=str(out_csv))
    code, out = _run_argv(capsys, ["experiment", "--config", str(cfg_path), "--mode", "coset"])
    assert code == 0
    records = run_coset(ExperimentConfig.from_json(cfg_path))
    assert out.splitlines() == [
        '{"power": 2, "subgroup_surrogate": true}',
        f"records={len(records)}",
    ]
    want_csv = tmp_path / "want.csv"
    export_results(records, "csv", want_csv)
    assert out_csv.read_bytes() == want_csv.read_bytes()


def test_experiment_unsmoothing_mode(tmp_path, capsys):
    out_csv = tmp_path / "unsmoothing.csv"
    cfg_path = _small_config(tmp_path, output_path=str(out_csv))
    code, out = _run_argv(
        capsys, ["experiment", "--config", str(cfg_path), "--mode", "unsmoothing"]
    )
    assert code == 0
    records = run_unsmoothing(ExperimentConfig.from_json(cfg_path))
    slopes = unsmoothing_slopes(records)
    assert len(slopes) == 8  # one line per (x, y, q) grid point
    assert out.splitlines() == [
        f"x={x:g} y={y:g} q={q} slope={slope:.12g}" for (x, y, q), slope in sorted(slopes.items())
    ]
    want_csv = tmp_path / "want.csv"
    export_unsmoothing(records, want_csv)
    assert out_csv.read_bytes() == want_csv.read_bytes()


def test_verify_calculus_suite(capsys):
    code, out = _run_argv(capsys, ["verify", "--suite", "calculus", "--seeds", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # 3 reports + summary
    assert json.loads(lines[-1])["suite"] == "calculus"


def test_verify_all_prints_each_summary_in_suite_order(capsys):
    code, out = _run_argv(capsys, ["verify", "--suite", "all", "--seeds", "1"])
    assert code == 0
    payloads = [json.loads(line) for line in out.strip().splitlines()]
    assert len(payloads) == 2 * len(SUITES)  # one report and one summary per suite
    assert [p["suite"] for p in payloads if "suite" in p] == list(SUITES)


def _subprocess_out(argv):
    return subprocess.run(
        [sys.executable, "-m", "smoothlab", *argv], env=src_env(), capture_output=True, check=True
    ).stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["saddle", "100000", "30", "--json"],
        ["verify", "--suite", "majorant", "--seeds", "20", "--seed-base", "5"],
        ["verify", "--suite", "lemma1", "--seeds", "3", "--seed-base", "1"],
        ["chars", "12"],
    ],
)
def test_byte_identical_reruns(argv):
    assert _subprocess_out(argv) == _subprocess_out(argv)


def test_experiment_byte_identical(tmp_path):
    out_csv = tmp_path / "res.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {"xs": [500.0, 100.0], "ys": [5.0, 10.0], "qs": [3, 4], "output_path": str(out_csv)}
        )
    )
    first = _subprocess_out(["experiment", "--config", str(cfg_path)])
    blob1 = out_csv.read_bytes()
    second = _subprocess_out(["experiment", "--config", str(cfg_path)])
    blob2 = out_csv.read_bytes()
    assert first == second
    assert blob1 == blob2


@pytest.mark.parametrize(
    "argv", [["chars", "100003"], ["verify", "--suite", "all", "--seeds", "100"]], ids=" ".join
)
def test_closed_stdout_ends_quietly(argv):
    # each prints far more than a pipe holds; the reader takes one line and
    # closes, as `| head -1` does, so the next write meets a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "smoothlab", *argv],
        env=src_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""
