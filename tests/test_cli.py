import importlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import mincf
from mincf import cli, simulation
from mincf.cli import EXIT_INPUT, EXIT_INTERRUPTED, EXIT_NUMERIC, EXIT_OK, main, read_data_file
from mincf.errors import ConfigError

from helpers import checkout_env, out_of_range_sample, run_python

#: The gamma range each family's statistic is checked in, as error messages print it.
GAMMA_RANGE = {"weibull": "[0.001, 30]", "pareto": "[0.001, 1000]", "frechet": "[0.001, 1000]"}


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if the engine draws a sample."""
    def draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(simulation, "_draw", draw)


@pytest.fixture
def exp_data(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "data.txt"
    np.savetxt(path, rng.exponential(size=40))
    return str(path)


class TestReadDataFile:
    def test_plain_values_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.5\n\n2.5\n\n0.5\n")
        assert read_data_file(str(path)).tolist() == [1.5, 2.5, 0.5]

    def test_header_and_trailing_commas(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("strength\n1.0,\n2.0,\n3.0\n")
        assert read_data_file(str(path)).tolist() == [1.0, 2.0, 3.0]

    def test_byte_order_mark_keeps_first_value(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.5\n2.5\n3.5\n4.5\n", encoding="utf-8-sig")
        assert read_data_file(str(path)).tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_negative_value_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.0\n2.0\n-1.0\n3.0\n")
        with pytest.raises(ConfigError) as err:
            read_data_file(str(path))
        assert "line 3" in str(err.value)

    def test_garbage_mid_file_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.0\nbanana\n2.0\n")
        with pytest.raises(ConfigError) as err:
            read_data_file(str(path))
        assert "line 2" in str(err.value)

    def test_too_few_values(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError):
            read_data_file(str(path))


class TestTestCommand:
    def test_runs_and_reports(self, exp_data, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "test", "--family", "weibull", "--data", exp_data,
            "--gamma", "0.5,1", "--replicates", "400", "--seed", "7",
            "--workers", "1", "--no-cache", "--out", str(out),
        ])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "p-value" in text
        report = json.loads(out.read_text())
        assert report["command"] == "test"
        assert report["inputs"]["seed"] == 7
        assert len(report["results"]) == 2
        for row in report["results"]:
            assert 0.0 < row["p_value"] <= 1.0
            assert isinstance(row["redraws"], int) and row["redraws"] >= 0

    def test_report_counts_redraws(self, tmp_path, monkeypatch):
        # At n = 20 a chunk is one block, and the engine's first fit of each
        # full chunk rejects every 128th row; the dataset's own fit goes
        # through estimation.fit_batch, unpatched.
        data = tmp_path / "data20.txt"
        np.savetxt(data, np.random.default_rng(3).exponential(size=20))
        real_fit = simulation.fit_batch

        def reject_on_first_fit(family, x):
            c, phi, ok, iterations = real_fit(family, x)
            if x.shape[0] == 512:
                ok = ok.copy()
                ok[::128] = False
            return c, phi, ok, iterations

        monkeypatch.setattr(simulation, "fit_batch", reject_on_first_fit)
        out = tmp_path / "report.json"
        assert main([
            "test", "--family", "frechet", "--data", str(data), "--gamma", "0.5,1",
            "--replicates", "1024", "--seed", "3", "--workers", "1", "--no-cache",
            "--out", str(out),
        ]) == EXIT_OK
        report = json.loads(out.read_text())
        assert [row["redraws"] for row in report["results"]] == [8, 8]

    def test_deterministic_across_runs(self, exp_data, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            assert main([
                "test", "--family", "weibull", "--data", exp_data,
                "--gamma", "1", "--replicates", "300", "--seed", "5",
                "--workers", "1", "--no-cache", "--out", str(out),
            ]) == EXIT_OK
            outs.append(json.loads(out.read_text()))
        assert outs[0]["results"] == outs[1]["results"]

    @pytest.mark.parametrize("family", ["weibull", "pareto", "frechet"])
    def test_out_of_range_standardized_value_runs(self, tmp_path, capsys, family):
        # One (x / c)^phi overflows (Pareto, Frechet) or underflows to 0 (Weibull).
        data, out = tmp_path / "tied.txt", tmp_path / "report.json"
        np.savetxt(data, out_of_range_sample(mincf.Family.parse(family)))
        assert main(["test", "--family", family, "--data", str(data), "--replicates", "100",
                     "--workers", "1", "--no-cache", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        results = json.loads(out.read_text())["results"]
        assert [row["gamma"] for row in results] == [0.5, 1.0, 5.0]
        for row in results:
            assert np.isfinite(row["statistic"]) and 0.0 < row["p_value"] <= 1.0

    def test_negative_data_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n-1.0\n2.0\n3.0\n")
        code = main(["test", "--family", "weibull", "--data", str(path), "--no-cache"])
        assert code == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_data_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"1.0\n2.0\n\xff\n3.0\n")
        code = main(["test", "--family", "weibull", "--data", str(path), "--no-cache"])
        assert code == EXIT_INPUT
        assert "latin.txt" in capsys.readouterr().err

    def test_constant_data_exits_3(self, tmp_path, capsys):
        path = tmp_path / "const.txt"
        path.write_text("2.0\n2.0\n2.0\n2.0\n")
        code = main(["test", "--family", "weibull", "--data", str(path), "--no-cache"])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("family", ["weibull", "pareto", "frechet"])
    def test_gamma_outside_checked_range_exits_2(self, exp_data, capsys, family):
        code = main(["test", "--family", family, "--data", exp_data, "--gamma", "1,2000",
                     "--replicates", "200", "--workers", "1", "--no-cache"])
        assert code == EXIT_INPUT
        assert GAMMA_RANGE[family] in capsys.readouterr().err

    def test_weibull_above_30_exits_2(self, exp_data, capsys):
        # From gamma ~ 300, Weibull's T is the rounding noise of its terms.
        code = main(["test", "--family", "weibull", "--data", exp_data, "--gamma", "300",
                     "--replicates", "200", "--workers", "1", "--no-cache"])
        assert code == EXIT_INPUT
        assert "gamma for weibull must be a number in [0.001, 30]" in capsys.readouterr().err

    def test_unknown_family_exits_2(self, exp_data):
        assert main(["test", "--family", "normal", "--data", exp_data,
                     "--no-cache"]) == EXIT_INPUT

    def test_out_in_missing_directory_exits_2(self, exp_data, tmp_path, capsys):
        code = main(["test", "--family", "weibull", "--data", exp_data, "--gamma", "1",
                     "--replicates", "200", "--workers", "1", "--no-cache",
                     "--out", str(tmp_path / "missing" / "r.json")])
        assert code == EXIT_INPUT
        assert "internal error" not in capsys.readouterr().err

    def test_cache_dir_that_is_a_file_exits_2(self, exp_data, tmp_path, capsys):
        blocker = tmp_path / "cache"
        blocker.write_text("")
        code = main(["test", "--family", "weibull", "--data", exp_data, "--gamma", "1",
                     "--replicates", "200", "--workers", "1", "--cache-dir", str(blocker)])
        assert code == EXIT_INPUT
        assert "internal error" not in capsys.readouterr().err

    def test_cache_reused(self, exp_data, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = ["test", "--family", "weibull", "--data", exp_data, "--gamma", "1",
                "--replicates", "300", "--seed", "5", "--workers", "1",
                "--cache-dir", cache_dir]
        assert main(args) == EXIT_OK
        files = os.listdir(cache_dir)
        assert len(files) == 1
        assert main(args) == EXIT_OK
        assert os.listdir(cache_dir) == files

    def test_truncated_cache_is_a_miss_and_rewritten(self, exp_data, tmp_path, capsys):
        from mincf.families import Family
        from mincf.simulation import NullCache

        cache_dir = str(tmp_path / "cache")
        args = ["test", "--family", "weibull", "--data", exp_data, "--gamma", "1",
                "--replicates", "300", "--seed", "5", "--workers", "1",
                "--cache-dir", cache_dir]
        assert main(args) == EXIT_OK
        intact = capsys.readouterr().out  # the statistic and p-value of the intact record
        (name,) = os.listdir(cache_dir)
        path = os.path.join(cache_dir, name)
        cache = NullCache(cache_dir)
        written = cache.load(Family.WEIBULL, 40, 1.0, 300, 5)

        def truncate():
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)

        def replace(key, value):
            # The record as written, with one field of the wrong shape.
            with np.load(path) as payload:
                fields = {k: payload[k] for k in payload.files}
            fields[key] = value(fields[key])
            with open(path, "wb") as fh:
                np.savez(fh, **fields)

        # Read as it stands, a reversed or NaN record prints p = 1.0000 (intact: 0.9502).
        for damage in (truncate, lambda: replace("n", lambda n: np.array([n, n])),
                       lambda: replace("sorted_stats", lambda s: s.reshape(20, 15)),
                       lambda: replace("sorted_stats", lambda s: s[::-1]),
                       lambda: replace("sorted_stats", lambda s: np.full_like(s, np.nan))):
            damage()
            assert cache.load(Family.WEIBULL, 40, 1.0, 300, 5) is None
            assert main(args) == EXIT_OK
            assert capsys.readouterr().out == intact
            assert os.listdir(cache_dir) == [name]
            null = cache.load(Family.WEIBULL, 40, 1.0, 300, 5)
            assert null is not None and null.sorted_stats.size == 300
            assert np.array_equal(null.sorted_stats, written.sorted_stats)


@pytest.mark.parametrize("command, flag", [("test", "--gamma"), ("critvals", "--gamma"),
                                           ("critvals", "--n"), ("critvals", "--alpha")])
@pytest.mark.parametrize("value, problem", [(",", "empty list"), ("1,x", "cannot parse")])
def test_bad_list_names_its_option(exp_data, capsys, command, flag, value, problem):
    args = {"test": ["test", "--data", exp_data], "critvals": ["critvals", "--n", "10"]}[command]
    code = main(args + ["--family", "weibull", "--replicates", "200", "--workers", "1",
                        "--no-cache", flag, value])
    assert code == EXIT_INPUT
    assert f"error: {flag}: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--workers", "0"),
                                         ("--workers", "-3")])
@pytest.mark.parametrize("command", ["test", "critvals"])
def test_out_of_range_seed_or_workers_exits_2(exp_data, capsys, command, flag, value):
    args = {"test": ["test", "--data", exp_data], "critvals": ["critvals", "--n", "10"]}[command]
    code = main(args + ["--family", "weibull", "--gamma", "1", "--replicates", "200",
                        "--workers", "1", "--no-cache", flag, value])
    assert code == EXIT_INPUT
    assert f"{flag[2:]} must be an integer >= " in capsys.readouterr().err


class TestCritvalsCommand:
    def test_alpha_ordering_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "cv1.json"
        args = ["critvals", "--family", "pareto", "--n", "10", "--gamma", "1",
                "--alpha", "0.10,0.05,0.01", "--replicates", "500", "--seed", "3",
                "--workers", "1", "--no-cache"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        report = json.loads(out1.read_text())
        cvs = report["results"][0]["critical_values"]
        assert cvs["0.01"] >= cvs["0.05"] >= cvs["0.1"]
        assert isinstance(report["results"][0]["redraws"], int)
        out2 = tmp_path / "cv2.json"
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert json.loads(out2.read_text())["results"] == report["results"]

    @pytest.mark.parametrize("n", ["20.7", "inf", "nan", "10,nan"])
    def test_non_integer_sizes_exit_2(self, capsys, n):
        code = main(["critvals", "--family", "pareto", "--n", n, "--replicates", "200",
                     "--workers", "1", "--no-cache"])
        assert code == EXIT_INPUT
        assert "not a comma-separated list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["weibull", "pareto", "frechet"])
    @pytest.mark.parametrize("gamma", ["1e-320", "1e-4", "1e5", "1e308"])
    def test_gamma_outside_checked_range_exits_2(self, capsys, family, gamma):
        # Unchecked, L's quadrature range (1e-320) or a power of gamma (1e308)
        # overflows, Weibull's statistic is rounding noise, half of it
        # negative (1e5), and at 1e-4 Pareto's is up to 4e-3 relative off
        # its defining integral.
        code = main(["critvals", "--family", family, "--n", "10", "--gamma", gamma,
                     "--replicates", "200", "--workers", "1", "--no-cache"])
        assert code == EXIT_INPUT
        assert GAMMA_RANGE[family] in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["weibull", "pareto", "frechet"])
    def test_gamma_at_the_range_ends_runs(self, family):
        ends = "0.001,30" if family == "weibull" else "0.001,1000"
        assert main(["critvals", "--family", family, "--n", "10", "--gamma", ends,
                     "--replicates", "200", "--workers", "1", "--no-cache"]) == EXIT_OK

    @pytest.mark.parametrize("family, gamma", [("weibull", "300"), ("pareto", "2000")])
    def test_gamma_outside_the_family_range_exits_2_before_any_draw(self, no_draw, capsys,
                                                                    family, gamma):
        code = main(["critvals", "--family", family, "--n", "10", "--gamma", f"1,{gamma}",
                     "--replicates", "200", "--workers", "1", "--no-cache"])
        assert code == EXIT_INPUT
        assert f"gamma for {family} must be a number in {GAMMA_RANGE[family]}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("alpha", ["0.05,1.5", "0", "nan"])
    def test_alpha_outside_0_1_exits_2_before_any_draw(self, no_draw, capsys, alpha):
        code = main(["critvals", "--family", "pareto", "--n", "10", "--alpha", alpha,
                     "--replicates", "200", "--workers", "1", "--no-cache"])
        assert code == EXIT_INPUT
        assert "alpha must be a number in (0, 1), got " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--gamma", "50"),
                                             ("--replicates", "50"), ("--workers", "0"),
                                             ("--n", "20,2")])
    def test_bad_input_exits_2_with_nothing_printed(self, no_draw, capsys, flag, value):
        code = main(["critvals", "--family", "weibull", "--n", "10", "--no-cache", flag, value])
        assert code == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_killed_helper_exits_3_and_is_reaped(self, monkeypatch, capsys):
        caller, real_fit = os.getpid(), simulation.fit_batch

        def die_in_helper(family, x):
            if os.getpid() != caller:
                os._exit(1)
            return real_fit(family, x)

        monkeypatch.setattr(simulation, "fit_batch", die_in_helper)
        code = main(["critvals", "--family", "weibull", "--n", "10", "--replicates", "1100",
                     "--workers", "2", "--no-cache"])
        assert code == EXIT_NUMERIC
        assert "returned no chunk result" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):  # the helper was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_out_of_memory_exits_3(self, monkeypatch, capsys):
        def no_memory(family, alt, shape, rng):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(simulation, "_draw", no_memory)
        code = main(["critvals", "--family", "weibull", "--n", "10", "--replicates", "200",
                     "--gamma", "1", "--workers", "1", "--no-cache"])
        assert code == EXIT_NUMERIC
        assert "out of memory: Unable to allocate" in capsys.readouterr().err

    def test_ctrl_c_exits_130(self):
        # Ctrl-C in a terminal sends SIGINT to the whole foreground group:
        # here the caller and its forked helper. The half-second wait lets
        # the caller build the lam tables and fork; the run takes seconds
        # more, so the signal lands mid-run.
        proc = subprocess.Popen(
            [sys.executable, "-m", "mincf", "critvals", "--family", "frechet", "--n", "200",
             "--replicates", "20000", "--workers", "2", "--no-cache"],
            env=checkout_env(PYTHONUNBUFFERED="1"), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            assert proc.stdout.readline().startswith("family: frechet")
            time.sleep(0.5)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == EXIT_INTERRUPTED
        assert "interrupted" in err
        with pytest.raises(ProcessLookupError):  # the helper was reaped too
            os.killpg(proc.pid, 0)


def test_default_workers_are_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert cli.available_cpus() == 1
    args = cli.build_parser().parse_args(["critvals", "--family", "pareto"])
    assert args.workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.available_cpus() == 1


class TestPowerStudyCommand:
    def test_small_study_writes_csv_and_manifest(self, tmp_path, capsys):
        config = {
            "families": ["pareto"],
            "alternatives": ["P(1,1)", "W(1.5,1)+1"],
            "gammas": [1.0],
            "sample_sizes": [10],
            "replicates": 300,
            "crit_replicates": 400,
            "seed": 99,
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        csv_path = tmp_path / "out.csv"
        code = main(["power-study", "--config", str(cfg_path),
                     "--out-csv", str(csv_path), "--workers", "1", "--no-cache"])
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "family,alternative,n,gamma,rate_percent"
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "out_manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        assert manifest["failures"] == []

    def test_csv_identical_across_worker_counts(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({
            "families": ["weibull", "frechet"], "alternatives": ["LN(1)", "G(2,1)"],
            "gammas": [0.5, 5.0], "sample_sizes": [10], "replicates": 600,
            "crit_replicates": 600, "seed": 41,
        }))
        csvs = []
        for workers in ("1", "2"):
            csv_path = tmp_path / f"w{workers}.csv"
            assert main(["power-study", "--config", str(cfg_path), "--out-csv", str(csv_path),
                         "--workers", workers, "--no-cache"]) == EXIT_OK
            csvs.append(csv_path.read_bytes())
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == 1 + 2 * 2 * 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_laws_past_double_range_end_as_warnings(self, tmp_path, workers):
        # P(0.001,1) draws overflow to inf and G(0.01,1) draws underflow to 0.
        # Run in a fresh interpreter, so a helper's numpy warning would reach stderr.
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({
            "families": ["pareto", "weibull"], "alternatives": ["P(0.001,1)", "G(0.01,1)", "LN(1)"],
            "gammas": [1], "sample_sizes": [20], "replicates": 200, "crit_replicates": 200,
            "seed": 3,
        }))
        csv_path = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "mincf", "power-study", "--config", str(cfg_path),
             "--out-csv", str(csv_path), "--workers", workers, "--no-cache"],
            env=checkout_env(), capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert csv_path.read_text().splitlines()[1:] == [
            'pareto,"G(0.01,1)",20,1,97.50', "pareto,LN(1),20,1,77.00", "weibull,LN(1),20,1,26.50"]
        err = proc.stderr.splitlines()
        assert len(err) == 3 and all(line.startswith("warning: power ") for line in err)

    def test_seed_option_is_a_usage_error(self, tmp_path, capsys):
        # The study seed is the config's "seed"; a --seed flag would be ignored.
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"families": ["weibull"], "alternatives": ["LN(1)"],
                                        "replicates": 200, "seed": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["power-study", "--config", str(cfg_path), "--no-cache", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_invalid_alternative_exits_2_naming_it(self, tmp_path, capsys):
        # An unknown name, and non-finite parameters or shifts, named as parsed.
        cfg_path = tmp_path / "study.json"
        for spec, named in [("NOPE(1)", "NOPE"), ("W(1e999,1)", "W(inf,1)"),
                            ("CH(inf)", "CH(inf)"), ("LN(-inf,1)", "LN(-inf,1)"),
                            ("LN(1)+1e999", "LN(1)+inf")]:
            cfg_path.write_text(json.dumps({
                "families": ["weibull"], "alternatives": [spec],
                "replicates": 200, "seed": 1,
            }))
            code = main(["power-study", "--config", str(cfg_path), "--no-cache"])
            assert code == EXIT_INPUT
            assert named in capsys.readouterr().err

    def test_weibull_above_30_exits_2_writing_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({
            "families": ["pareto", "weibull"], "alternatives": ["LN(1)"],
            "gammas": [1.0, 300.0], "sample_sizes": [10], "replicates": 200, "seed": 1,
        }))
        code = main(["power-study", "--config", str(cfg_path), "--no-cache",
                     "--out-csv", str(tmp_path / "out.csv")])
        assert code == EXIT_INPUT
        assert "gamma for weibull must be a number in [0.001, 30]" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["study.json"]

    @pytest.mark.parametrize("field, value", [
        ("replicates", "500"), ("sample_sizes", ["x"]), ("seed", "x"), ("gammas", [-1]),
        ("gammas", ["nan"]), ("sample_sizes", [2]), ("crit_replicates", 50),
        ("gammas", 1.0), ("sample_sizes", 20),
        ("families", [1]), ("alternatives", [2.5]), ("alternatives", [None]),
        ("gammas", [1e-4]), ("gammas", [1e5]),
    ])
    def test_invalid_config_value_exits_2(self, tmp_path, capsys, field, value):
        config = {"families": ["weibull"], "alternatives": ["LN(1)"], "gammas": [1.0],
                  "sample_sizes": [10], "replicates": 200, "seed": 1, field: value}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["power-study", "--config", str(cfg_path), "--no-cache",
                     "--out-csv", str(tmp_path / "out.csv")])
        assert code == EXIT_INPUT
        assert not (tmp_path / "out.csv").exists()

    def test_repeated_entries_exit_2_writing_nothing(self, tmp_path, capsys):
        # Each repeat would be a study cell of its own, written again under
        # another derived seed.
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({
            "families": ["weibull"], "alternatives": ["LN(1)", "LN(1)"], "gammas": [1, 1],
            "sample_sizes": [20, 20], "replicates": 200, "crit_replicates": 200, "seed": 3,
        }))
        code = main(["power-study", "--config", str(cfg_path), "--no-cache",
                     "--out-csv", str(tmp_path / "out.csv")])
        assert code == EXIT_INPUT
        assert "alternatives lists an entry twice" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["study.json"]

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_bytes(b'{"families": ["weibull\xff"], "alternatives": ["LN(1)"]}')
        assert main(["power-study", "--config", str(cfg_path), "--no-cache"]) == EXIT_INPUT
        assert "study.json" in capsys.readouterr().err

    def test_config_not_an_object_exits_2(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text("5")
        assert main(["power-study", "--config", str(cfg_path), "--no-cache"]) == EXIT_INPUT

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["power-study", "--config", str(tmp_path / "nope.json"),
                     "--no-cache"]) == EXIT_INPUT


class TestSizeAndPowerThroughCLI:
    """Statistical behaviour of the test command over repeated datasets."""

    def test_null_rejection_rate_near_alpha(self, tmp_path):
        # Exponential data tested as Weibull: p < 0.05 should occur for
        # about 5% of datasets.
        from mincf.simulation import NullCache, build_null, p_value
        from mincf.estimation import mle, standardize
        from mincf.families import Family
        from mincf.stat import statistic
        cache = NullCache(tmp_path / "cache")
        null = build_null(Family.WEIBULL, 50, 1.0, 2000, seed=0, cache=cache)
        hits = 0
        runs = 200
        for i in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(424242, spawn_key=(i,)))
            data = rng.exponential(size=50)
            y = standardize(data, mle(Family.WEIBULL, data))
            p = p_value(null, statistic(Family.WEIBULL, y, 1.0).value)
            hits += p < 0.05
        assert abs(hits / runs - 0.05) < 0.03

    def test_lognormal_rejected_as_weibull_mostly(self, tmp_path):
        from mincf.simulation import NullCache, build_null, p_value
        from mincf.estimation import mle, standardize
        from mincf.families import Family
        from mincf.stat import statistic
        cache = NullCache(tmp_path / "cache")
        null = build_null(Family.WEIBULL, 63, 1.0, 2000, seed=0, cache=cache)
        rejections = 0
        runs = 100
        for i in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(31337, spawn_key=(i,)))
            data = np.exp(rng.normal(size=63))  # LN(1)
            y = standardize(data, mle(Family.WEIBULL, data))
            p = p_value(null, statistic(Family.WEIBULL, y, 1.0).value)
            rejections += p < 0.05
        assert rejections > runs // 2


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.3 s of start-up and no command needs it;
    # scipy.integrate would load it too. statistic() needs no scipy module at
    # all, so no production path (L, the lam tables, statistic()) evaluates a
    # term by quadrature.
    script = (
        "import sys, numpy as np, mincf.cli\n"
        "from mincf import Family, ParamPair, mle, sample_null, standardize, statistic\n"
        "for family in Family:\n"
        "    x = sample_null(family, ParamPair(1.0, 1.0), 20, np.random.default_rng(3))\n"
        "    y = standardize(x, mle(family, x))\n"
        "    for gamma in (0.5, 1.0, 5.0):\n"
        "        assert np.isfinite(statistic(family, y, gamma).value)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_python(script) == "[]"


# Importing scipy.special costs about 0.4 s, as much as the rest of a warm
# `mincf test`; the test and critvals paths run on numpy alone. The engine
# forks its helpers itself, so no command loads a process pool either.
_SCIPY_LOADED = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
    "             ('scipy', 'concurrent', 'multiprocessing')))\n"
)


def test_cli_import_loads_no_scipy():
    script = (
        "import sys, mincf.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m == 'concurrent.futures'))\n"
    )
    assert run_python(script) == "[]"


def test_package_ships_no_test_oracles():
    # The quadrature oracles, and the names only they use, live in the test
    # suite (tests/oracles.py).
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("mincf.reference")
    removed = {
        "QuadratureResult", "QuadratureSpec", "alternative_cdf", "alternative_density",
        "empirical_min_cf", "integrate", "kernel_lambda", "mle_limit", "null_cdf",
        "null_density", "population_delta", "population_min_cf", "small_lambda",
        "statistic_direct", "IntegrationError", "alternative_support",
    }
    assert sorted(name for name in removed if hasattr(mincf, name)) == []


#: The public names of the package root, as exported before they became lazy.
PUBLIC_NAMES = [
    "AlternativeSpec", "ConfigError", "ConvergenceError", "DegenerateSampleError",
    "DomainError", "EULER_GAMMA", "EngineError", "Estimate", "Family", "NullCache",
    "NullDistribution", "ParamPair", "PowerResult", "STANDARD_PARAMS",
    "STATISTIC_CODE_VERSION", "StatisticBreakdown", "StudyConfig", "StudyResult",
    "TestResult", "bessel_k", "build_null", "build_nulls", "critical_value",
    "derive_seed", "exp_integral_e1", "gof_test", "l_constant", "lambda_table", "mle",
    "null_min_cf", "null_quantile", "p_value", "parse_alternative", "power", "run_study",
    "sample_alternative", "sample_null", "standardize", "statistic",
]


class TestPackageRoot:
    def test_public_names_resolve_and_are_listed(self):
        assert sorted(mincf.__all__) == PUBLIC_NAMES
        listed = dir(mincf)
        for name in PUBLIC_NAMES:
            assert getattr(mincf, name) is not None, name
            assert name in listed, name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mincf.no_such_name  # noqa: B018

    def test_submodules_import_from_a_fresh_root(self):
        script = (
            "import mincf\n"
            "from mincf import cli, simulation, stat, special\n"
            "print([m.__name__ for m in (cli, simulation, stat, special)])\n"
        )
        assert run_python(script) == "['mincf.cli', 'mincf.simulation', 'mincf.stat', 'mincf.special']"


# Parsing comes before numpy: the package root resolves its names lazily and
# `python -m mincf` parses before it imports mincf.cli, so an op that does
# not compute pays no numpy start-up.
_NUMPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"


def test_package_import_loads_no_numpy():
    assert run_python("import sys, mincf\n" + _NUMPY_LOADED) == "[]"


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["test", "--family"], 2),  # usage error: the option lacks its value
], ids=["version", "help", "usage-error"])
def test_non_computing_commands_load_no_numpy(argv, code):
    script = (
        "import runpy, sys\n"
        f"sys.argv = ['mincf', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('mincf', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        + _NUMPY_LOADED
    )
    out = subprocess.run([sys.executable, "-c", script], env=checkout_env(),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[-2:] == [f"exit {code}", "[]"]


def test_version_loads_only_the_parser_modules():
    # `mincf --version` is timed as every benchmark set-up; a few ms more on its
    # path can move that reading a whole step of the wait-poll grid it lands on.
    script = (
        "import argparse, importlib, os, runpy, sys\n"
        "before = set(sys.modules)\n"
        "sys.argv = ['mincf', '--version']\n"
        "try:\n"
        "    runpy.run_module('mincf', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    assert run_python(script) == str(sorted([
        "__future__", "_locale", "locale", "mincf", "mincf.entry", "mincf.errors", "textwrap",
    ]))


def test_script_entry_is_the_parse_first_main():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mincf"]
    module, function = target.split(":")
    entry = importlib.import_module("mincf.entry")
    assert getattr(importlib.import_module(module), function) is entry.main
    assert cli.main is entry.main


def test_cold_and_warm_test_commands_load_no_scipy(tmp_path):
    data = tmp_path / "data.txt"
    np.savetxt(data, np.random.default_rng(8).weibull(1.5, size=30))
    # 600 replicates are two chunks, so --workers 2 forks a helper.
    script = (
        "import sys\n"
        "from mincf.cli import main\n"
        "for workers in ('1', '2'):\n"
        "    for family in ('weibull', 'pareto', 'frechet'):\n"
        "        for _ in range(2):  # cold, then warm from the cache\n"
        f"            assert main(['test', '--family', family, '--data', {str(data)!r},\n"
        "                         '--replicates', '600', '--seed', '3', '--workers', workers,\n"
        f"                         '--cache-dir', {str(tmp_path)!r} + '/cache' + workers]) == 0\n"
        + _SCIPY_LOADED
    )
    assert run_python(script) == "[]"
    for workers in (1, 2):  # one null per (family, gamma)
        assert len(os.listdir(tmp_path / f"cache{workers}")) == 3 * 3


def test_critvals_command_loads_no_scipy():
    script = (
        "import sys\n"
        "from mincf.cli import main\n"
        "for family in ('weibull', 'pareto', 'frechet'):\n"
        "    for workers in ('1', '2'):\n"
        "        assert main(['critvals', '--family', family, '--n', '10,30',\n"
        "                     '--replicates', '600', '--workers', workers, '--no-cache']) == 0\n"
        + _SCIPY_LOADED
    )
    assert run_python(script) == "[]"


def test_critvals_run_leaves_numpy_polynomial_unloaded():
    # The lam build fits its panels by a fixed matrix and its rule by Newton's
    # method; numpy.polynomial would add its import to every computing command.
    script = (
        "import runpy, sys\n"
        "sys.argv = ['mincf', 'critvals', '--family', 'pareto', '--n', '20',\n"
        "            '--replicates', '600', '--workers', '1', '--no-cache']\n"
        "try:\n"
        "    runpy.run_module('mincf', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=checkout_env(),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[-2:] == ["exit 0", "[]"]


def test_power_study_command_loads_no_scipy(tmp_path):
    # The lognormal sampler runs on the generator's normal routine, so a study
    # with LN alternatives loads no scipy either: here, then beside a helper.
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({
        "families": ["weibull"], "alternatives": ["LN(1)", "LN(2.5)", "G(2,1)", "HN(1)"],
        "gammas": [1.0], "sample_sizes": [10], "replicates": 200,
        "crit_replicates": 200, "seed": 5,
    }))
    script = (
        "import sys\n"
        "from mincf.cli import main\n"
        "for workers in ('1', '2'):\n"
        f"    assert main(['power-study', '--config', {str(cfg_path)!r}, '--workers', workers,\n"
        f"                 '--out-csv', {str(tmp_path / 'w')!r} + workers + '.csv',\n"
        "                 '--no-cache']) == 0\n"
        + _SCIPY_LOADED
    )
    assert run_python(script) == "[]"
    csvs = [(tmp_path / f"w{workers}.csv").read_bytes() for workers in (1, 2)]
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 1 + 4


#: One record of each kind: a null, an alternative pass and the three commands.
SMALL_GRID = {
    "families": ["pareto"], "gammas": [1.0], "workers": [1],
    "nulls": {"sizes": [10], "replicates": 100, "seed": 7},
    "passes": {"sizes": [10], "replicates": 100, "seed": 11, "laws": ["LN(1)"]},
    "cli": {"replicates": 100, "sizes": "10",
            "study": {"alternatives": ["LN(1)"], "gammas": [1], "sample_sizes": [10],
                      "replicates": 100, "crit_replicates": 100, "seed": 3}},
}


def _compare_trees():
    """The checkout's root and the names ``scripts/compare_trees.py`` defines."""
    import runpy

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(mincf.__file__))))
    return root, runpy.run_path(os.path.join(root, "scripts", "compare_trees.py"))


def test_compare_trees_finds_the_checkout_equal_to_itself(capsys):
    root, script = _compare_trees()
    assert script["compare"](root, root, SMALL_GRID) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "16 records, 0 differ"
    assert all(line.startswith("= ") for line in lines[:-1])
    assert [line.split("  ")[0] for line in lines[:2]] == [
        "= null pareto n=10 gamma=1 workers=1", "= pass pareto n=10 LN(1) workers=1"]
    assert "= cli power-study workers=1 study.csv" in {line.split("  ")[0] for line in lines}
    # A record that differs, or that one side lacks, is marked.
    assert script["report"]({"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"}) == (
        ["= a  1", "! b  parent: 2  change: 3", "! c  parent: (missing)  change: 4"], 2)


def test_compare_trees_reads_the_criterion_lines_of_an_acceptance_run():
    _, script = _compare_trees()
    output = (
        "  size weibull  n=20 gamma=0.5: 4.69%\n"
        "  size frechet  n=50 gamma=  5: 5.24%\n"
        "\n"
        "ACCEPTANCE 3 (size calibration): PASS - all 18 sizes in [3.5%, 6.5%]\n"
        "  criterion 3 runtime: 4s (budget 900s on 8 cores; 2 here)\n"
        ".  power frechet  vs HN(1)        n=20 gamma=0.5:  83.4% (reference 82%)\n"
        "  power weibull  vs LN(2.5)      n=50 gamma=  5:  61.8% (reference 65%)\n"
        "\n"
        "ACCEPTANCE 4 (power spot checks): PASS - desk scale N=2000, tol +-4pp, 0s\n"
        "F\n"
        "3.95s call     tests/test_acceptance.py::test_criterion_3_size_calibration\n"
        "1 failed, 2 passed, 5 deselected in 6.50s\n"
    )
    assert script["parse_criterion_lines"](output) == [
        ("size weibull n=20 gamma=0.5", "4.69%"),
        ("size frechet n=50 gamma= 5", "5.24%"),
        ("power frechet vs HN(1) n=20 gamma=0.5", "83.4% (reference 82%)"),
        ("power weibull vs LN(2.5) n=50 gamma= 5", "61.8% (reference 65%)"),
    ]
    assert "criteria" in script["GRID"] and "criteria" not in SMALL_GRID
