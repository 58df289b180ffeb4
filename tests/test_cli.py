"""Scenario parsing, command dispatch, and CSV output contracts.

Commands run in-process through ``main`` with small trajectory counts;
the CSVs are re-read and checked against the closed forms, and repeat
runs must be byte-identical regardless of the thread count.
"""

import csv
import math
import re
import shutil
import subprocess
import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qtraj.analytic import born_p, born_x, variances_postselected_analytic
from qtraj.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    N_BORN_BINS,
    N_SAVED_PATHS,
    ScenarioFileError,
    _KEY_TYPES,
    _STREAM_BLOCK,
    _fmt,
    build_state,
    load_scenario,
    main,
    parse_scenario_text,
    shipped_scenarios,
)
from qtraj.core import AmplifierSpec, ModeSpec, SuperpositionSpec, TwoModeSpec
from qtraj.postselect import bin_by_sign, meter_sign_agreement
from qtraj.sde_engine import (CHUNK, iter_chunks, simulate_single_mode,
                               simulate_two_mode)
from qtraj.stats import bin_z_scores, compare_density, histogram

SEED = 20210905

SQUEEZED = """\
state.kind = squeezed
state.x1 = 1.0
state.r = 0.0
amp.g = 1.0
amp.gtf = 1.0
amp.n_steps = 4
run.trajectories = 2000
run.seed = {seed}
"""

SUPERPOSITION = """\
state.kind = superposition
state.x1 = 2.0
state.r = 0.0
state.phi = pi/2
amp.g = 1.0
amp.gtf = {gtf}
amp.n_steps = {n_steps}
run.trajectories = {n}
run.seed = {seed}
"""

TWO_MODE = """\
state.kind = two_mode
state.x1 = 1.0
state.r = 1.5
state.phi = pi/2
meter.x1b = {x1b}
meter.r2 = 0.0
amp.g = 1.0
amp.gtf = 2.0
amp.n_steps = 1
run.trajectories = {n}
run.seed = {seed}
"""


def write_scenario(tmp_path, text, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_csv(path):
    comments = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def column(header, rows, name, convert=float):
    i = header.index(name)
    return [convert(r[i]) for r in rows]


class TestParseScenarioText:
    def test_round_trip(self):
        text = SUPERPOSITION.format(gtf=3.0, n_steps=10, n=500, seed=7)
        sc = parse_scenario_text(text, "case")
        assert sc.kind == "superposition"
        assert sc.x1 == 2.0
        assert sc.phi == pytest.approx(0.5 * math.pi)
        assert sc.c1_sq == 0.5
        assert sc.n_steps == 10
        assert sc.t_final == pytest.approx(3.0)
        assert sc.boundary == "direct"
        assert len(sc.digest) == 64
        state, amp = build_state(sc)
        assert isinstance(state, SuperpositionSpec)
        assert amp.n_steps == 10

    def test_defaults(self):
        sc = parse_scenario_text(SQUEEZED.format(seed=1)
                                 .replace("amp.n_steps = 4\n", ""),
                                 "case")
        assert sc.n_steps == 300
        state, _ = build_state(sc)
        assert isinstance(state, ModeSpec)

    @pytest.mark.parametrize("word,value", [
        ("pi", math.pi), ("-pi/2", -0.5 * math.pi), ("2pi", 2 * math.pi),
        ("0.25", 0.25),
    ])
    def test_phase_words(self, word, value):
        text = SUPERPOSITION.format(gtf=1.0, n_steps=2, n=10, seed=1) \
            .replace("state.phi = pi/2", f"state.phi = {word}")
        assert parse_scenario_text(text, "c").phi == pytest.approx(value)

    def test_unknown_key_names_key_and_line(self):
        text = SQUEEZED.format(seed=1) + "state.bogus = 1\n"
        with pytest.raises(ScenarioFileError, match=r"case:9.*state.bogus"):
            parse_scenario_text(text, "case")

    def test_duplicate_key(self):
        text = SQUEEZED.format(seed=1) + "state.x1 = 2\n"
        with pytest.raises(ScenarioFileError, match="duplicate.*state.x1"):
            parse_scenario_text(text, "case")

    def test_missing_keys_are_listed(self):
        with pytest.raises(ScenarioFileError,
                           match="missing.*amp.g, amp.gtf"):
            parse_scenario_text("state.kind = squeezed\nstate.x1 = 1\n"
                                "state.r = 0\nrun.trajectories = 5\n"
                                "run.seed = 1\n", "case")

    def test_inapplicable_key_is_named(self):
        text = SQUEEZED.format(seed=1) + "meter.x1b = 2\n"
        with pytest.raises(ScenarioFileError,
                           match="not applicable.*squeezed.*meter.x1b"):
            parse_scenario_text(text, "case")

    def test_bad_value(self):
        text = SQUEEZED.format(seed=1).replace("state.x1 = 1.0",
                                               "state.x1 = abc")
        with pytest.raises(ScenarioFileError, match="bad value.*state.x1"):
            parse_scenario_text(text, "case")

    @pytest.mark.parametrize("key", sorted(_KEY_TYPES))
    def test_unparsable_value_names_its_key(self, key):
        lines = [line for line in TWO_MODE.format(x1b=2.0, n=10, seed=1)
                 .splitlines() if line.split("=")[0].strip() != key]
        text = "\n".join(lines + [f"{key} = not-a-value"]) + "\n"
        with pytest.raises(ScenarioFileError, match=re.escape(key)):
            parse_scenario_text(text, "case")

    def test_line_without_assignment(self):
        with pytest.raises(ScenarioFileError, match="case:1"):
            parse_scenario_text("squeezed\n", "case")

    def test_bad_kind(self):
        text = SQUEEZED.format(seed=1).replace("squeezed", "gaussian")
        with pytest.raises(ScenarioFileError, match="state.kind"):
            parse_scenario_text(text, "case")

    def test_bad_boundary(self):
        text = SQUEEZED.format(seed=1) + "run.boundary = magic\n"
        with pytest.raises(ScenarioFileError, match="run.boundary"):
            parse_scenario_text(text, "case")

    def test_gain_sign_consistency(self):
        text = SQUEEZED.format(seed=1).replace("amp.gtf = 1.0",
                                               "amp.gtf = -1.0")
        with pytest.raises(ScenarioFileError, match="amp.gtf"):
            parse_scenario_text(text, "case")
        text = SQUEEZED.format(seed=1).replace("amp.g = 1.0", "amp.g = 0")
        with pytest.raises(ScenarioFileError):
            parse_scenario_text(text, "case")

    def test_comments_and_blank_lines_are_ignored(self):
        text = "# heading\n\n" + SQUEEZED.format(seed=1) + "\n# tail\n"
        assert parse_scenario_text(text, "case").x1 == 1.0


class TestScenarioLoading:
    def test_shipped_listing(self):
        names = shipped_scenarios()
        assert len(names) >= 16
        for expected in ("fig_fb1", "fig_born_x", "fig_entmeter2",
                         "fig_condvar"):
            assert expected in names

    def test_every_shipped_scenario_parses_and_builds(self):
        for name in shipped_scenarios():
            sc = load_scenario(name)
            state, amp = build_state(sc)
            assert amp.t_final > 0
            assert sc.trajectories >= 1

    def test_load_by_name_and_suffix(self):
        assert load_scenario("fig_fb1").label == "fig_fb1"
        assert load_scenario("fig_fb1.scenario").x1 == \
            load_scenario("fig_fb1").x1

    def test_load_by_path(self, tmp_path):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=3))
        sc = load_scenario(str(path))
        assert sc.label == "case"
        assert sc.seed == 3

    def test_unknown_reference_lists_shipped(self):
        with pytest.raises(ScenarioFileError, match="shipped:.*fig_fb1"):
            load_scenario("no_such_scenario")


class TestMainValidation:
    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "missing", "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_trajectories_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=1))
        code = main(["run", "--scenario", str(path), "--out",
                     str(tmp_path / "o"), "--trajectories", "0"])
        assert code == EXIT_VALIDATION
        assert "--trajectories" in capsys.readouterr().err
        for n in (0, -3):
            bad = write_scenario(
                tmp_path, SQUEEZED.format(seed=1).replace(
                    "run.trajectories = 2000", f"run.trajectories = {n}"),
                f"bad{n}.scenario")
            for cmd in ("run", "born", "postselect"):
                out = tmp_path / f"{cmd}{n}"
                assert main([cmd, "--scenario", str(bad), "--out",
                             str(out)]) == EXIT_VALIDATION
                err = capsys.readouterr().err
                assert f"bad{n}: run.trajectories must be >= 1" in err, err
                assert not list(out.glob("*.csv"))

    def test_wigner_boundary_is_refused_off_a_single_position(
            self, tmp_path, capsys):
        # The Wigner construction builds a single mode's amplified
        # position; a meter pair or an amplified momentum has none.
        pair = TWO_MODE.format(x1b=2.0, n=100, seed=1)
        momentum = SUPERPOSITION.format(gtf=-1.0, n_steps=2, n=100,
                                        seed=1).replace("amp.g = 1.0",
                                                        "amp.g = -1.0")
        for cmd, text in (("collapse", pair), ("run", pair),
                          ("run", momentum)):
            path = write_scenario(tmp_path, text + "run.boundary = wigner\n")
            out = tmp_path / cmd
            assert main([cmd, "--scenario", str(path), "--out",
                         str(out)]) == EXIT_VALIDATION
            assert "run.boundary = wigner" in capsys.readouterr().err
            assert not list(out.glob("*.csv"))
        # born reads the momentum record by the direct density.
        path = write_scenario(tmp_path, SUPERPOSITION.format(
            gtf=1.0, n_steps=2, n=100, seed=1) + "run.boundary = wigner\n")
        assert main(["born", "--scenario", str(path), "--out",
                     str(tmp_path / "born")]) == EXIT_OK

    def test_born_rejects_two_mode(self, tmp_path):
        path = write_scenario(tmp_path, TWO_MODE.format(x1b=2.0, n=100,
                                                        seed=1))
        code = main(["born", "--scenario", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_postselect_rejects_two_mode(self, tmp_path):
        path = write_scenario(tmp_path, TWO_MODE.format(x1b=2.0, n=100,
                                                        seed=1))
        code = main(["postselect", "--scenario", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_collapse_rejects_single_mode(self, tmp_path):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=1))
        code = main(["collapse", "--scenario", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_overflowing_gain_exits_2_naming_the_key(self, tmp_path, capsys):
        single = write_scenario(
            tmp_path, SUPERPOSITION.format(gtf=400.0, n_steps=2, n=100,
                                           seed=1), "single.scenario")
        pair = write_scenario(
            tmp_path, TWO_MODE.format(x1b=2.0, n=100, seed=1)
            .replace("amp.gtf = 2.0", "amp.gtf = 400"), "pair.scenario")
        for cmd, path in (("run", single), ("born", single),
                          ("postselect", single), ("collapse", pair)):
            code = main([cmd, "--scenario", str(path), "--out",
                         str(tmp_path / cmd)])
            assert code == EXIT_VALIDATION
            assert "amp.gtf" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["300", "400"])
    def test_extreme_squeezing_exits_2_naming_the_key(self, tmp_path, capsys,
                                                      r):
        text = (resources.files("qtraj") / "scenarios" / "fig_sup.scenario"
                ).read_text(encoding="utf-8")
        assert "state.r = 2\n" in text
        single = write_scenario(tmp_path, text.replace(
            "state.r = 2\n", f"state.r = {r}\n"), "single.scenario")
        pair = write_scenario(tmp_path, TWO_MODE.format(
            x1b=2.0, n=100, seed=1).replace("meter.r2 = 0.0",
                                            f"meter.r2 = {r}"),
            "pair.scenario")
        for cmd, path, key in (("run", single, "state.r"),
                               ("born", single, "state.r"),
                               ("postselect", single, "state.r"),
                               ("collapse", pair, "meter.r2")):
            out = tmp_path / cmd
            code = main([cmd, "--scenario", str(path), "--out", str(out),
                         "--trajectories", "100"])
            assert code == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert key in err and "amp.gtf" not in err
            assert not out.exists()

    @pytest.mark.parametrize("key", ["amp.gtf", "amp.g", "state.x1",
                                     "state.r", "state.phi"])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                     key):
        text = (resources.files("qtraj") / "scenarios" / "fig_sup.scenario"
                ).read_text(encoding="utf-8")
        lines = [f"{key} = nan" if line.startswith(f"{key} =") else line
                 for line in text.splitlines()]
        assert f"{key} = nan" in lines
        path = write_scenario(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exits_2(self, tmp_path, capsys, threads):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=1))
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out),
                     "--threads", threads])
        assert code == EXIT_VALIDATION
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_thread_variable_exits_2(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("QTRAJ_THREADS", "abc")
        path = write_scenario(tmp_path, SQUEEZED.format(seed=1))
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "QTRAJ_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_variable_below_one_exits_2(self, tmp_path, capsys,
                                               monkeypatch, threads):
        monkeypatch.setenv("QTRAJ_THREADS", threads)
        out = tmp_path / "o"
        code = main(["born", "--scenario", "fig_born_x", "--out", str(out),
                     "--trajectories", "2000"])
        assert code == EXIT_VALIDATION
        assert f"QTRAJ_THREADS = {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_gain_two_mode_exits_2(self, tmp_path, capsys):
        text = TWO_MODE.format(x1b=4.0, n=100, seed=SEED).replace(
            "amp.g = 1.0", "amp.g = -1.0").replace("amp.gtf = 2.0",
                                                   "amp.gtf = -2.0")
        path = write_scenario(tmp_path, text)
        for cmd in ("run", "collapse"):
            out = tmp_path / cmd
            code = main([cmd, "--scenario", str(path), "--out", str(out)])
            assert code == EXIT_VALIDATION
            assert "gain rate amp.g" in capsys.readouterr().err
            assert not out.exists()

    def test_run_refuses_a_single_trajectory(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=1))
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out),
                     "--trajectories", "1"])
        assert code == EXIT_VALIDATION
        assert "at least 2 trajectories" in capsys.readouterr().err
        assert not out.exists()

    def test_postselect_with_every_branch_skipped_exits_2(self, tmp_path,
                                                          capsys):
        out = tmp_path / "o"
        code = main(["postselect", "--scenario", "fig_condvar", "--out",
                     str(out), "--trajectories", "150"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        skipped = [line for line in err if line.startswith("skipped:")]
        assert len(skipped) == 2 * 5
        for x1 in ("0.5", "1", "2", "4", "6"):
            for branch in ("+1", "-1"):
                assert sum(f"x1={x1} branch={branch} n=" in line
                           for line in skipped) == 1
        assert err[-1].startswith("error:")
        assert not out.exists()

    def test_output_path_collision_exits_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=1))
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        code = main(["run", "--scenario", str(path), "--out", str(blocker),
                     "--trajectories", "200"])
        assert code == EXIT_IO
        assert "i/o error:" in capsys.readouterr().err


class TestCmdRun:
    def run_once(self, tmp_path, out_name="out", extra=()):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=SEED))
        out = tmp_path / out_name
        code = main(["run", "--scenario", str(path), "--out", str(out),
                     *extra])
        assert code == EXIT_OK
        return out

    def test_writes_three_csvs_with_provenance(self, tmp_path):
        out = self.run_once(tmp_path)
        for name in ("trajectories.csv", "marginals.csv", "summary.csv"):
            comments, header, rows = read_csv(out / name)
            assert comments[0].startswith("# scenario_sha256=")
            assert f"seed={SEED}" in comments[0]
            assert rows

    def test_summary_matches_closed_form_variances(self, tmp_path):
        out = self.run_once(tmp_path)
        _, header, rows = read_csv(out / "summary.csv")
        t = column(header, rows, "t")
        var_x = column(header, rows, "var_x")
        expected = column(header, rows, "var_x_expected")
        assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
        assert expected[0] == pytest.approx(2.0, rel=1e-9)
        assert expected[-1] == pytest.approx(1.0 + math.exp(2.0), rel=1e-9)
        for got, exp in zip(var_x, expected):
            assert got == pytest.approx(exp, rel=0.15)
        n_col = column(header, rows, "n", int)
        assert all(v == 2000 for v in n_col)

    def test_saved_paths_table_shape(self, tmp_path):
        out = self.run_once(tmp_path)
        _, header, rows = read_csv(out / "trajectories.csv")
        assert header == ["traj_id", "t", "x", "p"]
        assert len(rows) == 10 * 5
        ids = column(header, rows, "traj_id", int)
        assert sorted(set(ids)) == list(range(10))

    def test_reruns_and_threads_are_byte_identical(self, tmp_path):
        out_a = self.run_once(tmp_path, "a")
        out_b = self.run_once(tmp_path, "b")
        out_c = self.run_once(tmp_path, "c", extra=("--threads", "2"))
        for name in ("trajectories.csv", "marginals.csv", "summary.csv"):
            # Compared as booleans: pytest's diff of two large byte
            # strings would take minutes to render on a mismatch.
            ref = (out_a / name).read_bytes()
            same_b = (out_b / name).read_bytes() == ref
            same_c = (out_c / name).read_bytes() == ref
            assert same_b
            assert same_c
        # Every command over three chunks: one thread and three threads
        # write the same bytes.
        single = write_scenario(tmp_path, SQUEEZED.format(seed=SEED),
                                "single.scenario")
        pair = write_scenario(tmp_path, TWO_MODE.format(x1b=2.0, n=100,
                                                        seed=SEED),
                              "pair.scenario")
        for cmd, path in (("run", single), ("born", single),
                          ("postselect", single), ("collapse", pair)):
            outs = [tmp_path / f"{cmd}_{threads}" for threads in (1, 3)]
            for out, threads in zip(outs, (1, 3)):
                assert main([cmd, "--scenario", str(path), "--out", str(out),
                             "--trajectories", str(2 * CHUNK + 1),
                             "--threads", str(threads)]) == EXIT_OK
            names = sorted(p.name for p in outs[0].iterdir())
            assert names == sorted(p.name for p in outs[1].iterdir())
            for name in names:
                same = ((outs[1] / name).read_bytes()
                        == (outs[0] / name).read_bytes())
                assert same, (cmd, name)

    def test_seed_override_changes_output(self, tmp_path):
        out_a = self.run_once(tmp_path, "a")
        out_d = self.run_once(tmp_path, "d", extra=("--seed", str(SEED + 1)))
        assert (out_a / "summary.csv").read_bytes() \
            != (out_d / "summary.csv").read_bytes()

    def test_trajectory_override_is_recorded(self, tmp_path):
        out = self.run_once(tmp_path, "e", extra=("--trajectories", "500"))
        _, header, rows = read_csv(out / "summary.csv")
        assert column(header, rows, "n", int)[0] == 500

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n", [2, 5, CHUNK + 37])
    @pytest.mark.parametrize("kind", ["x", "p", "two_mode"])
    def test_tallies_write_the_values_of_whole_paths(self, tmp_path, kind,
                                                     n, threads):
        # The values a run wrote when each chunk's whole paths were
        # reduced: block sums and einsum over iter_chunks' paths, added
        # in chunk order, and the first N_SAVED_PATHS paths of chunk 0.
        text = {"x": SUPERPOSITION.format(gtf=1.0, n_steps=3, n=n, seed=SEED),
                "p": SUPERPOSITION.format(gtf=1.0, n_steps=3, n=n, seed=SEED)
                .replace("amp.g = 1.0\namp.gtf = 1.0",
                         "amp.g = -1.0\namp.gtf = -1.0"),
                "two_mode": TWO_MODE.format(x1b=2.0, n=n, seed=SEED)
                .replace("amp.n_steps = 1", "amp.n_steps = 3")}[kind]
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out),
                     "--threads", str(threads)]) == EXIT_OK
        sc = load_scenario(str(path))
        state, amp = build_state(sc)
        total = total_sq = 0.0
        for lo, _, arrays in iter_chunks(state, amp, n, SEED, 1):
            total = total + np.array([a.sum(axis=0) for a in arrays])
            total_sq = total_sq + np.array(
                [np.einsum("ij,ij->j", a, a) for a in arrays])
            if lo == 0:
                saved = [a[:N_SAVED_PATHS].copy() for a in arrays]
        mean = total / n
        var = (total_sq - n * mean * mean) / (n - 1)
        _, header, rows = read_csv(out / "summary.csv")
        names = header[2:-2:2]
        assert len(names) == len(saved) == (4 if kind == "two_mode" else 2)
        for i, name in enumerate(h[len("mean_"):] for h in names):
            assert column(header, rows, f"mean_{name}", str) \
                == [_fmt(v) for v in mean[i]]
            assert column(header, rows, f"var_{name}", str) \
                == [_fmt(v) for v in var[i]]
        _, header, rows = read_csv(out / "trajectories.csv")
        assert len(rows) == min(n, N_SAVED_PATHS) * (amp.n_steps + 1)
        for i, name in enumerate(header[2:]):
            assert column(header, rows, name, str) \
                == [_fmt(v) for v in saved[i].ravel()]

    def test_run_never_holds_a_chunk_of_paths(self, tmp_path):
        # One coordinate's paths over one fig_sup chunk: 8,192 x 301
        # doubles, 18.8 MB.  Tallied rows keep the peak far below it.
        tracemalloc.start()
        try:
            code = main(["run", "--scenario", "fig_sup", "--out",
                         str(tmp_path), "--trajectories", "20000",
                         "--threads", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < CHUNK * 301 * 8 / 4

    def test_two_mode_run_has_meter_columns(self, tmp_path):
        path = write_scenario(tmp_path, TWO_MODE.format(x1b=2.0, n=1500,
                                                        seed=SEED))
        out = tmp_path / "tm"
        assert main(["run", "--scenario", str(path), "--out",
                     str(out)]) == EXIT_OK
        _, header, rows = read_csv(out / "trajectories.csv")
        assert header == ["traj_id", "t", "x", "p", "x_b", "p_b"]
        _, sheader, srows = read_csv(out / "summary.csv")
        assert "var_x_b" in sheader
        _, mheader, mrows = read_csv(out / "marginals.csv")
        axes = set(column(mheader, mrows, "axis", str))
        assert axes == {"x", "p", "x_b", "p_b"}


@pytest.fixture(scope="module")
def born_out(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("born")
    path = write_scenario(
        tmp_path, SUPERPOSITION.format(gtf=6.0, n_steps=2, n=20000,
                                       seed=SEED))
    out = tmp_path / "out"
    assert main(["born", "--scenario", str(path), "--out",
                 str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("post")
    path = write_scenario(
        tmp_path, SUPERPOSITION.format(gtf=2.0, n_steps=1, n=20000,
                                       seed=SEED))
    out = tmp_path / "out"
    assert main(["postselect", "--scenario", str(path), "--out",
                 str(out)]) == EXIT_OK
    _, header, rows = read_csv(out / "postselect.csv")
    return header, rows


class TestCmdBorn:
    def test_both_bases_reported(self, born_out):
        comments, header, rows = read_csv(born_out / "born_check.csv")
        bases = column(header, rows, "basis", str)
        assert bases.count("x") == 100
        assert bases.count("p") == 100
        assert any("basis=x max_z=" in c and "basis=p max_z=" in c
                   for c in comments)

    def test_expected_density_matches_the_projective_forms(self, born_out):
        _, header, rows = read_csv(born_out / "born_check.csv")
        spec = SuperpositionSpec(ModeSpec(2.0, 0.0),
                                 c1_mag=1 / math.sqrt(2),
                                 c2_mag=1 / math.sqrt(2),
                                 phase_phi=0.5 * math.pi)
        for basis, target in (("x", born_x(spec)), ("p", born_p(spec))):
            sel = [r for r in rows if r[header.index("basis")] == basis]
            centers = np.array(column(header, sel, "center"))
            widths = np.array(column(header, sel, "width"))
            expected = np.array(column(header, sel, "expected_density"))
            edges = np.append(centers - 0.5 * widths,
                              centers[-1] + 0.5 * widths[-1])
            masses = target.bin_masses(edges) / widths
            np.testing.assert_allclose(expected, masses, rtol=1e-6)

    def test_counts_and_scores_are_sane(self, born_out):
        _, header, rows = read_csv(born_out / "born_check.csv")
        counts = column(header, rows, "count", int)
        assert sum(counts) <= 2 * 20000
        z = np.array(column(header, rows, "z"))
        assert np.all(np.isfinite(z))
        assert float(np.max(np.abs(z))) < 6.0

    @staticmethod
    def gathered_lines(sc, threads):
        """born_check.csv's lines by the gathered formula: concatenate
        the chunks, sort a copy, take the whole-array CDF."""
        state, _ = build_state(sc)
        rate, t_final = abs(sc.g), abs(sc.t_final)
        stats, lines = [], []
        for block, basis in ((0, "x"), (1, "p")):
            amp = AmplifierSpec(rate if basis == "x" else -rate, t_final, 1)
            chunks = iter_chunks(state, amp, sc.trajectories, sc.seed, threads,
                                 stream_offset=block * _STREAM_BLOCK,
                                 _through=1)
            scaled = (np.concatenate([a[0][:, -1] for _, _, a in chunks])
                      / math.exp(rate * t_final))
            target = born_x(state) if basis == "x" else born_p(state)
            s, n = np.sort(scaled), len(scaled)
            grid = np.linspace(*target.support_hint(12.0), 20001)
            cdfv = np.concatenate([[0.0], np.cumsum(
                target.bin_masses(grid, order=8))])
            cdf = np.interp(s, grid, cdfv, left=0.0,
                            right=cdfv[-1]) / target.total_mass()
            i = np.arange(1, n + 1)
            ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
            hist = histogram(scaled, np.linspace(
                *target.support_hint(4.0), N_BORN_BINS + 1))
            max_z = compare_density(hist, target).max_z
            stats.append(f"basis={basis} max_z={_fmt(max_z)} ks={_fmt(ks)}")
            expected = target.bin_masses(hist.edges) / hist.widths
            for row in zip(hist.centers, hist.widths, hist.counts,
                           hist.density, expected,
                           bin_z_scores(hist, target)):
                lines.append(",".join(map(_fmt, (basis,) + row)))
        return ["# " + "  ".join(stats)] + lines

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK + 37])
    def test_equals_the_gathered_formula(self, tmp_path, n, threads):
        sc = replace(load_scenario("fig_born_x"), trajectories=n)
        assert main(["born", "--scenario", "fig_born_x", "--out",
                     str(tmp_path), "--trajectories", str(n),
                     "--threads", str(threads)]) == EXIT_OK
        lines = (tmp_path / "born_check.csv").read_text().splitlines()
        assert lines[1:2] + lines[3:] == self.gathered_lines(sc, threads)

    def test_holds_one_column_of_records(self, tmp_path):
        n = 1_000_000
        main(["born", "--scenario", "fig_born_x", "--out", str(tmp_path),
              "--trajectories", "10"])  # compile the samplers first
        tracemalloc.start()
        try:
            code = main(["born", "--scenario", "fig_born_x", "--out",
                         str(tmp_path), "--trajectories", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        # The gathered records, their scaled and sorted copies and a
        # whole-array CDF peaked at 26 MB.
        assert peak < 8 * n + 6e6

    def test_no_record_in_range_exits_2(self, tmp_path, capsys):
        # This seed puts the single p record below the 4-sigma range.
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["born", "--scenario", "fig_born_x", "--out",
                         str(out), "--trajectories", "1", "--seed", "1733"])
        assert code == EXIT_VALIDATION
        assert "no p record lies within 4 sigma (1 below, 0 above)" \
            in capsys.readouterr().err
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert not out.exists()


class TestCmdPostselect:
    def test_skipped_branches_are_reported(self, tmp_path, capsys):
        # One packet at +x1: far from the origin its minus branch is empty.
        path = write_scenario(tmp_path, SQUEEZED.format(seed=SEED))
        out = tmp_path / "o"
        assert main(["postselect", "--scenario", str(path), "--out",
                     str(out)]) == EXIT_OK
        skipped = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("skipped:")]
        assert skipped
        assert all("branch=-1 n=" in line for line in skipped)
        _, header, rows = read_csv(out / "postselect.csv")
        assert len(rows) + len(skipped) == 2 * 5
        assert all(n >= 100 for n in column(header, rows, "n", int))

    def test_sweep_covers_both_branches(self, sweep_rows):
        header, rows = sweep_rows
        x1s = column(header, rows, "x1")
        branches = column(header, rows, "branch", int)
        assert sorted(set(x1s)) == [0.5, 1.0, 2.0, 4.0, 6.0]
        assert set(branches) == {+1, -1}
        assert len(rows) == 10
        n = column(header, rows, "n", int)
        assert all(v >= 100 for v in n)

    def test_momentum_variance_matches_closed_form(self, sweep_rows):
        header, rows = sweep_rows
        half = 1 / math.sqrt(2)
        for row in rows:
            x1 = float(row[header.index("x1")])
            got = float(row[header.index("observed_var_p")])
            err = float(row[header.index("var_p_err")])
            spec = SuperpositionSpec(ModeSpec(x1, 0.0), c1_mag=half,
                                     c2_mag=half, phase_phi=0.5 * math.pi)
            expected = variances_postselected_analytic(spec).observed_var_p
            assert got == pytest.approx(expected, abs=8 * max(err, 1e-3))

    def test_products_are_finite_and_flagged(self, sweep_rows):
        header, rows = sweep_rows
        eps = column(header, rows, "epsilon")
        flags = column(header, rows, "negative_variance", int)
        for e, f in zip(eps, flags):
            assert (f == 1) == math.isnan(e)


class TestCmdCollapse:
    def run_collapse(self, tmp_path, x1b, n=20000):
        path = write_scenario(tmp_path, TWO_MODE.format(x1b=x1b, n=n,
                                                        seed=SEED))
        out = tmp_path / f"out_{x1b}"
        assert main(["collapse", "--scenario", str(path), "--out",
                     str(out)]) == EXIT_OK
        _, header, rows = read_csv(out / "meter_corr.csv")
        table = {r[header.index("quantity")]: float(r[header.index("value")])
                 for r in rows}
        return out, table

    def test_strong_meter_pins_the_branch(self, tmp_path):
        out, table = self.run_collapse(tmp_path, x1b=6.0)
        assert table["sign_agreement"] > 0.99
        assert table["n_plus"] + table["n_minus"] == 20000
        assert 0.9 < table["w_plus_bar"] <= 1.0
        assert table["grid_mass"] == pytest.approx(1.0, abs=0.05)
        assert table["mean_x"] == pytest.approx(1.0, abs=0.05)
        _, header, rows = read_csv(out / "inferred_state.csv")
        assert header == ["x", "p", "density"]
        assert len(rows) == 100 * 100
        dens = column(header, rows, "density")
        assert min(dens) >= -1e-12

    def test_weak_meter_decorrelates(self, tmp_path):
        _, table = self.run_collapse(tmp_path, x1b=0.2)
        assert table["sign_agreement"] < 0.9

    def test_tiny_branch_is_refused_by_name(self, tmp_path, capsys):
        # Twelve records leave fewer than one per batch in the + branch.
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["collapse", "--scenario", "fig_infer_eig", "--out",
                         str(out), "--trajectories", "12"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert re.search(r"\b\d+ samples in branch; need at least 100", err)
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert not out.exists()


class TestEndpointCommands:
    """born, postselect and collapse read only t = 0 and t_final, which
    one exact relaxation step yields; amp.n_steps does not reach them."""

    @pytest.mark.parametrize("cmd", ["born", "postselect", "collapse"])
    def test_output_ignores_n_steps(self, tmp_path, cmd):
        outs = []
        for n_steps in (2, 7):
            if cmd == "collapse":
                text = TWO_MODE.format(x1b=2.0, n=2000, seed=SEED).replace(
                    "amp.n_steps = 1", f"amp.n_steps = {n_steps}")
            else:
                text = SUPERPOSITION.format(gtf=2.0, n_steps=n_steps, n=2000,
                                            seed=SEED)
            path = write_scenario(tmp_path, text, f"s{n_steps}.scenario")
            out = tmp_path / f"{cmd}_{n_steps}"
            assert main([cmd, "--scenario", str(path), "--out",
                         str(out)]) == EXIT_OK
            outs.append((out, load_scenario(str(path)).digest))
        (out_a, digest_a), (out_b, digest_b) = outs
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            # The provenance line names each scenario file's own digest.
            got = (out_b / name).read_text(encoding="utf-8")
            same = got.replace(digest_b, digest_a) \
                == (out_a / name).read_text(encoding="utf-8")
            assert same, name

    def test_collapse_counts_are_the_api_selection(self, tmp_path):
        sc = load_scenario("fig_entmeter1")
        out = tmp_path / "collapse"
        assert main(["collapse", "--scenario", "fig_entmeter1", "--out",
                     str(out), "--trajectories", "20000"]) == EXIT_OK
        _, header, rows = read_csv(out / "meter_corr.csv")
        table = dict(zip(column(header, rows, "quantity", str),
                         column(header, rows, "value", str)))
        state, _ = build_state(sc)
        ens = simulate_two_mode(state, AmplifierSpec(sc.g, sc.t_final, 1),
                                20000, sc.seed)
        plus, minus = bin_by_sign(ens, mode="b")
        assert int(table["n_plus"]) == plus.n
        assert int(table["n_minus"]) == minus.n
        assert table["sign_agreement"] == format(meter_sign_agreement(ens),
                                                 ".10g")

    def test_postselect_counts_are_the_api_selection(self, tmp_path):
        sc = load_scenario("fig_condvar")
        out = tmp_path / "postselect"
        assert main(["postselect", "--scenario", "fig_condvar", "--out",
                     str(out), "--trajectories", "20000"]) == EXIT_OK
        _, header, rows = read_csv(out / "postselect.csv")
        # The first sweep point draws from stream offset 0.
        x1 = min(column(header, rows, "x1"))
        counts = {b: n for v, b, n in zip(column(header, rows, "x1"),
                                          column(header, rows, "branch", int),
                                          column(header, rows, "n", int))
                  if v == x1}
        state, amp = build_state(replace(sc, x1=x1))
        ens = simulate_single_mode(state, replace(amp, n_steps=1), 20000,
                                   sc.seed, sc.boundary)
        plus, minus = bin_by_sign(ens)
        assert counts == {+1: plus.n, -1: minus.n}


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        exe = shutil.which("qtraj")
        assert exe is not None, "qtraj console script is not installed"
        path = write_scenario(tmp_path, SQUEEZED.format(seed=SEED))
        out = tmp_path / "cli_out"
        proc = subprocess.run(
            [exe, "run", "--scenario", str(path), "--out", str(out),
             "--trajectories", "300"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "summary.csv").exists()
