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
import time
import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import digest_outputs
import traffic_map
from conftest import stage1_sums
from qtraj.analytic import (born_p, born_x, marginal_x, q_single_mode,
                            two_mode_q, variances_postselected_analytic)
from qtraj.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    N_BORN_BINS,
    SWEEP_X1,
    ScenarioFileError,
    _KEYS,
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
from qtraj.sampler import RngStream
from qtraj.sde_engine import (CHUNK, N_SAVED_PATHS, grid_sums, iter_chunks,
                               n_chunks, simulate_single_mode,
                               simulate_two_mode)
from qtraj.stats import (bin_z_scores, compare_density, histogram, ks_critical,
                         ks_statistic)

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

BORN_X_TEXT = (resources.files("qtraj") / "scenarios"
               / "fig_born_x.scenario").read_text(encoding="utf-8")
# A squeezed packet at x1 = 3 under amp.gtf = 6.
SQUEEZED_3_TEXT = (SQUEEZED.format(seed=5)
                   .replace("state.x1 = 1.0", "state.x1 = 3")
                   .replace("amp.gtf = 1.0", "amp.gtf = 6"))

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
        assert len(sc.digest) == 64
        state, amp = build_state(sc)
        assert isinstance(state, SuperpositionSpec)
        assert amp.n_steps == 10

    def test_defaults(self):
        sc = parse_scenario_text(SQUEEZED.format(seed=1)
                                 .replace("amp.n_steps = 4\n", ""),
                                 "case")
        assert sc.n_steps == 300
        assert sc.phi is None
        state, _ = build_state(sc)
        assert isinstance(state, ModeSpec)
        # A pair holds only equal amplitudes.
        pair = parse_scenario_text(TWO_MODE.format(x1b=2.0, n=10, seed=1),
                                   "case")
        assert pair.c1_sq == 0.5

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
        with pytest.raises(ScenarioFileError,
                           match=r"case:9: unknown key 'state.bogus'"):
            parse_scenario_text(text, "case")

    def test_bad_boundary(self):
        # run.boundary is no key: the final-time position boundary is
        # always the amplified marginal, so any value is refused by name.
        for value in ("magic", "wigner"):
            text = SQUEEZED.format(seed=1) + f"run.boundary = {value}\n"
            with pytest.raises(ScenarioFileError,
                               match=r"case:9: unknown key 'run.boundary'"):
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
        pair = TWO_MODE.format(x1b=2.0, n=10, seed=1)
        for text, kind, key in (
                (SQUEEZED.format(seed=1), "squeezed", "meter.x1b"),
                (pair, "two_mode", "state.c1_sq")):
            with pytest.raises(ScenarioFileError,
                               match=f"not applicable.*{kind}.*{key}"):
                parse_scenario_text(text + f"{key} = 0.5\n", "case")

    def test_bad_value(self):
        text = SQUEEZED.format(seed=1).replace("state.x1 = 1.0",
                                               "state.x1 = abc")
        with pytest.raises(ScenarioFileError, match="bad value.*state.x1"):
            parse_scenario_text(text, "case")

    @pytest.mark.parametrize("key", sorted(_KEYS))
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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        # Streams keep 64 bits of a seed: -1 drew the streams of
        # 2**64 - 1, and 2**64 those of 0.
        out = tmp_path / "o"
        path = write_scenario(tmp_path, SQUEEZED.format(seed=1))
        assert main(["born", "--scenario", str(path), "--out", str(out),
                     "--seed", str(seed)]) == EXIT_VALIDATION
        assert "--seed must lie in [0, 2**64)" in capsys.readouterr().err
        bad = write_scenario(tmp_path, SQUEEZED.format(seed=seed), "b.s")
        assert main(["born", "--scenario", str(bad), "--out",
                     str(out)]) == EXIT_VALIDATION
        assert "b: run.seed must lie in [0, 2**64)" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_at_the_64_bit_edges_run(self, tmp_path):
        path = write_scenario(tmp_path, SQUEEZED.format(seed=2 ** 64 - 1))
        for seed in ("0", str(2 ** 64 - 1)):
            assert main(["born", "--scenario", str(path), "--out",
                         str(tmp_path / seed), "--seed", seed]) == EXIT_OK
        assert main(["born", "--scenario", str(path), "--out",
                     str(tmp_path / "file")]) == EXIT_OK

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
        # Up to N_SAVED_PATHS trajectories every summary row is the saved
        # paths' mean and variance.  Above it the other paths' sums come
        # from their exact law, so only the amplified coordinates' t_final
        # values, drawn before any relaxation, are still those of the
        # stage-1 ends: their sums, added in chunk order, and first values.
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
        _, saved = grid_sums(state, amp, n, SEED, 1)
        total = np.array([(p.sum(axis=1), np.einsum("ij,ij->i", p, p))
                          for p in saved])
        ends, first = stage1_sums(state, amp, n, SEED)
        amplified = {"x": ("x",), "p": ("p",),
                     "two_mode": ("x", "x_b")}[kind]

        def moments(sums, squares):
            mean = sums / n
            return mean, (squares - n * mean * mean) / (n - 1)

        _, header, rows = read_csv(out / "summary.csv")
        names = [h[len("mean_"):] for h in header[2:-2:2]]
        assert len(names) == len(saved) == (4 if kind == "two_mode" else 2)
        for i, name in enumerate(names):
            got_mean = column(header, rows, f"mean_{name}", str)
            got_var = column(header, rows, f"var_{name}", str)
            if n <= N_SAVED_PATHS:
                mean, var = moments(*total[i])
                assert got_mean == [_fmt(v) for v in mean]
                assert got_var == [_fmt(v) for v in var]
            if name in amplified:
                mean, var = moments(*ends[amplified.index(name)])
                assert got_mean[-1] == _fmt(mean)
                assert got_var[-1] == _fmt(var)
            assert np.isfinite([float(v) for v in got_mean]).all()
            assert all(0.0 <= float(v) < math.inf for v in got_var)
        _, header, rows = read_csv(out / "trajectories.csv")
        assert len(rows) == min(n, N_SAVED_PATHS) * (amp.n_steps + 1)
        for i, name in enumerate(header[2:]):
            got = column(header, rows, name, str)
            assert got == [_fmt(v) for v in saved[i].T.ravel()]
            if name in amplified:
                assert got[amp.n_steps::amp.n_steps + 1] \
                    == [_fmt(v) for v in first[amplified.index(name)]]

    @pytest.mark.parametrize("n", [2, 3, 11, 12, CHUNK + 1, CHUNK + 2,
                                   CHUNK + 37])
    def test_edge_counts_write_finite_variances(self, tmp_path, n):
        # The run saves N_SAVED_PATHS paths and draws the sums of the
        # other 0, 0, 1 and 2 from their law; the last three end on a
        # chunk of 1, 2 and 37 trajectories.  Reruns and 3 threads write
        # the same bytes.
        path = write_scenario(tmp_path, TWO_MODE.format(x1b=2.0, n=n,
                                                        seed=SEED)
                              .replace("amp.n_steps = 1", "amp.n_steps = 3"))
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out, threads in zip(outs, (1, 1, 3)):
            assert main(["run", "--scenario", str(path), "--out", str(out),
                         "--threads", str(threads)]) == EXIT_OK
        _, header, rows = read_csv(outs[0] / "summary.csv")
        assert column(header, rows, "n", int) == [n] * 4
        for name in header:
            if name.startswith("var_") and not name.endswith("_expected"):
                assert all(0.0 <= v < math.inf
                           for v in column(header, rows, name))
        for name in ("trajectories.csv", "summary.csv"):
            ref = (outs[0] / name).read_bytes()
            assert all((out / name).read_bytes() == ref for out in outs[1:])

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

    @pytest.mark.parametrize("cmd,name", [("postselect", "fig_condvar"),
                                          ("collapse", "fig_infer_eig")])
    def test_records_commands_hold_no_branch(self, tmp_path, cmd, name):
        # Each block of 8 chunks is selected, looped and reduced, then
        # dropped: 4x the trajectories, the same peak from 2 blocks on.  A
        # gathered branch grows it by 8 B per record and column.
        main([cmd, "--scenario", name, "--out", str(tmp_path / "warm"),
              "--trajectories", "1000"])  # compile each density first
        peaks = []
        for n in (2 * 8 * CHUNK, 8 * 8 * CHUNK):
            tracemalloc.start()
            try:
                code = main([cmd, "--scenario", name, "--out",
                             str(tmp_path / str(n)), "--trajectories", str(n),
                             "--threads", "1"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        assert peaks[1] < 1.1 * peaks[0]

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


class TestRunLaw:
    """``run``'s summary.csv against the closed-form moments, whole pipeline.

    Each shipped scenario runs at ``N`` trajectories and ``STEPS`` steps
    under ``SEEDS`` seeds.  At every grid time, the seeds' average of each
    ``mean_*`` and ``var_*`` cell is held to ``joint.moments`` within 5
    standard errors of that average, taken from the seeds' spread.
    """

    N, STEPS, SEEDS = 24, 10, 50

    @pytest.mark.parametrize("name", ["fig_sup", "fig_entmeter1"])
    def test_summary_holds_the_closed_form_moments(self, tmp_path, name):
        text = (resources.files("qtraj") / "scenarios" / f"{name}.scenario"
                ).read_text(encoding="utf-8")
        path = write_scenario(tmp_path, re.sub(
            r"amp\.n_steps = \d+", f"amp.n_steps = {self.STEPS}", text))
        cells = []
        for seed in range(SEED, SEED + self.SEEDS):
            out = tmp_path / str(seed)
            assert main(["run", "--scenario", str(path), "--out", str(out),
                         "--trajectories", str(self.N),
                         "--seed", str(seed)]) == EXIT_OK
            _, header, rows = read_csv(out / "summary.csv")
            cells.append([[float(v) for v in row[2:-2]] for row in rows])
        cells = np.array(cells)  # (seed, grid time, mean and var of each)
        state, amp = build_state(load_scenario(str(path)))
        law = two_mode_q if isinstance(state, TwoModeSpec) else q_single_mode
        want = np.array([[m for axis in range(cells.shape[2] // 2)
                          for m in law(state, amp, t).moments(axis)]
                         for t in amp.grid])
        se = cells.std(axis=0, ddof=1) / math.sqrt(self.SEEDS)
        z = (cells.mean(axis=0) - want) / se
        assert cells.shape == (self.SEEDS, self.STEPS + 1, len(want[0]))
        assert np.abs(z).max() < 5.0, np.unravel_index(np.abs(z).argmax(),
                                                       z.shape)


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
            total = target.total_mass()
            grid = np.linspace(*target.support_hint(12.0), 20001)
            cdfv = target.cdf(grid)
            cdf = np.interp(s, grid, cdfv, left=0.0, right=cdfv[-1])
            # Exact where a cell's interpolation may err by more than
            # ks_critical(n) / 100: by its mass, or by h^2 / 8 times the
            # largest slope of its terms.
            slope = target.norm * sum(
                abs(w) * (math.exp(-0.5) / v + abs(k) / math.sqrt(v))
                for w, _, v, k, _ in target._terms()) / math.sqrt(2 * math.pi)
            bound = np.diff(cdfv, prepend=0.0, append=total)
            bound[1:-1] = np.minimum(bound[1:-1],
                                     (grid[1] - grid[0]) ** 2 / 8 * slope)
            exact = (bound > ks_critical(n) / 100 * total)[
                np.searchsorted(grid, s, side="right")]
            cdf[exact] = target.cdf(s[exact])
            cdf /= total
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

    def test_x_ks_at_high_squeezing_is_the_finite_gain(self):
        # born's x basis reads its records against the infinite-gain
        # born_x.  At state.r = 8 (gtf = 6) the records' variance is
        # e^-2r + e^-2gtf, so they are far from born_x but true to the
        # finite-gain twin: the large KS is physics, not the CDF table.
        sc = replace(load_scenario("fig_born_x"), r=8.0, trajectories=20000)
        state, _ = build_state(sc)
        amp = AmplifierSpec(sc.g, sc.t_final, 1)
        records = np.concatenate([a[0][:, -1] for _, _, a in iter_chunks(
            state, amp, sc.trajectories, sc.seed, 1, _through=1)])
        records /= math.exp(sc.gtf)
        twin = marginal_x(state, amp, sc.t_final).scaled("x", math.exp(sc.gtf))
        critical = ks_critical(sc.trajectories)
        assert ks_statistic(records, born_x(state)) > 10 * critical
        assert ks_statistic(records, twin) < critical

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
        # At state.r = -40 the p target is about e^-40 wide, so the records
        # fall on both sides of its window and more of them cannot help.
        quarter = SUPERPOSITION.format(gtf=3.0, n_steps=1, n=2000, seed=SEED)
        out = tmp_path / "r-40"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["born", "--scenario", str(write_scenario(
                tmp_path, quarter.replace("state.r = 0.0", "state.r = -40"))),
                "--out", str(out), "--trajectories", "20000"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert ("above); the p target is far narrower than the records at "
                "state.r = -40") in err and "run.trajectories" not in err, err
        assert not caught, [str(w.message) for w in caught]
        assert not out.exists()

    @pytest.mark.parametrize("text,r", [
        *((BORN_X_TEXT.replace("state.r = 0\n", "state.r = {r}\n"), r)
          for r in ("6", "8", "12", "40")),
        *((SQUEEZED_3_TEXT.replace("state.r = 0.0", "state.r = {r}"), r)
          for r in ("5.3", "8", "10", "12"))])
    def test_high_squeezing_is_binned_exactly(self, tmp_path, text, r):
        # Each basis used to be refused past the bin quadrature's reach
        # (fig_born_x from state.r = 5, the squeezed packet from 5.3).
        # Exact masses need no such limit; no basis holds all of its
        # target's mass in one bin.
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["born", "--scenario", str(write_scenario(
                tmp_path, text.format(r=r))), "--out", str(out),
                "--trajectories", "20000"])
        assert code == EXIT_OK
        assert not caught, [str(w.message) for w in caught]
        assert _non_finite(out / "born_check.csv") == []
        _, header, rows = read_csv(out / "born_check.csv")
        for basis in ("x", "p"):
            expected = [float(row[header.index("expected_density")])
                        for row in rows if row[0] == basis]
            assert sum(e > 0.0 for e in expected) > 1, basis

    @pytest.mark.parametrize("text,said", [
        (SQUEEZED.format(seed=1).replace("state.r = 0.0", "state.r = 40"),
         "born: the x target is narrower than its bins resolve at state.r "
         "= 40: its bin edges coincide"),
        (SUPERPOSITION.format(gtf=6.0, n_steps=1, n=20000, seed=SEED)
         .replace("state.x1 = 2.0", "state.x1 = 3").replace(
             "state.r = 0.0", "state.r = 8\nstate.c1_sq = 1e-300"),
         "born: the x target is narrower than its bins resolve at state.r "
         "= 8: one bin holds all of its mass")])
    def test_a_target_in_one_bin_is_refused(self, tmp_path, capsys, text,
                                            said):
        # One packet e^-40 wide at x1 = 1 spans no floating-point step, and
        # a packet of weight 1e-300 widens the window of the other to bins
        # wider than it: max_z would read 0.
        out = tmp_path / "o"
        code = main(["born", "--scenario", str(write_scenario(tmp_path, text)),
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert said in capsys.readouterr().err
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

    @pytest.mark.parametrize("n", [1, 150])
    def test_small_branch_names_the_key_to_raise(self, tmp_path, capsys, n):
        out = tmp_path / "o"
        code = main(["collapse", "--scenario", "fig_infer_eig", "--out",
                     str(out), "--trajectories", str(n)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(r"error: .*(samples in branch|no trajectories).*"
                            rf"; raise run\.trajectories \(now {n}\)", err)
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
                                   sc.seed)
        plus, minus = bin_by_sign(ens)
        assert counts == {+1: plus.n, -1: minus.n}


QUARTER_CAT = {"state.kind": "superposition", "state.x1": "2",
               "state.r": "0", "state.phi": "pi/2", "amp.g": "1",
               "amp.gtf": "3", "amp.n_steps": "20",
               "run.trajectories": "2000", "run.seed": str(SEED)}
PAIR = dict(QUARTER_CAT, **{"state.kind": "two_mode", "meter.x1b": "3",
                            "meter.r2": "0"})
SQUEEZED_MODE = dict(QUARTER_CAT, **{"state.kind": "squeezed",
                                     "state.phi": None})
# fig_born_x at this suite's size.
FIG_BORN_X = dict(QUARTER_CAT, **{"state.x1": "4", "state.phi": "0",
                                  "amp.gtf": "6", "amp.n_steps": "50"})
# Each changes one or two keys of a base (None drops a key).
EDGE_SCENARIOS = {
    "x1_small": (QUARTER_CAT, {"state.x1": "0.01"}),
    "x1_large": (QUARTER_CAT, {"state.x1": "50"}),
    "r_-40": (QUARTER_CAT, {"state.r": "-40"}),
    "r_-3": (QUARTER_CAT, {"state.r": "-3"}),
    "r_40": (QUARTER_CAT, {"state.r": "40"}),
    "c1_sq_0": (QUARTER_CAT, {"state.c1_sq": "0"}),
    "c1_sq_1": (QUARTER_CAT, {"state.c1_sq": "1"}),
    "phi_0": (QUARTER_CAT, {"state.phi": "0"}),
    "phi_pi": (QUARTER_CAT, {"state.phi": "pi"}),
    "g_negative": (QUARTER_CAT, {"amp.g": "-1", "amp.gtf": "-3"}),
    "gtf_tiny": (QUARTER_CAT, {"amp.gtf": "1e-12"}),
    "gtf_30": (QUARTER_CAT, {"amp.gtf": "30"}),
    "n_steps_1": (QUARTER_CAT, {"amp.n_steps": "1"}),
    "n_steps_0": (QUARTER_CAT, {"amp.n_steps": "0"}),
    "squeezed": (SQUEEZED_MODE, {}),
    "squeezed_r_40": (SQUEEZED_MODE, {"state.r": "40"}),
    "squeezed_x1_3_r_8": (SQUEEZED_MODE, {"state.x1": "3", "amp.gtf": "6",
                                          "state.r": "8"}),
    "born_x_r_6": (FIG_BORN_X, {"state.r": "6"}),
    "pair": (PAIR, {}),
    "pair_x1_small": (PAIR, {"state.x1": "0.1", "meter.x1b": "0.1"}),
    "pair_squeezed": (PAIR, {"state.r": "-3", "meter.r2": "3"}),
    "pair_x1_large": (PAIR, {"state.x1": "50", "meter.x1b": "50"}),
    "pair_phi_0": (PAIR, {"state.phi": "0"}),
    "pair_g_negative": (PAIR, {"amp.g": "-1", "amp.gtf": "-3"}),
    "pair_c1_sq": (PAIR, {"state.c1_sq": "0.3"}),
}


def _non_finite(csv_path):
    """The non-finite numbers of a CSV, but for a flagged epsilon."""
    comments, header, rows = read_csv(csv_path)
    cells = [tuple(field.split("=", 1)) for line in comments
             for field in line[1:].split()
             if not field.startswith("scenario_sha256=")]
    for row in rows:
        flagged = dict(zip(header, row)).get("negative_variance") == "1"
        cells += [(name, value) for name, value in zip(header, row)
                  if not (flagged and name in ("epsilon", "epsilon_err"))]
    bad = []
    for name, value in cells:
        try:
            if not math.isfinite(float(value)):
                bad.append((csv_path.name, name, value))
        except ValueError:  # a label such as a basis or a quantity name
            pass
    return bad


class TestScenarioSpace:
    """Every run ends in finite output or in a refusal that names a key."""

    @pytest.mark.parametrize("cmd", ["run", "born", "postselect",
                                     "collapse"])
    @pytest.mark.parametrize("name", sorted(EDGE_SCENARIOS))
    def test_finite_output_or_a_named_refusal(self, tmp_path, capsys, name,
                                              cmd):
        base, change = EDGE_SCENARIOS[name]
        keys = {k: v for k, v in {**base, **change}.items() if v is not None}
        path = write_scenario(tmp_path, "".join(f"{k} = {v}\n"
                                                for k, v in keys.items()))
        out = tmp_path / "o"
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([cmd, "--scenario", str(path), "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert not caught, [str(w.message) for w in caught]
        csvs = sorted(out.glob("*.csv"))
        if code == EXIT_VALIDATION:
            assert not csvs
            last = capsys.readouterr().err.splitlines()[-1]
            names = [*_KEYS, "--trajectories", "--seed", "--threads"]
            assert last.startswith("error: ")
            assert any(n in last for n in names), last
        else:
            assert code == EXIT_OK
            assert csvs
            assert [bad for p in csvs for bad in _non_finite(p)] == []


class TestDigestOutputs:
    def test_against_a_saved_digest(self, tmp_path, capsys):
        argv = ["fig_fb1", "--trajectories", "300"]
        assert digest_outputs.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "fig_fb1 run threads=1 exit=0"
        saved = tmp_path / "digest"
        saved.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv += ["--against", str(saved)]
        assert digest_outputs.main(argv) == 0
        assert capsys.readouterr().out == (f"{len(lines)} lines equal to "
                                           f"{saved}\n")
        # A line missing from the file and one only the file holds.
        saved.write_text("\n".join(lines[1:] + ["gone"]) + "\n",
                         encoding="utf-8")
        assert digest_outputs.main(argv) == 1
        out = capsys.readouterr().out.splitlines()
        assert f"+{lines[0]}" in out and "-gone" in out
        assert not [line for line in out if line[:1] in "+-"
                    and line[1:] in lines[1:]]


class TestTrafficMap:
    SAVED = ["sampler.py:_Envelope.propose",
             "   233  pts = self.mixture(rng, m)",
             "   234  return pts, self.proposal.density(*pts.T), 0.0",
             "cli.py:main",
             "   526  raise ScenarioFileError(\"--trajectories must be >= 1\")"]

    def test_moved_statements_are_equal(self, capsys):
        moved = ["sampler.py:_Envelope.propose",
                 "   240  pts = self.mixture(rng, m)",
                 "   241  return pts, self.proposal.density(*pts.T), 0.0",
                 "cli.py:main",
                 "   530  raise ScenarioFileError(\"--trajectories must be "
                 ">= 1\")"]
        assert traffic_map.compare(self.SAVED, moved, "saved") == 0
        assert capsys.readouterr().out == "3 statements equal to saved\n"

    def test_gone_and_new_statements_are_a_diff(self, capsys):
        # One statement gone, one new in another function, one that keeps
        # its text and line but moves to another function.
        now = ["sampler.py:_Envelope.propose",
               "   233  pts = self.mixture(rng, m)",
               "sampler.py:_Envelope.__init__",
               "   185  raise ValueError(f\"cannot sample\")",
               "cli.py:parse_scenario_text",
               "   526  raise ScenarioFileError(\"--trajectories must be "
               ">= 1\")"]
        assert traffic_map.compare(self.SAVED, now, "saved") == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["--- saved", "+++ this run"]
        changed = [line for line in out if line[:1] in "+-"][2:]
        assert sorted(changed) == sorted([
            "-sampler.py:_Envelope.propose  return pts, "
            "self.proposal.density(*pts.T), 0.0",
            "+sampler.py:_Envelope.__init__  raise ValueError(f\"cannot "
            "sample\")",
            "-cli.py:main  raise ScenarioFileError(\"--trajectories must "
            "be >= 1\")",
            "+cli.py:parse_scenario_text  raise ScenarioFileError("
            "\"--trajectories must be >= 1\")"])


class TestStreamLedger:
    """Every (seed, stream index) ``run`` and ``postselect`` draw from.

    The documented layout: chunk i of a phase at ``base + i``, ``run``'s
    saved paths and per-time sums at the one index 2**32, and
    ``postselect``'s loops of block j at ``base + 2**31 + j``, with
    separation k of the sweep at ``base = 2 * k * 2**32``.  No pair is
    drawn twice, and the thread count does not change the set.
    """

    N = 8 * CHUNK + 1  # nine chunks, two selection blocks of 8

    def ledger(self, monkeypatch, tmp_path, cmd, threads):
        drawn, generator = [], RngStream.generator

        def recorded(stream):
            drawn.append((stream.seed, stream.stream_index))
            return generator(stream)

        with monkeypatch.context() as patch:
            patch.setattr(RngStream, "generator", recorded)
            assert main([cmd, "--scenario", "fig_condvar", "--out",
                         str(tmp_path / f"{cmd}_{threads}"),
                         "--trajectories", str(self.N),
                         "--threads", str(threads)]) == EXIT_OK
        return drawn

    @pytest.mark.parametrize("cmd", ["run", "postselect"])
    def test_streams_follow_the_layout_once_each(self, monkeypatch,
                                                 tmp_path, cmd):
        seed = load_scenario("fig_condvar").seed
        chunks = range(n_chunks(self.N))
        if cmd == "run":
            want = {(seed, i) for i in chunks} | {(seed, 2**32)}
        else:
            x1 = load_scenario("fig_condvar").x1
            want = set()
            for k in range(len(set(SWEEP_X1) | {x1})):
                base = 2 * k * 2**32
                want |= {(seed, base + i) for i in chunks}
                want |= {(seed, base + 2**31 + j) for j in range(2)}
        for threads in (1, 2):
            drawn = self.ledger(monkeypatch, tmp_path, cmd, threads)
            assert len(drawn) == len(set(drawn)), "a stream drawn twice"
            assert set(drawn) == want


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
