"""Command line behavior: artifacts, exit codes, determinism."""

import json
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlclogic.cli as cli
from mlclogic.cli import main

FAST = ["--transient", "1.0", "--bit-duration", "2.0"]


def run(args):
    return main([str(a) for a in args])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
        code = run(
            ["simulate", "--gate", "OR", "--n-bits", 2, "--seed", 4]
            + FAST
            + ["--out", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "program.csv").exists()
        snapshot = json.loads((tmp_path / "config.json").read_text())
        assert snapshot["command"] == "simulate"
        assert snapshot["gate"] == "OR"
        assert snapshot["seed"] == 4
        assert snapshot["bias"] == 0.01  # resolved operating point
        assert snapshot["bit_duration"] == 2.0

    def test_trajectory_header(self, tmp_path):
        run(
            ["simulate", "--gate", "OR", "--n-bits", 1, "--seed", 1]
            + FAST
            + ["--out", tmp_path]
        )
        first = (tmp_path / "trajectory.csv").read_text().split("\n")[0]
        assert first == "t,x1,x2,I,F_det"

    def test_explicit_bits(self, tmp_path):
        code = run(
            ["simulate", "--gate", "OR", "--bits", "1,0,0,1", "--seed", 1]
            + FAST
            + ["--out", tmp_path]
        )
        assert code == 0
        prog = (tmp_path / "program.csv").read_text().strip().split("\n")
        assert prog == ["bit_index,ch1,ch2", "0,1,0", "1,0,1"]

    def test_divergence_exit_code(self, tmp_path):
        code = run(
            ["simulate", "--gate", "OR", "--n-bits", 1, "--seed", 1]
            + FAST
            + ["--divergence-bound", "0.5", "--out", tmp_path]
        )
        assert code == 3


class TestGate:
    def test_success_exit_zero(self, tmp_path):
        # a zero transient is valid: bit 0 starts at t = 0
        for timing in ([], ["--transient", 0]):
            code = run(
                [
                    "gate", "--gate", "OR", "--bits", "1,1,0,0",
                    "--seed", 2, "--out", tmp_path,
                ]
                + timing
            )
            assert code == 0
            outcome = json.loads((tmp_path / "outcome.json").read_text())
            assert outcome["success"] is True
            assert [b["decoded"] for b in outcome["bits"]] == [1, 0]

    def test_logic_failure_exit_one(self, tmp_path):
        # under the aligned protocol a mixed input is captured by the
        # positive well, so AND's expected 0 decodes as 1
        code = run(
            [
                "gate", "--gate", "AND", "--bits", "1,0",
                "--seed", 2, "--out", tmp_path,
            ]
        )
        assert code == 1
        outcome = json.loads((tmp_path / "outcome.json").read_text())
        assert outcome["success"] is False

    def test_unknown_gate_exit_two(self, tmp_path, capsys):
        code = run(["gate", "--gate", "XAND", "--out", tmp_path])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_bits_exit_two(self, tmp_path, capsys):
        # malformed bits and non-finite numbers are configuration
        # errors, reported without a traceback
        for bad in (
            ["--bits", "1,0,1"],
            ["--bits", ""],
            ["--dt", "nan"],
            ["--bit-duration", "inf"],
            ["--noise", "nan"],
            ["--bias", "nan"],
            ["--delta", "nan"],
            ["--divergence-bound", "nan"],
            ["--transient", "1e308"],
            ["--bit-duration", "1e308"],
        ):
            code = run(
                ["gate", "--gate", "OR", "--n-bits", 1, "--out", tmp_path]
                + bad
            )
            assert code == 2, bad
            assert "error:" in capsys.readouterr().err


class TestLatch:
    def test_success(self, tmp_path):
        code = run(
            [
                "latch", "--bits", "1,0,0,0,0,1", "--seed", 3,
                "--out", tmp_path,
            ]
        )
        assert code == 0
        result = json.loads((tmp_path / "latch.json").read_text())
        assert result["success"] is True
        assert result["complementary"] is True
        snapshot = json.loads((tmp_path / "config.json").read_text())
        assert snapshot["delta"] == 0.05

    def test_forbidden_pair_exit_two(self, tmp_path):
        code = run(
            ["latch", "--bits", "1,1", "--seed", 3, "--out", tmp_path]
        )
        assert code == 2


class TestSweep:
    def test_report_files(self, tmp_path):
        code = run(
            [
                "sweep", "--gate", "OR", "--axis", "noise",
                "--from", 0.0, "--to", 0.4, "--points", 2,
                "--sets", 2, "--runs", 1, "--bits-per-run", 2,
                "--seed", 6,
            ]
            + FAST
            + ["--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "axis_value,trials,successes,p_logic,ci_lo,ci_hi"
        assert len(lines) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["axis"] == "noise"

    def test_bad_points_exit_two(self, tmp_path, capsys):
        for grid in (
            [0.0, 1.0, 0],
            ["nan", "nan", 1],
            ["-1e308", "1e308", 2],
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(
                    [
                        "sweep", "--gate", "OR", "--axis", "noise",
                        f"--from={grid[0]}", "--to", grid[1],
                        "--points", grid[2],
                        "--sets", 1, "--runs", 1, "--bits-per-run", 1,
                        "--out", tmp_path,
                    ]
                )
            assert code == 2, grid
            assert not (tmp_path / "report.csv").exists()
            assert not [w for w in caught if w.category is RuntimeWarning]
            err = capsys.readouterr().err
        # the last span overflows: the message names the flags, not a nan
        assert "--from" in err and "nan" not in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            (("1", "0"), "strictly increasing"),
            (("-1", "0"), "noise_d must be >= 0"),
        ],
    )
    def test_rejected_grid_makes_no_directory(
        self, tmp_path, capsys, grid, message
    ):
        out = tmp_path / "o5"
        code = run(
            [
                "sweep", "--gate", "OR", "--axis", "noise",
                f"--from={grid[0]}", "--to", grid[1], "--points", 2,
                "--out", out,
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPhase:
    def test_writes_phase_csv(self, tmp_path):
        code = run(
            ["phase", "--gate", "XOR", "--n-bits", 2, "--seed", 8]
            + FAST
            + ["--out", tmp_path]
        )
        assert code == 0
        header = (tmp_path / "phase.csv").read_text().split("\n")[0]
        assert header == "x1,x2,bit_ch1,bit_ch2"


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"n_bits": 2, "bit_duration": 2.0, "transient": 1.0}
            )
        )
        out = tmp_path / "out"
        code = run(
            [
                "simulate", "--gate", "OR", "--config", cfg,
                "--seed", 5, "--out", out,
            ]
        )
        assert code == 0
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["n_bits"] == 2
        assert snapshot["bit_duration"] == 2.0

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_bits": 2, "seed": 1}))
        out = tmp_path / "out"
        code = run(
            [
                "simulate", "--gate", "OR", "--config", cfg, "--n-bits", 3,
                "--seed", 9,
            ]
            + FAST
            + ["--out", out]
        )
        assert code == 0
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["n_bits"] == 3
        assert snapshot["seed"] == 9

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        # an unknown key, and known keys with values of the wrong type,
        # each on top of an otherwise valid short run
        cfg = tmp_path / "run.json"
        fast = {"n_bits": 1, "bit_duration": 2.0, "transient": 1.0}
        for bad in (
            {"gain": 2.0},
            {"dt": "0.01"},
            {"bit_duration": "2.0"},
            {"settle_fraction": "0.5"},
            {"transient": None},
            {"n_bits": 2.5},
            {"seed": "x"},
            {"bits": 5},
            {"dt": 10**400},
            {"bias": 10**400},
        ):
            cfg.write_text(json.dumps({**fast, **bad}))
            for command in ("simulate", "gate"):
                code = run(
                    [command, "--gate", "OR", "--config", cfg, "--out", tmp_path]
                )
                assert code == 2, (command, bad)
                assert next(iter(bad)) in capsys.readouterr().err

    def test_file_supplies_the_gate(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "gate": "OR", "n_bits": 1,
                    "transient": 1.0, "bit_duration": 1.0,
                }
            )
        )
        out = tmp_path / "out"
        assert run(["gate", "--config", cfg, "--out", out]) in (0, 1)
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["gate"] == "OR"

    def test_file_supplies_the_sweep_grid(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "axis": "noise", "grid_from": 0, "grid_to": 0.001,
                    "points": 2, "sets": 1, "runs": 1, "bits_per_run": 1,
                    "transient": 1.0, "bit_duration": 1.0,
                }
            )
        )
        out = tmp_path / "out"
        code = run(["sweep", "--gate", "OR", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["axis"] == "noise"
        assert len(report["points"]) == 2

    @pytest.mark.parametrize(
        "argv, entries, named",
        [
            (["gate"], {"gate": None}, "--gate"),
            (
                ["sweep", "--gate", "OR", "--from", 0, "--to", 1,
                 "--points", 2],
                {"axis": "diagonal"},
                "axis",
            ),
        ],
    )
    def test_unset_or_bad_setting_writes_nothing(
        self, argv, entries, named, tmp_path, capsys
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "out"
        assert run(argv + ["--config", cfg, "--out", out]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_two(self, tmp_path):
        code = run(
            [
                "simulate", "--gate", "OR", "--config",
                tmp_path / "absent.json", "--out", tmp_path,
            ]
        )
        assert code == 2


class TestDeterminism:
    def rerun(self, tmp_path, args, files):
        out = tmp_path / "out"
        assert run(args + ["--out", out]) in (0, 1)
        first = {f: read_bytes(out / f) for f in files}
        assert run(args + ["--out", out]) in (0, 1)
        second = {f: read_bytes(out / f) for f in files}
        return first, second

    def test_simulate_noisy_byte_identical(self, tmp_path):
        args = (
            ["simulate", "--gate", "OR", "--n-bits", 2, "--seed", 12]
            + FAST
            + ["--noise", "0.2"]
        )
        first, second = self.rerun(
            tmp_path, args, ["trajectory.csv", "program.csv", "config.json"]
        )
        assert first == second

    def test_phase_noisy_byte_identical(self, tmp_path):
        args = (
            ["phase", "--gate", "XOR", "--n-bits", 2, "--seed", 4]
            + FAST
            + ["--noise", "0.2"]
        )
        first, second = self.rerun(
            tmp_path, args, ["phase.csv", "program.csv", "config.json"]
        )
        assert first == second

    def test_latch_noisy_byte_identical(self, tmp_path):
        args = (
            ["latch", "--bits", "1,0,0,0,0,1", "--seed", 3]
            + FAST
            + ["--noise", "0.2"]
        )
        first, second = self.rerun(
            tmp_path, args, ["latch.json", "program.csv", "config.json"]
        )
        assert first == second

    def test_gate_byte_identical(self, tmp_path):
        args = ["gate", "--gate", "OR", "--bits", "1,1,0,0", "--seed", 2]
        first, second = self.rerun(
            tmp_path, args, ["outcome.json", "program.csv", "config.json"]
        )
        assert first == second

    def test_different_seed_changes_program(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = ["simulate", "--gate", "OR", "--n-bits", 8] + FAST
        run(base + ["--seed", 1, "--out", out1])
        run(base + ["--seed", 2, "--out", out2])
        assert read_bytes(out1 / "program.csv") != read_bytes(
            out2 / "program.csv"
        )


# Each subcommand on a tiny run: the config file sets one 0.5-long bit
# with no transient, and a sweep has two points of one trial each. The
# drawn values below never ask for more than a few hundred steps.
# Each subcommand gets the file's keys for the settings it runs.
FUZZ_BASE = {
    "simulate": ["simulate", "--gate", "OR"],
    "gate": ["gate", "--gate", "OR"],
    "sweep": [
        "sweep", "--gate", "OR", "--axis", "noise",
        "--from", "0", "--to", "0.001", "--points", "2",
    ],
    "phase": ["phase", "--gate", "XOR"],
    "latch": ["latch"],
}
FUZZ_FILE = {
    "transient": 0, "bit_duration": 0.5, "n_bits": 1,
    "sets": 1, "runs": 1, "bits_per_run": 1,
}
FUZZ_FLAGS = [
    "--gate", "--seed", "--bias", "--forcing", "--noise", "--delta",
    "--bit-duration", "--transient", "--dt", "--stride",
    "--settle-fraction", "--agreement-threshold", "--divergence-bound",
    "--n-bits", "--bits", "--axis", "--from", "--to", "--points",
    "--sets", "--runs", "--bits-per-run",
]
FUZZ_FLAG_VALUES = [
    "nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "0.5", "1", "2",
    "abc", "", "1,0", "1,1", "OR", "SR_HIGH",
]
FUZZ_KEYS = list(cli._SETTINGS)
FUZZ_FILE_VALUES = [
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 0, -1, 0.5,
    1, 2, "abc", "1,0", None, True, False, [1], {},
]


def fuzz_file(command):
    names = cli._COMMANDS[command][1]
    return {k: v for k, v in FUZZ_FILE.items() if k in names}


class TestFuzz:
    """Any flag or config-file value ends in a documented exit code,
    never in a traceback."""

    @pytest.mark.parametrize("command", sorted(FUZZ_BASE))
    def test_every_input_ends_in_an_exit_code(self, command, tmp_path_factory):
        work = tmp_path_factory.mktemp(command)
        base_file = fuzz_file(command)
        cfg = work / "run.json"
        cfg.write_text(json.dumps(base_file))
        # with no draws, the base runs: the draws below test runs too
        argv = FUZZ_BASE[command] + ["--config", str(cfg)]
        assert main(argv + ["--out", str(work / "out")]) in (0, 1)

        @settings(max_examples=200, deadline=None, database=None)
        @given(
            flags=st.lists(
                st.tuples(
                    st.sampled_from(FUZZ_FLAGS),
                    st.sampled_from(FUZZ_FLAG_VALUES),
                ),
                max_size=2,
            ),
            entries=st.dictionaries(
                st.sampled_from(FUZZ_KEYS),
                st.sampled_from(FUZZ_FILE_VALUES),
                max_size=2,
            ),
        )
        def check(flags, entries):
            cfg.write_text(json.dumps({**base_file, **entries}))
            argv = FUZZ_BASE[command] + ["--config", str(cfg)]
            argv += [a for flag in flags for a in flag]
            try:
                code = main(argv + ["--out", str(work / "out")])
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 1, 2, 3), argv
            assert code != 1 or command in ("gate", "latch"), argv

        check()


class TestSettingsPerCommand:
    """Each subcommand takes, checks and records only the settings it
    runs."""

    @pytest.mark.parametrize("command", sorted(FUZZ_BASE))
    def test_snapshot_records_the_settings_run(self, command, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(fuzz_file(command)))
        out = tmp_path / "out"
        argv = FUZZ_BASE[command] + ["--config", cfg, "--out", out]
        assert run(argv) in (0, 1)
        snapshot = json.loads((out / "config.json").read_text())
        names = cli._COMMANDS[command][1]
        assert set(snapshot) == {*names, "command", "version"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["gate", "--gate", "OR", "--n-bits", 1, "--stride", 2],
            FUZZ_BASE["sweep"] + ["--sets", 1, "--runs", 1, "--n-bits", 3],
        ],
    )
    def test_flag_not_run_exit_two(self, argv, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + FAST + ["--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_key_not_run_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gate": "OR"}))
        out = tmp_path / "out"
        code = run(["latch", "--bits", "1,0", "--config", cfg, "--out", out])
        assert code == 2
        assert "gate" in capsys.readouterr().err
        assert not out.exists()

    def test_bits_set_the_recorded_n_bits(self, tmp_path):
        code = run(
            ["gate", "--gate", "OR", "--bits", "1,0", "--n-bits", 7]
            + FAST
            + ["--out", tmp_path]
        )
        assert code in (0, 1)
        snapshot = json.loads((tmp_path / "config.json").read_text())
        assert snapshot["n_bits"] == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mlclogic", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "mlclogic" in proc.stdout

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mlclogic", "gate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
