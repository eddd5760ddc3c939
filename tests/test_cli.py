"""End-to-end command checks, all in process through main(argv)."""

import json
import time

import pytest

from cclab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cc_partial_reaches_zero(capsys):
    code, out = run_cli(
        capsys, "cc", "--fn", "identity", "--x", "01", "--y", "10",
        "--alpha", "6", "--mode", "pcc",
    )
    assert code == 0
    assert "value: 0" in out
    assert "witness: 6:88 (6 bits)" in out


def test_cc_total_on_the_diagonal(capsys):
    code, out = run_cli(
        capsys, "cc", "--fn", "identity", "--x", "01", "--y", "01",
        "--alpha", "4", "--mode", "cc",
    )
    assert code == 0
    assert "value: 0" in out
    assert "witness: 4:9 (4 bits)" in out


def test_cc_empty_family_reports_inf(capsys):
    code, out = run_cli(
        capsys, "cc", "--fn", "identity", "--x", "01", "--y", "10",
        "--alpha", "10", "--mode", "tcc",
    )
    assert code == 0
    assert "value: inf" in out
    assert "witness: none" in out


def test_profile_csv_on_stdout(capsys):
    code, out = run_cli(capsys, "profile", "--y", "01", "--alpha-max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,value,witness_hex"
    assert len(lines) == 10  # header + alpha 0..8


def test_profile_json_by_extension(tmp_path, capsys):
    target = tmp_path / "profile.json"
    code, _out = run_cli(
        capsys, "profile", "--y", "01", "--alpha-max", "6", "--out", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["schema"] == "cclab-profile/1"
    assert payload["label"] == "sets(01)"


def test_enumerate_matches_library_stream(capsys):
    from cclab import enumerate_signature

    code, out = run_cli(capsys, "enumerate", "--n", "1", "--alpha", "6")
    assert code == 0
    listed = out.strip().splitlines()
    expected = [c.bits for c, _t in enumerate_signature(1, 1, 1, 6)]
    assert listed == expected


def test_enumerate_sets_kind(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "2", "--alpha", "20", "--kind", "sets")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert all("members=" in line for line in lines)


def test_dcc_reports_bits_and_witness(capsys):
    code, out = run_cli(capsys, "dcc", "--fn", "eq", "--n", "1")
    assert code == 0
    assert "bits: 1" in out
    assert "witness: " in out


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "eq-shortcut")
    assert code == 0
    assert "result: PASS" in out
    assert "runtime" not in out  # wall clock stays off stdout


@pytest.mark.parametrize(
    "engine,argv",
    [
        ("th7", ["--k", "10", "--s", "1", "--l", "2", "--budget", "6"]),
        (
            "helpbit",
            ["--k", "11", "--s", "1", "--l", "2", "--a", "1", "--b", "1", "--budget", "6"],
        ),
    ],
)
def test_hardness_replay_round_trip(tmp_path, capsys, engine, argv):
    target = tmp_path / f"{engine}.json"
    code, _out = run_cli(capsys, "hardness", engine, *argv, "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["schema"] == "cclab-hard-instance/1"

    suite = "th7" if engine == "th7" else "helpbits"
    code, out = run_cli(capsys, "verify", suite, "--replay", str(target))
    assert code == 0
    assert "result: PASS" in out


def test_hardness_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        run_cli(
            capsys, "hardness", "th7", "--k", "10", "--s", "1", "--l", "2",
            "--budget", "6", "--seed", "3", "--out", str(path),
        )
    assert paths[0].read_text() == paths[1].read_text()


def test_replay_rejected_for_plain_suite(tmp_path, capsys):
    target = tmp_path / "inst.json"
    run_cli(
        capsys, "hardness", "th7", "--k", "10", "--s", "1", "--l", "2",
        "--budget", "6", "--out", str(target),
    )
    code, _out = run_cli(capsys, "verify", "rectangles", "--replay", str(target))
    assert code == 2


def test_missing_replay_file_is_a_usage_error(capsys):
    code, _out = run_cli(capsys, "verify", "th7", "--replay", "/nonexistent/inst.json")
    assert code == 2


@pytest.mark.parametrize(
    "payload",
    ['{"schema":"cclab-hard-instance/1"}', '["cclab-hard-instance/1", 1]'],
    ids=["missing-fields", "top-level-list"],
)
def test_malformed_replay_is_a_usage_error(tmp_path, capsys, payload):
    target = tmp_path / "inst.json"
    target.write_text(payload)
    code, out = run_cli(capsys, "verify", "th7", "--replay", str(target))
    assert code == 2
    assert out == ""


def test_hardness_parameters_bounded_before_work(capsys):
    start = time.perf_counter()
    code, _out = run_cli(
        capsys, "hardness", "th7", "--k", "40", "--s", "1", "--l", "2", "--budget", "6"
    )
    assert code == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("dcc", "--fn", "eq", "--n", "12"),
        ("cc", "--fn", "identity", "--x", "0" * 12, "--y", "0" * 12, "--alpha", "6"),
        ("cc", "--fn", "identity", "--x", "0", "--y", "0", "--alpha", "20", "--help-alice", "400"),
    ],
)
def test_oversized_grids_refused_before_work(capsys, argv):
    start = time.perf_counter()
    code, _out = run_cli(capsys, *argv)
    assert code == 2
    assert time.perf_counter() - start < 1.0


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cc", "--fn", "identity", "--x", "01"])
    assert info.value.code == 2


def test_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "no-such-suite"])
    assert info.value.code == 2


def test_bad_table_path_exits_two(capsys):
    code, _out = run_cli(capsys, "dcc", "--fn", "table:/nonexistent.txt", "--n", "2")
    assert code == 2
