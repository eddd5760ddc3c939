"""End-to-end command checks, in process through main(argv), and `python -m cclab`."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from cclab import codes, functions
from cclab.cli import main

GOLDEN = Path(__file__).parent / "golden"


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


# stdout of CC and PCC queries at n = 3, as the enumerating walk printed it
PINNED_N3 = [
    (("identity", "011", "101", "6", "1", "1"), "value: inf\nwitness: none\n"),
    (("ip", "011", "101", "6", "1", "1"), "value: inf\nwitness: none\n"),
    (("identity", "011", "101", "7", "1", "1"), "value: 0\nwitness: 7:8a (7 bits)\n"),
    (("ip", "011", "101", "7", "1", "1"), "value: 0\nwitness: 7:82 (7 bits)\n"),
    (("identity", "011", "011", "4", "0", "0"), "value: 0\nwitness: 4:9 (4 bits)\n"),
    (("identity", "011", "101", "4", "0", "0"), "value: inf\nwitness: none\n"),
    (("ip", "011", "011", "4", "0", "0"), "value: inf\nwitness: none\n"),
]


@pytest.mark.parametrize("mode", ["cc", "pcc"])
@pytest.mark.parametrize("query, want", PINNED_N3, ids=["-".join(query) for query, _ in PINNED_N3])
def test_cc_and_pcc_output_is_pinned_at_n3(capsys, query, want, mode):
    fn, x, y, alpha, help_alice, help_bob = query
    code, out = run_cli(
        capsys, "cc", "--fn", fn, "--x", x, "--y", y, "--alpha", alpha,
        "--help-alice", help_alice, "--help-bob", help_bob, "--mode", mode,
    )
    assert code == 0
    assert out == want


@pytest.mark.parametrize(
    "fn, x, y, alpha, want",
    [
        ("identity", "0", "1", "15", "value: 1\nwitness: 15:5422 (15 bits)\n"),
        ("eq", "1", "1", "14", "value: 1\nwitness: 14:5564 (14 bits)\n"),
        ("identity", "0", "1", "14", "value: inf\nwitness: none\n"),
    ],
)
def test_tcc_output_is_pinned_for_finite_and_infinite_values(capsys, fn, x, y, alpha, want):
    code, out = run_cli(capsys, "cc", "--fn", fn, "--x", x, "--y", y, "--alpha", alpha)
    assert code == 0
    assert out == want


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


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("hardness-th7", ["th7", "--k", "10", "--s", "1", "--l", "2", "--budget", "6"]),
        (
            "hardness-helpbit",
            ["helpbit", "--k", "11", "--s", "1", "--l", "2", "--a", "1", "--b", "1",
             "--budget", "6", "--seed", "3"],
        ),
    ],
)
def test_hardness_output_matches_golden(capsys, golden, argv):
    code, out = run_cli(capsys, "hardness", *argv)
    assert code == 0
    assert out == (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_th7_refuses_the_help_flags(capsys, flag):
    code = main(["hardness", "th7", "--k", "10", "--s", "1", "--l", "2", "--budget", "6", flag, "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "helpbit" in captured.err


def test_helpbit_without_help_flags_means_no_help_bits(capsys):
    argv = ["hardness", "helpbit", "--k", "10", "--s", "1", "--l", "2", "--budget", "6"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert (payload["a"], payload["b"]) == (0, 0)
    assert run_cli(capsys, *argv, "--a", "0", "--b", "0") == (0, out)


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


@pytest.mark.parametrize(
    "argv",
    [
        ("profile", "--y", "01", "--alpha-max", "-1"),
        ("profile", "--y", "01", "--alpha-max", "-1", "--kind", "identity"),
        ("enumerate", "--n", "2", "--alpha", "-3"),
        ("enumerate", "--n", "2", "--alpha", "-3", "--kind", "sets"),
        ("cc", "--fn", "identity", "--x", "0", "--y", "0", "--alpha", "-1"),
    ],
)
def test_negative_budgets_exit_two(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("fn", ["identity", "eq", "ip"])
def test_negative_n_is_refused_like_zero(capsys, fn):
    for n in ("0", "-1"):
        code = main(["dcc", "--fn", fn, "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip() == "error: n must be positive"


@pytest.mark.parametrize("kind", ["all", "total", "one-way"])
@pytest.mark.parametrize("alpha", ["0", "3", "20"])
@pytest.mark.parametrize("n", ["0", "-1", "-3"])
def test_enumerate_refuses_nonpositive_widths(capsys, n, alpha, kind):
    code = main(["enumerate", "--n", n, "--alpha", alpha, "--kind", kind])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == "error: input lengths and output width must be positive"


def test_enumerate_refuses_widths_past_the_bound_before_work(capsys):
    tracemalloc.start()
    try:
        code = main(["enumerate", "--n", "1000000000", "--alpha", "8"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == (
        "error: input lengths and output width must be at most 276, "
        "got 1000000000, 1000000000 and 1000000000"
    )
    # a rule at this width would spell a 2^(10^9)-bit table width, 125 MB
    assert peak < 1 << 20


CAP_QUERY = ["cc", "--fn", "eq", "--x", "0", "--y", "1", "--alpha", "14", "--mode", "tcc"]


@pytest.mark.parametrize("raw", ["1_0", "\uff12\uff10", "+5"])
def test_budget_cap_takes_ascii_digits_only(monkeypatch, capsys, raw):
    # int() would read "1_0" as 10, full-width digits "20" as 20 and "+5" as 5
    monkeypatch.setenv("CCLAB_BUDGET_CAP", raw)
    code = main(CAP_QUERY)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == f"error: CCLAB_BUDGET_CAP must be an integer, got {raw!r}"


def test_budget_cap_is_read_on_every_command_and_warned_about_once(monkeypatch, capsys):
    monkeypatch.setattr(codes, "_warned_about_cap", False)
    monkeypatch.delenv("CCLAB_BUDGET_CAP", raising=False)
    assert main(CAP_QUERY) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    for raw, code in ((" 20 ", 0), ("22\n", 0), ("1_0", 2), ("\t21", 0), ("13", 2), ("22", 0)):
        monkeypatch.setenv("CCLAB_BUDGET_CAP", raw)
        assert main(CAP_QUERY) == code, raw
        captured = capsys.readouterr()
        assert captured.out == (plain.out if code == 0 else ""), raw
        warned = raw == "22\n"
        assert ("warning: CCLAB_BUDGET_CAP=22 raises" in captured.err) == warned, raw
    monkeypatch.delenv("CCLAB_BUDGET_CAP")
    assert main(CAP_QUERY) == 0
    assert capsys.readouterr() == plain


def test_cc_input_length_limit_comes_before_the_table_file(capsys):
    code = main(
        ["cc", "--fn", "table:/nonexistent", "--x", "0000", "--y", "0000", "--alpha", "5"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "n <= 3" in err
    assert "nonexistent" not in err


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


def _refused_quickly_naming_the_limit(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    assert code == 2
    assert elapsed < 0.5
    assert "65536" in capsys.readouterr().err


def test_huge_n_refused_before_any_power_of_two(capsys):
    _refused_quickly_naming_the_limit(capsys, "dcc", "--fn", "eq", "--n", "100000000")


def test_huge_table_header_refused_before_any_power_of_two(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("n=100000\n0\n")
    _refused_quickly_naming_the_limit(capsys, "dcc", "--fn", f"table:{path}", "--n", "2")


_FILE_LIMITS = {
    "table": (functions._MAX_TABLE_BYTES, ("cc", "--fn", "table:{}", "--x", "0", "--y", "1", "--alpha", "6")),
    "certificate": (codes._MAX_CERTIFICATE_BYTES, ("verify", "th7", "--replay", "{}")),
}


@pytest.mark.parametrize("kind", _FILE_LIMITS)
def test_input_file_one_byte_over_its_limit_is_refused(tmp_path, capsys, kind):
    limit, argv = _FILE_LIMITS[kind]
    path = tmp_path / "input"
    for size, refused in ((limit, False), (limit + 1, True)):
        path.write_bytes(b" " * size)
        assert main([arg.format(path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # at the limit the file is read and refused for its content
        assert (f"{kind} file {path} exceeds the limit of {limit} bytes" in captured.err) == refused


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("kind", _FILE_LIMITS)
def test_endless_input_file_is_refused_quickly(capsys, kind):
    limit, argv = _FILE_LIMITS[kind]
    start = time.perf_counter()
    assert main([arg.format("/dev/zero") for arg in argv]) == 2
    assert time.perf_counter() - start < 2
    assert f"exceeds the limit of {limit} bytes" in capsys.readouterr().err


def test_python_dash_m_runs_the_command_line_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "cclab", "verify", "eq-shortcut"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "eq-shortcut.txt").read_text(encoding="utf-8")
