import gc
import json
import os
import subprocess
import sys

import pytest

import packlab
from packlab.certificates import save_json
from packlab.cli import main
from packlab.covers import k22_unpackable_cover, standard_cover


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_latin_count(capsys):
    code, out, _ = run(capsys, "latin", "count", "--n", "5")
    assert code == 0
    assert out.strip() == "161280"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # a reader that has gone is no input error: exit 128 + SIGPIPE, nothing on stderr
    src = os.path.dirname(os.path.dirname(packlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # the error comes at a print, not at the final flush
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "packlab.cli", "latin", "count", "--n", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_second_call_leaves_no_cyclic_garbage(capsys):
    run(capsys, "latin", "count", "--n", "3")
    gc.collect()
    gc.disable()
    try:
        run(capsys, "latin", "count", "--n", "3")
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def test_latin_count_structured(capsys):
    code, out, _ = run(capsys, "latin", "count", "--n", "4", "--format", "structured")
    assert code == 0
    assert json.loads(out) == {"n": 4, "count": 576}


def test_latin_count_rejects_unknown_order(capsys):
    code, _, err = run(capsys, "latin", "count", "--n", "12")
    assert code == 2
    assert "error" in err


def test_forbidden_count_both_methods(capsys):
    code, out, _ = run(capsys, "forbidden-count", "--d", "3", "--k", "4", "--method", "both")
    assert code == 0
    assert out.count("1920") == 2


def test_forbidden_count_no_closed_form(capsys):
    code, _, err = run(capsys, "forbidden-count", "--d", "3", "--k", "3")
    assert code == 2


def test_thresholds_structured(capsys):
    code, out, _ = run(capsys, "thresholds", "--d-min", "3", "--d-max", "4",
                       "--format", "structured")
    assert code == 0
    data = json.loads(out)
    by_key = {(r["d"], r["flavour"]): r for r in data["rows"]}
    assert by_key[(3, "upper_2d_minus_1")]["iteration_bound"] == 54
    assert by_key[(4, "upper_2d_minus_1")]["iteration_bound"] == 14853
    assert by_key[(3, "lower_2d")]["ratio"] == "180"


def test_decide_cover_roundtrip(tmp_path, capsys):
    cover_path = tmp_path / "cover.json"
    save_json(k22_unpackable_cover().to_json_dict(), str(cover_path))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "decide", "--cover", str(cover_path), "--out", str(cert_path))
    assert code == 0
    assert "not packable" in out
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert "ACCEPT" in out


def test_decide_packable_cover(tmp_path, capsys):
    cover_path = tmp_path / "cover.json"
    save_json(standard_cover(2, 2, 3).to_json_dict(), str(cover_path))
    code, out, _ = run(capsys, "decide", "--cover", str(cover_path))
    assert code == 0
    assert "packable" in out and "not packable" not in out


def test_decide_assignment_roundtrip(tmp_path, capsys):
    from packlab.cases import k65_assignment

    path = tmp_path / "lists.json"
    save_json(k65_assignment().to_json_dict(), str(path))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "decide", "--assignment", str(path), "--out", str(cert_path))
    assert code == 0
    assert "not packable" in out
    # (3!)^4 candidates times 6 vertices: well inside the work limit
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and "ACCEPT" in out


def test_greedy_and_verify(tmp_path, capsys):
    cert_path = tmp_path / "greedy.json"
    code, out, _ = run(capsys, "greedy", "--d", "2", "--k", "3", "--out", str(cert_path))
    assert code == 0
    assert "t = 2" in out
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    cert_path = tmp_path / "greedy.json"
    run(capsys, "greedy", "--d", "2", "--k", "3", "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["instance"]["sigma"][1][1] = "(1,2,3)"  # remove the twist: packable now
    cert_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "REJECT" in out


def test_verify_malformed_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"kind\": \"certificate\"}")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


@pytest.mark.parametrize("command", [["verify"], ["decide", "--cover"]], ids=["verify", "decide"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command):
    # the JSON decoder runs out of stack, which is malformed input, not a refutation
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, *command, str(path))
    assert code == 2
    assert f"invalid JSON in {path}" in err and "Traceback" not in err


def test_decide_non_string_permutation_is_input_error(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(
        {"version": 1, "kind": "correspondence_cover", "d": 1, "t": 1, "k": 2, "sigma": [[12]]}
    ))
    code, _, err = run(capsys, "decide", "--cover", str(path))
    assert code == 2
    assert "malformed cover" in err and "Traceback" not in err


def test_verify_integer_witness_entry_is_input_error(tmp_path, capsys):
    cover_path, cert_path = tmp_path / "cover.json", tmp_path / "cert.json"
    save_json(standard_cover(2, 2, 3).to_json_dict(), str(cover_path))
    code, _, _ = run(capsys, "decide", "--cover", str(cover_path), "--out", str(cert_path))
    assert code == 0
    data = json.loads(cert_path.read_text())
    assert data["claim"] == "packing_witness"
    data["witness"]["u_rows"][0] = 123
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 2
    assert "malformed witness" in err and "Traceback" not in err


def test_hunt_finds_and_writes_reproducible_certificates(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["hunt", "--d", "2", "--k", "3", "--t", "2", "--seed", "5",
            "--budget-candidates", "100000", "--no-timestamp"]
    code, out, _ = run(capsys, *argv, "--out", str(a))
    assert code == 0
    code, out, _ = run(capsys, *argv, "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", [
    ["forbidden-count", "--d", "2", "--k", "3", "--method", "brute"],
    ["reproduce"],
    ["greedy", "--d", "2", "--k", "3"],
], ids=lambda argv: argv[0])
def test_workers_flag_only_where_read(capsys, command):
    # every count runs in one process, so no subcommand takes a worker count
    with pytest.raises(SystemExit) as exc:
        main([*command, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_workers_env_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("PACKLAB_WORKERS", "abc")
    code, out, _ = run(capsys, "forbidden-count", "--d", "2", "--k", "3", "--method", "brute")
    assert code == 0 and out.strip() == "brute: 18"


def test_hunt_budget_exhaustion_exit_code(capsys):
    code, out, _ = run(capsys, "hunt", "--d", "2", "--k", "3", "--t", "1",
                       "--seed", "0", "--budget-candidates", "2000")
    assert code == 1
    assert "no cover" in out


def test_hunt_without_vertices_is_input_error(capsys):
    # no seeded state can change with zero vertices, so the search would never end
    code, _, err = run(capsys, "hunt", "--d", "2", "--k", "3", "--t", "0", "--seed", "1")
    assert code == 2
    assert "t_target" in err


@pytest.mark.parametrize(
    "flag,value", [("--budget-candidates", "-5"), ("--budget-seconds", "-1"),
                   ("--budget-seconds", "nan"), ("--budget-seconds", "inf")],
)
def test_hunt_unusable_budget_is_input_error(capsys, flag, value):
    # exit 1 would claim the budget ran out without a cover
    code, out, err = run(capsys, "hunt", "--d", "2", "--k", "3", "--t", "1", flag, value)
    assert code == 2
    assert "no cover" not in out and f"error: {flag} must be" in err
    assert "None" not in err  # neither flag accepts None


def test_chi_subcommand(capsys):
    code, out, _ = run(capsys, "chi", "--param", "c", "--a", "3", "--b", "5")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "chi", "--param", "cstar", "--a", "2", "--b", "2")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "chi", "--param", "l", "--a", "3", "--b", "27")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "chi", "--param", "lstar", "--a", "3", "--b", "2")
    assert code == 0 and out.strip() == "3"


@pytest.mark.parametrize("param", ["c", "cstar", "l", "lstar"])
@pytest.mark.parametrize("a,b", [("3", "0"), ("3", "-4"), ("0", "3")])
def test_chi_sides_below_one_are_input_errors(capsys, param, a, b):
    code, out, err = run(capsys, "chi", "--param", param, "--a", a, "--b", b)
    assert code == 2 and out == ""
    assert "need a, b >= 1" in err


def test_chi_unsupported_size_is_resource_error(capsys):
    code, _, err = run(capsys, "chi", "--param", "l", "--a", "5", "--b", "5")
    assert code == 2


def test_reproduce_cli(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "reproduce", "--out", str(report_path))
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    report = json.loads(report_path.read_text())
    assert report["failed"] == 0
    # the structured report written by --out is the one printed on stdout
    code, out, _ = run(capsys, "reproduce", "--format", "structured", "--out", str(report_path))
    assert code == 0
    assert report_path.read_text() == out


def _refused_by_decide_and_verify(tmp_path, capsys, kind, data, key):
    """The instance file ``data`` and a certificate holding it both exit 2,
    the message naming ``key``."""
    from packlab.certificates import make_certificate

    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "decide", f"--{kind}", str(path))
    assert code == 2 and f"malformed {kind}" in err and repr(key) in err
    cert = make_certificate("no_k_packing", k22_unpackable_cover(), None, generator="g")
    cert = {**cert.to_json_dict(), "instance": data}
    path.write_text(json.dumps(cert))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and f"malformed {kind}" in err and repr(key) in err


def _instance_data(kind):
    from packlab.cases import k39_assignment

    return (k22_unpackable_cover() if kind == "cover" else k39_assignment()).to_json_dict()


@pytest.mark.parametrize("kind,key", [
    ("cover", "d"), ("cover", "t"), ("cover", "k"),
    ("assignment", "a"), ("assignment", "b"), ("assignment", "k"),
])
@pytest.mark.parametrize("bad", ["missing", "list", "float", "string"])
def test_instance_size_fields_must_be_integers(tmp_path, capsys, kind, key, bad):
    data = _instance_data(kind)
    value = data.pop(key)
    if bad != "missing":
        data[key] = {"list": [value], "float": value - 0.3, "string": str(value)}[bad]
    _refused_by_decide_and_verify(tmp_path, capsys, kind, data, key)


@pytest.mark.parametrize("kind,key,value", [
    ("cover", "extra", {}),
    ("cover", "sigma", "(1,2,3)"),
    ("cover", "sigma", {"(1,2,3)": "(1,3,2)"}),
    ("cover", "sigma", [{"(1,2,3)": 0, "(1,3,2)": 0}] * 2),  # rows read key by key
    ("assignment", "extra", {}),
    ("assignment", "u_lists", "123"),
    ("assignment", "v_lists", {"1": [1, 2, 3]}),
], ids=["cover-extra", "sigma-string", "sigma-object", "sigma-object-rows",
        "assignment-extra", "u_lists-string", "v_lists-object"])
def test_instance_fields_keep_their_shape(tmp_path, capsys, kind, key, value):
    # an unknown key would be dropped and a string or object read entry by entry
    data = _instance_data(kind)
    data[key] = value
    _refused_by_decide_and_verify(tmp_path, capsys, kind, data, key)


@pytest.mark.parametrize("kind,key,rows", [
    ("cover", "k", {"sigma": [["(1,2", "(1,2,3)"]] * 2}),
    ("assignment", "a", {"u_lists": [["x"]] * 3}),
], ids=["cover", "assignment"])
def test_size_fields_are_checked_before_any_row(tmp_path, capsys, kind, key, rows):
    # a sigma entry or list row that does not parse used to be reported first
    data = {**_instance_data(kind), **rows, key: "3"}
    _refused_by_decide_and_verify(tmp_path, capsys, kind, data, key)


@pytest.mark.parametrize("command", ["decide", "verify"])
def test_repeated_keys_are_refused(tmp_path, capsys, command):
    # json.loads keeps the last value: this file was judged by its K_{2,2}
    # sigma, and re-serializing dropped the packable one before it
    from packlab.certificates import make_certificate

    instance = k22_unpackable_cover()
    data = instance.to_json_dict()
    if command == "verify":
        data = make_certificate("no_k_packing", instance, None, generator="g").to_json_dict()
    packable = json.dumps(standard_cover(2, 2, 3).to_json_dict()["sigma"])
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data).replace('"sigma": ', f'"sigma": {packable}, "sigma": '))
    argv = ["decide", "--cover", str(path)] if command == "decide" else ["verify", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"invalid JSON in {path}: repeated key 'sigma'" in err


@pytest.mark.parametrize("key,value", [
    ("generator", [1]), ("seed", "x"), ("seed", True), ("seed", 1.0),
    ("budget", 5), ("timestamp", 7), ("tool_version", None),
], ids=["generator-array", "seed-string", "seed-boolean", "seed-float",
        "budget-integer", "timestamp-integer", "tool_version-null"])
def test_metadata_fields_keep_their_types(tmp_path, capsys, key, value):
    # each of these used to parse and verify as ACCEPT
    from packlab.certificates import make_certificate

    cert = make_certificate("no_k_packing", k22_unpackable_cover(), None, generator="g")
    data = cert.to_json_dict()
    data["metadata"][key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "malformed metadata" in err and repr(key) in err


def test_k44_uncolourable_cover_fixture_verifies(capsys):
    from pathlib import Path

    from packlab.certificates import make_certificate
    from packlab.search import find_uncolourable_cover

    path = Path(__file__).parent / "fixtures" / "k44_no_3_colouring.json"
    cert = make_certificate("no_k_colouring", find_uncolourable_cover(4, 4, 3), None,
                            generator="search")
    assert path.read_text() == cert.to_canonical_json()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.strip() == "ACCEPT"
