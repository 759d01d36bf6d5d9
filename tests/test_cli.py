import json
import subprocess
import sys

import pytest

from agmceliece.cli import main


def run_cli(args):
    return main(args)


def test_params_table_stdout(capsys):
    assert run_cli(["params", "--curve", "suzuki", "--q0", "4", "--m", "500"]) == 0
    out = capsys.readouterr().out
    assert "k_pub" in out and "647" in out and "64" in out and "414" in out


def test_params_json(capsys):
    assert run_cli(["params", "--curve", "hermitian", "--r", "7", "--m", "170", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["k_pub"] == 193 and d["t"] == 54 and d["key_size_kb"] == 46


def test_params_guard_exit_code(capsys):
    assert run_cli(["params", "--curve", "hermitian", "--r", "3", "--m", "8"]) == 4


def test_keygen_encrypt_attack_golden(tmp_path, capsys):
    pub = str(tmp_path / "pub.json")
    sec = str(tmp_path / "sec.json")
    ct = str(tmp_path / "ct.json")
    msg = str(tmp_path / "msg.json")
    rec = str(tmp_path / "rec.json")
    tr = str(tmp_path / "transcript.json")

    assert run_cli(["keygen", "--curve", "hermitian", "--r", "3", "--m", "13",
                    "--seed", "42", "--pub", pub, "--sec", sec]) == 0
    assert run_cli(["encrypt", "--pub", pub, "--seed", "1", "--ct", ct,
                    "--msg-out", msg]) == 0
    # attack recovers the plaintext from the public key alone
    assert run_cli(["attack", "--pub", pub, "--ct", ct, "--transcript", tr,
                    "--out", rec]) == 0
    original = json.load(open(msg))["msg"]
    recovered = json.load(open(rec))["msg"]
    assert recovered == original
    t = json.load(open(tr))
    assert t["m"] == 13 and t["g"] == 3 and t["lambda"] == 8
    # legitimate decrypt agrees
    dec = str(tmp_path / "dec.json")
    assert run_cli(["decrypt", "--sec", sec, "--ct", ct, "--out", dec]) == 0
    assert json.load(open(dec))["msg"] == original


def test_cli_outputs_reproducible(tmp_path):
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        run_cli(["keygen", "--curve", "hermitian", "--r", "3", "--m", "13",
                 "--seed", "7", "--pub", str(d / "pub.json"), "--sec", str(d / "sec.json")])
        run_cli(["encrypt", "--pub", str(d / "pub.json"), "--seed", "3",
                 "--ct", str(d / "ct.json"), "--msg-out", str(d / "msg.json")])
    assert (tmp_path / "a" / "pub.json").read_text() == (tmp_path / "b" / "pub.json").read_text()
    assert (tmp_path / "a" / "ct.json").read_text() == (tmp_path / "b" / "ct.json").read_text()


def test_decrypt_wrong_length_ciphertext_format_error(tmp_path, capsys):
    pub = str(tmp_path / "pub.json")
    sec = str(tmp_path / "sec.json")
    run_cli(["keygen", "--curve", "hermitian", "--r", "3", "--m", "13",
             "--seed", "42", "--pub", pub, "--sec", sec])
    bad = tmp_path / "bad_ct.json"
    bad.write_text(json.dumps({"y": [0, 1, 2]}))
    assert run_cli(["decrypt", "--sec", sec, "--ct", str(bad), "--out",
                    str(tmp_path / "o.json")]) == 3


def test_attack_guard_exit_code(tmp_path):
    pub = str(tmp_path / "pub.json")
    sec = str(tmp_path / "sec.json")
    run_cli(["keygen", "--curve", "hermitian", "--r", "2", "--m", "4",
             "--seed", "1", "--pub", pub, "--sec", sec])
    # r=2 m=4 is outside the direct-route guard: stage failure, exit 5
    assert run_cli(["attack", "--pub", pub, "--transcript",
                    str(tmp_path / "t.json")]) == 5


def test_attack_does_not_accept_secret_path():
    from agmceliece.cli import build_parser

    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["attack", "--pub", "p.json", "--sec", "s.json"])


def test_verify_subcommand(tmp_path, capsys):
    pub = str(tmp_path / "pub.json")
    sec = str(tmp_path / "sec.json")
    run_cli(["keygen", "--curve", "hermitian", "--r", "3", "--m", "13",
             "--seed", "42", "--pub", pub, "--sec", sec])
    assert run_cli(["verify", "--sec", sec, "--exact"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4


def test_bench_csv(tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert run_cli(["bench", "--curve", "hermitian", "--r", "3", "--m", "13",
                    "--seed", "5", "--trials", "5", "--csv", str(csv_path)]) == 0
    text = csv_path.read_text()
    assert "attack_total" in text and "decode_success_rate,1.0" in text
    assert "lambda,8" in text


def test_console_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "agmceliece.cli", "params", "--curve", "hermitian",
         "--r", "9", "--m", "400", "--json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["k_pub"] == 364


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["params", "--curve", "hermitian"])  # missing --m
    assert exc.value.code == 2


def test_encrypt_explicit_message(tmp_path):
    pub = str(tmp_path / "pub.json")
    sec = str(tmp_path / "sec.json")
    run_cli(["keygen", "--curve", "hermitian", "--r", "3", "--m", "13",
             "--seed", "42", "--pub", pub, "--sec", sec])
    msg_file = tmp_path / "msg.json"
    msg_file.write_text(json.dumps({"msg": [1] * 16}))
    ct = str(tmp_path / "ct.json")
    assert run_cli(["encrypt", "--pub", pub, "--msg", str(msg_file),
                    "--seed", "2", "--ct", ct]) == 0
    out = str(tmp_path / "out.json")
    assert run_cli(["decrypt", "--sec", sec, "--ct", ct, "--out", out]) == 0
    assert json.load(open(out))["msg"] == [1] * 16


def test_malformed_public_key_exit_code(tmp_path):
    bad = tmp_path / "pub.json"
    bad.write_text("{not json")
    assert run_cli(["attack", "--pub", str(bad), "--transcript",
                    str(tmp_path / "t.json")]) == 3
    bad.write_text(json.dumps({"field": {"p": 3, "k": 2, "modulus": [1, 0, 1]}, "n": 5, "t": 1}))
    assert run_cli(["attack", "--pub", str(bad), "--transcript",
                    str(tmp_path / "t.json")]) == 3


@pytest.fixture(scope="module")
def r3_keys(tmp_path_factory):
    d = tmp_path_factory.mktemp("r3keys")
    pub, sec, ct = d / "pub.json", d / "sec.json", d / "ct.json"
    assert run_cli(["keygen", "--curve", "hermitian", "--r", "3", "--m", "13",
                    "--seed", "42", "--pub", str(pub), "--sec", str(sec)]) == 0
    assert run_cli(["encrypt", "--pub", str(pub), "--seed", "1", "--ct", str(ct),
                    "--msg-out", str(d / "msg.json")]) == 0
    return {name: json.loads(path.read_text())
            for name, path in (("pub", pub), ("sec", sec), ("ct", ct))}


def _format_error(argv, capsys):
    assert run_cli(argv) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("format error:")


def _decrypt_with(tmp_path, r3_keys, capsys, sec=None, ct=None):
    (tmp_path / "sec.json").write_text(json.dumps(sec or r3_keys["sec"]))
    (tmp_path / "ct.json").write_text(json.dumps(ct or r3_keys["ct"]))
    _format_error(["decrypt", "--sec", str(tmp_path / "sec.json"), "--ct",
                   str(tmp_path / "ct.json"), "--out", str(tmp_path / "o.json")], capsys)


def test_ciphertext_entry_above_field_format_error(tmp_path, r3_keys, capsys):
    y = list(r3_keys["ct"]["y"])
    y[0] = 10**6
    _decrypt_with(tmp_path, r3_keys, capsys, ct={"y": y})


def test_ciphertext_negative_entry_format_error(tmp_path, r3_keys, capsys):
    y = list(r3_keys["ct"]["y"])
    y[0] = -1
    _decrypt_with(tmp_path, r3_keys, capsys, ct={"y": y})


def test_permutation_not_bijection_format_error(tmp_path, r3_keys, capsys):
    sec = dict(r3_keys["sec"])
    perm = list(sec["permutation"])
    perm[1] = perm[0]
    sec["permutation"] = perm
    _decrypt_with(tmp_path, r3_keys, capsys, sec=sec)


def test_scramble_entry_outside_field_format_error(tmp_path, r3_keys, capsys):
    sec = dict(r3_keys["sec"])
    sec["scramble"] = [list(row) for row in sec["scramble"]]
    sec["scramble"][0][0] = 9
    _decrypt_with(tmp_path, r3_keys, capsys, sec=sec)


def test_scramble_not_square_format_error(tmp_path, r3_keys, capsys):
    sec = dict(r3_keys["sec"])
    sec["scramble"] = [list(row) for row in sec["scramble"][:-1]]
    _decrypt_with(tmp_path, r3_keys, capsys, sec=sec)


def test_scramble_singular_format_error(tmp_path, r3_keys, capsys):
    sec = dict(r3_keys["sec"])
    sec["scramble"] = [list(row) for row in sec["scramble"]]
    sec["scramble"][1] = list(sec["scramble"][0])
    _decrypt_with(tmp_path, r3_keys, capsys, sec=sec)


def test_public_key_entry_outside_field_format_error(tmp_path, r3_keys, capsys):
    pub = dict(r3_keys["pub"])
    pub["g_pub"] = [list(row) for row in pub["g_pub"]]
    pub["g_pub"][0][0] = 99
    (tmp_path / "pub.json").write_text(json.dumps(pub))
    _format_error(["attack", "--pub", str(tmp_path / "pub.json"), "--transcript",
                   str(tmp_path / "t.json")], capsys)
