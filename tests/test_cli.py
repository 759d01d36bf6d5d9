import contextlib
import io
import json
import random
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from agmceliece import GF, PublicKey
from agmceliece.cli import main

from conftest import checkout_env, random_code


def run_cli(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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


@pytest.mark.parametrize("flags", [
    ["--curve", "hermitian", "--r", "6", "--m", "50"],
    ["--curve", "suzuki", "--q0", "3", "--m", "200"],
    ["--curve", "hermitian", "--m", "10"],
    ["--curve", "hermitian", "--r", "1", "--m", "0"],
    ["--curve", "hermitian", "--r", "2", "--m", "3"],
], ids=["r_not_prime_power", "q0_not_power_of_2", "r_missing", "r_1", "t_0"])
def test_params_refuses_what_keygen_refuses(capsys, flags):
    # params describes only curves and degrees keygen accepts: each exits 4
    # with one guard line, not a report or a traceback
    assert run_cli(["params", *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [ln.split(":")[0] for ln in captured.err.splitlines()] == ["config", "parameter guard"]


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
    original = read_json(msg)["msg"]
    recovered = read_json(rec)["msg"]
    assert recovered == original
    t = read_json(tr)
    assert t["m"] == 13 and t["g"] == 3 and t["lambda"] == 8
    # legitimate decrypt agrees
    dec = str(tmp_path / "dec.json")
    assert run_cli(["decrypt", "--sec", sec, "--ct", ct, "--out", dec]) == 0
    assert read_json(dec)["msg"] == original


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


def test_attack_random_code_stage_failure(tmp_path, capsys):
    # a random [27, 16] code over GF(9) has a saturated Schur square on its
    # dual: parameter recovery is the stage that fails
    F = GF(9)
    code = random_code(F, 27, 16, random.Random(5))
    assert code.k == 16
    pub = tmp_path / "pub.json"
    pub.write_text(json.dumps(PublicKey(F, 27, 1, code.gen).to_dict()))
    assert run_cli(["attack", "--pub", str(pub), "--transcript", str(tmp_path / "t.json")]) == 5
    failures = [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("stage failure:")]
    assert len(failures) == 1 and failures[0].startswith("stage failure: [recover-params]")


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
    for flags in (["--exact"], []):
        assert run_cli(["verify", "--sec", sec, *flags]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 4, flags


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
        capture_output=True, text=True, env=checkout_env(),
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
    assert read_json(out)["msg"] == [1] * 16


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
            for name, path in (("pub", pub), ("sec", sec), ("ct", ct), ("msg", d / "msg.json"))}


def _format_error(argv, capsys):
    assert run_cli(argv) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[-1].startswith("format error:")
    assert sum(line.startswith("format error:") for line in lines) == 1
    return lines[-1]


def _decrypt_with(tmp_path, r3_keys, capsys, sec=None, ct=None):
    (tmp_path / "sec.json").write_text(json.dumps(sec or r3_keys["sec"]))
    (tmp_path / "ct.json").write_text(json.dumps(ct or r3_keys["ct"]))
    return _format_error(["decrypt", "--sec", str(tmp_path / "sec.json"), "--ct",
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


@pytest.mark.parametrize("command", ["encrypt", "attack"])
def test_public_key_rank_deficient_format_error(tmp_path, r3_keys, capsys, command):
    # unchecked, encrypt writes a ciphertext no receiver can recover and the
    # attack reports a saturated Schur square as a stage failure
    pub = dict(r3_keys["pub"])
    pub["g_pub"] = [list(row) for row in pub["g_pub"]]
    pub["g_pub"][1] = list(pub["g_pub"][0])
    (tmp_path / "pub.json").write_text(json.dumps(pub))
    argv = [command, "--pub", str(tmp_path / "pub.json")]
    if command == "encrypt":
        argv += ["--seed", "2", "--ct", str(tmp_path / "ct.json"),
                 "--msg-out", str(tmp_path / "msg.json")]
    else:
        argv += ["--transcript", str(tmp_path / "t.json")]
    assert "g_pub has rank 15, expected 16" in _format_error(argv, capsys)


def test_scramble_of_wrong_size_format_error(tmp_path, r3_keys, capsys):
    # square and invertible, but (k-1) x (k-1): only the code knows k
    sec = dict(r3_keys["sec"])
    k1 = len(sec["scramble"]) - 1
    sec["scramble"] = [[int(i == j) for j in range(k1)] for i in range(k1)]
    _decrypt_with(tmp_path, r3_keys, capsys, sec=sec)


@pytest.mark.parametrize("t", [100, -1, 0])
def test_public_key_error_budget_out_of_range_format_error(tmp_path, r3_keys, capsys, t):
    # unchecked, t = 100 > n would fail inside encrypt's sampling and t <= 0 would pass
    (tmp_path / "pub.json").write_text(json.dumps(dict(r3_keys["pub"], t=t)))
    _format_error(["encrypt", "--pub", str(tmp_path / "pub.json"), "--seed", "2", "--ct",
                   str(tmp_path / "ct.json"), "--msg-out", str(tmp_path / "msg.json")], capsys)


def test_non_integer_ciphertext_entries_format_error(tmp_path, r3_keys, capsys):
    # 0.5 would truncate to 0 and decrypt to the original message
    _decrypt_with(tmp_path, r3_keys, capsys, ct={"y": [v + 0.5 for v in r3_keys["ct"]["y"]]})


def test_reducible_field_modulus_format_error(tmp_path, r3_keys, capsys):
    # x^2 is reducible; x^2 + 1 is irreducible over GF(3) but not GF(9)'s canonical modulus
    for modulus in ([0, 0, 1], [1, 0, 1]):
        pub = dict(r3_keys["pub"])
        pub["field"] = dict(pub["field"], modulus=modulus)
        (tmp_path / "pub.json").write_text(json.dumps(pub))
        _format_error(["attack", "--pub", str(tmp_path / "pub.json"), "--transcript",
                       str(tmp_path / "t.json")], capsys)


def test_non_integer_field_modulus_format_error(tmp_path, r3_keys, capsys):
    # 2.5 would truncate to 2, the original modulus, and the attack would run
    pub = dict(r3_keys["pub"])
    pub["field"] = dict(pub["field"], modulus=[c + 0.5 if i == 0 else c for i, c in
                                               enumerate(pub["field"]["modulus"])])
    (tmp_path / "pub.json").write_text(json.dumps(pub))
    _format_error(["attack", "--pub", str(tmp_path / "pub.json"), "--transcript",
                   str(tmp_path / "t.json")], capsys)


def test_non_integer_curve_parameter_format_error(tmp_path, r3_keys, capsys):
    # r = 3.7 would truncate to 3 and build the key's own curve
    sec = dict(r3_keys["sec"])
    sec["curve"] = dict(sec["curve"], r=3.7)
    _decrypt_with(tmp_path, r3_keys, capsys, sec=sec)


@pytest.mark.parametrize("edit", ["extra_key", "no_field"])
def test_curve_descriptor_mismatch_format_error(tmp_path, r3_keys, capsys, edit):
    # the descriptor must be exactly the one the named curve writes
    curve = dict(r3_keys["sec"]["curve"])
    if edit == "extra_key":
        curve["genus"] = 3
    else:
        del curve["field"]
    line = _decrypt_with(tmp_path, r3_keys, capsys, sec=dict(r3_keys["sec"], curve=curve))
    assert "curve descriptor does not match" in line


class _Stalled(Exception):
    """Raised by the alarm; no artifact loader catches it."""


def _raise_stalled(signum, frame):
    raise _Stalled("curve still being built after 1 s")


@contextlib.contextmanager
def _within_one_second():
    previous = signal.signal(signal.SIGALRM, _raise_stalled)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("curve", [{"kind": "hermitian", "r": 10**18 + 3},
                                   {"kind": "hermitian", "r": 256},
                                   {"kind": "suzuki", "q0": 128}],
                         ids=["r_huge", "r_256", "q0_128"])
def test_oversized_curve_parameter_format_error(tmp_path, r3_keys, capsys, curve):
    # unbounded, r = 10^18 + 3 spins in the prime-power test, while r = 256 (GF(2^16),
    # a 2^32-pair point loop) and q0 = 128 (GF(2^15), 2^30 points) pass the field bound
    sec = dict(r3_keys["sec"], curve=dict(r3_keys["sec"]["curve"], **curve))
    with _within_one_second():
        _decrypt_with(tmp_path, r3_keys, capsys, sec=sec)


@pytest.mark.parametrize("m", [10**12, 2 * 10**7], ids=["m_1e12", "m_2e7"])
def test_oversized_degree_format_error(tmp_path, r3_keys, capsys, m):
    # unbounded, the decoder enumerates about m / r monomials: 10^12 ends in a
    # MemoryError and 2 * 10^7 runs for minutes
    with _within_one_second():
        _decrypt_with(tmp_path, r3_keys, capsys, sec=dict(r3_keys["sec"], m=m))


@pytest.mark.parametrize("command", ["keygen", "bench"])
@pytest.mark.parametrize("r", [10**18 + 3, 11], ids=["r_huge", "r_11"])
def test_oversized_curve_flag_guard(tmp_path, capsys, command, r):
    # the flags get the artifact bound: unbounded, r = 10^18 + 3 spins in the
    # prime-power test and r = 11 writes an n = 1331 key that decrypt refuses
    argv = [command, "--curve", "hermitian", "--r", str(r), "--m", "200", "--seed", "1"]
    argv += (["--pub", str(tmp_path / "pub.json"), "--sec", str(tmp_path / "sec.json")]
             if command == "keygen" else ["--csv", str(tmp_path / "bench.csv")])
    with _within_one_second():
        assert run_cli(argv) == 4
    assert "parameter guard:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("entry", [1.7, 10**6, -1], ids=["float", "above_field", "negative"])
def test_message_entries_format_error(tmp_path, r3_keys, capsys, entry):
    # unchecked, 1.7 would encrypt as 1, 10^6 would index past the field tables and -1
    # would wrap to q - 1
    (tmp_path / "pub.json").write_text(json.dumps(r3_keys["pub"]))
    (tmp_path / "msg.json").write_text(json.dumps({"msg": [entry] * len(r3_keys["msg"]["msg"])}))
    _format_error(["encrypt", "--pub", str(tmp_path / "pub.json"), "--msg",
                   str(tmp_path / "msg.json"), "--seed", "2", "--ct",
                   str(tmp_path / "ct.json")], capsys)


def _custom_curve_sec(r3_keys, herm3):
    # the Hermitian r=3 curve spelled out as a "custom" descriptor, a kind no reader knows
    sec = dict(r3_keys["sec"])
    sec["curve"] = {
        "kind": "custom", "field": herm3.field.to_dict(), "genus": herm3.genus,
        "points": herm3.points.tolist(), "gen_orders": list(herm3.gen_orders),
        "gen_values": [v.tolist() for v in herm3.gen_values], "exp_bounds": [None, 2],
    }
    return sec


def test_custom_curve_gen_value_outside_field_format_error(tmp_path, r3_keys, herm3, capsys):
    sec = _custom_curve_sec(r3_keys, herm3)
    sec["curve"]["gen_values"][0][0] = 10**6
    (tmp_path / "sec.json").write_text(json.dumps(sec))
    (tmp_path / "ct.json").write_text(json.dumps(r3_keys["ct"]))
    line = _format_error(["decrypt", "--sec", str(tmp_path / "sec.json"), "--ct",
                          str(tmp_path / "ct.json"), "--out", str(tmp_path / "o.json")], capsys)
    assert "unknown curve kind" in line


def test_custom_curve_short_gen_values_row_format_error(tmp_path, r3_keys, herm3, capsys):
    sec = _custom_curve_sec(r3_keys, herm3)
    sec["curve"]["gen_values"][1] = sec["curve"]["gen_values"][1][:-1]
    (tmp_path / "sec.json").write_text(json.dumps(sec))
    line = _format_error(["verify", "--sec", str(tmp_path / "sec.json")], capsys)
    assert "unknown curve kind" in line


# the array of reps (or indices) in each artifact, and the command that reads it
_ARRAYS = [("pub", "g_pub"), ("sec", "scramble"), ("sec", "permutation"), ("ct", "y"),
           ("msg", "msg")]


def _key_paths(d, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def _mutated_artifact(draw, artifacts):
    """(name, artifact) with one entry or one key of one r=3 artifact mutated."""
    name, key = draw(st.sampled_from(_ARRAYS))
    art = json.loads(json.dumps(artifacts[name]))
    kind = draw(st.sampled_from(["float", "negative", "at_least_q", "drop_row",
                                 "drop_key", "wrong_type"]))
    if kind in ("drop_key", "wrong_type"):
        *parents, last = draw(st.sampled_from(list(_key_paths(art))))
        holder = art
        for p in parents:
            holder = holder[p]
        if kind == "drop_key":
            del holder[last]
        else:
            holder[last] = draw(st.sampled_from(["7", None, {}, True, 3.5, [[0.5]]]))
        return name, art
    rows = art[key]
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "drop_row":
        del rows[i]
        return name, art
    holder, j = (rows[i], draw(st.integers(0, len(rows[i]) - 1))) \
        if isinstance(rows[i], list) else (rows, i)
    holder[j] = {
        "float": holder[j] + 0.5,
        "negative": draw(st.integers(max_value=-1)),
        # q = 9 for r = 3; permutation entries reach 26, so skip the entry's own value
        "at_least_q": draw(st.integers(min_value=9).filter(lambda v: v != holder[j])),
    }[kind]
    return name, art


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_artifacts_exit_3(r3_keys, data):
    name, art = data.draw(_mutated_artifact(r3_keys))
    with tempfile.TemporaryDirectory() as d:
        files = {n: f"{d}/{n}.json" for n in ("pub", "sec", "ct", "msg")}
        for n, path in files.items():
            with open(path, "w") as fh:
                json.dump(art if n == name else r3_keys[n], fh)
        if name in ("pub", "msg"):
            argv = ["encrypt", "--pub", files["pub"], "--msg", files["msg"], "--seed", "2",
                    "--ct", f"{d}/out.json"]
        else:
            argv = ["decrypt", "--sec", files["sec"], "--ct", files["ct"],
                    "--out", f"{d}/out.json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == 3
        assert err.getvalue().strip().splitlines()[-1].startswith("format error:")
