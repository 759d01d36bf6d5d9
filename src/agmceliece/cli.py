"""Command-line surface: params / keygen / encrypt / decrypt / attack / bench.

All artifacts are JSON with embedded field descriptions; every run prints its
fully resolved configuration to stderr so experiments are reproducible.
Exit codes: 0 success, 2 usage, 3 format, 4 parameter guard, 5 attack/decode
stage failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time

from .attack import attack_decrypt, attack_pipeline
from .curve import curve_from_descriptor
from .ecp import verify_ecp
from .errors import (
    AgmcError,
    AttackError,
    DecodeFailureError,
    DimensionError,
    FiltrationError,
    FormatError,
    InstanceTooLargeError,
    ParameterError,
)
from .field import _bounded
from .mceliece import (
    Ciphertext,
    PublicKey,
    SecretKey,
    decrypt,
    derive_seed,
    designed_bounds,
    encrypt,
    keygen,
)
from .params import curve_key, scheme_params

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_GUARD = 4
EXIT_STAGE = 5


def _load(path: str, read):
    """Read a JSON artifact and check it with `read`; any defect is a FormatError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return read(data)
    except (OSError, KeyError, TypeError, ValueError, DimensionError, ParameterError) as exc:
        raise FormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _dump_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _echo_config(args: argparse.Namespace):
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    print(f"config: {json.dumps(cfg, sort_keys=True)}", file=sys.stderr)


def _curve_param(args) -> int:
    """The value of the curve's own flag (--r or --q0), which must be given."""
    key = curve_key(args.curve)
    param = getattr(args, key)
    if param is None:
        raise ParameterError(f"--{key} is required for the {args.curve} curve")
    return param


def _build_curve(args):
    """The curve the flags name, under the same length bound as an artifact's."""
    return curve_from_descriptor({"kind": args.curve, curve_key(args.curve): _curve_param(args)})


# -- subcommands ---------------------------------------------------------------

def cmd_params(args) -> int:
    report = scheme_params(args.curve, _curve_param(args), args.m)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        d = report.to_dict()
        width = max(len(k) for k in d)
        for k, v in d.items():
            print(f"{k:<{width}}  {v}")
    return EXIT_OK


def cmd_keygen(args) -> int:
    curve = _build_curve(args)
    pk, sk = keygen(curve, args.m, args.seed)
    _dump_json(args.pub, pk.to_dict())
    _dump_json(args.sec, sk.to_dict())
    print(f"wrote {args.pub} (n={pk.n}, k={pk.k}, t={pk.t}) and {args.sec}")
    return EXIT_OK


def cmd_encrypt(args) -> int:
    pk = _load(args.pub, PublicKey.from_dict)
    if args.msg:
        msg = _load(args.msg, lambda d: _bounded(d["msg"], "msg", (pk.k,), pk.field.q))
    else:
        rng = random.Random(derive_seed(args.seed, "message"))
        msg = pk.field.random_reps(rng, pk.k)
        _dump_json(args.msg_out, {"msg": msg.tolist()})
    ct = encrypt(pk, msg, args.seed, weight=args.weight)
    _dump_json(args.ct, ct.to_dict())
    print(f"wrote {args.ct}")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    sk = _load(args.sec, SecretKey.from_dict)
    ct = _load(args.ct, lambda d: Ciphertext.from_dict(d, sk.curve.field, sk.curve.n))
    msg = decrypt(sk, ct)
    _dump_json(args.out, {"msg": msg.tolist()})
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    pk = _load(args.pub, PublicKey.from_dict)
    transcript = attack_pipeline(pk, algorithm=args.algorithm)
    payload = transcript.to_dict()
    _dump_json(args.transcript, payload)
    print(
        f"recovered m={transcript.recovered_m} g={transcript.recovered_g} "
        f"lambda={transcript.systems_solved}; wrote {args.transcript}"
    )
    if args.ct:
        ct = _load(args.ct, lambda d: Ciphertext.from_dict(d, pk.field, pk.n))
        msg = attack_decrypt(transcript, pk, ct.y)
        _dump_json(args.out, {"msg": msg.tolist()})
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    curve = _build_curve(args)
    rows: list[tuple] = []
    t0 = time.perf_counter()
    pk, sk = keygen(curve, args.m, args.seed)
    rows.append(("stage", "keygen", time.perf_counter() - t0, ""))
    t0 = time.perf_counter()
    transcript = attack_pipeline(pk, algorithm=args.algorithm)
    rows.append(("stage", "attack_total", time.perf_counter() - t0, ""))
    for name, secs in transcript.stage_seconds.items():
        rows.append(("stage", name, secs, ""))
    rows.append(("count", "lambda", transcript.systems_solved, ""))
    ok = 0
    rng = random.Random(derive_seed(args.seed, "bench"))
    t_dec = 0.0
    for trial in range(args.trials):
        msg = pk.field.random_reps(rng, pk.k)
        ct = encrypt(pk, msg, derive_seed(args.seed, f"trial{trial}"))
        t0 = time.perf_counter()
        try:
            rec = attack_decrypt(transcript, pk, ct.y)
            good = bool((rec == msg).all())
        except (DecodeFailureError, AttackError):
            good = False
        dt = time.perf_counter() - t0
        t_dec += dt
        ok += int(good)
        rows.append(("decode", f"trial{trial}", dt, "ok" if good else "fail"))
    rows.append(("summary", "decode_success_rate", ok / max(args.trials, 1), ""))
    rows.append(("summary", "decode_seconds_total", t_dec, ""))
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["kind", "name", "value", "note"])
        writer.writerows(rows)
    finally:
        if args.csv:
            out.close()
            print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_verify(args) -> int:
    sk = _load(args.sec, SecretKey.from_dict)
    pair = sk.decoder.pair
    g = sk.curve.genus
    if args.exact:
        report = verify_ecp(pair)
    else:
        report = verify_ecp(pair, designed=designed_bounds(sk.m, g, sk.curve.n))
    for name, flag in [
        ("E.1 product orthogonality", report.product_orthogonal),
        ("E.2 locator dimension", report.locator_dim),
        ("E.3 d(B^perp) > t", report.dual_b_distance),
        ("E.4 d(A) + d(C) > n", report.distance_sum),
    ]:
        print(f"{name}: {'pass' if flag else 'FAIL'}")
    return EXIT_OK if report.all_pass else EXIT_STAGE


def _add_curve_flags(p: argparse.ArgumentParser):
    p.add_argument("--curve", required=True, choices=["hermitian", "suzuki"])
    p.add_argument("--r", type=int, help="Hermitian parameter (prime power)")
    p.add_argument("--q0", type=int, help="Suzuki parameter (power of 2)")
    p.add_argument("--m", type=int, required=True, help="divisor degree")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="agmceliece",
        description="McEliece over AG-code duals: scheme, ECP decoder, key-recovery attack",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="closed-form parameter/work-factor report")
    _add_curve_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("keygen", help="generate pub.json and sec.json")
    _add_curve_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pub", default="pub.json")
    p.add_argument("--sec", default="sec.json")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a message (random if none given)")
    p.add_argument("--pub", required=True)
    p.add_argument("--msg", help="msg.json to encrypt; omit for a seeded random message")
    p.add_argument("--msg-out", default="msg.json", help="where the random message is recorded")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weight", type=int, help="error weight override (<= t)")
    p.add_argument("--ct", default="ct.json")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="legitimate decryption with sec.json")
    p.add_argument("--sec", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--out", default="msg.json")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser(
        "attack", help="recover an ECP from pub.json alone; never reads sec.json"
    )
    p.add_argument("--pub", required=True)
    p.add_argument("--algorithm", type=int, choices=[1, 2], default=2)
    p.add_argument("--transcript", default="transcript.json")
    p.add_argument("--ct", help="optional ciphertext to decrypt with the recovered pair")
    p.add_argument("--out", default="msg.json")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="check E.1-E.4 for the legitimate pair")
    p.add_argument("--sec", required=True)
    p.add_argument("--exact", action="store_true", help="exact distances (size-guarded)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="stage timings + decode trials as CSV")
    _add_curve_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--algorithm", type=int, choices=[1, 2], default=2)
    p.add_argument("--csv", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ParameterError, InstanceTooLargeError) as exc:
        print(f"parameter guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (AttackError, FiltrationError, DecodeFailureError) as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except AgmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
