"""The benchmark's three workloads and the checks on every output.

Each workload sets up its inputs from the workload seed, runs rounds of
timed operations through the library's public functions, and checks every
output. The timed end-to-end metrics are read from four series per
workload (see README.md): MAIN, the workload's main operation at its three
instance sizes, and CT, a per-ciphertext side stream.

Every operation counts once in `attempted`; an exception or a wrong output
counts in `failed` and is listed, never dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from agmceliece import attack as atk
from agmceliece import curve as cv
from agmceliece import matrix as mx
from agmceliece import mceliece as mc

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")

# label -> (curve kind, curve parameter, m)
CONFIGS = {
    "n27": ("hermitian", 3, 13),
    "n64": ("hermitian", 4, 30),
    "n125": ("hermitian", 5, 60),
    "n343": ("hermitian", 7, 165),
    "suzuki64": ("suzuki", 2, 43),
}


def sub_seed(seed: int, *parts) -> int:
    text = ":".join(str(p) for p in ("perfbench", seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def canonical_digest(d: dict) -> str:
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def transcript_digest(tr) -> str:
    d = tr.to_dict()
    d.pop("stage_seconds", None)
    return canonical_digest(d)


# -- operations and their outcome -------------------------------------------------

class Ledger:
    """Times operations, runs their checks, and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.timed_s = 0.0
        # the traced run swaps in a context that pauses tracing, so checks
        # and input generation stay out of the per-layer numbers
        self.untraced = contextlib.nullcontext

    def fail(self, where: str, message: str):
        self.failed += 1
        if len(self.failures) < 25:
            self.failures.append(f"{where}: {message}")

    def run(self, series: str, op, check=None):
        """Time `op()`, then `check(result)` untimed; a check returns an
        error message or None. Returns the result, or None on failure."""
        self.attempted += 1
        err = None
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # every failure is counted, never fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.samples[series].append(dt)
        self.timed_s += dt
        if err is None and check is not None:
            with self.untraced():
                try:
                    err = check(out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            self.fail(series, err)
            return None
        return out

    def verify(self, where: str, err: str | None):
        """An untimed check that is an operation of its own."""
        self.attempted += 1
        if err:
            self.fail(where, err)


@dataclass
class Key:
    label: str
    curve: object
    m: int
    pk: object
    sk: object


def make_curve(label: str):
    kind, param, m = CONFIGS[label]
    curve = cv.hermitian_curve(param) if kind == "hermitian" else cv.suzuki_curve(param)
    return curve, m


def make_key(label: str, key_seed: int, curve=None) -> Key:
    if curve is None:
        curve, m = make_curve(label)
    else:
        m = CONFIGS[label][2]
    pk, sk = mc.keygen(curve, m, key_seed)
    return Key(label, curve, m, pk, sk)


def make_message(pk, rng: random.Random) -> np.ndarray:
    return np.array([pk.field.random_rep(rng) for _ in range(pk.k)], dtype=np.int64)


def make_ciphertext(key: Key, seed: int, *tag, weight: int | None = None):
    rng = random.Random(sub_seed(seed, key.label, "msg", *tag))
    msg = make_message(key.pk, rng)
    ct = mc.encrypt(key.pk, msg, sub_seed(seed, key.label, "ct", *tag), weight=weight)
    return msg, ct


# -- checks: each returns None or what is wrong -------------------------------------

def check_message(expect: np.ndarray):
    def check(got):
        got = np.asarray(got, dtype=np.int64).reshape(-1)
        if got.shape != expect.shape or not (got == expect).all():
            return "decrypted message differs from the sent one"
        return None
    return check


def check_transcript(key: Key, seen: dict):
    """Recovered (m, g) and the Algorithm 2 system count match the key, and a
    repeated attack on one key gives the same transcript."""
    def check(tr):
        g = key.curve.genus
        if (tr.recovered_m, tr.recovered_g) != (key.m, g):
            return f"recovered (m, g) = {(tr.recovered_m, tr.recovered_g)}, key has {(key.m, g)}"
        lam = 2 * math.ceil(math.log2(key.pk.t + g)) + 2
        if tr.systems_solved != lam:
            return f"systems solved {tr.systems_solved} != 2*ceil(log2(t+g))+2 = {lam}"
        digest = transcript_digest(tr)
        first = seen.setdefault(id(key), digest)
        if digest != first:
            return "transcript differs from an earlier attack on the same key"
        return None
    return check


def _permute_columns(a: np.ndarray, perm) -> np.ndarray:
    out = np.empty_like(a)
    out[:, perm] = a
    return out


class KeyChecker:
    """rank(G_pub) = k = n - k(E), and G_pub is orthogonal to the permuted
    generator E of the secret evaluation code, so row(G_pub) = C_L(m P)^perp."""

    def __init__(self):
        self._ag = {}

    def __call__(self, curve, m):
        def check(keys):
            pk, sk = keys
            cache_key = (id(curve), m)
            if cache_key not in self._ag:
                self._ag[cache_key] = cv.ag_code(curve, m).gen
            E = _permute_columns(self._ag[cache_key], sk.permutation)
            F = pk.field
            if pk.k + E.shape[0] != pk.n:
                return f"k = {pk.k} but n - k(E) = {pk.n - E.shape[0]}"
            rank = mx.rref(F, pk.g_pub)[1]
            if rank != pk.k:
                return f"rank(G_pub) = {rank} != k = {pk.k}"
            if F.matmul(pk.g_pub, E.T).any():
                return "G_pub is not orthogonal to the permuted evaluation code"
            return None
        return check


def check_encryption(pk, msg, weight: int):
    def check(ct):
        e = pk.field.sub(ct.y, pk.field.matmul(msg[None, :], pk.g_pub).ravel())
        wt = int(np.count_nonzero(e))
        if wt != weight:
            return f"error weight {wt} != {weight}"
        return None
    return check


# -- artifact digests at the default seed ---------------------------------------------

def default_artifacts(labels, transcript_labels) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {"public_key": {}, "transcript": {}}
    for label in labels:
        key = make_key(label, sub_seed(DEFAULT_SEED, label, 0))
        out["public_key"][label] = canonical_digest(key.pk.to_dict())
        if label in transcript_labels:
            tr = atk.attack_pipeline(key.pk)
            out["transcript"][label] = transcript_digest(tr)
    return out


def check_digests(ledger: Ledger, produced: dict, recorded: dict):
    for kind, by_label in produced.items():
        for label, digest in by_label.items():
            want = recorded.get(kind, {}).get(label)
            if want is None:
                err = "no recorded digest"
            elif want != digest:
                err = f"digest changed: {digest} (recorded {want})"
            else:
                err = None
            ledger.verify(f"digest.{kind}.{label}", err)


def median_ms(samples: dict, series: str) -> float:
    return 1e3 * float(np.median(samples[series]))


def pct_ms(samples: dict, series: str, q: float) -> float:
    return 1e3 * float(np.percentile(samples[series], q))


def end_to_end(workload, samples: dict) -> dict[str, float]:
    """The timed end-to-end metrics, in ms, from the workload's series.

    Series are summarised by their upper quartile: on a shared machine the
    noise is mostly spells of extra speed a few seconds long, which shift
    the median of operations that take seconds or come in bursts, but rarely
    reach the upper quartile. Tail percentiles follow the machine's load too
    closely to gate on; the report line carries them.
    """
    large, mid, small = workload.MAIN
    return {
        "large_ms.p75": pct_ms(samples, large, 75),
        "mid_ms.p75": pct_ms(samples, mid, 75),
        "small_ms.p75": pct_ms(samples, small, 75),
        "ct_ms.p75": pct_ms(samples, workload.CT, 75),
    }


# -- workloads ------------------------------------------------------------------------

class AttackWorkload:
    """Algorithm 2 on Hermitian keys n = 27, 64, 125 (a pool of keys each)."""

    name = "attack"
    MAIN = ("attack_s.n125", "attack_s.n64", "attack_s.n27")
    CT = "attack_decrypt_s.n125"
    # label, attacks per round, check ciphertexts per key
    RUNGS = (("n27", 10, 3), ("n64", 3, 3), ("n125", 1, 20))
    POOL = 3

    def setup(self, seed: int, ledger: Ledger):
        keys, cts = {}, {}
        for label, _, nct in self.RUNGS:
            curve, _ = make_curve(label)
            keys[label] = [make_key(label, sub_seed(seed, label, i), curve)
                           for i in range(self.POOL)]
            for i, key in enumerate(keys[label]):
                cts[label, i] = [make_ciphertext(key, seed, i, j) for j in range(nct)]
        state = {"keys": keys, "cts": cts, "seen": {}}
        warm = keys["n27"][0]
        ledger.run("warmup", lambda: atk.attack_pipeline(warm.pk),
                   check_transcript(warm, state["seen"]))
        return state

    def _attack(self, state, ledger, label, idx, decrypts=True):
        """Attack one pool key; returns (transcript, key) or None on failure."""
        key = state["keys"][label][idx]
        tr = ledger.run(f"attack_s.{label}", lambda: atk.attack_pipeline(key.pk),
                        check_transcript(key, state["seen"]))
        if tr is None:
            return None
        if decrypts:
            for msg, ct in state["cts"][label, idx]:
                self._decrypt(ledger, label, (tr, key), msg, ct)
        return tr, key

    @staticmethod
    def _decrypt(ledger, label, recovered, msg, ct):
        tr, key = recovered
        ledger.run(f"attack_decrypt_s.{label}",
                   lambda: atk.attack_decrypt(tr, key.pk, ct.y), check_message(msg))

    def round(self, state, i: int, ledger: Ledger):
        # the n=125 pair's check decryptions are spread between the small
        # attacks, so they sample the whole round rather than one burst
        big = self._attack(state, ledger, "n125", i % self.POOL, decrypts=False)
        small = [(label, (i * count + j) % self.POOL) for _, label, count, j in sorted(
            ((j + 0.5) / count, label, count, j)
            for label, count, _ in self.RUNGS[:2] for j in range(count))]
        checks = state["cts"]["n125", i % self.POOL] if big else []
        for step in range(max(len(small), len(checks))):
            if step < len(checks):
                self._decrypt(ledger, "n125", big, *checks[step])
            if step < len(small):
                self._attack(state, ledger, *small[step])

    def traced_round(self, state, ledger: Ledger):
        self._attack(state, ledger, "n125", 0, decrypts=False)

    def artifacts(self, heavy: bool):
        labels = [r[0] for r in self.RUNGS]
        return default_artifacts(labels, labels if heavy else ["n27", "n64"])

    def named(self, s) -> dict:
        out = {f"attack_s.{lab}": (float(np.median(s[f"attack_s.{lab}"])), "s",
                                    len(s[f"attack_s.{lab}"]))
               for lab in ("n27", "n64", "n125")}
        ns = [27, 64, 125]
        ts = [out[f"attack_s.n{n}"][0] for n in ns]
        slope = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
        out["loglog_slope"] = (slope, "1", 3)
        n = len(s[self.CT])
        out["attack_decrypt_ms.p50"] = (median_ms(s, self.CT), "ms", n)
        out["attack_decrypt_ms.p90"] = (pct_ms(s, self.CT, 90), "ms", n)
        return out


class DecodeWorkload:
    """A stream of ciphertexts through the legitimate receiver and the attacker."""

    name = "decode"
    MAIN = ("decrypt_s.n125", "decrypt_s.n64", "decrypt_s.n27")
    CT = "attack_decrypt_s.n125"
    LABELS = ("n27", "n64", "n125")
    TRACED_ROUNDS = 4

    def setup(self, seed: int, ledger: Ledger):
        keys, transcripts, seen = {}, {}, {}
        for label in self.LABELS:
            key = make_key(label, sub_seed(seed, label, 0))
            keys[label] = key
            transcripts[label] = ledger.run(
                f"setup_attack.{label}", lambda: atk.attack_pipeline(key.pk),
                check_transcript(key, seen))
        return {"keys": keys, "transcripts": transcripts, "seed": seed}

    def round(self, state, i: int, ledger: Ledger):
        for label in self.LABELS:
            key = state["keys"][label]
            tr = state["transcripts"][label]
            t = key.pk.t
            # half the weights are exactly t, half uniform below t: the
            # decoder's work depends on the weight through M(y)
            if i % 2 == 0:
                w = t
            else:
                w = random.Random(sub_seed(state["seed"], label, "w", i)).randrange(t)
            with ledger.untraced():
                msg, ct = make_ciphertext(key, state["seed"], "stream", i, weight=w)
            ledger.run(f"decrypt_s.{label}", lambda: mc.decrypt(key.sk, ct), check_message(msg))
            if tr is None:
                ledger.verify(f"attack_decrypt_s.{label}", "no recovered pair")
                continue
            ledger.run(f"attack_decrypt_s.{label}",
                       lambda: atk.attack_decrypt(tr, key.pk, ct.y), check_message(msg))

    def traced_round(self, state, ledger: Ledger):
        for i in range(self.TRACED_ROUNDS):
            self.round(state, i, ledger)

    def artifacts(self, heavy: bool):
        return default_artifacts(self.LABELS, self.LABELS if heavy else ["n27", "n64"])

    def named(self, s) -> dict:
        n = len(s["decrypt_s.n125"])
        return {
            "decrypt_ms.p50": (median_ms(s, "decrypt_s.n125"), "ms", n),
            "decrypt_ms.p90": (pct_ms(s, "decrypt_s.n125", 90), "ms", n),
            "attack_decrypt_ms.p50": (median_ms(s, "attack_decrypt_s.n125"), "ms", n),
            "attack_decrypt_ms.p90": (pct_ms(s, "attack_decrypt_s.n125", 90), "ms", n),
        }


class KeygenWorkload:
    """Sender side: keygen, then encrypt a batch, on three curves."""

    name = "keygen"
    MAIN = ("keygen_s.n343", "keygen_s.n125", "keygen_s.suzuki64")
    CT = "encrypt_s.n343"
    # label, keys per round, encryptions per key
    RUNGS = (("n343", 1, 32), ("n125", 3, 4), ("suzuki64", 10, 2))

    def setup(self, seed: int, ledger: Ledger):
        curves = {label: make_curve(label) for label, _, _ in self.RUNGS}
        state = {"curves": curves, "seed": seed, "checker": KeyChecker()}
        curve, m = curves["n343"]
        ledger.run("warmup", lambda: mc.keygen(curve, m, sub_seed(seed, "warmup")),
                   state["checker"](curve, m))
        return state

    def round(self, state, i: int, ledger: Ledger):
        seed = state["seed"]
        for label, count, nenc in self.RUNGS:
            curve, m = state["curves"][label]
            for j in range(count):
                idx = i * count + j
                keys = ledger.run(f"keygen_s.{label}",
                                  lambda: mc.keygen(curve, m, sub_seed(seed, label, idx)),
                                  state["checker"](curve, m))
                if keys is None:
                    continue
                pk = keys[0]
                rng = random.Random(sub_seed(seed, label, "msg", idx))
                for e in range(nenc):
                    msg = make_message(pk, rng)
                    ledger.run(f"encrypt_s.{label}",
                               lambda: mc.encrypt(pk, msg, sub_seed(seed, label, "ct", idx, e)),
                               check_encryption(pk, msg, pk.t))

    def traced_round(self, state, ledger: Ledger):
        self.round(state, 0, ledger)

    def artifacts(self, heavy: bool):
        return default_artifacts([r[0] for r in self.RUNGS], [])

    def named(self, s) -> dict:
        return {
            "keygen_s.n343": (float(np.median(s["keygen_s.n343"])), "s", len(s["keygen_s.n343"])),
            "keygen_s.n125": (float(np.median(s["keygen_s.n125"])), "s", len(s["keygen_s.n125"])),
            "keygen_ms.suzuki64": (median_ms(s, "keygen_s.suzuki64"), "ms",
                                   len(s["keygen_s.suzuki64"])),
            "encrypt_ms.p50": (median_ms(s, "encrypt_s.n343"), "ms", len(s["encrypt_s.n343"])),
            "encrypt_ms.p90": (pct_ms(s, "encrypt_s.n343", 90), "ms", len(s["encrypt_s.n343"])),
        }


WORKLOADS = {w.name: w for w in (AttackWorkload(), DecodeWorkload(), KeygenWorkload())}
