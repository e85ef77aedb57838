"""The three benchmark workloads: the operations each runs and how each
output is checked.

An operation is a zero-argument callable.  Operations call the package
through module attributes (``cli.run_command``, ``codes.rs``) at call time, so
the wrappers that spans.py installs are the ones that run.  Why each workload
exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from deephole import cli, codes

# (kind, q, k); all evaluation sets are the full field
RADIUS_CASES = (
    ("rs", 9, 3),
    ("rs", 8, 1),
    ("prs", 13, 8),
    ("prs", 11, 6),
    ("prs", 8, 2),
    ("rs", 7, 1),
)
ORACLE_CODES = (
    ("rs", 8, 6),
    ("rs", 9, 6),
    ("prs", 9, 6),
    ("prs", 11, 6),
    ("prs", 9, 7),
)
WORDS_PER_CODE = 30
# the oracle words of --seed n are those of bank entry n % ORACLE_BANK, whose
# distances were recorded at the seed commit by make_expected.py
ORACLE_BANK = 1024
SWEEP_COMMANDS = (
    "cubic-coverage --q 11",
    "family cubic --q 9",
    "n3 --q 13",
    "n3 --q 11",
    "completeness --q 13",
    "hypergraph --q 13",
    "enum-deep-cosets --q 13 --k 10",
    "enum-deep-cosets --q 13 --k 11",
    "family quadratic --q 13 --k 11",
    "family degree_k --q 13 --k 9",
    "family zero_sum_free --q 13 --set 0,1,2,3,4 --r 2",
    "ssp --q 13 --k 6",
    "zero-sum-free --p 13 --r 3",
    "covering-radius --code prs --q 13 --k 10",
)
# the fields each workload constructs during set-up
FIELDS = {
    "radius": (9, 8, 13, 11, 7),
    "oracle": (8, 9, 11),
    "sweep": (11, 9, 13),
}

# reference.py kernels doing the kinds of work that dominate each workload
REFERENCE = {"radius": ("py", "roll"), "oracle": ("scan",), "sweep": ("py", "roll")}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def radius_argv(kind: str, q: int, k: int) -> list[str]:
    return ["covering-radius", "--code", kind, "--q", str(q), "--k", str(k)]


def expected_radius(kind: str, q: int, k: int) -> int:
    """n - k for a full-length RS code; the conjectured value for PRS."""
    if kind == "rs":
        return q - k
    return q - k + 1 if q % 2 == 0 and k in (2, q - 2) else q - k


def oracle_words(seed: int) -> list[list[tuple[int, ...]]]:
    """WORDS_PER_CODE uniformly random words for each code of ORACLE_CODES."""
    rng = random.Random(seed % ORACLE_BANK)
    out = []
    for kind, q, k in ORACLE_CODES:
        n = q + 1 if kind == "prs" else q
        out.append(
            [tuple(rng.randrange(q) for _ in range(n)) for _ in range(WORDS_PER_CODE)]
        )
    return out


def distance_digest(distances) -> str:
    return hashlib.sha256(bytes(distances)).hexdigest()[:8]


def _cli_op(argv):
    def op():
        report, code = cli.run_command(argv)
        text = cli.render_json(report) if report is not None else None
        return report, code, text

    return op


def _oracle_op(kind, q, k, word):
    def op():
        code = codes.rs(q, k) if kind == "rs" else codes.prs(q, k)
        return (
            code.error_distance(word, method="exhaustive"),
            code.error_distance(word, method="syndrome_span"),
        )

    return op


def make_ops(workload: str, seed: int) -> list[tuple[str, object]]:
    """(label, operation) pairs, in the order they run."""
    if workload == "radius":
        return [
            (f"{kind.upper()} q={q} k={k}", _cli_op(radius_argv(kind, q, k)))
            for kind, q, k in RADIUS_CASES
        ]
    if workload == "sweep":
        return [(cmd, _cli_op(cmd.split())) for cmd in SWEEP_COMMANDS]
    if workload == "oracle":
        return [
            (f"{kind.upper()} q={q} k={k} word {i}", _oracle_op(kind, q, k, w))
            for (kind, q, k), words in zip(ORACLE_CODES, oracle_words(seed))
            for i, w in enumerate(words)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _check_cli(out) -> str | None:
    report, code, text = out
    if code != 0 or report is None:
        return f"exit code {code}"
    failed = [k for k, v in report.get("assertions", {}).items() if v is not True]
    if failed:
        return f"assertions failed: {failed}"
    return None


def check(workload: str, seed: int, outputs: list) -> dict[int, str]:
    """Problems found in the outputs, by operation index.  An output of None
    (the operation raised) is reported by the caller, not here."""
    problems = {}
    if workload == "radius":
        for i, ((kind, q, k), out) in enumerate(zip(RADIUS_CASES, outputs)):
            if out is None:
                continue
            msg = _check_cli(out)
            if msg is None:
                rho = out[0]["result"]["rho"]
                if rho != expected_radius(kind, q, k):
                    msg = f"rho {rho} != {expected_radius(kind, q, k)}"
            if msg:
                problems[i] = msg
    elif workload == "sweep":
        digests = load_expected()["sweep"]
        for i, (cmd, out) in enumerate(zip(SWEEP_COMMANDS, outputs)):
            if out is None:
                continue
            msg = _check_cli(out)
            if msg is None:
                got = hashlib.sha256(out[2].encode()).hexdigest()
                if got != digests[cmd]:
                    msg = f"report digest {got[:12]} != recorded {digests[cmd][:12]}"
            if msg:
                problems[i] = msg
    elif workload == "oracle":
        recorded = load_expected()["oracle"][seed % ORACLE_BANK]
        for c, code_spec in enumerate(ORACLE_CODES):
            lo = c * WORDS_PER_CODE
            chunk = outputs[lo : lo + WORDS_PER_CODE]
            for i, out in enumerate(chunk, start=lo):
                if out is not None and out[0] != out[1]:
                    problems[i] = f"exhaustive {out[0]} != syndrome_span {out[1]}"
            if any(out is None for out in chunk):
                continue
            if distance_digest(out[0] for out in chunk) != recorded[8 * c : 8 * c + 8]:
                for i in range(lo, lo + WORDS_PER_CODE):
                    problems.setdefault(
                        i, f"distances of {code_spec} differ from the recorded list"
                    )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems
