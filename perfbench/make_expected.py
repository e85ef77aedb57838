"""Record the outputs the benchmark checks against, into expected.json.

Run from the repository root, on a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/make_expected.py

It records the SHA-256 of every rendered `sweep` report and, for each of the
ORACLE_BANK oracle word sets, a digest of the distances of each code's words.
Distances come from `error_distance(method="syndrome_span")`; on the first
CROSS_CHECKED_BANKS word sets they are cross-checked against
`error_distance(method="exhaustive")`.
"""

from __future__ import annotations

import hashlib
import json

import workloads
from deephole import cli, codes

CROSS_CHECKED_BANKS = 2


def sweep_digests() -> dict[str, str]:
    out = {}
    for cmd in workloads.SWEEP_COMMANDS:
        report, code = cli.run_command(cmd.split())
        if code != 0 or not all(report["assertions"].values()):
            raise SystemExit(f"{cmd}: exit {code}, assertions {report and report['assertions']}")
        out[cmd] = hashlib.sha256(cli.render_json(report).encode()).hexdigest()
    return out


def oracle_digests() -> list[str]:
    code_objs = [
        codes.rs(q, k) if kind == "rs" else codes.prs(q, k)
        for kind, q, k in workloads.ORACLE_CODES
    ]
    out = []
    for bank in range(workloads.ORACLE_BANK):
        digest = ""
        for code, words in zip(code_objs, workloads.oracle_words(bank)):
            dists = [code.error_distance(w, method="syndrome_span") for w in words]
            if bank < CROSS_CHECKED_BANKS:
                for w, d in zip(words, dists):
                    a = code.error_distance(w, method="exhaustive")
                    if a != d:
                        raise SystemExit(f"{code!r} {w}: exhaustive {a}, syndrome_span {d}")
            digest += workloads.distance_digest(dists)
        out.append(digest)
    return out


def main():
    expected = {"sweep": sweep_digests(), "oracle": oracle_digests()}
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
