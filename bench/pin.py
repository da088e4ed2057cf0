"""Rewrite the pinned report hashes in known_answers.json.

    python3 bench/pin.py

Runs ``svlie verify --format json`` in process, at the default seed, for
every suite a workload runs, and stores the sha256 of what it prints.  The
verdict table is the README's and is never recomputed.  Re-pin only in a
change that says why its reports differ.
"""

import json

from run import BENCH, known_answers, load_engine

if __name__ == "__main__":
    load_engine()
    import workloads

    known = known_answers()
    known["report_sha256"] = {}
    for specs in workloads.SUITE_WORKLOADS.values():
        for spec in specs:
            argv = ["verify", "--suite", spec.suite, "--radius", str(spec.radius),
                    "--seed", str(workloads.DEFAULT_SEED), "--cases", str(spec.cases), "--format", "json"]
            code, out = workloads.run_cli(argv)
            if code != 0:
                raise SystemExit(f"{spec.key}: svlie verify exited {code}")
            known["report_sha256"][spec.key] = workloads.sha256(out)
    (BENCH / "known_answers.json").write_text(json.dumps(known, indent=2) + "\n")
