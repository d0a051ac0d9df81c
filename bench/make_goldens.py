"""Record the expected outputs the benchmark checks against, into goldens.json.

    PYTHONPATH=src python3 bench/make_goldens.py

Run it only on a commit whose outputs are known to be right: the benchmark
fails any later commit whose masked claims.json or binary64 field differs
from what this records.  It takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def catalog_golden(report_seed: int) -> dict:
    from wavecheck import cli

    workloads.scale_catalog()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["report", "--seed", str(report_seed), "--out", out])
        claims = json.loads((Path(out) / "claims.json").read_text())
    if code != 0:
        raise SystemExit(f"report --seed {report_seed} exited {code}; not recording it")
    masked = workloads.masked_claims(claims)
    return {
        "status": {c["id"]: c["status"] for c in masked["claims"]},
        "claim_sha256": {c["id"]: workloads.digest(c) for c in masked["claims"]},
    }


def main() -> int:
    from wavecheck import analysis, scheme, standing_wave

    g = analysis.refinement_chain([workloads.BIG_IMAX], workloads.ORDER_CN, 1.0)[0]
    run = scheme.solve(analysis.problem_for(standing_wave(1, 1)), g)
    goldens = {
        "binary64-order": {"field_sha256": workloads.field_digest(run)},
        "catalog": {},
    }
    del run
    for report_seed in workloads.CATALOG_SEEDS:
        goldens["catalog"][str(report_seed)] = catalog_golden(report_seed)
        print(f"recorded catalog seed {report_seed}", file=sys.stderr)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
