#!/usr/bin/env python3
"""Check that every committed scenario report is byte-for-byte unchanged.

Runs `np_run` over every scenarios/*.json spec and compares the SHA-256
of each report with the committed digest file
(bench/baselines/scenario_report_digests.json):

  * scenario mode: `np_run <spec> --strip-wallclock --threads 4`, for
    every spec;
  * serving mode: `np_run <spec> --mode serving --readers 2
    --strip-wallclock`, for every spec the digest file lists under
    "serving" (specs that track per-node load refuse serving mode).

Reports are deterministic under --strip-wallclock, so any mismatch
means some report field moved. A spec without a committed digest, or a
digest without a spec, is an error too.

Usage:
  python3 scripts/check_scenario_digests.py [--np-run build/np_run]
  python3 scripts/check_scenario_digests.py --update   # rewrite digests

Exit status 0 when every digest matches, 1 otherwise.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_ARGS = ["--strip-wallclock", "--threads", "4"]
SERVING_ARGS = ["--mode", "serving", "--readers", "2", "--strip-wallclock"]


def report_digest(np_run, spec, args, workdir):
    out = pathlib.Path(workdir) / "report.json"
    cmd = [str(np_run), str(spec), *args, "--out", str(out)]
    run = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, check=False)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {run.returncode}:\n"
                           f"{run.stderr}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def serving_capable(spec):
    """Serving mode refuses per-node load tracking."""
    engine = json.loads(spec.read_text()).get("scenario", {})
    fault = engine.get("fault", {})
    return not fault.get("track_load", False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--np-run", default=str(ROOT / "build" / "np_run"))
    parser.add_argument("--scenarios", default=str(ROOT / "scenarios"))
    parser.add_argument(
        "--digests",
        default=str(ROOT / "bench" / "baselines" /
                    "scenario_report_digests.json"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite the digest file from this build")
    opts = parser.parse_args(argv)

    specs = sorted(pathlib.Path(opts.scenarios).glob("*.json"))
    digest_path = pathlib.Path(opts.digests)

    if opts.update:
        digests = {"scenario": {}, "serving": {}}
        with tempfile.TemporaryDirectory() as workdir:
            for spec in specs:
                digests["scenario"][spec.name] = report_digest(
                    opts.np_run, spec, SCENARIO_ARGS, workdir)
                if serving_capable(spec):
                    digests["serving"][spec.name] = report_digest(
                        opts.np_run, spec, SERVING_ARGS, workdir)
        digest_path.write_text(json.dumps(digests, indent=2, sort_keys=True) +
                               "\n")
        print(f"wrote {len(digests['scenario'])} scenario and "
              f"{len(digests['serving'])} serving digests to {digest_path}")
        return 0

    committed = json.loads(digest_path.read_text())
    names = {spec.name for spec in specs}
    failures = []
    for mode in ("scenario", "serving"):
        for name in sorted(set(committed[mode]) - names):
            failures.append(f"{mode}: {name} has a digest but no spec")
    for name in sorted(names - set(committed["scenario"])):
        failures.append(f"scenario: {name} has no committed digest")

    with tempfile.TemporaryDirectory() as workdir:
        for spec in specs:
            runs = [("scenario", SCENARIO_ARGS)]
            if spec.name in committed["serving"]:
                runs.append(("serving", SERVING_ARGS))
            for mode, args in runs:
                want = committed[mode].get(spec.name)
                if want is None:
                    continue
                try:
                    got = report_digest(opts.np_run, spec, args, workdir)
                except RuntimeError as err:
                    failures.append(f"{mode}: {spec.name}: {err}")
                    continue
                verdict = "ok" if got == want else "CHANGED"
                print(f"{mode:8s} {spec.name:32s} {verdict}")
                if got != want:
                    failures.append(f"{mode}: {spec.name} report changed "
                                    f"({want[:16]} -> {got[:16]})")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
