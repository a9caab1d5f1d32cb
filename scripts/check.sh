#!/usr/bin/env bash
# Every correctness gate, in one command.
#
#   scripts/check.sh          # from the repo root
#
# 1. The tier-1 test suite (tests/), exactly as ROADMAP.md defines.
# 2. The engine microbenchmarks (benchmarks/test_engine_microbench.py)
#    with timing disabled, so hot-path regressions that *break* (rather
#    than slow) the engine are caught here too.
# 3. The host-time harness's self-test (benchmarks/perf): the only
#    place DB.get/scan/put are checked against a shadow dict under the
#    exact op mix the benchmark times.
# 4. Trace schema round-trip, 5. crash sweep, 6. replica chaos sweep,
# 7. the service layer's four pinned virtual-time claims
#    (benchmarks/test_service_claims.py), 8. the determinism gate
#    (scripts/check_determinism.py: six scenarios, each run twice and
#    held to its pinned sha256), 9. the console audit.
#
# For host-time numbers (with spread, against a parent commit), use
# python benchmarks/perf/bench.py and its --compare.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: tests/ =="
python -m pytest -x -q

echo
echo "== microbench smoke (timing disabled) =="
python -m pytest -x -q --benchmark-disable benchmarks/test_engine_microbench.py

echo
echo "== host-time harness self-test (benchmarks/perf) =="
python -m pytest -q benchmarks/perf

echo
echo "== trace schema: every event round-trips through JSONL =="
python scripts/validate_trace_schema.py

echo
echo "== crash consistency: bounded seeded sweep (3 styles) =="
# 200 seeded crash schedules; the full 1000-schedule acceptance sweep
# is scripts/crashmonkey.py with defaults (docs/crash_consistency.md).
python scripts/crashmonkey.py --schedules 200 --seed 77 --quiet

echo
echo "== service chaos: replica crashes + failover, seeded sweep, twice =="
# 200 seeded replica-crash schedules over the replicated service (both
# scenario shapes: mid-group-commit and mid-drain), run twice and
# byte-compared; the full 1000-schedule sweep is scripts/chaosmonkey.py
# with defaults (docs/service.md, docs/crash_consistency.md).
python scripts/chaosmonkey.py --schedules 200 --seed 77 --twice --quiet

echo
echo "== service claims: group commit, online tuning, live split, quorum =="
python -m pytest -q benchmarks/test_service_claims.py

echo
echo "== determinism: bg, service, scan, online, reshard, tune =="
# Each scenario runs twice and is byte-compared (trace and
# report); its sha256 must equal the pin in the script's EXPECTED table.
python scripts/check_determinism.py

echo
echo "== console audit: no direct print() outside repro/obs/console.py =="
# Match print( as a call (not substrings like fingerprint(); the
# sanctioned helper is the only allowed caller).
if grep -rnE '(^|[^a-zA-Z0-9_."])print\(' src/repro --include='*.py' \
    | grep -v 'repro/obs/console.py'; then
  echo "FAIL: direct print() found in src/repro (use repro.obs.console)" >&2
  exit 1
fi
echo "console audit OK"

echo
echo "check.sh: all green"
