#!/usr/bin/env python3
"""Fail if the seqpair hot-path bench regressed vs the recorded trajectory.

Reads the latest run in BENCH_hotpath.json (the file every evaluation-pipeline
PR appends a run to), re-reads a fresh `cargo bench` log, and exits non-zero
if `engine_moves/seqpair_2000/10` is more than THRESHOLD slower than the
checked-in number. Criterion noise on shared CI runners is real (±15% is
common), so the gate is deliberately loose: it catches "someone re-introduced
a clone per move", not single-digit drift.

Usage: bench_threshold.py <bench-log-file> [bench-json] [threshold] [bench-name]
       bench_threshold.py --ratio <bench-log-file> [bench-json] [threshold]

`bench-name` defaults to the seqpair hot path; pass e.g.
`service_cache_hit/round_trip` with BENCH_service.json to gate the service's
cache-hit round trip instead.

`--ratio` gates a same-run ratio instead of an absolute time: the log's
`calibrated_ratio/seqpair_over_flat_btree/10` line (the hotpath bench's
median over interleaved pairs of `engine_moves/seqpair_2000/10` and
`engine_moves/flat_btree_2000/10` runs) against the latest run's
`calibrated_ratio.recorded`. A slower or busier machine slows both sides of
a pair alike, so the ratio stays comparable where the absolute number does
not; it runs next to the absolute gate, not instead of it.
"""

import json
import re
import sys

BENCH_NAME = "engine_moves/seqpair_2000/10"
RATIO_NAME = "calibrated_ratio/seqpair_over_flat_btree/10"
SCALE = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}


def main() -> int:
    args = sys.argv[1:]
    ratio = args[:1] == ["--ratio"]
    if ratio:
        args = args[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    log_path = args[0]
    json_path = args[1] if len(args) > 1 else "BENCH_hotpath.json"
    threshold = float(args[2]) if len(args) > 2 else 1.25

    latest = json.load(open(json_path))["runs"][-1]
    if ratio:
        bench_name, unit, digits = RATIO_NAME, "", 3
        recorded = latest["calibrated_ratio"]["recorded"]
        pattern = re.escape(bench_name) + r":\s*([0-9.]+)()"
    else:
        bench_name, unit, digits = args[3] if len(args) > 3 else BENCH_NAME, " ns/iter", 0
        recorded = latest["results"][bench_name]
        pattern = re.escape(bench_name) + r":\s*([0-9.]+)\s*(ns|µs|us|ms|s)/iter"

    text = open(log_path, encoding="utf-8").read()
    m = re.search(pattern, text)
    if not m:
        print(f"error: no '{bench_name}' line in {log_path}", file=sys.stderr)
        return 2
    measured = float(m.group(1)) * SCALE.get(m.group(2), 1.0)

    limit = recorded * threshold
    verdict = "OK" if measured <= limit else "REGRESSION"
    print(
        f"{bench_name}: measured {measured:.{digits}f}{unit}, "
        f"recorded {recorded}{unit}, limit {limit:.{digits}f} ({threshold:.2f}x) -> {verdict}"
    )
    return 0 if measured <= limit else 1


if __name__ == "__main__":
    sys.exit(main())
