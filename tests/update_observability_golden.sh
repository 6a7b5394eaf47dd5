#!/usr/bin/env sh
# Regenerates testdata/observability/<program>_counters.golden.json for
# fig1 and conduct after an intentional change to what the pipeline
# publishes (see TraceTest.StatsGoldenCountersFor* and
# docs/OBSERVABILITY.md).
#
# Usage: tests/update_observability_golden.sh [path-to-alpc]
set -eu
ALPC=${1:-build/tools/alpc}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
for prog in fig1 conduct; do
  "$ALPC" "$ROOT/testdata/$prog.alp" --stats=- |
    python3 -c '
import re, sys
text = sys.stdin.read()
m = re.search(r"\"counters\": ({[^}]*})", text)
assert m, "no counters section in stats output"
path = sys.argv[1]
with open(path, "w") as f:
    f.write(m.group(1) + "\n")
print("wrote", path)
' "$ROOT/testdata/observability/${prog}_counters.golden.json"
done
