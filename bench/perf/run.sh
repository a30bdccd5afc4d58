#!/usr/bin/env bash
# Build and run the xui_perf simulator benchmark (see README.md).
#
#   run.sh                         all four workloads, seed 1, 10 s each
#   run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                  one workload; the last stdout line
#                                  is the result JSON
#   run.sh --repeat N [--seconds S]
#                                  N >= 5 untraced runs per workload
#                                  (seeds 1..N): median, quartiles and
#                                  relative IQR of every metric
#   run.sh --selftest              negative control: every workload
#                                  against a wrong pin must fail
#   run.sh --pin                   rewrite expected.txt (seeds 1, 2)
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
# repository root; results and traces to its perf/ subdirectory.
# Unknown flags and malformed values exit 2.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
BUILD="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$BUILD" = /* ]] || BUILD="$ROOT/$BUILD"
OUT="$BUILD/perf"
BIN="$BUILD/xui_perf"
EXPECTED="$HERE/expected.txt"
WORKLOADS=(uarch_detail uarch_sampled des_apps verify_sweep)

usage() {
    echo "run.sh: $1" >&2
    sed -n '2,18p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

is_uint() { [[ "$1" =~ ^[0-9]+$ ]]; }

mode=all workload="" seed=1 seconds=10 trace=0 repeat=0
while (($#)); do
    flag="$1"
    case "$flag" in
      --selftest|--pin) mode="${flag#--}"; shift; continue ;;
    esac
    (($# >= 2)) || usage "$flag needs a value"
    value="$2"
    shift 2
    case "$flag" in
      --workload) mode=one; workload="$value" ;;
      --seed) is_uint "$value" && ((value >= 1)) ||
                  usage "--seed needs an integer >= 1"; seed="$value" ;;
      --seconds) is_uint "$value" && ((value >= 1)) ||
                  usage "--seconds needs an integer >= 1"; seconds="$value" ;;
      --trace) [[ "$value" == 0 || "$value" == 1 ]] ||
                  usage "--trace needs 0 or 1"; trace="$value" ;;
      --repeat) is_uint "$value" && ((value >= 5)) ||
                  usage "--repeat needs an integer >= 5"; mode=repeat
                repeat="$value" ;;
      *) usage "unknown flag '$flag'" ;;
    esac
done
# ---- build (output to a log, so stdout stays the benchmark's) ----------
if [[ ! -f "$ROOT/src/CMakeLists.txt" ]]; then
    echo "run.sh: no simulator sources under $ROOT/src" >&2
    exit 1
fi
mkdir -p "$OUT"
jobs=$(nproc 2>/dev/null || echo 1)
((jobs > 4)) && jobs=4
if ! { cmake -S "$HERE" -B "$BUILD" &&
       cmake --build "$BUILD" -j "$jobs" --target xui_perf; } \
       >"$BUILD/build.log" 2>&1; then
    tail -n 30 "$BUILD/build.log" >&2
    echo "run.sh: build failed (full log: $BUILD/build.log)" >&2
    exit 1
fi

# run_one W SEED SECONDS TRACE [extra xui_perf args...]
run_one() {
    local w="$1" s="$2" secs="$3" t="$4"
    shift 4
    local args=(--workload "$w" --seed "$s" --seconds "$secs"
                --result "$OUT/$w-s$s-trace$t.json")
    [[ -f "$EXPECTED" ]] && args+=(--expected "$EXPECTED")
    ((t)) && args+=(--trace "$OUT/trace-$w-s$s.json")
    "$BIN" "${args[@]}" "$@"
}

case "$mode" in
  one)
    run_one "$workload" "$seed" "$seconds" "$trace"
    ;;

  all)
    status=0
    for w in "${WORKLOADS[@]}"; do
        run_one "$w" "$seed" "$seconds" 0 || status=1
        echo
    done
    echo "results: $OUT/*-s$seed-trace0.json"
    exit "$status"
    ;;

  repeat)
    for w in "${WORKLOADS[@]}"; do
        : >"$OUT/repeat-$w.jsonl"
        for ((s = 1; s <= repeat; s++)); do
            echo "== $w seed $s" >&2
            run_one "$w" "$s" "$seconds" 0 | tail -n 1 >>"$OUT/repeat-$w.jsonl"
        done
    done
    python3 - "$OUT" "${WORKLOADS[@]}" <<'EOF'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
print(f"{'workload':14} {'metric':20} {'q1':>12} {'median':>12} "
      f"{'q3':>12} {'rel IQR':>8}  errors")
for w in workloads:
    runs = [json.loads(l) for l in open(f"{out}/repeat-{w}.jsonl")]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        print(f"{w:14} {name:20} {q1:12.6g} {med:12.6g} {q3:12.6g} "
              f"{rel:8.2%}  {failed}/{attempted}")
EOF
    ;;

  selftest)
    # Corrupt the last pinned field (a digest) of each workload's seed
    # 1 and demand that the oracle notices: non-zero exit, every op
    # failed.
    status=0
    for w in "${WORKLOADS[@]}"; do
        awk -v w="$w" 'NR == FNR { if ($1 == w && $2 == 1) last = FNR; next }
                       FNR == last { $4 = "0xbad" } { print }' \
            "$EXPECTED" "$EXPECTED" >"$OUT/wrong-pins.txt"
        set +e
        "$BIN" --workload "$w" --seed 1 --seconds 1 \
            --expected "$OUT/wrong-pins.txt" >"$OUT/selftest-$w.log"
        rc=$?
        set -e
        grep -m1 'fingerprint:' "$OUT/selftest-$w.log" || true
        if ((rc != 0)) && tail -n 1 "$OUT/selftest-$w.log" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["attempted"] > 0 and r["failed"] == r["attempted"] else 1)'
        then
            echo "selftest $w: ok (exit $rc, error_rate 1.0)"
        else
            echo "selftest $w: FAILED (exit $rc): the oracle missed a wrong pin"
            status=1
        fi
    done
    exit "$status"
    ;;

  pin)
    tmp="$OUT/expected.new"
    {
        echo "# xui_perf fingerprints: workload seed field value."
        echo "# Regenerate with bench/perf/run.sh --pin (see README.md)."
    } >"$tmp"
    for w in "${WORKLOADS[@]}"; do
        for s in 1 2; do
            "$BIN" --workload "$w" --seed "$s" --seconds 1 --pin "$tmp" |
                grep -m1 'error_rate'
        done
    done
    mv "$tmp" "$EXPECTED"
    echo "wrote $EXPECTED"
    ;;
esac
