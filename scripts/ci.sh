#!/bin/sh -e
# Tier-1 gate: build, full test suite, and a quick end-to-end benchmark run.
cd "$(dirname "$0")/.."
dune build
dune runtest

# Top-level mutable state in lib/ must be on the reviewed allowlist
# (scripts/globals.allow): bench cells and serve workers run library code
# on parallel domains, so an unreviewed global is a latent data race.
sh scripts/lint-globals.sh

# Documentation build (odoc is optional in the minimal toolchain image).
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "ci: odoc not installed, skipping dune build @doc"
fi

# Engine correctness smoke: the tiered superblock engine (the default:
# profile-guided promotion, recompilation and jalr inline caches), the same
# engine untiered (--no-tier --no-ic), with only the caches off (--no-ic),
# with the IR disabled (--no-ir), the straight-line block engine and the
# single-step reference must retire bit-identical instruction counts across
# every rewriting experiment (the fault-determinism contract, end to end).
# micro includes the branch-dense workload (interp-branchy), the worst case
# for side-exit dispatch, and the indirect-call workload that stresses the
# inline caches.
json_super=$(mktemp /tmp/chimera-super-XXXXXX.json)
json_untiered=$(mktemp /tmp/chimera-untiered-XXXXXX.json)
json_noic=$(mktemp /tmp/chimera-noic-XXXXXX.json)
json_noir=$(mktemp /tmp/chimera-noir-XXXXXX.json)
json_block=$(mktemp /tmp/chimera-block-XXXXXX.json)
json_step=$(mktemp /tmp/chimera-step-XXXXXX.json)
json_full=$(mktemp /tmp/chimera-full-XXXXXX.json)
trace=$(mktemp /tmp/chimera-trace-XXXXXX.jsonl)
profdir=$(mktemp -d /tmp/chimera-prof-XXXXXX)
trap 'rm -rf "$json_super" "$json_untiered" "$json_noic" "$json_noir" "$json_block" "$json_step" "$json_full" "$trace" "$profdir"' EXIT
engine_exps="table1 fig13 table2 table3 ablation micro"
# The tiered run is pinned to -j 1 because the metrics smoke below
# compares its fig13 row field for field, and TLB counts depend on
# scheduling under -j N (a mapping in any cell bumps the process-wide
# permission epoch and flushes every other cell's TLB).
dune exec bench/main.exe -- $engine_exps -q -j 1 --json "$json_super"
dune exec bench/main.exe -- $engine_exps -q --no-tier --no-ic --json "$json_untiered"
dune exec bench/main.exe -- $engine_exps -q --no-ic --json "$json_noic"
dune exec bench/main.exe -- $engine_exps -q --no-ir --json "$json_noir"
dune exec bench/main.exe -- $engine_exps -q --engine block --json "$json_block"
dune exec bench/main.exe -- $engine_exps -q --engine step --json "$json_step"
retired_super=$(grep -o '"retired": [0-9]*' "$json_super")
retired_untiered=$(grep -o '"retired": [0-9]*' "$json_untiered")
retired_noic=$(grep -o '"retired": [0-9]*' "$json_noic")
retired_noir=$(grep -o '"retired": [0-9]*' "$json_noir")
retired_block=$(grep -o '"retired": [0-9]*' "$json_block")
retired_step=$(grep -o '"retired": [0-9]*' "$json_step")
test -n "$retired_super"
if [ "$retired_super" != "$retired_step" ] || [ "$retired_block" != "$retired_step" ] \
  || [ "$retired_noir" != "$retired_step" ] || [ "$retired_untiered" != "$retired_step" ] \
  || [ "$retired_noic" != "$retired_step" ]; then
  echo "ci: engine mismatch over [$engine_exps]:" >&2
  echo "  tiered   [$retired_super]" >&2
  echo "  untiered [$retired_untiered]" >&2
  echo "  no-ic    [$retired_noic]" >&2
  echo "  no-ir    [$retired_noir]" >&2
  echo "  block    [$retired_block]" >&2
  echo "  step     [$retired_step]" >&2
  exit 1
fi
echo "ci: tiered/untiered/no-ic/no-ir/block/step engines agree over [$engine_exps]"

# Ablation reach: each run's engine configuration is passed explicitly to
# every machine it creates, and equal retired counts would not notice a
# path that silently fell back to the default engine. So every engine row
# (a row carrying tb_dispatches) of each run must show its flag's effect:
# check_rows FILE LABEL COND, COND an awk expression over the row's
# numeric fields f["name"].
check_rows() {
  rows=$(grep '"tb_dispatches"' "$1")
  test -n "$rows"
  echo "$rows" | awk -v what="$2" -v cond="$3" '
    { delete f
      line = $0
      while (match(line, /"[a-z_0-9]+": [0-9.]+/)) {
        split(substr(line, RSTART, RLENGTH), kv, /": /)
        f[substr(kv[1], 2)] = kv[2] + 0
        line = substr(line, RSTART + RLENGTH)
      }
      match($0, /"name": "[^"]*"/)
      name = substr($0, RSTART + 9, RLENGTH - 10)
      if (!('"$3"')) {
        printf "ci: %s did not reach row %s (need %s)\n", what, name, cond > "/dev/stderr"
        bad = 1
      } }
    END { exit bad }'
}
check_rows "$json_step" "--engine step" 'f["tb_dispatches"] == 0'
check_rows "$json_block" "--engine block" 'f["side_exit_rate"] == 0 && f["tb_dispatches"] > 0'
check_rows "$json_noir" "--no-ir" 'f["ir_units"] == 0'
check_rows "$json_untiered" "--no-tier --no-ic" 'f["tier_promotions"] == 0 && f["ic_hits"] == 0'
check_rows "$json_super" "the default engine" 'f["tier_promotions"] > 0'
echo "ci: every ablation flag reached every engine row"

# Allocation gate: fig13's minor words per retired instruction in the -j 1
# tiered run (the calling domain's allocation over the row's window) must
# stay within the driver's budget, max_minor_words_per_inst in
# bench/main.ml. A deterministic work proxy: it moves when the hot path
# starts allocating again, with no wall-clock noise.
budget=$(grep -o 'max_minor_words_per_inst = [0-9.]*' bench/main.ml | grep -o '[0-9.]*$')
fig13_words=$(grep '"name": "fig13"' "$json_super" \
  | grep -o '"minor_words_per_inst": [0-9.]*' | grep -o '[0-9.]*$')
test -n "$budget" && test -n "$fig13_words"
if ! awk "BEGIN { exit !($fig13_words <= $budget) }"; then
  echo "ci: allocation gate failed: fig13 minor_words_per_inst=$fig13_words" >&2
  echo "    (budget $budget)" >&2
  exit 1
fi
echo "ci: allocation gate passed (fig13 $fig13_words minor words/inst, budget $budget)"

# Tiering quality gates on the micro deterministic tail: with profile-guided
# recompilation and inline caches on, chained dispatch must dominate
# (chain_hit_rate >= 0.80 — the untiered superblock engine sits near 0.43 on
# the branch-dense workload) and the inline caches must resolve nearly every
# indirect terminator (ic_hit_rate >= 0.90).
micro_line=$(grep '"name": "micro"' "$json_super")
chain=$(echo "$micro_line" | grep -o '"chain_hit_rate": [0-9.]*' | grep -o '[0-9.]*$')
ichit=$(echo "$micro_line" | grep -o '"ic_hit_rate": [0-9.]*' | grep -o '[0-9.]*$')
test -n "$chain" && test -n "$ichit"
if ! awk "BEGIN { exit !($chain >= 0.80 && $ichit >= 0.90) }"; then
  echo "ci: tiering gates failed: chain_hit_rate=$chain (need >= 0.80)," >&2
  echo "    ic_hit_rate=$ichit (need >= 0.90)" >&2
  exit 1
fi
echo "ci: tiering gates passed (chain_hit_rate=$chain, ic_hit_rate=$ichit)"

# Observability smoke test: trace a quick table2 run and let the driver's
# validator cross-check the per-site counts against the event stream
# (non-zero exit on any mismatch; schema in OBSERVABILITY.md).
dune exec bench/main.exe -- table2 -q --trace "$trace"
test -s "$trace"
head -1 "$trace" | grep -q '"ev":"meta"'

# Profiler smoke: the guest profiler's retired total must equal the
# machine's own counter bit-for-bit, on all three engines. The driver
# already hard-checks this (non-zero exit on mismatch); re-assert it here
# from the JSON, and check the report + folded-stack outputs exist.
for eng in super block step; do
  dune exec bench/main.exe -- fig13 -q --engine "$eng" \
    --profile "$profdir" --json "$json_block"
  retired=$(grep -o '"retired": [0-9]*' "$json_block" | grep -o '[0-9]*')
  prof=$(grep -o '"prof_retired": [0-9]*' "$json_block" | grep -o '[0-9]*')
  test -n "$retired" && test -n "$prof"
  if [ "$retired" != "$prof" ]; then
    echo "ci: $eng engine: profiler retired $prof != machine retired $retired" >&2
    exit 1
  fi
  echo "ci: $eng engine profile exact ($prof retired)"
done
test -s "$profdir/fig13.txt"
test -s "$profdir/fig13.folded"

# Translation-cache smoke: two quick fig13 runs against one cache
# directory. Each invocation already runs cold-then-warm internally and
# hard-fails on any retired divergence between its passes; the second
# invocation additionally starts against a fully-populated directory, so
# its warm pass must hit nearly everything (>= 0.95) and its translate_s
# (translation the cache failed to serve) must sit under the cold pass's.
cachedir=$(mktemp -d /tmp/chimera-cache-XXXXXX)
json_cache=$(mktemp /tmp/chimera-cache-XXXXXX.json)
trap 'rm -rf "$json_super" "$json_untiered" "$json_noic" "$json_noir" "$json_block" "$json_step" "$json_full" "$trace" "$profdir" "$cachedir" "$json_cache"' EXIT
# First invocation: genuinely cold then warm inside one process — the
# warm pass's translate_s must beat the cold pass's.
dune exec bench/main.exe -- fig13 -q --cache "$cachedir" --json "$json_cache"
retired1=$(grep -o '"retired": [0-9]*' "$json_cache")
warm_translate=$(grep -o '"translate_s": [0-9.]*' "$json_cache" | grep -o '[0-9.]*$')
cold_translate=$(grep -o '"cold_translate_s": [0-9.]*' "$json_cache" | grep -o '[0-9.]*$')
test -n "$warm_translate" && test -n "$cold_translate"
if ! awk "BEGIN { exit !($warm_translate < $cold_translate) }"; then
  echo "ci: cache gate failed: warm translate_s=$warm_translate" >&2
  echo "    (need < cold $cold_translate)" >&2
  exit 1
fi
# Second invocation: a fresh process against the populated directory — its
# warm pass must hit nearly everything, proving the entries persist and
# reload across process restarts; retired must match the first invocation.
dune exec bench/main.exe -- fig13 -q --cache "$cachedir" --json "$json_cache"
retired2=$(grep -o '"retired": [0-9]*' "$json_cache")
hit=$(grep -o '"cache_hit_rate": [0-9.]*' "$json_cache" | grep -o '[0-9.]*$')
test -n "$hit"
if [ "$retired1" != "$retired2" ]; then
  echo "ci: cache changed execution: [$retired1] != [$retired2]" >&2
  exit 1
fi
if ! awk "BEGIN { exit !($hit >= 0.95) }"; then
  echo "ci: cache gate failed: cache_hit_rate=$hit (need >= 0.95)" >&2
  exit 1
fi
echo "ci: cache gates passed (hit_rate=$hit, translate_s $cold_translate -> $warm_translate)"

# Unoptimized plans at every tier: with the IR passes off, translations
# record their straight-line instructions as Scompile steps and replay
# re-lowers them. Two --no-ir invocations against one fresh directory must
# retire what the default cache run retired, and the second must hit
# nearly everything. (test_cache checks that every recorded block of such
# a plan seeds.)
cachedir_noir=$(mktemp -d /tmp/chimera-cache-noir-XXXXXX)
trap 'rm -rf "$json_super" "$json_untiered" "$json_noic" "$json_noir" "$json_block" "$json_step" "$json_full" "$trace" "$profdir" "$cachedir" "$json_cache" "$cachedir_noir"' EXIT
dune exec bench/main.exe -- fig13 -q --no-ir --cache "$cachedir_noir" --json "$json_cache"
retired_noir1=$(grep -o '"retired": [0-9]*' "$json_cache")
dune exec bench/main.exe -- fig13 -q --no-ir --cache "$cachedir_noir" --json "$json_cache"
retired_noir2=$(grep -o '"retired": [0-9]*' "$json_cache")
hit_noir=$(grep -o '"cache_hit_rate": [0-9.]*' "$json_cache" | grep -o '[0-9.]*$')
test -n "$hit_noir"
if [ "$retired_noir1" != "$retired1" ] || [ "$retired_noir2" != "$retired1" ]; then
  echo "ci: --no-ir cache runs changed execution:" >&2
  echo "  default [$retired1] no-ir [$retired_noir1] [$retired_noir2]" >&2
  exit 1
fi
if ! awk "BEGIN { exit !($hit_noir >= 0.95) }"; then
  echo "ci: --no-ir cache gate failed: cache_hit_rate=$hit_noir (need >= 0.95)" >&2
  exit 1
fi
echo "ci: --no-ir cache gates passed (hit_rate=$hit_noir)"

# Metrics smoke: a quick fig13 with the always-on metrics registry
# exporting at exit. Assert from the artifacts that the exposition is
# well-formed Prometheus text, that the Prometheus and JSON views agree on
# retired, that the health watchdog found every rule healthy, and that
# --metrics only chooses whether to write the dump: the fig13 row must be
# identical to the one the tiered run above produced without it, except
# for the wall-clock fields.
metrics_prom=$(mktemp /tmp/chimera-metrics-XXXXXX.prom)
json_metrics=$(mktemp /tmp/chimera-metrics-XXXXXX.json)
trap 'rm -rf "$json_super" "$json_untiered" "$json_noic" "$json_noir" "$json_block" "$json_step" "$json_full" "$trace" "$profdir" "$cachedir" "$json_cache" "$cachedir_noir" "$metrics_prom" "$json_metrics"' EXIT
dune exec bench/main.exe -- fig13 -q -j 1 --json "$json_metrics" --metrics "$metrics_prom"
grep -q '^# TYPE chimera_retired_total counter$' "$metrics_prom"
grep -q '^# TYPE chimera_translate_ns histogram$' "$metrics_prom"
grep -q 'le="+Inf"' "$metrics_prom"
retired_prom=$(grep '^chimera_retired_total ' "$metrics_prom" | grep -o '[0-9]*$')
retired_json=$(grep -o '"retired": [0-9]*' "$json_metrics" | grep -o '[0-9]*')
test -n "$retired_prom" && test -n "$retired_json"
if [ "$retired_prom" != "$retired_json" ]; then
  echo "ci: metrics exposition disagrees with json: $retired_prom != $retired_json" >&2
  exit 1
fi
if ! grep -q '^chimera_healthy 1$' "$metrics_prom"; then
  echo "ci: watchdog reported a degraded run:" >&2
  grep '^chimera_health' "$metrics_prom" >&2
  exit 1
fi
fig13_row() {
  grep '"name": "fig13"' "$1" \
    | sed -E -e 's/"(wall_s|mips|translate_s|translate_p[0-9]+_ns)": [0-9.]*/"\1": _/g' \
        -e 's/,$//'
}
row_plain=$(fig13_row "$json_super")
row_metrics=$(fig13_row "$json_metrics")
test -n "$row_plain"
if [ "$row_plain" != "$row_metrics" ]; then
  echo "ci: --metrics changed the fig13 row:" >&2
  echo "  without: $row_plain" >&2
  echo "  with:    $row_metrics" >&2
  exit 1
fi
echo "ci: metrics smoke passed (retired=$retired_prom, watchdog healthy, row unchanged)"

# Serve smoke: a short seeded open-loop run of the multi-tenant server
# over a worker pool and a shared translation cache. The driver hard-fails
# on any pooled request retiring differently from its solo oracle run
# (non-zero exit), so a clean exit IS the tenant-isolation check; assert
# from the artifacts that the serving fields landed in --json, that the
# admission counters balance, and that the health watchdog — including
# the queue_saturation rule, active at >= 64 admitted — saw the queue
# fully drained.
json_serve=$(mktemp /tmp/chimera-serve-XXXXXX.json)
serve_prom=$(mktemp /tmp/chimera-serve-XXXXXX.prom)
trap 'rm -rf "$json_super" "$json_untiered" "$json_noic" "$json_noir" "$json_block" "$json_step" "$json_full" "$trace" "$profdir" "$cachedir" "$json_cache" "$cachedir_noir" "$metrics_prom" "$json_metrics" "$json_serve" "$serve_prom"' EXIT
dune exec bench/main.exe -- serve -q -j 2 --json "$json_serve" --metrics "$serve_prom"
grep -q '"serve_p99_ms":' "$json_serve"
grep -q '"serve_throughput":' "$json_serve"
admitted=$(grep '^chimera_serve_admitted_total ' "$serve_prom" | grep -o '[0-9]*$')
completed=$(grep '^chimera_serve_done_total ' "$serve_prom" | grep -o '[0-9]*$')
test -n "$admitted" && test -n "$completed"
if [ "$admitted" != "$completed" ]; then
  echo "ci: serve lost requests: admitted $admitted, completed $completed" >&2
  exit 1
fi
grep -q '^chimera_health{rule="queue_saturation"} 1$' "$serve_prom"
if ! grep -q '^chimera_healthy 1$' "$serve_prom"; then
  echo "ci: serve watchdog reported a degraded run:" >&2
  grep '^chimera_health' "$serve_prom" >&2
  exit 1
fi
# The chimera CLI front end: replicas of one tenant through the shared
# cache must retire identically (the second starts plan-warm), and the
# watchdog must stay healthy through admission and drain.
serve_out=$(dune exec bin/chimera_cli.exe -- serve spec:omnetpp_r -j 2 \
  --repeat 2 --cache "$cachedir" --metrics "$serve_prom")
echo "$serve_out" | grep -q "watchdog healthy"
replicas=$(echo "$serve_out" | grep -c 'retired=')
retired_set=$(echo "$serve_out" | grep -o 'retired=[0-9]*' | sort -u | wc -l)
if [ "$replicas" != "2" ] || [ "$retired_set" != "1" ]; then
  echo "ci: serve replicas diverged:" >&2
  echo "$serve_out" >&2
  exit 1
fi
echo "ci: serve smoke passed ($admitted requests pooled, replicas identical, watchdog healthy)"

# Perf-regression gate: diff a fresh full fig13 against the committed
# reference run, writing the metrics dump on the way. retired must match
# exactly; wall time gets a generous tolerance (shared CI runners are
# noisy), hit rates -0.02 absolute, events_dropped at most baseline's.
# BENCH_PR9's fig13 row predates the serving fields, so the gate also
# proves old baselines parse (absent option fields are skipped).
dune exec bench/main.exe -- fig13 --json "$json_full" \
  --metrics "$metrics_prom" --compare BENCH_PR9.json --wall-tol 2.0
echo "ci: regression gate passed against BENCH_PR9.json"
