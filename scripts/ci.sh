#!/usr/bin/env bash
# Tier-1 CI gate: configure, build, and run the full test suite three
# times — a plain Release build, an AddressSanitizer build
# (-DINFOLEAK_SANITIZE=address), and a forced-scalar build
# (-DINFOLEAK_FORCE_SCALAR=ON, pinning the SIMD kernel tables to the
# scalar reference) — plus a ThreadSanitizer pass
# (-DINFOLEAK_SANITIZE=thread) over the concurrency-heavy test subset.
# All runs must be 100% green. Each full pass also end-to-end smoke-tests
# the query service (serve on an ephemeral port, round-trip
# ping/append/leak/set-leak/stats through `infoleak call`, then SIGTERM
# and require a clean graceful drain; then serve a generated
# 10,000-record CSV and require a fresh reference's first set-leak off the
# index, with no scan fallback, matching offline `infoleak leakage`),
# smoke-tests the incremental leakage
# index (index-path set-leaks under appends, `subscribe` deltas, compact
# mid-load, kill -9 rebuild), smoke-tests the anonymization frontier
# (`infoleak frontier` on a small grid: worst-person leakage must be
# non-increasing in k and the per-point phase accounting present),
# and runs the differential selfcheck
# harness (`infoleak selfcheck`): every engine and path must agree on
# 2000 adversarial cases plus the checked-in regression corpus.
#
# Usage: scripts/ci.sh [jobs]
#
# Build trees land in build-ci-release/, build-ci-asan/, build-ci-scalar/,
# and build-ci-tsan/ at the repo root (covered by the build-*/ gitignore
# pattern) so they never clobber a developer's ./build tree.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_pass() {
  local dir="$1"
  shift
  echo "=== [${dir}] configure: $* ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  echo "=== [${dir}] build (-j${JOBS}) ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${dir}] ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# Serves a real store on an ephemeral port, exercises every hot verb via
# the one-shot client, and checks that SIGTERM drains cleanly (exit 0 and
# the drain summary in the log). Then serves `infoleak generate` output
# directly and checks a fresh reference answers off the index.
smoke_serve() {
  local dir="$1"
  local bin="${dir}/src/cli/infoleak"
  local log="${dir}/serve_smoke.log"
  echo "=== [${dir}] serve smoke test ==="
  "${bin}" serve --db examples/data/store_records.csv --port 0 \
      --workers 2 >"${log}" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}" | head -n1)"
    [[ -n "${port}" ]] && break
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "serve never reported a listening port:"
    cat "${log}"
    kill "${pid}" 2>/dev/null || true
    return 1
  fi
  local ref='{<N, n1>, <C, c1>, <P, p1>}'
  "${bin}" call --port "${port}" --verb ping | grep -q '"pong":true'
  "${bin}" call --port "${port}" --verb append \
      --body '{"record":"{<N, smoke, 1>}"}' | grep -q '"appended":'
  "${bin}" call --port "${port}" --verb leak \
      --body "{\"record_id\":0,\"reference\":\"${ref}\"}" \
      | grep -q '"leakage":'
  "${bin}" call --port "${port}" --verb set-leak \
      --body "{\"reference\":\"${ref}\"}" | grep -q '"argmax":'
  "${bin}" call --port "${port}" --verb stats | grep -q '"records":'
  # Observability plane: drive a little more set-leak load, then demand the
  # event log saw it. The enriched stats verb must report event accounting,
  # the slow-query ring, and build identity; `tail` must stream per-phase
  # breakdowns (zero phases are omitted from the JSON, so a present "eval"
  # key is a non-zero eval time), and the slow view must agree.
  for _ in 1 2 3; do
    "${bin}" call --port "${port}" --verb set-leak \
        --body "{\"reference\":\"${ref}\"}" >/dev/null
  done
  local stats_out
  stats_out="$("${bin}" call --port "${port}" --verb stats)"
  echo "${stats_out}" | grep -q '"events":{"recorded":'
  echo "${stats_out}" | grep -q '"slow":\['
  echo "${stats_out}" | grep -q '"build":{"version":'
  local tail_out
  tail_out="$("${bin}" tail --port "${port}" --count 50 --min-micros 1)"
  echo "${tail_out}" | grep -q '"verb":"set-leak"'
  echo "${tail_out}" | grep '"verb":"set-leak"' | grep -q '"queue":'
  echo "${tail_out}" | grep '"verb":"set-leak"' | grep -q '"eval":'
  echo "${tail_out}" | grep '"verb":"set-leak"' | grep -q '"serialize":'
  "${bin}" top --port "${port}" | grep -q 'slow-query ring:'
  "${bin}" tail --port "${port}" --slow --count 5 | grep -q '"total_us":'
  kill -TERM "${pid}"
  wait "${pid}"  # graceful drain must exit 0 (set -e aborts otherwise)
  grep -q "drained" "${log}"

  # A generated 10,000-record store, `#` comment lines and all, served
  # as-is: a reference the server has never seen must answer off the
  # leakage index on its first query (the index catches up inline, no scan
  # fallback) and agree with the offline `infoleak leakage` on the same CSV.
  local gen="${dir}/serve_smoke_gen.csv"
  "${bin}" generate --n 20 --records 10000 --seed 7 --emit-reference       >"${gen}"
  "${bin}" serve --db "${gen}" --port 0 --workers 2 >"${log}" 2>&1 &
  pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}" | head -n1)"
    [[ -n "${port}" ]] && break
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "serve --db of generated CSV never reported a listening port:"
    cat "${log}"
    kill "${pid}" 2>/dev/null || true
    return 1
  fi
  local gen_ref
  gen_ref="$(sed -n 's/^# reference: //p' "${gen}")"
  local served
  served="$("${bin}" call --port "${port}" --verb set-leak \
      --body "{\"reference\":\"${gen_ref}\"}")"
  echo "${served}" | grep -q '"path":"index"'
  echo "${served}" | grep -q '"records":10000'
  "${bin}" call --port "${port}" --verb stats | grep -q '"fallbacks":0'
  kill -TERM "${pid}"
  wait "${pid}"
  local leakage argmax offline
  leakage="$(echo "${served}" | sed -n 's/.*"leakage":\([0-9.eE+-]*\).*/\1/p')"
  argmax="$(echo "${served}" | sed -n 's/.*"argmax":\([0-9-]*\).*/\1/p')"
  offline="$("${bin}" leakage --db "${gen}" --reference-text "${gen_ref}" \
      | sed -n 's/^set leakage L0(R, p) = \(.*\)$/\1/p')"
  # The offline line prints FormatDouble(L, 7) — "%.7f", trailing zeros
  # trimmed — and the arg-max record; reproduce both from the wire answer.
  local rendered
  rendered="$(awk -v l="${leakage}" -v a="${argmax}" 'BEGIN {
    s = sprintf("%.7f", l); sub(/0+$/, "", s); sub(/\.$/, "", s)
    printf "%s (record %s)", s, a }')"
  if [[ "${rendered}" != "${offline}" ]]; then
    echo "served set-leak disagrees with offline leakage on ${gen}:"
    echo "  served:  ${served}"
    echo "  offline: ${offline}"
    return 1
  fi
  rm -f "${gen}"
  echo "=== [${dir}] serve smoke OK (port ${port}) ==="
}

# Durability smoke: serve a durable store with --fsync always, append
# through the network path, kill -9 (no drain, no flush courtesy), restart
# on the same data dir, and require every acknowledged append plus a
# bit-identical leakage answer. Finishes with an offline `compact` and one
# more recovery to prove the rewritten snapshot stands alone.
smoke_crash() {
  local dir="$1"
  local bin="${dir}/src/cli/infoleak"
  local log="${dir}/crash_smoke.log"
  local data
  data="$(mktemp -d "${dir}/crash-data-XXXXXX")"
  echo "=== [${dir}] crash-recovery smoke test ==="

  start_durable() {
    "${bin}" serve --data-dir "${data}" --fsync always --port 0 \
        --workers 2 >"${log}" 2>&1 &
    pid=$!
    port=""
    for _ in $(seq 1 100); do
      port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}" | head -n1)"
      [[ -n "${port}" ]] && break
      kill -0 "${pid}" 2>/dev/null || break
      sleep 0.1
    done
    if [[ -z "${port}" ]]; then
      echo "durable serve never reported a listening port:"
      cat "${log}"
      kill "${pid}" 2>/dev/null || true
      return 1
    fi
  }

  local pid port
  start_durable
  local n=25
  for i in $(seq 1 "${n}"); do
    "${bin}" call --port "${port}" --verb append \
        --body "{\"record\":\"{<N, crash${i}, 0.9>, <C, c${i}, 0.8>}\"}" \
        | grep -q '"appended":'
  done
  local ref='{<N, crash1>, <C, c1>}'
  local leak_before leak_after
  leak_before="$("${bin}" call --port "${port}" --verb leak \
      --body "{\"record_id\":0,\"reference\":\"${ref}\"}")"
  echo "${leak_before}" | grep -q '"leakage":'
  # No SIGTERM courtesy: the acknowledged appends must already be on disk.
  kill -9 "${pid}"
  wait "${pid}" 2>/dev/null || true

  start_durable
  "${bin}" call --port "${port}" --verb stats \
      | grep -q "\"records\":${n}\b"
  leak_after="$("${bin}" call --port "${port}" --verb leak \
      --body "{\"record_id\":0,\"reference\":\"${ref}\"}")"
  kill -TERM "${pid}"
  wait "${pid}"
  if [[ "${leak_before}" != "${leak_after}" ]]; then
    echo "leakage answer changed across kill -9 recovery:"
    echo "  before: ${leak_before}"
    echo "  after:  ${leak_after}"
    return 1
  fi

  # Offline compact, then one more recovery from the snapshot alone.
  "${bin}" compact --data-dir "${data}" | grep -q "compacted: ${n} record"
  start_durable
  "${bin}" call --port "${port}" --verb stats \
      | grep -q "\"records\":${n}\b"
  kill -TERM "${pid}"
  wait "${pid}"
  rm -rf "${data}"
  echo "=== [${dir}] crash-recovery smoke OK (${n} appends survived kill -9) ==="
}

# Incremental-index smoke: serve a durable store with the leakage index on
# (the default), interleave appends with set-leak load and require every
# answer off the index path, stream the per-append deltas over `subscribe`,
# compact mid-load (WAL reset -> epoch bump -> rebuild), check the stats
# hit/invalidation counters, then kill -9 and require the recovered index
# to reproduce the pre-crash answer bit for bit.
smoke_inc() {
  local dir="$1"
  local bin="${dir}/src/cli/infoleak"
  local log="${dir}/inc_smoke.log"
  local data
  data="$(mktemp -d "${dir}/inc-data-XXXXXX")"
  echo "=== [${dir}] incremental-index smoke test ==="

  local pid port
  start_inc() {
    "${bin}" serve --data-dir "${data}" --fsync always --port 0 \
        --workers 2 >"${log}" 2>&1 &
    pid=$!
    port=""
    for _ in $(seq 1 100); do
      port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}" | head -n1)"
      [[ -n "${port}" ]] && break
      kill -0 "${pid}" 2>/dev/null || break
      sleep 0.1
    done
    if [[ -z "${port}" ]]; then
      echo "inc serve never reported a listening port:"
      cat "${log}"
      kill "${pid}" 2>/dev/null || true
      return 1
    fi
  }

  start_inc
  local ref='{<N, inc1>, <C, c1>}'
  local body="{\"reference\":\"${ref}\"}"
  "${bin}" call --port "${port}" --verb append \
      --body '{"record":"{<N, inc1, 0.9>, <C, c1, 0.8>}"}' >/dev/null
  # The first set-leak registers the index; every answer must come off it.
  "${bin}" call --port "${port}" --verb set-leak --body "${body}" \
      | grep -q '"path":"index"'
  for i in $(seq 2 20); do
    "${bin}" call --port "${port}" --verb append \
        --body "{\"record\":\"{<N, inc${i}, 0.9>, <C, c${i}, 0.8>}\"}" \
        >/dev/null
    if (( i % 5 == 0 )); then
      "${bin}" call --port "${port}" --verb set-leak --body "${body}" \
          | grep -q '"path":"index"'
    fi
  done
  # The change feed streams the per-append deltas with a resumable cursor.
  "${bin}" subscribe --port "${port}" --reference-text "${ref}" \
      --max-events 5 | grep -q '"seq":1'
  # Compact mid-load: WAL reset -> epoch bump -> the index rebuilds and the
  # next query still answers off it.
  "${bin}" call --port "${port}" --verb compact | grep -q '"epoch":'
  "${bin}" call --port "${port}" --verb append \
      --body '{"record":"{<N, inc21, 0.9>, <C, c21, 0.8>}"}' >/dev/null
  local answer_before
  answer_before="$("${bin}" call --port "${port}" --verb set-leak \
      --body "${body}")"
  echo "${answer_before}" | grep -q '"path":"index"'
  echo "${answer_before}" | grep -q '"records":21'
  local stats_out
  stats_out="$("${bin}" call --port "${port}" --verb stats)"
  echo "${stats_out}" | grep -q '"index":{"enabled":true'
  echo "${stats_out}" | grep -Eq '"hits":[1-9]'
  echo "${stats_out}" | grep -Eq '"invalidations":[1-9]'
  # kill -9: recovery replays snapshot+WAL and rebuilds the index; the
  # answer must not move by a bit.
  kill -9 "${pid}"
  wait "${pid}" 2>/dev/null || true
  start_inc
  local answer_after
  answer_after="$("${bin}" call --port "${port}" --verb set-leak \
      --body "${body}")"
  kill -TERM "${pid}"
  wait "${pid}"
  if [[ "${answer_before}" != "${answer_after}" ]]; then
    echo "set-leak answer changed across kill -9 index rebuild:"
    echo "  before: ${answer_before}"
    echo "  after:  ${answer_after}"
    return 1
  fi
  rm -rf "${data}"
  echo "=== [${dir}] incremental-index smoke OK (21 records, index path) ==="
}

# Frontier smoke: sweep a small anonymization grid through the whole
# mechanism-evaluation pipeline (lattice search -> generalized ER ->
# per-person leakage) and require (a) worst-person leakage non-increasing
# in k — the paper's core monotonicity, any ER or lattice regression
# breaks it — and (b) the per-point phase accounting present when asked.
smoke_frontier() {
  local dir="$1"
  local bin="${dir}/src/cli/infoleak"
  echo "=== [${dir}] frontier smoke test ==="
  local out
  out="$("${bin}" frontier --rows 40 --ks 2,5,10 --phases)"
  echo "${out}" | grep -c '"found":true' | grep -qx 3
  echo "${out}" | grep -v '^#' \
    | sed -n 's/.*"worst_leakage":\([0-9.eE+-]*\).*/\1/p' \
    | awk 'NR > 1 && $1 > prev + 1e-12 { exit 1 } { prev = $1 }'
  echo "${out}" | grep '^# phases' \
    | grep -q 'anonymize_us=[0-9]* resolve_us=[0-9]* eval_us=[0-9]*'
  echo "=== [${dir}] frontier smoke OK (worst leakage monotone in k) ==="
}

# Differential selfcheck smoke: replay the regression corpus, then fuzz
# 2000 adversarial cases through every engine and path (offline, served,
# durable-recovery). Any cross-engine disagreement fails the gate.
smoke_selfcheck() {
  local dir="$1"
  local bin="${dir}/src/cli/infoleak"
  echo "=== [${dir}] selfcheck smoke test ==="
  "${bin}" selfcheck --cases 2000 --seed 1 \
      --corpus tests/corpus/selfcheck --no-corpus-write \
      | grep -q "all engines and paths agree"
  # Second sweep with the measure-family checks pinned on explicitly and a
  # different seed: cross-measure orderings, brute-force truths, and the
  # modal-tie/divergence case shapes (docs/measures.md).
  "${bin}" selfcheck --measures all --cases 2000 --seed 2 \
      --corpus tests/corpus/selfcheck --no-corpus-write \
      | grep -q "all engines and paths agree"
  echo "=== [${dir}] selfcheck smoke OK (2x2000 cases + corpus) ==="
}

# ThreadSanitizer pass over the concurrency-heavy subset: the server's
# worker pool and drain, the sharded metrics registry, the durable store's
# background fsync/snapshot thread, and the selfcheck harness (which spins
# a loopback server and a durable store inside one process).
run_tsan_pass() {
  local dir="build-ci-tsan"
  echo "=== [${dir}] configure: -DINFOLEAK_SANITIZE=thread ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release -DINFOLEAK_SANITIZE=thread
  echo "=== [${dir}] build (-j${JOBS}) ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${dir}] ctest (concurrency subset) ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -R \
    'Concurrency|Columnar|SvcServer|SvcQueue|SvcService|Persist|Streaming|Metrics|Trace|EventLog|SelfCheckRun|Inc|Measure'
}

run_pass build-ci-release
smoke_serve build-ci-release
smoke_crash build-ci-release
smoke_inc build-ci-release
smoke_frontier build-ci-release
smoke_selfcheck build-ci-release
run_pass build-ci-asan -DINFOLEAK_SANITIZE=address
smoke_serve build-ci-asan
smoke_crash build-ci-asan
smoke_inc build-ci-asan
smoke_frontier build-ci-asan
smoke_selfcheck build-ci-asan
# Forced-scalar pass: the SIMD kernel tables are compiled out, so every
# engine runs the scalar reference kernels. The full suite plus selfcheck
# must stay green — this is what pins the wide tables to the scalar ones
# (any divergence shows up as a golden/selfcheck failure in exactly one of
# the two passes).
run_pass build-ci-scalar -DINFOLEAK_FORCE_SCALAR=ON
smoke_selfcheck build-ci-scalar
run_tsan_pass

echo "=== CI OK: Release, ASan, forced-scalar, and TSan(concurrency subset) all green ==="
