#!/usr/bin/env bash
# End-to-end check of the ntadoc command line: compress a 3-file corpus,
# run one query phase-level and one operation-level (epoch commit over
# migrating DRAM+NVM tiers) with --stats, serve two queries with --stats,
# and check the stable key=value surface:
#   * `run --stats` prints every key below in RUN_KEYS, each once;
#   * `serve --stats` prints every key in SERVE_KEYS, each once, plus
#     every `run` counter (all `run` keys but the per-run levels) summed
#     over its sessions;
#   * a non-numeric numeric flag prints usage and exits 2.
# The key lists are the surface scripts already rely on; new counters
# only add keys, so the checks are "contains", not "equals".
#
# Usage: tests/ntadoc_cli_test.sh <path to the ntadoc binary>
set -euo pipefail

NTADOC=${1:?usage: ntadoc_cli_test.sh <ntadoc binary>}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

RUN_KEYS="traversal_steps pool_used_bytes init_phase_reused counter_rebuilds
redo_logged_bytes resumed_at_step group_checkpoints corruption_detected
salvage_restarts blocks_lost transient_retries blocks_remapped
scoped_repairs degraded_queries completeness rule_cache_hits
rule_cache_misses epoch_commits coalesced_records coalesced_flush_lines
batch_init_reuses promotions demotions migration_epochs tier_resident_dram
tier_resident_nvm tier_resident_ssd tier_resident_hdd"
# Levels describe where one run ended; they are not summed under serve.
LEVELS="pool_used_bytes resumed_at_step completeness tier_resident_dram
tier_resident_nvm tier_resident_ssd tier_resident_hdd"
SERVE_KEYS="submitted accepted rejected_queue_full shed completed failed
deadline_expired degraded scoped_repairs salvage_restarts stolen
max_queue_depth generations_published drained_sessions refresh_retries
refresh_aborts degraded_refreshes promotions demotions migration_epochs"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# The keys of the key=value lines in file $1, one per line.
keys_of() {
  sed -n 's/^\([a-z_]*\)=[0-9.]*$/\1/p' "$1"
}

# Every key of list $2 appears in the output file $1, and no key repeats.
check_keys() {
  local out=$1 want=$2 key dup
  for key in $want; do
    grep -q "^$key=" "$out" || fail "$(basename "$out"): missing $key"
  done
  dup=$(keys_of "$out" | sort | uniq -d)
  [[ -z "$dup" ]] || fail "$(basename "$out"): repeated keys: $dup"
}

printf 'the quick brown fox jumps over the lazy dog\nthe dog barks\n' \
  > "$DIR/a.txt"
printf 'a lazy fox sleeps while the quick dog runs\nthe brown fox\n' \
  > "$DIR/b.txt"
printf 'over the hills the fox runs and the dog follows\n' > "$DIR/c.txt"
"$NTADOC" compress "$DIR/c.ntdc" "$DIR/a.txt" "$DIR/b.txt" "$DIR/c.txt" \
  > /dev/null

"$NTADOC" run "$DIR/c.ntdc" wordcount --stats > "$DIR/run_phase" 2>/dev/null
"$NTADOC" run "$DIR/c.ntdc" wordcount --persistence=operation \
  --commit-interval=8 --tiers=dram:1,nvm --migrate=1 --stats \
  > "$DIR/run_operation" 2>/dev/null
"$NTADOC" serve "$DIR/c.ntdc" --stats --shared-cache-mb=4 --queries=2 \
  > "$DIR/serve" 2>/dev/null

check_keys "$DIR/run_phase" "$RUN_KEYS"
check_keys "$DIR/run_operation" "$RUN_KEYS"
check_keys "$DIR/serve" "$SERVE_KEYS"
grep -q '^epoch_commits=[1-9]' "$DIR/run_operation" ||
  fail "run_operation: no epoch commits"
grep -q '^completed=2$' "$DIR/serve" || fail "serve: not 2 completed"

# Every run counter is summed under serve.
for key in $(keys_of "$DIR/run_phase"); do
  grep -qw -- "$key" <<<"$LEVELS" && continue
  grep -q "^$key=" "$DIR/serve" || fail "serve: missing run counter $key"
done

# Bad numbers are usage errors (exit 2), not aborts.
expect_usage() {
  local rc=0
  "$NTADOC" "$@" > /dev/null 2>&1 || rc=$?
  [[ $rc == 2 ]] || fail "ntadoc $* exited $rc, want 2"
}
expect_usage run "$DIR/c.ntdc" wordcount --ngram=abc
expect_usage run "$DIR/c.ntdc" wordcount --limit=-1
expect_usage run "$DIR/c.ntdc" wordcount --commit-interval=0
expect_usage run "$DIR/c.ntdc" wordcount --migrate=2
expect_usage serve "$DIR/c.ntdc" --workers=abc
expect_usage serve "$DIR/c.ntdc" --queries=12x
expect_usage extract "$DIR/c.ntdc" one

echo "ntadoc CLI OK"
