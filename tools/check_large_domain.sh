#!/usr/bin/env bash
# End-to-end check that a large declared domain costs nothing until
# something ranges over it: a 4-state spec declaring q \in Seq(0..9, 9)
# (1111111111 sequences) and y \in 0..1000000000 must lint, print its
# info and check with exit 0 under a 1 GB memory cap and a 20 s timeout,
# and `info` must report both sizes exactly. Listing either domain would
# take tens of gigabytes. A second module quantifies over Seq(0..9, 9) in
# a definition: `lint` and `info` must exit 0 under the same cap, and
# `info` must print the quantifier's domain by its shape.
#
# Usage: tools/check_large_domain.sh <tlacheck-binary> [sanitized]
#   sanitized: ON when the binary is built with AddressSanitizer, whose
#   shadow memory cannot live under `ulimit -v`; the cap is then enforced
#   on resident memory through ASAN_OPTIONS=hard_rss_limit_mb instead.
set -euo pipefail

tlacheck="${1:?usage: check_large_domain.sh <tlacheck-binary> [sanitized]}"
sanitized="${2:-OFF}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "check_large_domain: FAIL: $*" >&2
  exit 1
}

spec="$workdir/large.tla"
cat > "$spec" <<'EOF'
MODULE LargeDomain
VARIABLES x \in 0..3, q \in Seq(0..9, 9), y \in 0..1000000000
INIT x = 0 /\ q = <<>> /\ y = 0
NEXT x' = (x + 1) % 4 /\ q' = (IF x = 3 THEN <<>> ELSE Append(q, x))
     /\ y' = 1000000000 - y
SUBSCRIPT <<x, q, y>>
EOF

# run_capped CMD...: CMD under the memory cap and the timeout.
run_capped() {
  if [ "$sanitized" = "ON" ]; then
    ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}hard_rss_limit_mb=1024" \
      timeout 20 "$@"
  else
    (ulimit -v 1048576 && timeout 20 "$@")
  fi
}

for cmd in lint info check; do
  rc=0
  run_capped "$tlacheck" "$cmd" "$spec" > "$workdir/out" 2> "$workdir/err" || rc=$?
  [ "$rc" -eq 0 ] || fail "$cmd: expected exit 0, got $rc: $(cat "$workdir/err")"
  echo "ok: $cmd exits 0"
done

run_capped "$tlacheck" info "$spec" > "$workdir/info"
grep -q "q : 1111111111 values" "$workdir/info" \
  || fail "info: no size 1111111111 for q: $(cat "$workdir/info")"
grep -q "y : 1000000001 values" "$workdir/info" \
  || fail "info: no size 1000000001 for y: $(cat "$workdir/info")"
run_capped "$tlacheck" check "$spec" > "$workdir/check"
grep -q "invariant holds over 4 states" "$workdir/check" \
  || fail "check: expected 4 states: $(cat "$workdir/check")"
quantified="$workdir/quantified.tla"
cat > "$quantified" <<'EOF'
MODULE QuantifiedDomain
VARIABLE x \in 0..9
DEFINE Reach == \E s \in Seq(0..9, 9) : Len(s) = x
INIT x = 0
NEXT x' = (x + 1) % 10
SUBSCRIPT <<x>>
EOF
for cmd in lint info; do
  rc=0
  run_capped "$tlacheck" "$cmd" "$quantified" > "$workdir/out" 2> "$workdir/err" || rc=$?
  [ "$rc" -eq 0 ] || fail "$cmd (quantifier): expected exit 0, got $rc: $(cat "$workdir/err")"
  echo "ok: $cmd exits 0 on a quantifier over Seq(0..9, 9)"
done
grep -qF 'def    Reach == \E s \in Seq(0..9, 9) : Len(s) = x' "$workdir/out" \
  || fail "info: quantifier domain not printed by shape: $(cat "$workdir/out")"
echo "check_large_domain: all checks passed"
