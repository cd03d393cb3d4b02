#!/usr/bin/env bash
# End-to-end check that deeply nested input is rejected, not crashed on:
# a NEXT that nests 10,000 parentheses, chains 10,000 `~`, or chains
# 10,000 `+ 1` makes both `tlacheck lint` and `tlacheck check` exit 2 with
# a "nested deeper than" parse error; the same shapes 400 levels deep
# (under the parser's cap) still lint and check with exit 0.
#
# Usage: tools/check_deep_nesting.sh <tlacheck-binary>
set -euo pipefail

tlacheck="${1:?usage: check_deep_nesting.sh <tlacheck-binary>}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "check_deep_nesting: FAIL: $*" >&2
  exit 1
}

# write_spec FILE NEXT: a one-variable module whose NEXT is the given text.
write_spec() {
  printf 'MODULE Deep\nVARIABLE x \\in 0..1\nINIT x = 0\nNEXT %s\nSUBSCRIPT <<x>>\n' \
    "$2" > "$1"
}

# repeat N TEXT: TEXT concatenated N times.
repeat() {
  local out="" i
  for ((i = 0; i < $1; ++i)); do out+="$2"; done
  printf '%s' "$out"
}

for n in 400 10000; do
  write_spec "$workdir/paren$n.tla" "$(repeat "$n" "(")x' = 1 - x$(repeat "$n" ")")"
  write_spec "$workdir/not$n.tla" "$(repeat "$n" "~")~(x' = x)"
  write_spec "$workdir/plus$n.tla" "x' = (x$(repeat "$n" " + 1")) % 2"
done

for shape in paren not plus; do
  for cmd in lint check; do
    rc=0
    "$tlacheck" "$cmd" "$workdir/${shape}400.tla" > /dev/null 2> "$workdir/err" || rc=$?
    [ "$rc" -eq 0 ] || fail "$cmd ${shape}400: expected exit 0, got $rc: $(cat "$workdir/err")"

    rc=0
    "$tlacheck" "$cmd" "$workdir/${shape}10000.tla" > /dev/null 2> "$workdir/err" || rc=$?
    [ "$rc" -eq 2 ] || fail "$cmd ${shape}10000: expected exit 2, got $rc"
    grep -q "nested deeper than" "$workdir/err" \
      || fail "$cmd ${shape}10000: no nesting diagnostic: $(cat "$workdir/err")"
    echo "ok: $cmd ${shape}: 400 levels pass, 10000 levels exit 2"
  done
done
echo "check_deep_nesting: all checks passed"
