#!/usr/bin/env bash
# Orphan public-function lint.
#
# A modelled piece stays only while a report, a figure or table, or a
# test of shipped behaviour reads it. This lint keeps helpers that
# nothing reads from growing back: it scans every `pub fn` in the model
# crates below and fails when a name is used nowhere but its own
# definition.
#
# A name counts as used when it appears (as a whole word)
#   * in any other `.rs` file under crates/, src/, examples/, tests/ or
#     perfbench/src, or
#   * in its own file outside its definition line, outside comment lines
#     and before the file-final `#[cfg(test)]` module.
# Test-only and doc-only mentions do not count: a helper whose only
# reader is its own test tests nothing shipped.
#
# Legitimate exceptions go in ci/orphan_pub_allowlist.txt as
# `<path>:<fn name>`, one per line, each with a justification comment.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=ci/orphan_pub_allowlist.txt
SCANNED=(crates/sim/src crates/bitslice/src crates/hasse/src crates/models/src crates/quant/src)
SEARCHED=(crates src examples tests perfbench/src)

allowed() {
  local path=$1 name=$2 rule
  [[ -f "$ALLOWLIST" ]] || return 1
  while IFS= read -r rule; do
    case "$rule" in '' | '#'*) continue ;; esac
    [[ "$rule" == "$path:$name" ]] && return 0
  done < "$ALLOWLIST"
  return 1
}

# Whole-word uses of $2 in $1 before the file-final test module, skipping
# comment lines and the `pub fn` definition itself.
uses_in_own_file() {
  awk -v name="$2" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    $0 ~ ("pub (const )?fn " name "([^A-Za-z0-9_]|$)") { next }
    $0 ~ ("(^|[^A-Za-z0-9_])" name "([^A-Za-z0-9_]|$)") { n++ }
    END { print n + 0 }
  ' "$1"
}

fail=0
scanned=0
while IFS=: read -r file name; do
  scanned=$((scanned + 1))
  if grep -rlw --include='*.rs' -- "$name" "${SEARCHED[@]}" | grep -qvx -- "$file"; then
    continue
  fi
  [[ $(uses_in_own_file "$file" "$name") -gt 0 ]] && continue
  allowed "$file" "$name" && continue
  echo "orphan pub fn: $file: $name is read by nothing but its definition, docs and tests" >&2
  fail=1
done < <(grep -rE --include='*.rs' -o '^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' "${SCANNED[@]}" \
  | sed -E 's/:[[:space:]]*pub (const )?fn /:/' | sort -u)

if [[ $fail -ne 0 ]]; then
  echo "  (delete the helper with its tests, or add an allowlist entry with a justification)" >&2
  exit 1
fi
echo "check_orphan_pub: every pub fn in the model crates has a reader ($scanned scanned)"
