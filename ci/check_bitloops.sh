#!/usr/bin/env bash
# Hot-path bit-loop lint.
#
# The word-parallel kernel layer (`ta_bitslice::kernels`) exists so that
# no execution hot path iterates weight bits one at a time. This lint
# keeps it that way: it scans the audited hot-path files below for
# `for <var> in ..<width-like bound>` loops — the shape every per-bit
# scalar loop in this codebase ever had — and fails if one reappears
# outside a test module.
#
# Scoping rules:
#   * The file-final `#[cfg(test)]` module of each file is skipped:
#     scalar oracles and equivalence loops live there by design.
#   * `while bits != 0 { ... trailing_zeros ... }` set-bit walks do NOT
#     match — cost proportional to popcount is the word-level idiom the
#     kernels are built on, not a regression.
#   * Legitimate exceptions elsewhere go in ci/bitloop_allowlist.txt as
#     `<path>:<substring-of-the-line>`, one per line.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=ci/bitloop_allowlist.txt

# Execution hot-path files: every file a GEMM/layer simulation touches
# between bit-slicing and the accumulated output, plus the consumers the
# kernels facade migrated.
AUDITED=(
  crates/bitslice/src/kernels.rs
  crates/bitslice/src/binmat.rs
  crates/bitslice/src/transrow.rs
  crates/bitslice/src/slicer.rs
  crates/bitslice/src/im2col.rs
  crates/bitslice/src/popcount.rs
  crates/hasse/src/exec.rs
  crates/hasse/src/plan_cache.rs
  crates/hasse/src/scoreboard.rs
  crates/hasse/src/si.rs
  crates/hasse/src/stats.rs
  crates/core/src/unit.rs
  crates/core/src/source.rs
  crates/core/src/accelerator.rs
  crates/models/src/synth.rs
  crates/baselines/src/bit_sparsity.rs
)

# A `for` loop whose bound mentions a bit-width quantity. `s`/`t` alone
# are too generic to match on; the named width knobs cover every per-bit
# loop this repo has ever carried on a hot path.
PATTERN='for [A-Za-z_][A-Za-z0-9_]* in [^{]*(width|bits|levels|weight_bits)'

fail=0
for f in "${AUDITED[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "check_bitloops: audited file missing: $f (update ci/check_bitloops.sh)" >&2
    fail=1
    continue
  fi
  # Strip everything from the file-final test module on.
  matches=$(awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ":" $0}' "$f" \
    | grep -E "$PATTERN" || true)
  [[ -z "$matches" ]] && continue
  while IFS= read -r line; do
    allowed=0
    if [[ -f "$ALLOWLIST" ]]; then
      while IFS= read -r rule; do
        case "$rule" in ''|'#'*) continue ;; esac
        rpath=${rule%%:*}
        rsub=${rule#*:}
        if [[ "$line" == "$rpath":* && "$line" == *"$rsub"* ]]; then
          allowed=1
          break
        fi
      done < "$ALLOWLIST"
    fi
    if [[ $allowed -eq 0 ]]; then
      echo "per-bit loop on a hot path: $line" >&2
      echo "  (route it through ta_bitslice::kernels, or add an allowlist entry with a justification)" >&2
      fail=1
    fi
  done <<< "$matches"
done

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "check_bitloops: no per-bit loops on audited hot paths (${#AUDITED[@]} files)"
