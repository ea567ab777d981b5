#!/usr/bin/env bash
# End-to-end smoke of the command-line tools: unknown mapper, backend and
# device names are usage errors (exit 2), malformed and oversized QASM
# exit 1 with a diagnostic, and a QMAP route of the QUEKO-16 input prints
# its stats as JSON. Run by ctest (cli-smoke).
#
# usage: cli_smoke.sh BIN_DIR QUEKO_QASM
set -euo pipefail

BIN_DIR=${1:?usage: cli_smoke.sh BIN_DIR QUEKO_QASM}
QASM=${2:?usage: cli_smoke.sh BIN_DIR QUEKO_QASM}
OUT="/tmp/qlosure-cli-smoke-$$.out"
ERR="/tmp/qlosure-cli-smoke-$$.err"
BAD="/tmp/qlosure-cli-smoke-$$.qasm"
trap 'rm -f "$OUT" "$ERR" "$BAD"' EXIT

# expect STATUS STDERR_TEXT CMD...: runs CMD, demands exit STATUS and
# STDERR_TEXT in its standard error.
expect() {
  local want=$1 text=$2 status
  shift 2
  "$@" > "$OUT" 2> "$ERR" && status=0 || status=$?
  if [[ "$status" -ne "$want" ]] || ! grep -qF -- "$text" "$ERR"; then
    echo "cli-smoke: '$*' exited $status (want $want), stderr:" >&2
    cat "$ERR" >&2
    exit 1
  fi
}

expect 2 'error: unknown mapper "nope"' \
  "$BIN_DIR/qlosure-route" --mapper nope "$QASM"
expect 2 'error: unknown backend "nope"' \
  "$BIN_DIR/qlosure-route" --backend nope "$QASM"
expect 2 'error: unknown device "nope"' \
  "$BIN_DIR/qlosure-queko" --device nope
echo "cli-smoke: unknown names exit 2"

printf 'qreg oops;\n' > "$BAD"
expect 1 "error: line 1, column 10: expected '['" \
  "$BIN_DIR/qlosure-route" --backend aspen16 "$BAD"
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[200];\n' > "$BAD"
expect 1 'error: circuit has 200 qubits but aspen16 only has 16' \
  "$BIN_DIR/qlosure-route" --backend aspen16 "$BAD"
echo "cli-smoke: malformed and oversized circuits exit 1"

# QMAP stops on a fixed count of A* expansions, so its routes are fixed:
# GoldenRouteTest pins 132 swaps for this input on sherbrooke too.
"$BIN_DIR/qlosure-route" --mapper qmap --json "$QASM" > "$OUT"
grep -qF '"swaps":132' "$OUT"
grep -qF '"timed_out":false' "$OUT"
grep -qF '"verified":true' "$OUT"
echo "cli-smoke: qmap --json route verified"
