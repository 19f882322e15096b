#!/usr/bin/env bash
# go-test-run.sh PKG 'TestA|TestB' [go test flags...]
#
# Runs `go test -v -run 'TestA|TestB' PKG` and fails not only when a test
# fails but also when any name in the list selected no test. On its own
# `go test -run` exits 0 with "no tests to run" when nothing matches, and
# quietly runs the rest of the list when one name of several is gone — so a
# renamed or deleted test turns the step gating it into a no-op.
set -euo pipefail

pkg=$1
list=$2
shift 2

out=$(mktemp)
trap 'rm -f "$out"' EXIT

go test "$@" -v -run "$list" "$pkg" | tee "$out"

if grep -q 'no tests to run' "$out"; then
  echo "::error::-run '$list' matched no test in $pkg"
  exit 1
fi
IFS='|' read -ra names <<<"$list"
for name in "${names[@]}"; do
  if ! grep -Eq "^=== RUN +[^ ]*${name}" "$out"; then
    echo "::error::-run name '$name' matched no test in $pkg"
    exit 1
  fi
done
