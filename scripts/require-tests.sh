#!/bin/sh
# Usage: scripts/require-tests.sh PKG NAME...
#
# Fails unless every NAME is a test, benchmark or fuzz target that
# `go test -list` reports in PKG. The gates that select tests by name (make
# race, make fuzz-smoke, scripts/alloc-gate.sh) call it first: go test exits
# 0 on a pattern that matches nothing ("no tests to run", "no fuzz tests to
# fuzz"), so without it a renamed or deleted test would pass its gate
# unnoticed.
set -eu
pkg=$1
shift
listed=$(go test -list . "$pkg")
for name in "$@"; do
	printf '%s\n' "$listed" | grep -qx "$name" || {
		echo "$0: no test, benchmark or fuzz target named $name in $pkg" >&2
		exit 1
	}
done
