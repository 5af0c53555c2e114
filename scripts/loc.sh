#!/usr/bin/env bash
# Counts non-test Go source lines: one row per package of the root
# module, the root module's total, and fleetbench/ (its own module)
# on a row of its own, outside the root total. "lines" counts every
# line of the package's .go files (tests excluded); "code" leaves out
# blank lines and lines that hold only a comment.
#
# Run from anywhere in the checkout:
#
#   scripts/loc.sh        # or: make loc
set -euo pipefail
cd "$(dirname "$0")/.."

# count prints "<lines> <code>" for the files named on stdin.
count() {
	xargs -r cat | awk '
		{ n++; s = $0; sub(/^[ \t]+/, "", s) }
		inblock { if (s ~ /\*\//) inblock = 0; next }
		s == "" || s ~ /^\/\// { next }
		s ~ /^\/\*/ { if (s !~ /\*\//) inblock = 1; next }
		{ c++ }
		END { printf "%d %d\n", n, c }'
}

row() { printf '%-34s %8s %8s\n' "$@"; }

row "non-test Go" lines code
total_lines=0
total_code=0
while read -r pkg dir; do
	read -r lines code < <(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort | count)
	row "$pkg" "$lines" "$code"
	total_lines=$((total_lines + lines))
	total_code=$((total_code + code))
done < <(go list -f '{{.ImportPath}} {{.Dir}}' ./...)
row "root module" "$total_lines" "$total_code"
read -r lines code < <(find fleetbench -name '*.go' ! -name '*_test.go' | sort | count)
row "fleetbench/" "$lines" "$code"
