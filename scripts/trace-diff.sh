#!/bin/sh
# trace-diff.sh BASE compares the solver telemetry of cmd/sdpfloor at git
# revision BASE with the working tree. Both binaries run the same matrix
# with -trace; each trace loses its leading "ts":N, (the transformation
# trace.StripTS applies) and must then be byte-identical, with the same
# exit status. Exits 1 on any difference, 2 on a usage or build error.
#
# Matrix: -bench n10, n30 and ami33 x -aspect 1 and 2 x SDPFLOOR_WORKERS
# 1 and 2 (the default sdp method), plus n10 with -method sa, qp,
# analytic, ar, pp and sdp-hier. Portfolio is left out: its arrival order
# depends on timing. Run it as `make trace-diff BASE=<rev>`.
set -u
if [ $# -ne 1 ]; then
	echo "usage: $0 <git revision>" >&2
	exit 2
fi
base=$1
root=$(git rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/src"
git -C "$root" archive "$base" | tar -x -C "$tmp/src" || exit 2
(cd "$tmp/src" && go build -o "$tmp/base.bin" ./cmd/sdpfloor) || exit 2
(cd "$root" && go build -o "$tmp/head.bin" ./cmd/sdpfloor) || exit 2

fail=0
total=0
# compare NAME WORKERS ARGS... runs both binaries and diffs their traces.
compare() {
	name=$1
	workers=$2
	shift 2
	total=$((total + 1))
	for side in base head; do
		SDPFLOOR_WORKERS=$workers "$tmp/$side.bin" "$@" -trace "$tmp/$side.jsonl" >/dev/null 2>&1
		echo $? >"$tmp/$side.status"
		sed 's/^{"ts":-\{0,1\}[0-9]*,/{/' "$tmp/$side.jsonl" >"$tmp/$side.stripped" 2>/dev/null
	done
	if ! cmp -s "$tmp/base.status" "$tmp/head.status"; then
		echo "DIFF $name: exit status $(cat "$tmp/base.status") -> $(cat "$tmp/head.status")"
		fail=1
	elif [ ! -s "$tmp/base.stripped" ]; then
		echo "DIFF $name: empty trace"
		fail=1
	elif ! cmp -s "$tmp/base.stripped" "$tmp/head.stripped"; then
		echo "DIFF $name: traces differ"
		diff "$tmp/base.stripped" "$tmp/head.stripped" | head -n 6
		fail=1
	else
		echo "same $name ($(wc -l <"$tmp/head.stripped") events)"
	fi
	rm -f "$tmp"/*.jsonl "$tmp"/*.stripped "$tmp"/*.status
}

for bench in n10 n30 ami33; do
	for aspect in 1 2; do
		for workers in 1 2; do
			compare "$bench aspect=$aspect workers=$workers" "$workers" -bench "$bench" -aspect "$aspect"
		done
	done
done
for method in sa qp analytic ar pp sdp-hier; do
	compare "n10 method=$method" 2 -bench n10 -method "$method"
done

if [ "$fail" -ne 0 ]; then
	echo "trace-diff: traces differ from $base"
	exit 1
fi
echo "trace-diff: $total/$total traces identical to $base"
