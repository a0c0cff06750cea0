#!/bin/sh
# Alternating parent/change runs of the ledger, judged by its own -compare:
# the measurement a PR that claims (or must not cost) host time reports.
#
#   scripts/pairs.sh PARENT [N] [WORKLOAD...]      (or: make pairs PARENT=<rev> [N=10] [WORKLOADS="..."])
#
# PARENT is any git revision; the change is the working tree. Round i links
# both sides with -ldflags=-randlayout=i, so N rounds span N function
# layouts and a difference that only one code placement shows cannot pass
# for a cost or a gain (the packages compile once; only the link reruns).
# Each binary is not named "benchmark" (whose default -out would collide
# with it) and runs from a directory holding its own BENCHMARK.json.
# With workloads named, a round is one untraced pass of each on either side;
# with none, a round is the whole ledger (six workloads, both passes). The
# side that goes first alternates by round. RUN_SECONDS (default: the spec's
# run_seconds) and SEED (default 42) are passed through; OUT (default: a new
# temporary directory) keeps the binaries, the parent's tree and every result
# file. Exit status says whether the recipe ran, not what it found: read the
# table.
set -eu

[ $# -ge 1 ] || { echo "usage: $0 PARENT [N] [WORKLOAD...]" >&2; exit 2; }
parent=$1
n=${2:-10}
[ $# -ge 2 ] && shift 2 || shift 1
root=$(git rev-parse --show-toplevel)
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")}
mkdir -p "$out/parent-src"
out=$(cd "$out" && pwd)

git -C "$root" archive "$parent" | tar -x -C "$out/parent-src"

# link ROUND: (re)build both sides at layout seed ROUND.
link() {
	(cd "$out/parent-src" && go build -ldflags="-randlayout=$1" -o "$out/ledger-parent" ./benchmark)
	(cd "$root" && go build -ldflags="-randlayout=$1" -o "$out/ledger-change" ./benchmark)
}

# pass SIDE DIR ROUND [WORKLOAD]: one run of one side, results under
# $out/SIDE/ROUND; prints the result file.
pass() {
	side=$1 dir=$2 round=$3 workload=${4:-}
	dest=$out/$side/$round
	mkdir -p "$dest"
	set -- -seed "${SEED:-42}" -out "$dest"
	[ -z "${RUN_SECONDS:-}" ] || set -- "$@" -seconds "$RUN_SECONDS"
	file=$dest/ledger.json
	if [ -n "$workload" ]; then
		set -- "$@" -workload "$workload" -trace 0
		file=$dest/$workload.trace0.json
	fi
	log=$dest/${workload:-ledger}.log
	(cd "$dir" && "$out/ledger-$side" "$@") >"$log" 2>&1 || { cat "$log" >&2; exit 1; }
	echo "$file"
}

files=
i=1
while [ "$i" -le "$n" ]; do
	link "$i"
	for w in "${@:-}"; do
		if [ $((i % 2)) -eq 1 ]; then
			old=$(pass parent "$out/parent-src" "$i" "$w")
			new=$(pass change "$root" "$i" "$w")
		else
			new=$(pass change "$root" "$i" "$w")
			old=$(pass parent "$out/parent-src" "$i" "$w")
		fi
		files="$files $old $new"
		echo "round $i/$n ${w:-ledger}: done" >&2
	done
	i=$((i + 1))
done

echo "results under $out" >&2
# shellcheck disable=SC2086 # the list is built of paths without spaces
(cd "$root" && "$out/ledger-change" -compare $files) || [ $? -eq 1 ]
