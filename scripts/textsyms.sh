#!/bin/sh
# The text symbols of the ledger binary at another revision and in the
# working tree: whether a change moved, grew or shrank any code the
# benchmark links. The only "unchanged" a noisy host can certify for a
# change that must not touch the ledger's hot path.
#
#   scripts/textsyms.sh PARENT      (or: make textsyms PARENT=<rev>)
#
# PARENT is any git revision, extracted with git archive as scripts/pairs.sh
# does; the change is the working tree. Both sides build ./benchmark with
# -trimpath and are compared on `go tool nm -size -sort address`'s T/t
# symbols (runtime.modinfo and the pclntab left out: they carry build
# metadata, not code). Prints "identical" when every symbol has the same
# address, size and name; otherwise each symbol whose size differs or that
# only one side has ("name parent-size change-size", "-" for absent), then
# how many symbols of equal size sit at another address. A reading, not a
# gate: the exit status says whether the recipe ran.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 PARENT" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
out=$(mktemp -d "${TMPDIR:-/tmp}/textsyms.XXXXXX")
trap 'rm -rf "$out"' EXIT
mkdir "$out/parent-src"
git -C "$root" archive "$1" | tar -x -C "$out/parent-src"
(cd "$out/parent-src" && go build -trimpath -o "$out/ledger-parent" ./benchmark)
(cd "$root" && go build -trimpath -o "$out/ledger-change" ./benchmark)

# syms BINARY: "address size name" for each text symbol, in address order.
syms() {
	go tool nm -size -sort address "$1" |
		awk '($3 == "T" || $3 == "t") && $4 !~ /^runtime\.modinfo/ && $4 !~ /pclntab/ {
			print $1, $2, substr($0, index($0, $4))
		}'
}
syms "$out/ledger-parent" >"$out/parent.txt"
syms "$out/ledger-change" >"$out/change.txt"

if cmp -s "$out/parent.txt" "$out/change.txt"; then
	echo identical
	exit 0
fi
awk '
	FNR == NR { addr[substr($0, index($0, $3))] = $1; size[substr($0, index($0, $3))] = $2; next }
	{
		name = substr($0, index($0, $3))
		seen[name] = 1
		if (!(name in size)) print name, "-", $2
		else if (size[name] != $2) print name, size[name], $2
		else if (addr[name] != $1) moved++
	}
	END {
		for (name in size) if (!(name in seen)) print name, size[name], "-"
		printf "%d symbols of equal size at another address\n", moved + 0
	}
' "$out/parent.txt" "$out/change.txt"
