#!/usr/bin/env bash
# Runs the benchmark of record, perfbench, on the merge-base of BASE and HEAD
# and on this checkout in interleaved pairs, then compares the two run sets:
#
#   bash .github/scripts/perfbench-pairs.sh BASE
#
# BASE is a revision, e.g. a pull request's base commit.  The merge-base is
# checked out as a detached worktree in a temporary directory; the HEAD side
# is this checkout as it stands.  Each side builds perfbench with its own
# build directory (CARGO_TARGET_DIR, see perfbench/run.sh), and the pairs
# alternate which side runs first.
#
# The comparison table (perfbench -compare-runs, base as A and HEAD as B)
# and each run's -out file and log are kept under .bench_build/perfbench-pairs;
# the table also goes to $GITHUB_STEP_SUMMARY when that is set.  Its
# verdicts only report.  The script exits 1 when a HEAD-side run fails (a
# wrong answer, a failed op or a failed build) or when the two sides cannot
# be compared, and nonzero when the merge-base cannot be checked out.  A
# base-side run failure is reported and does not block.
set -euo pipefail

pairs=5
scale=0.1
seconds=3

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
start=$SECONDS
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base "$1" HEAD)
out=$root/.bench_build/perfbench-pairs
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --detach "$tmp/base" "$base"
rm -rf "$out"
mkdir -p "$out/base" "$out/head"
echo "perfbench pairs: base $base (merge-base of $1 and HEAD), head $(git rev-parse HEAD) as checked out"

# run SIDE PAIR runs one side's workloads once, logging to the side's
# directory, and reports whether every check passed.
run() {
	local dir=$root t=$SECONDS
	if [ "$1" = base ]; then
		dir=$tmp/base
	fi
	if (cd "$dir" && CARGO_TARGET_DIR=$tmp/build-$1 bash perfbench/run.sh -workloads all \
		-scale $scale -seconds $seconds -out "$out/$1/run$2.json") >"$out/$1/run$2.log" 2>&1; then
		echo "pair $2: $1 passed ($((SECONDS - t)) s)"
		return 0
	fi
	echo "pair $2: $1 FAILED ($((SECONDS - t)) s); the end of its log:"
	tail -n 20 "$out/$1/run$2.log" | sed 's/^/    /'
	return 1
}

declare -A failed=([base]=0 [head]=0)
for ((i = 1; i <= pairs; i++)); do
	order="base head"
	if ((i % 2 == 0)); then
		order="head base"
	fi
	for side in $order; do
		run $side $i || failed[$side]=$((failed[$side] + 1))
	done
done

table=$out/table.txt
status=0
CARGO_TARGET_DIR=$tmp/build-head bash perfbench/run.sh -compare-runs "$out/base/*.json" "$out/head/*.json" >"$table" 2>&1 || status=$?
cat "$table"
count() { grep -c " $1\$" "$table" || true; }
changed=$(count changed)
regressed=$(count regressed)
summary="verdicts (report only): $changed changed, $regressed regressed, $(count unresolved) unresolved, $(count improved) improved"
echo "$summary"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
	{
		echo "### perfbench pairs: merge-base ${base:0:12} (A) vs HEAD (B)"
		echo '```'
		cat "$table"
		echo '```'
		echo "$summary"
	} >>"$GITHUB_STEP_SUMMARY"
fi
echo "perfbench pairs: $pairs pairs in $((SECONDS - start)) s; failed runs: base ${failed[base]} (does not block), head ${failed[head]}"
if [ $status -ne 0 ] && [ $((changed + regressed)) -eq 0 ]; then
	echo "perfbench pairs: the comparison failed (exit $status)" >&2
	exit 1
fi
if [ ${failed[head]} -gt 0 ]; then
	echo "perfbench pairs: ${failed[head]} HEAD-side run(s) failed" >&2
	exit 1
fi
