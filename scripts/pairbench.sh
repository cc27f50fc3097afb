#!/usr/bin/env bash
# scripts/pairbench.sh PARENT CHANGE WORKLOAD [PAIRS]
#
# Judges a performance claim by the pair rule. PARENT and CHANGE are
# commits (any git revision); WORKLOAD is a perfbench workload
# (matrix, fleet or service); PAIRS defaults to 10.
#
# Both commits are checked out as detached git worktrees under
# .bench_build/pairbench/ and each pair runs
#
#   bash perfbench/run.sh --workload WORKLOAD --seed 1 --seconds 25 --trace 0
#
# once in each, alternating which side goes first so slow drift of the
# machine does not favour one side. Every pair's metrics are kept in
# .bench_build/pairbench/runs.tsv. The script prints every pair, each
# side's median and quartiles of every numeric metric, and the
# verdict on campaign_s (lower is better): the change wins if it is
# lower in at least 9 of every 10 pairs and its median beats the
# parent's by more than the parent's interquartile spread. Quartiles
# use the exclusive method, as perfbench --repeat does.
#
# Run it from anywhere inside the repository; the worktrees are
# removed on exit.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 PARENT CHANGE WORKLOAD [PAIRS]" >&2
  exit 2
fi
parent_rev=$(git rev-parse --verify "$1^{commit}")
change_rev=$(git rev-parse --verify "$2^{commit}")
workload=$3
pairs=${4:-10}

root=$(git rev-parse --show-toplevel)
work="${root}/.bench_build/pairbench"
rm -rf "${work}"
git -C "${root}" worktree prune
mkdir -p "${work}"
cleanup() {
  git -C "${root}" worktree remove --force "${work}/parent" 2>/dev/null || true
  git -C "${root}" worktree remove --force "${work}/change" 2>/dev/null || true
  git -C "${root}" worktree prune
}
trap cleanup EXIT
git -C "${root}" worktree add --quiet --detach "${work}/parent" "${parent_rev}"
git -C "${root}" worktree add --quiet --detach "${work}/change" "${change_rev}"

# run SIDE PAIR: one perfbench run in SIDE's worktree, appended to
# runs.tsv as one "pair side metric value" line per numeric metric.
run() {
  local side=$1 pair=$2 line
  line=$(cd "${work}/${side}" &&
    bash perfbench/run.sh --workload "${workload}" --seed 1 --seconds 25 --trace 0 | tail -n 1)
  if [[ $(jq -r '.correct and .failed == 0' <<<"${line}") != true ]]; then
    echo "pairbench: ${side} run of pair ${pair} is not correct: ${line}" >&2
    exit 1
  fi
  jq -r --arg p "${pair}" --arg s "${side}" \
    '.metrics | to_entries[] | [$p, $s, .key, .value.value] | @tsv' <<<"${line}" >>"${work}/runs.tsv"
}

for ((p = 1; p <= pairs; p++)); do
  if ((p % 2)); then
    run parent "$p"
    run change "$p"
  else
    run change "$p"
    run parent "$p"
  fi
  awk -F'\t' -v p="$p" '$1 == p && $3 == "campaign_s" { v[$2] = $4 }
    END { printf "pair %2d  campaign_s  parent %.4g  change %.4g\n", p, v["parent"], v["change"] }' "${work}/runs.tsv"
done

awk -F'\t' -v m=campaign_s '
function sortv(a, n,    i, j, t) {
  for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
# quart sets q[1..3] by the exclusive method (Python statistics.quantiles).
function quart(a, n,    i, j, d, mm) {
  sortv(a, n)
  if (n < 2) { q[1] = q[2] = q[3] = a[1]; return }
  mm = n + 1
  for (i = 1; i <= 3; i++) {
    j = int(i * mm / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * mm - j * 4
    q[i] = (a[j] * (4 - d) + a[j + 1] * d) / 4
  }
}
{ val[$1, $2, $3] = $4; if ($1 > npairs) npairs = $1; names[$3] = 1 }
END {
  printf "\n%-32s %12s %12s %12s   %12s %12s %12s\n", "metric", "parent q1", "median", "q3", "change q1", "median", "q3"
  for (k in names) {
    for (s = 1; s <= 2; s++) {
      side = s == 1 ? "parent" : "change"
      n = 0
      for (p = 1; p <= npairs; p++) if ((p, side, k) in val) x[++n] = val[p, side, k]
      quart(x, n)
      for (i = 1; i <= 3; i++) r[s, i] = q[i]
    }
    printf "%-32s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g\n", k, r[1, 1], r[1, 2], r[1, 3], r[2, 1], r[2, 2], r[2, 3]
    if (k == m) { pm = r[1, 2]; cm = r[2, 2]; iqr = r[1, 3] - r[1, 1] }
  }
  wins = 0
  for (p = 1; p <= npairs; p++) {
    a = val[p, "parent", m]; b = val[p, "change", m]
    if (b < a) wins++
  }
  ok = wins * 10 >= 9 * npairs && pm - cm > iqr
  printf "\n%s (lower is better): change wins %d of %d pairs; medians parent %.5g, change %.5g (%+.1f%%); parent IQR %.5g\n",
    m, wins, npairs, pm, cm, pm ? 100 * (cm - pm) / pm : 0, iqr
  printf "verdict: %s\n", ok ? "GAIN (pair rule holds)" : "NO GAIN (pair rule fails)"
}' "${work}/runs.tsv"
