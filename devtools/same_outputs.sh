#!/bin/sh
# Output equivalence of this working tree against another commit.
#
#   devtools/same_outputs.sh PARENT [WORKDIR]
#
# Unpacks PARENT with `git archive` into WORKDIR/parent, builds it and
# this working tree, and runs on each, from an output directory of its
# own:
#   - the failmpi_run lines of CI, each with --trace-csv;
#   - failmpi_experiments all --quick --jobs 2 --csv, which runs every
#     experiment (the CI campaigns among them);
#   - the explorer reports of CI (--json).
# Every command's stdout, stderr and exit status are kept. Wall-clock
# lines are dropped, then the two output directories are compared file
# by file. Exits 0 when every output is byte-identical, 1 on any
# difference (the differing files are listed), 2 on a usage or build
# error. WORKDIR defaults to a fresh temporary directory and is kept for
# inspection. Takes about a minute on two cores.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 PARENT [WORKDIR]" >&2
  exit 2
fi
parent=$1
tree=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
rm -rf "$work/parent"
mkdir -p "$work/parent"
git -C "$tree" archive "$parent" | tar -x -C "$work/parent" || exit 2

# run NAME CMD ARGS... : keep the output and exit status of one command
run() {
  name=$1
  shift
  status=0
  "$@" >"$name.out" 2>&1 || status=$?
  echo "exit $status" >>"$name.out"
}

outputs() {
  src=$1
  out=$2
  (cd "$src" && dune build bin/failmpi_run.exe bin/failmpi_experiments.exe \
    bin/failmpi_explore.exe) || exit 2
  bin=$src/_build/default/bin
  rm -rf "$out"
  mkdir -p "$out"
  cp -R "$src/scenarios" "$out/scenarios"
  cd "$out"
  run net-loss "$bin/failmpi_run.exe" --ranks 9 --net-loss 0.05 --net-seed 42 \
    --trace-csv net-loss.csv
  run net-partition "$bin/failmpi_run.exe" --ranks 9 --net-partition 0,1:2,3 \
    --net-heal 8 --trace-csv net-partition.csv
  run rack-blackout "$bin/failmpi_run.exe" --ranks 4 --class A \
    --protocol replication --replicas 2 --topology fat-tree:4 \
    --scenario scenarios/rack_blackout.fail \
    --param START=30 --param SWITCH=0 --param HEAL=20 --trace-csv rack-blackout.csv
  run fig5-replication "$bin/failmpi_run.exe" --paper fig5-frequency \
    --protocol replication --replicas 2 --seed 3 --trace-csv fig5-replication.csv
  run fig5-ulfm "$bin/failmpi_run.exe" --paper fig5-frequency \
    --protocol ulfm --seed 3 --trace-csv fig5-ulfm.csv
  run shrink-storm "$bin/failmpi_run.exe" --ranks 9 --protocol ulfm --spares 2 \
    --scenario scenarios/shrink_storm.fail \
    --param START=25 --param STEP=3 --param LAG=2 \
    --param K1=1 --param K2=5 --param K3=7 --param VICTIM=2 --trace-csv shrink-storm.csv
  for replicas in 1 2; do
    run sniper-$replicas "$bin/failmpi_run.exe" --ranks 9 --ckpt-replicas $replicas \
      --scenario scenarios/ckpt_sniper.fail \
      --param SERVER=0 --param START=32 --param RANK=3 --param GAP=6 \
      --trace-csv sniper-$replicas.csv
  done
  run all "$bin/failmpi_experiments.exe" all --quick --jobs 2 --csv all_csv
  run explore "$bin/failmpi_explore.exe" --max-faults 1 --budget 50 --jobs 2 \
    --json explore_report.json
  for mode in fork no-fork; do
    run explore-$mode "$bin/failmpi_explore.exe" --seed 123456789 --max-faults 2 \
      --budget 40 --jobs 2 --$mode --json explore_$mode.json
  done
  rm -rf scenarios
  for f in *.out; do
    grep -v 'wall clock' "$f" >"$f.kept" || true
    mv "$f.kept" "$f"
  done
}

(outputs "$work/parent" "$work/out-parent")
(outputs "$tree" "$work/out-tree")

if diff -r -q "$work/out-parent" "$work/out-tree"; then
  echo "same outputs as $parent (in $work)"
else
  echo "outputs differ from $parent (in $work)" >&2
  exit 1
fi
