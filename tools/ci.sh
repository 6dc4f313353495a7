#!/bin/sh
# The full local CI gate: build, run every test, check the odoc build is
# warning-free, and enforce the perf invariants of the lock-free hot paths:
#   - the MVMemory read and validation paths must not acquire a mutex: every
#     function Mvmemory.read and Mvmemory.validate_read_set call, down to the
#     slot probe and the chain lookup, and the engine's ESTIMATE scan over
#     a recorded read log (grep gate);
#   - per-block fixed cost: nothing under lib/mvmemory or lib/scheduler
#     spawns a domain, and Scheduler.create, Mvmemory.create/fresh_table and
#     Block_stm.create_instance build no array with Array.init (grep gate);
#   - the cross-domain stress suite passes (covers 1/2/4/8-domain runs);
#   - on a multi-core host, the 4-domain scaling point must not fall below
#     the 1-domain point on the low-contention workload. On single-core
#     hosts (where real-domain scaling is physically impossible) the bench
#     still runs but the comparison is report-only; set
#     BLOCKSTM_SCALING_GATE=1 to force enforcement;
#   - location-key interning (DESIGN.md §11): Compile.intern_get's hit path
#     must stay allocation- and lock-free (grep gate);
#   - the compiled MiniMove VM must stay >= 2x the tree-walk interpreter on
#     the p2p standard workload at 1 domain (vm-cost smoke; the pure-VM
#     replay row, which is immune to single-core scheduling noise);
#   - with delta_ops off (the default) the engine is byte-for-byte the
#     paper's: fig3-fig6 and the ablations virtual-time tables must match
#     the golden captures in tools/golden/ exactly;
#   - the CLI exits 2 on a flag combination the engine config cannot
#     express (--no-estimates --specs);
#   - commutative deltas (DESIGN.md §12) must beat paper read-modify-write
#     by >= 2x on the 2-hot-account / 8-thread hotspot-delta row (virtual
#     time, so deterministic and enforced on any host).
# Usage: tools/ci.sh   (run from the repository root)
set -eu

dune build
dune runtest
tools/check_doc.sh

# --- Lock-free gate ---------------------------------------------------------
# The MVMemory read and validation paths must acquire zero mutexes: extract
# the body of every function they call (top-level "let [rec] <fn> ..." up
# to the next blank line) and fail on any mention of Mutex. The list is the
# read path (read, the slot probe, the chain lookup, the delta fold), the
# validation path (validate_read_set down to the per-descriptor checks, and
# its walk over the read log's two arrays), and the engine's pre-execution
# ESTIMATE scan over a recorded read log.
mv=lib/mvmemory/mvmemory.ml core=lib/core/block_stm.ml
for spec in $mv:hash_of $mv:probe_of $mv:probe $mv:find_slot $mv:below \
  $mv:read_delta_chain $mv:read_chain $mv:read $mv:materialize \
  $mv:is_version $mv:is_storage $mv:validate_plain $mv:validate_origin \
  $mv:validate_from $mv:validate_read_set \
  $core:find_estimate_from; do
  file=${spec%%:*} fn=${spec#*:}
  body=$(awk "/^  let (rec )?$fn /{f=1} f{print; if (\$0 ~ /^\$/) exit}" "$file")
  if [ -z "$body" ]; then
    echo "ci: FAIL — could not locate $fn in $file for the lock-free gate"
    exit 1
  fi
  if printf '%s' "$body" | grep -q "Mutex"; then
    echo "ci: FAIL — $fn in $file mentions Mutex; the read and validation paths must be lock-free"
    exit 1
  fi
done
echo "ci: lock-free gate passed (Mvmemory read and validation paths and the ESTIMATE scan take no mutex)"

# --- Per-block fixed-cost gate ----------------------------------------------
# Block_stm.run's helpers are the only per-block Domain.spawn: MVMemory and
# the scheduler spawn none. And the per-block create path builds no array
# with Array.init, which in OCaml 5.1 empties the minor heap before it
# builds an array of more than 256 words from a young element; the path
# uses Atomic_util.init_array instead (DESIGN.md §9). Bodies are extracted
# with the lock-free gate's awk, at either indentation.
if grep -rn "Domain\.spawn" lib/mvmemory lib/scheduler; then
  echo "ci: FAIL — Domain.spawn under lib/mvmemory or lib/scheduler; Block_stm.run must stay the only per-block spawn site"
  exit 1
fi
for spec in lib/scheduler/scheduler.ml:create lib/mvmemory/mvmemory.ml:create \
  lib/mvmemory/mvmemory.ml:fresh_table lib/core/block_stm.ml:create_instance; do
  file=${spec%%:*} fn=${spec#*:}
  body=$(awk "/^ *let (rec )?$fn /{f=1} f{print; if (\$0 ~ /^\$/) exit}" "$file")
  if [ -z "$body" ]; then
    echo "ci: FAIL — could not locate $fn in $file for the per-block fixed-cost gate"
    exit 1
  fi
  if printf '%s' "$body" | grep -q "Array\.init"; then
    echo "ci: FAIL — $fn in $file mentions Array.init; build per-block arrays with Atomic_util.init_array"
    exit 1
  fi
done
echo "ci: per-block fixed-cost gate passed (no spawn in MVMemory/scheduler, no Array.init on the create path)"

# --- Cross-domain test pass -------------------------------------------------
# The scaling_stress suite runs the engine on 1/2/4/8 real domains and
# checks state, outputs and read-set descriptors against sequential.
dune exec test/test_main.exe -- test scaling_stress

# --- Scaling bench smoke ----------------------------------------------------
cores=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -n1)
out=$(dune exec bench/main.exe -- scaling --domains 1,4)
printf '%s\n' "$out"
tps1=$(printf '%s\n' "$out" | awk '$1=="p2p-low" && $2=="bstm" && $3=="1" {print int($4)}')
tps4=$(printf '%s\n' "$out" | awk '$1=="p2p-low" && $2=="bstm" && $3=="4" {print int($4)}')
if [ -z "$tps1" ] || [ -z "$tps4" ]; then
  echo "ci: FAIL — scaling bench did not report BSTM tps at 1 and 4 domains"
  exit 1
fi
if [ "$cores" -ge 4 ] || [ "${BLOCKSTM_SCALING_GATE:-0}" = "1" ]; then
  if [ "$tps4" -lt "$tps1" ]; then
    echo "ci: FAIL — scaling regression: BSTM-4 ($tps4 tps) < BSTM-1 ($tps1 tps) on low-contention p2p"
    exit 1
  fi
  echo "ci: scaling gate passed (BSTM-4 $tps4 tps >= BSTM-1 $tps1 tps)"
else
  echo "ci: scaling gate report-only on $cores core(s): BSTM-1 $tps1 tps, BSTM-4 $tps4 tps"
fi

# --- Location-key interning gate --------------------------------------------
# The interned-location hit path (DESIGN.md §11) is what keeps every
# storage access in compiled code allocation-free: extract the body of the
# top-level Compile.intern_get (up to the next blank line) and fail if it
# allocates a key (Loc.make), hashes (Hashtbl) or locks (Mutex) — those
# belong only in the intern_slow fallback.
body=$(awk '/^let intern_get /{f=1} f{print; if ($0 ~ /^$/) exit}' \
  lib/minimove/compile.ml)
if [ -z "$body" ]; then
  echo "ci: FAIL — could not locate Compile.intern_get for the interning gate"
  exit 1
fi
if printf '%s' "$body" | grep -Eq "Loc\.make|Hashtbl|Mutex"; then
  echo "ci: FAIL — Compile.intern_get hit path allocates/hashes/locks; keep that in intern_slow"
  exit 1
fi
echo "ci: interning gate passed (Compile.intern_get hit path is allocation-free)"

# --- Compiled-VM smoke ------------------------------------------------------
# The vm-cost experiment (EXPERIMENTS.md) compares the tree-walk interpreter
# against the compiled VM. Gate on the "vm" executor rows — a read-trace
# replay that isolates pure VM cost, so the ratio is stable even on a
# single, oversubscribed core. The standard-flavor compiled row must hold
# at least 2x tree-walk (measured ~6x; the gate leaves wide noise margin).
out=$(dune exec bin/blockstm_cli.exe -- exp --id vm-cost)
printf '%s\n' "$out"
vm_tree=$(printf '%s\n' "$out" \
  | awk '$1=="standard" && $2=="tree-walk" && $3=="vm" && $4=="1" {print int($5)}')
vm_comp=$(printf '%s\n' "$out" \
  | awk '$1=="standard" && $2=="compiled" && $3=="vm" && $4=="1" {print int($5)}')
if [ -z "$vm_tree" ] || [ -z "$vm_comp" ] || [ "$vm_tree" -le 0 ]; then
  echo "ci: FAIL — vm-cost did not report tree-walk and compiled tps on the standard vm rows"
  exit 1
fi
if [ "$vm_comp" -lt $((2 * vm_tree)) ]; then
  echo "ci: FAIL — compiled VM ($vm_comp tps) < 2x tree-walk ($vm_tree tps) on p2p standard"
  exit 1
fi
echo "ci: vm-cost gate passed (compiled $vm_comp tps >= 2x tree-walk $vm_tree tps)"

# --- Deltas-off byte-identity gate ------------------------------------------
# delta_ops is strictly opt-in: with it off (the default, which is what the
# figure experiments use) the engine must remain byte-for-byte the paper's.
# The ablations table pins the paper's design-choice variants the same way.
# The quick grids are virtual-time and fully deterministic, so the
# regenerated tables must match the golden captures exactly.
for fig in fig3 fig4 fig5 fig6 ablations; do
  out=$(dune exec bench/main.exe -- "$fig")
  if ! printf '%s\n' "$out" | diff "tools/golden/$fig.txt" - >/dev/null; then
    printf '%s\n' "$out" | diff "tools/golden/$fig.txt" - | head -20 || true
    echo "ci: FAIL — $fig output differs from tools/golden/$fig.txt (deltas-off must stay byte-identical to the paper engine)"
    exit 1
  fi
done
echo "ci: deltas-off byte-identity gate passed (fig3-fig6 and ablations match tools/golden/)"

# --- Inexpressible flag combinations ----------------------------------------
# Spec seeding exists only with ESTIMATE markers, so the CLI must refuse
# --no-estimates --specs with exit status 2 (not an exception).
status=0
dune exec bin/blockstm_cli.exe -- run -w p2p -a 100 -b 100 -d 1 \
  --no-estimates --specs >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "ci: FAIL — blockstm run --no-estimates --specs exited $status, expected 2"
  exit 1
fi
echo "ci: inexpressible-combination gate passed (--no-estimates --specs exits 2)"

# --- Hotspot-delta smoke ----------------------------------------------------
# Commutative delta entries (DESIGN.md §12) exist to kill the fig5 cliff:
# on the 2-hot-account row at 8 virtual threads, delta mode must commit at
# least 2x the paper engine's throughput (measured ~4x; virtual time, so
# the gate holds on any host).
out=$(dune exec bench/main.exe -- hotspot-delta)
printf '%s\n' "$out"
hpaper=$(printf '%s\n' "$out" | awk '$1=="2" && $2=="8" {print int($3)}')
hdelta=$(printf '%s\n' "$out" | awk '$1=="2" && $2=="8" {print int($4)}')
if [ -z "$hpaper" ] || [ -z "$hdelta" ] || [ "$hpaper" -le 0 ]; then
  echo "ci: FAIL — hotspot-delta did not report paper and deltas tps on the 2-hot/8-thread row"
  exit 1
fi
if [ "$hdelta" -lt $((2 * hpaper)) ]; then
  echo "ci: FAIL — deltas ($hdelta tps) < 2x paper ($hpaper tps) at 2 hot accounts / 8 threads"
  exit 1
fi
echo "ci: hotspot-delta gate passed (deltas $hdelta tps >= 2x paper $hpaper tps)"

# --- State-scale smoke ------------------------------------------------------
# The incremental Merkle substrate (DESIGN.md §13) exists to make per-block
# authenticated roots O(|delta| log buckets) instead of the flat store's
# O(n) fold: at 10^5 accounts the incremental update must be >= 5x cheaper
# (measured 5.5-7x; the experiment takes per-side best-of-3 minima, so the
# ratio is stable under load). The roots column also asserts correctness at
# every grid point: sequential root = Block-STM root = from-scratch
# recompute; any mismatch is a hard failure regardless of speed.
out=$(dune exec bench/main.exe -- state-scale)
printf '%s\n' "$out"
if printf '%s\n' "$out" | awk 'NF>=6 && $1 ~ /^[0-9]+$/ && $6!="ok" {exit 1}'
then :; else
  echo "ci: FAIL — state-scale reported a root mismatch (see the roots column)"
  exit 1
fi
sspeed=$(printf '%s\n' "$out" \
  | awk '$1=="100000" {sub(/x$/,"",$5); print $5}')
if [ -z "$sspeed" ]; then
  echo "ci: FAIL — state-scale did not report the 100000-account row"
  exit 1
fi
if ! awk "BEGIN{exit !($sspeed >= 5.0)}"; then
  echo "ci: FAIL — incremental Merkle root only ${sspeed}x the whole-state fold at 10^5 accounts (need >= 5x)"
  exit 1
fi
echo "ci: state-scale gate passed (incremental ${sspeed}x >= 5x fold at 10^5 accounts, roots ok)"

# --- Sustained pipeline smoke -----------------------------------------------
# The continuous block pipeline (DESIGN.md §14). Two invariants:
#   - identity is unconditional: every (store, mode, domains) grid point
#     must report "ok" in the roots column — per-block and pipelined
#     execution both commit bit-identically to the per-block sequential
#     reference. Any MISMATCH fails on any host.
#   - throughput is gated like the scaling bench: on >= 4 cores (or with
#     BLOCKSTM_SUSTAINED_GATE=1) the flat pipelined 4-domain point must not
#     fall below flat per-block at 4 domains; on single-core hosts the
#     overlap has no spare core to run on, so the comparison is report-only.
out=$(dune exec bench/main.exe -- sustained)
printf '%s\n' "$out"
if printf '%s\n' "$out" \
  | awk '($1=="flat" || $1=="merkle") && NF>=7 && $7!="ok" {exit 1}'
then :; else
  echo "ci: FAIL — sustained reported a commit divergence (see the roots column): pipelined streams must be bit-identical to per-block"
  exit 1
fi
sus_pb=$(printf '%s\n' "$out" \
  | awk '$1=="flat" && $2=="per-block" && $3=="4" {print int($4)}')
sus_pl=$(printf '%s\n' "$out" \
  | awk '$1=="flat" && $2=="pipelined" && $3=="4" {print int($4)}')
if [ -z "$sus_pb" ] || [ -z "$sus_pl" ]; then
  echo "ci: FAIL — sustained did not report flat per-block and pipelined tps at 4 domains"
  exit 1
fi
if [ "$cores" -ge 4 ] || [ "${BLOCKSTM_SUSTAINED_GATE:-0}" = "1" ]; then
  if [ "$sus_pl" -lt "$sus_pb" ]; then
    echo "ci: FAIL — sustained regression: pipelined ($sus_pl tps) < per-block ($sus_pb tps) on flat/4 domains"
    exit 1
  fi
  echo "ci: sustained gate passed (pipelined $sus_pl tps >= per-block $sus_pb tps, all roots ok)"
else
  echo "ci: sustained gate report-only on $cores core(s): per-block $sus_pb tps, pipelined $sus_pl tps; roots all ok"
fi

# --- Spec-skip smoke --------------------------------------------------------
# Static access specs (DESIGN.md §15): on a large-account p2p block most
# transactions are pairwise-independent, so --specs must actually skip
# validation work — spec_skips > 0 and strictly fewer validations than the
# optimistic run of the same block. Deterministic in the skip/seeding
# direction (independence is computed statically), so this gates on any
# host. --verify additionally checks committed state against sequential.
spec_run() {
  dune exec bin/blockstm_cli.exe -- run -w p2p -a 10000 -b 1000 -d 4 \
    --seed 42 --verify "$@" | tr ';' '\n'
}
sopt=$(spec_run | sed -n 's/^.*[{ ]validations=//p' | head -n1)
sspec_out=$(spec_run --specs)
sspec=$(printf '%s\n' "$sspec_out" | sed -n 's/^.*[{ ]validations=//p' | head -n1)
sskips=$(printf '%s\n' "$sspec_out" | sed -n 's/^.*[{ ]spec_skips=//p' \
  | tr -cd '0-9\n' | head -n1)
if [ -z "$sopt" ] || [ -z "$sspec" ] || [ -z "$sskips" ]; then
  echo "ci: FAIL — could not parse validations=/spec_skips= from the CLI metrics line"
  exit 1
fi
if [ "$sskips" -le 0 ]; then
  echo "ci: FAIL — --specs reported spec_skips=$sskips on the independent p2p workload (expected > 0)"
  exit 1
fi
if [ "$sspec" -ge "$sopt" ]; then
  echo "ci: FAIL — --specs ran $sspec validations, not below the optimistic run's $sopt"
  exit 1
fi
echo "ci: spec-skip gate passed ($sskips validations skipped; $sspec validations < optimistic's $sopt)"

# --- Execution-lane gates ---------------------------------------------------
# Sharded execution lanes (DESIGN.md §16). Four checks:
#   - identity sweep, unconditional: the lane-scaling experiment asserts
#     (and Fmt.failwiths on divergence) that every (workload, lanes,
#     threads) grid point commits a snapshot and outputs bit-identical to
#     the single-instance engine, and the CLI runs below re-check commits
#     against sequential on real domains;
#   - golden byte-identity, unconditional: the lane-scaling table is
#     virtual time and fully deterministic, so it must match
#     tools/golden/lane-scaling.txt exactly (the same output feeds the
#     headline check below; the experiment runs once);
#   - virtual-time headline, unconditional (deterministic on any host): on
#     the contended-but-partitionable p2p-hot workload, 8 lanes at 8
#     virtual threads must hold >= 1.5x single-instance throughput;
#   - real-domain perf smoke, gated on >= 8 cores (or BLOCKSTM_LANES_GATE=1
#     to force): on a lane-partitionable p2p block (--lane-hint 2), 2 lanes
#     over 8 domains must not fall below 1.3x the single instance. On
#     smaller hosts lanes cannot physically beat one instance, so the
#     comparison is report-only.
out=$(dune exec bench/main.exe -- lane-scaling)
printf '%s
' "$out"
if ! printf '%s\n' "$out" | diff tools/golden/lane-scaling.txt - >/dev/null; then
  printf '%s\n' "$out" | diff tools/golden/lane-scaling.txt - | head -20 || true
  echo "ci: FAIL — lane-scaling output differs from tools/golden/lane-scaling.txt"
  exit 1
fi
echo "ci: lane-scaling golden byte-identity passed"
lane_speedup=$(printf '%s
' "$out"   | awk '$1=="p2p-hot" && $2=="8" && $3=="8" {sub(/x$/,"",$5); print $5}')
if [ -z "$lane_speedup" ]; then
  echo "ci: FAIL — lane-scaling did not report the p2p-hot 8-lane/8-thread row"
  exit 1
fi
if ! awk "BEGIN{exit !($lane_speedup >= 1.5)}"; then
  echo "ci: FAIL — 8 lanes at 8 threads only ${lane_speedup}x the single instance on p2p-hot (need >= 1.5x, virtual time)"
  exit 1
fi
echo "ci: lane identity sweep + virtual headline passed (p2p-hot 8 lanes @ 8 threads: ${lane_speedup}x)"
dune exec bin/blockstm_cli.exe -- run -w p2p -a 1000 -b 1000 -d 4   --lanes 2 --verify >/dev/null
dune exec bin/blockstm_cli.exe -- run -w p2p -a 1000 -b 1000 -d 4 --lanes 4 --verify >/dev/null
dune exec bin/blockstm_cli.exe -- run -w p2p-hotspot -a 100 -b 500 -d 4   --lanes 2 --deltas --verify >/dev/null
echo "ci: lane CLI identity passed (2 lanes, 4 lanes and deltas commits match sequential)"
ltps() {
  dune exec bin/blockstm_cli.exe -- run -w p2p -a 1024 -b 4000 -d 8     --seed 42 --lane-hint 2 "$@"     | sed -n 's/^executed .*: \([0-9]*\) tps.*/\1/p'
}
lane_single=$(ltps)
lane_two=$(ltps --lanes 2)
if [ -z "$lane_single" ] || [ -z "$lane_two" ]; then
  echo "ci: FAIL — could not parse wall-clock tps from the lane smoke runs"
  exit 1
fi
if [ "$cores" -ge 8 ] || [ "${BLOCKSTM_LANES_GATE:-0}" = "1" ]; then
  if [ "$lane_two" -lt $((lane_single * 13 / 10)) ]; then
    echo "ci: FAIL — 2 lanes ($lane_two tps) < 1.3x single instance ($lane_single tps) on lane-partitionable p2p at 8 domains"
    exit 1
  fi
  echo "ci: lane perf smoke passed (2 lanes $lane_two tps >= 1.3x single $lane_single tps)"
else
  echo "ci: lane perf smoke report-only on $cores core(s): single $lane_single tps, 2 lanes $lane_two tps"
fi

echo "ci: all checks passed"
