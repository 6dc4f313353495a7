#!/bin/sh
# The full local CI gate: build, run every test, check the docs
# (tools/check_doc.sh: the odoc build warning-free where odoc is installed,
# and otherwise every {!...} reference in lib/**/*.mli resolved by the
# script itself; DESIGN.md's experiment index and counter table in sync),
# and enforce the perf invariants of the lock-free hot paths:
#   - the MVMemory read and validation paths must not acquire a mutex: every
#     function Mvmemory.read and Mvmemory.validate_read_set call, down to the
#     slot probe and the chain lookup, the engine's ESTIMATE scan over a
#     recorded read log, and the VM's speculative read, from the effects
#     handle's read through the own-write lookup to the read log's append;
#     nor may the scheduler's task path, from claiming
#     a task to a validation abort, nor the commit job's per-binding path:
#     MVMemory's per-shard read-out, the Merkle part update and the
#     base-tier probe it calls (grep gate);
#   - per-block fixed cost: nothing under lib/mvmemory, lib/scheduler,
#     lib/chain or lib/storage spawns a domain, and Scheduler.create, Mvmemory.create/fresh_table and
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
#     the p2p standard workload (vm-cost smoke; the median of per-pair
#     ratios from interleaved pure-VM replays in one process);
#   - every deterministic virtual-time table is byte-for-byte pinned: with
#     delta_ops off (the default) the engine is the paper's, so fig3-fig6,
#     seq-overhead, aborts, ablations and hotspot-delta must match the
#     golden captures in tools/golden/ exactly (lane-scaling is pinned by
#     the lane gates below);
#   - the CLI exits 2 on a run its input rules out (--lanes over a
#     workload without access specs);
#   - the single-instance engine on 4 domains over 10^4 accounts commits
#     what the sequential executor commits (--verify);
#   - blockstm analyze --json prints valid JSON for a script saved under a
#     non-ASCII name (no OCaml decimal escape such as \195);
#   - commutative deltas (DESIGN.md §12) must beat paper read-modify-write
#     by >= 2x on the 2-hot-account / 8-thread hotspot-delta row (virtual
#     time, so deterministic and enforced on any host);
#   - blockstm run -e litm --verify matches the sequential executor run in
#     LiTM's own commit order;
#   - every program under examples/ runs to completion with exit status 0;
#   - every value a library .mli exports is named outside its own module,
#     and every top-level value of a library module without an .mli is
#     named outside its own binding (tools/unused_exports.sh).
# Usage: tools/ci.sh   (run from the repository root)
set -eu

dune build
dune runtest
tools/check_doc.sh
bash tools/unused_exports.sh

# --- Lock-free gate ---------------------------------------------------------
# The MVMemory read and validation paths must acquire zero mutexes: extract
# the body of every function they call (top-level "let [rec] <fn> ..." up
# to the next blank line) and fail on any mention of Mutex. The list is the
# read path (read, the slot probe, the chain lookup, the delta fold), the
# validation path (validate_read_set down to the per-descriptor checks, and
# its walk over the read log's two arrays), the engine's pre-execution
# ESTIMATE scan over a recorded read log, the VM's speculative read (the
# effects handle's read, the own-write lookup and its scan, the pending-delta
# lookup, and the read log's append), and the commit job's per-binding
# path, which the crew runs on several domains at once: MVMemory's
# per-shard read-out, the Merkle store's staged part update, and the base
# tier's probe and slot read it calls.
mv=lib/mvmemory/mvmemory.ml core=lib/core/block_stm.ml
mk=lib/storage/merkle.ml ms=lib/storage/memstore.ml
for spec in $mv:hash_of $mv:probe_of $mv:probe $mv:find_slot $mv:below \
  $mv:read_delta_chain $mv:read_chain $mv:read $mv:materialize \
  $mv:is_version $mv:is_storage $mv:validate_plain $mv:validate_origin \
  $mv:validate_from $mv:validate_read_set \
  $core:find_estimate_from $core:vm_read $core:own_write $core:scan_writes \
  $core:own_delta $core:push_read \
  $mv:final_binding $mv:iter_shard \
  $mk:apply_part $mk:stage_binding $mk:push_staged $mk:push_deferred \
  $mk:dirty_in $mk:mix $mk:entry_hash_hm \
  $ms:slot $ms:find $ms:probe $ms:home $ms:next $ms:slot_value; do
  file=${spec%%:*} fn=${spec#*:}
  body=$(awk "/^  let (rec )?$fn /{f=1} f{print; if (\$0 ~ /^\$/) exit}" "$file")
  if [ -z "$body" ]; then
    echo "ci: FAIL — could not locate $fn in $file for the lock-free gate"
    exit 1
  fi
  if printf '%s' "$body" | grep -q "Mutex"; then
    echo "ci: FAIL — $fn in $file mentions Mutex; the read, validation and commit-job paths must be lock-free"
    exit 1
  fi
done
# The scheduler's task path takes no mutex either (DESIGN.md §4): claiming
# a task, parking on and resuming from a dependency, finishing an execution
# and a validation abort are CASes and asserted stores on per-transaction
# atomics, down to the helpers they call. Only the rolling-commit sweep
# keeps a mutex. scheduler.ml is not a functor, so its top-level functions
# are matched at any indentation.
sched=lib/scheduler/scheduler.ml
for fn in try_incarnate next_version_to_execute next_version_to_validate \
  next_task resolved try_resume push_dependent add_dependency \
  resume_dependencies finish_execution try_validation_abort \
  finish_validation; do
  body=$(awk "/^ *let (rec )?$fn /{f=1} f{print; if (\$0 ~ /^\$/) exit}" "$sched")
  if [ -z "$body" ]; then
    echo "ci: FAIL — could not locate $fn in $sched for the lock-free gate"
    exit 1
  fi
  if printf '%s' "$body" | grep -q "Mutex"; then
    echo "ci: FAIL — $fn in $sched mentions Mutex; the scheduler's task path must be lock-free"
    exit 1
  fi
done
echo "ci: lock-free gate passed (Mvmemory read and validation paths, the ESTIMATE scan, the VM's speculative read, the scheduler's task path and the commit job's per-binding path take no mutex)"

# --- Per-block fixed-cost gate ----------------------------------------------
# Block_stm.run's helpers are the only per-block Domain.spawn: MVMemory and
# the scheduler spawn none, and the chain and the state stores keep no
# long-lived domain (one would join every stop-the-world collection). And the per-block create path builds no array
# with Array.init, which in OCaml 5.1 empties the minor heap before it
# builds an array of more than 256 words from a young element; the path
# uses Atomic_util.init_array instead (DESIGN.md §9). Bodies are extracted
# with the lock-free gate's awk, at either indentation.
if grep -rn "Domain\.spawn" lib/mvmemory lib/scheduler lib/chain lib/storage; then
  echo "ci: FAIL — Domain.spawn under lib/mvmemory, lib/scheduler, lib/chain or lib/storage; Block_stm.run must stay the only spawn site"
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
echo "ci: per-block fixed-cost gate passed (no spawn in MVMemory/scheduler/chain/storage, no Array.init on the create path)"

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
# against the compiled VM. Gate on the "vm" executor rows: read-trace
# replays that isolate pure VM cost. The compiled vm row's "vs tree-walk"
# cell is the median ratio of replay pairs that alternate between the two
# VMs on the same block within one process; whole processes spread 2.4-7x,
# so no single pair of best-of-n rows decides it. The standard flavor must
# hold at least 2x.
out=$(dune exec bench/main.exe -- vm-cost)
printf '%s\n' "$out"
vm_ratio=$(printf '%s\n' "$out" \
  | awk '$1=="standard" && $2=="compiled" && $3=="vm" && $4=="1" {sub(/x$/,"",$6); print $6}')
if [ -z "$vm_ratio" ]; then
  echo "ci: FAIL — vm-cost did not report the standard compiled vm row's replay-pair ratio"
  exit 1
fi
if ! awk "BEGIN{exit !($vm_ratio >= 2.0)}"; then
  echo "ci: FAIL — compiled VM only ${vm_ratio}x tree-walk (median of interleaved replay pairs) on p2p standard"
  exit 1
fi
echo "ci: vm-cost gate passed (compiled ${vm_ratio}x >= 2x tree-walk, median of interleaved replay pairs)"

# --- Virtual-table byte-identity gate ---------------------------------------
# delta_ops is strictly opt-in: with it off (the default, which is what the
# figure experiments use) the engine must remain byte-for-byte the paper's.
# The ablations table pins the paper's design-choice variants the same way,
# and seq-overhead, aborts and hotspot-delta pin the overhead, abort and
# delta paths. The quick grids are virtual-time and fully deterministic, so
# the regenerated tables must match the golden captures exactly.
for fig in fig3 fig4 fig5 fig6 seq-overhead aborts ablations hotspot-delta; do
  out=$(dune exec bench/main.exe -- "$fig")
  if ! printf '%s\n' "$out" | diff "tools/golden/$fig.txt" - >/dev/null; then
    printf '%s\n' "$out" | diff "tools/golden/$fig.txt" - | head -20 || true
    echo "ci: FAIL — $fig output differs from tools/golden/$fig.txt (virtual-time tables must stay byte-identical)"
    exit 1
  fi
done
echo "ci: virtual-table byte-identity gate passed (fig3-fig6, seq-overhead, aborts, ablations and hotspot-delta match tools/golden/)"

# --- Runs the input rules out -----------------------------------------------
# Lanes plan from per-transaction access specs, and the hotspot workload
# has none, so the CLI must refuse --lanes over it with exit status 2 (not
# an exception).
status=0
dune exec bin/blockstm_cli.exe -- run -w hotspot -b 100 -d 1 --lanes 2 \
  >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "ci: FAIL — blockstm run -w hotspot --lanes 2 exited $status, expected 2"
  exit 1
fi
echo "ci: exit-2 gate passed (--lanes over a workload without specs exits 2)"

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
# authenticated roots O(|delta| log buckets) instead of an O(n) fold over
# the whole state. The fold column is that yardstick, computed in the
# experiment: apply the delta to a flat copy of the state, then digest its
# sorted bindings. At 10^5 accounts the incremental update must be >= 5x
# cheaper. The experiment interleaves 11 fold and incremental repetitions
# in one process and takes each side's median, as the vm-cost gate does:
# per-side best-of-3 minima read 5.3x in one run of five on a 2-core host,
# against 5.9-7.2x in the others. The roots column also asserts
# correctness at every grid point: sequential root = Block-STM root =
# from-scratch recompute; any mismatch is a hard failure regardless of
# speed. The last column, build (ms), is report-only.
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

# --- Sustained stream smoke -------------------------------------------------
# Block streams through the chain (DESIGN.md §14). Identity is
# unconditional: the throughput table (domains, tps, roots) must report
# "ok" in the roots column at every domain count of the default grid
# (1, 2, 4), i.e. the stream commits bit-identically to the per-block
# sequential reference (the experiment's oracle also fails the run on a
# divergence). The tps column is report-only.
out=$(dune exec bench/main.exe -- sustained)
printf '%s\n' "$out"
if printf '%s\n' "$out" | awk 'NF==3 && $1 ~ /^[0-9]+$/ && $3!="ok" {exit 1}'
then :; else
  echo "ci: FAIL — sustained reported a commit divergence (see the roots column): streams must be bit-identical to the sequential chain"
  exit 1
fi
for d in 1 2 4; do
  if [ -z "$(printf '%s\n' "$out" | awk -v d="$d" 'NF==3 && $1==d && $3=="ok"')" ]; then
    echo "ci: FAIL — sustained did not report ok roots at $d domain(s)"
    exit 1
  fi
done
echo "ci: sustained gate passed (roots ok at 1, 2 and 4 domains)"

# --- Single-instance identity ----------------------------------------------
# The paper engine on 4 domains over a 10^4-account p2p block. --verify
# compares the committed state and every output with the sequential
# executor and exits 1 on a difference.
dune exec bin/blockstm_cli.exe -- run -w p2p -a 10000 -b 1000 -d 4 \
  --seed 42 --verify >/dev/null
echo "ci: single-instance identity passed (4 domains commit what sequential does)"

# --- analyze --json ---------------------------------------------------------
# The analyzer's JSON names the script file. A name that is not ASCII must
# come out as UTF-8, not as OCaml's decimal escapes ("caf\195\169.mm"),
# which no JSON parser accepts.
mmdir=$(mktemp -d)
printf 'fun main(a) {\n  let c = load(a, Coin);\n  store(a, Coin, Coin { value: c.value + 1 });\n  return ();\n}\n' \
  >"$mmdir/café.mm"
aj=$(dune exec bin/blockstm_cli.exe -- analyze --file "$mmdir/café.mm" --json)
rm -rf "$mmdir"
if [ -z "$aj" ] || printf '%s\n' "$aj" | grep -q '\\[0-9]'; then
  printf 'ci: FAIL — blockstm analyze --json printed no JSON or a backslash-digit escape: %s\n' "$aj"
  exit 1
fi
echo "ci: analyze --json passed (a non-ASCII file name prints as UTF-8)"

# --- Execution-lane gates ---------------------------------------------------
# Sharded execution lanes (DESIGN.md §16). Four checks:
#   - identity sweep, unconditional: the lane-scaling experiment's oracle
#     fails the run unless every (workload, lanes, threads) grid point
#     commits a snapshot and outputs bit-identical to the block's
#     sequential reference, for the lanes and the single instance alike,
#     and the CLI runs below re-check commits
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

# --- LiTM verify ------------------------------------------------------------
# LiTM commits round by round, not in preset order, so --verify runs the
# sequential executor over the block in LiTM's own commit order and
# compares the snapshot and every output: on a contended block (100
# accounts, 20 rounds) and on a 10^4-account one.
dune exec bin/blockstm_cli.exe -- run -e litm -w p2p -a 100 -b 1000 -d 2 --verify >/dev/null
dune exec bin/blockstm_cli.exe -- run -e litm -w p2p -a 10000 -d 1 --verify >/dev/null
echo "ci: litm verify passed (snapshot and outputs match sequential in LiTM's commit order)"

# --- Examples ---------------------------------------------------------------
# Every example must run to completion. Five check their own result and
# exit 1 on a failure: validator_replicas unless three replicas on
# different executors commit the same state root at every height,
# block_pipeline unless the total balance is conserved and the chain
# matches its sequential replica, quickstart and minimove_coin unless
# Block-STM matches the sequential executor, and nft_auction unless the
# auction matches it and the mints take ids in preset order.
for f in examples/*.ml; do
  ex=$(basename "$f" .ml)
  if ! dune exec "examples/$ex.exe" >/dev/null; then
    echo "ci: FAIL — examples/$ex.exe exited non-zero"
    exit 1
  fi
done
echo "ci: examples passed (every program under examples/ exited 0)"

echo "ci: all checks passed"
