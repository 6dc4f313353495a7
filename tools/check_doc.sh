#!/bin/sh
# Documentation gate:
#   - the odoc build must emit no warning or error;
#   - DESIGN.md §5's per-experiment index must list exactly the experiments
#     the bench harness registers (Blockstm_bench.Experiments.all, plus the
#     bechamel `micro` suite that bench/main.ml dispatches specially) — a
#     stale index is how docs rot;
#   - DESIGN.md §7's engine-counter table must list exactly the fields of
#     `type metrics` in lib/core/block_stm.mli.
# Usage: tools/check_doc.sh   (run from the repository root)
set -eu
out=$(dune build @doc 2>&1) || { printf '%s\n' "$out"; exit 1; }
if printf '%s' "$out" | grep -Eiq 'warning|error'; then
  printf '%s\n' "$out"
  echo "check_doc: dune build @doc emitted warnings" >&2
  exit 1
fi
echo "check_doc: dune build @doc clean"

# --- Experiment-index consistency -------------------------------------------
reg=$({ sed -n '/^let all /,/^  \]$/s/^ *("\([a-z0-9-]*\)",.*/\1/p' \
         bench/experiments.ml
        echo micro; } | sort)
doc=$(sed -n '/^## 5\./,/^## 6\./s/^| `\([a-z0-9-]*\)` |.*/\1/p' DESIGN.md \
      | sort)
if [ -z "$reg" ] || [ -z "$doc" ]; then
  echo "check_doc: could not extract experiment ids (registry or DESIGN.md §5 index empty)" >&2
  exit 1
fi
if [ "$reg" != "$doc" ]; then
  echo "check_doc: DESIGN.md §5 experiment index out of sync with bench/experiments.ml" >&2
  echo "  registry: $(printf '%s' "$reg" | tr '\n' ' ')" >&2
  echo "  index:    $(printf '%s' "$doc" | tr '\n' ' ')" >&2
  exit 1
fi
echo "check_doc: experiment index in sync ($(printf '%s\n' "$reg" | wc -l | tr -d ' ') experiments)"

# --- Engine-counter table consistency ---------------------------------------
fields=$(sed -n '/^  type metrics = {/,/^  }/s/^    \([a-z_]*\) : int;.*/\1/p' \
           lib/core/block_stm.mli | sort)
table=$(sed -n '/^## 7\./,/^## 8\./s/^| `\([a-z_]*\)`.*/\1/p' DESIGN.md | sort)
if [ -z "$fields" ] || [ -z "$table" ]; then
  echo "check_doc: could not extract engine counters (block_stm.mli metrics type or DESIGN.md §7 table empty)" >&2
  exit 1
fi
if [ "$fields" != "$table" ]; then
  echo "check_doc: DESIGN.md §7 engine-counter table out of sync with Block_stm.metrics" >&2
  echo "  metrics: $(printf '%s' "$fields" | tr '\n' ' ')" >&2
  echo "  table:   $(printf '%s' "$table" | tr '\n' ' ')" >&2
  exit 1
fi
echo "check_doc: engine-counter table in sync ($(printf '%s\n' "$fields" | wc -l | tr -d ' ') counters)"
