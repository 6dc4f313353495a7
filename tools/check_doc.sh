#!/bin/sh
# Documentation gate:
#   - the odoc build must emit no warning or error. Where odoc is not
#     installed, `dune build @doc` builds nothing and passes, so the gate
#     instead resolves the head of every {!...} reference in lib/**/*.mli
#     (after any `kind:` prefix): a capitalised head must name a module
#     file, a Blockstm_* library, a module declared under lib/ or a
#     constructor of that .mli; a lowercase one a val, type, record field
#     or constructor of that .mli;
#   - DESIGN.md §5's per-experiment index must list exactly the experiments
#     the bench harness registers (Blockstm_bench.Experiments.all, plus the
#     bechamel `micro` suite that bench/main.ml dispatches specially) — a
#     stale index is how docs rot;
#   - DESIGN.md §7's engine-counter table must list exactly the fields of
#     `type metrics` in lib/core/block_stm.mli.
# Usage: tools/check_doc.sh   (run from the repository root)
set -eu
if command -v odoc >/dev/null 2>&1; then
  out=$(dune build @doc 2>&1) || { printf '%s\n' "$out"; exit 1; }
  if printf '%s' "$out" | grep -Eiq 'warning|error'; then
    printf '%s\n' "$out"
    echo "check_doc: dune build @doc emitted warnings" >&2
    exit 1
  fi
  echo "check_doc: dune build @doc clean"
else
  echo "check_doc: odoc not on PATH; fallback: resolving {!...} references in lib/**/*.mli"
  find lib -name '*.ml' -o -name '*.mli' | sort | perl -e '
    my (%global, @mlis);
    while (my $f = <STDIN>) {
      chomp $f;
      my ($base) = $f =~ m{([^/]+)\.mli?$};
      $global{ucfirst $base} = 1;
      push @mlis, $f if $f =~ /\.mli$/;
      open my $h, "<", $f or die "$f: $!";
      local $/;
      my $src = <$h>;
      $global{$1} = 1 while $src =~ /\bmodule\s+(?:type\s+|rec\s+)?([A-Z]\w*)/g;
    }
    for my $d (glob "lib/*/dune") {
      open my $h, "<", $d or die "$d: $!";
      local $/;
      my $src = <$h>;
      $global{ucfirst $1} = 1 while $src =~ /\(name\s+(blockstm_\w+)\)/g;
    }
    my ($refs, $bad) = (0, 0);
    for my $f (@mlis) {
      open my $h, "<", $f or die "$f: $!";
      local $/;
      my $src = <$h>;
      my $code = $src;
      1 while $code =~ s/\(\*(?:(?!\(\*|\*\)).)*\*\)/ /gs;
      my %local;
      $local{$1} = 1
        while $code =~ /\b(?:val|external)\s+([a-z_]\w*)/g;
      $local{$1} = 1
        while $code =~ /\b(?:type|and)\s+(?:nonrec\s+)?(?:\x27\w+\s+|\([^)]*\)\s+)?([a-z_]\w*)/g;
      $local{$1} = 1 while $code =~ /[{;]\s*(?:mutable\s+)?([a-z_]\w*)\s*:/g;
      $local{$1} = 1 while $code =~ /(?:\||=|\bexception)\s*([A-Z]\w*)/g;
      while ($src =~ /\{!([^}]*)\}/g) {
        my $ref = $1;
        $ref =~ s/^\s+|\s+$//g;
        $ref =~ s/^[a-z]+://;
        my ($head) = $ref =~ /^([A-Za-z_]\w*)/;
        $refs++;
        next if defined $head && ($local{$head} || ($head =~ /^[A-Z]/ && $global{$head}));
        print STDERR "check_doc: $f: unresolved reference {!$ref}\n";
        $bad++;
      }
    }
    exit 1 if $bad;
    print "check_doc: $refs references resolved\n";
  '
fi

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
