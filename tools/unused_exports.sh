#!/usr/bin/env bash
# Exports with no caller: every `val` a library interface (lib/**/*.mli)
# declares must be named, as a whole word (grep -w), in at least one .ml or
# .mli file outside its own module's pair, anywhere under lib/, bench/,
# bin/, test/ or examples/. A value only its own module uses does not
# belong in the interface: drop it there, and delete its code if the module
# does not use it either.
#
#   bash tools/unused_exports.sh     # from anywhere; exit 1 lists each find
set -euo pipefail
cd "$(dirname "$0")/.."

# Module.value pairs whose caller is not in the tree yet.
allow=" Block_stm.maybe_commit "

mapfile -t sources < <(find lib bench bin test examples -type f \
  \( -name '*.ml' -o -name '*.mli' \) | sort)

found=0
while IFS= read -r mli; do
  base=${mli%.mli}
  module=$(basename "$base")
  module=${module^}
  others=()
  for f in "${sources[@]}"; do
    if [ "$f" != "$base.ml" ] && [ "$f" != "$mli" ]; then others+=("$f"); fi
  done
  for v in $(grep -oE "^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_']*" "$mli" |
    awk '{print $2}' | sort -u); do
    case "$allow" in *" $module.$v "*) continue ;; esac
    if ! grep -qw -- "$v" "${others[@]}"; then
      echo "unused_exports: $mli: $module.$v is named nowhere outside its module"
      found=1
    fi
  done
done < <(find lib -type f -name '*.mli' | sort)

if [ "$found" = 1 ]; then
  echo "unused_exports: FAIL — drop each value above from its .mli (and its code, if its module does not use it)"
  exit 1
fi
echo "unused_exports: every exported value is named outside its module"
