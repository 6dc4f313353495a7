#!/usr/bin/env bash
# Exports with no caller: every `val` a library interface (lib/**/*.mli)
# declares must be named, as a whole word (grep -w), in the code of at least
# one .ml or .mli file outside its own module's pair, anywhere under lib/,
# bench/, bin/, test/ or examples/. A value only its own module uses does
# not belong in the interface: drop it there, and delete its code if the
# module does not use it either.
#
# A library module without an interface (lib/**/*.ml with no .mli) exports
# every top-level value, so there the check is for dead code: each `let` at
# column 0, or at the 2-space indent of a functor body (a column-0
# `module M (...) ... = struct` up to its column-0 `end`), must be named, as
# an OCaml identifier, somewhere under those directories outside its own
# binding (from its `let` up to the next line at its indent or less).
#
# Comments and string literals are stripped first, so a word in prose or in
# a test's name is not a caller.
#
#   bash tools/unused_exports.sh     # from anywhere; exit 1 lists each find
set -euo pipefail
cd "$(dirname "$0")/.."

# Module.value pairs whose caller is not in the tree yet.
allow=" Block_stm.maybe_commit "

code=$(mktemp -d)
trap 'rm -rf "$code"' EXIT

# Copy every source under $code with its comments (nested, and with the
# string literals OCaml lexes inside them), string literals (quoted
# "..." and {id|...|id}) and character literals blanked out.
find lib bench bin test examples -type f \( -name '*.ml' -o -name '*.mli' \) |
  sort | perl -e '
  use strict;
  use warnings;
  use File::Basename qw(dirname);
  use File::Path qw(make_path);
  my $out = shift;
  while (my $f = <STDIN>) {
    chomp $f;
    open my $in, "<", $f or die "$f: $!";
    my $s = do { local $/; <$in> };
    close $in;
    my ($r, $depth, $i, $n) = ("", 0, 0, length $s);
    while ($i < $n) {
      my $c = substr $s, $i, 1;
      my $skip = 0;
      if (substr($s, $i, 2) eq "(*") { $depth++; $i += 2; next }
      if ($depth > 0 && substr($s, $i, 2) eq "*)") { $depth--; $i += 2; $skip = 1 }
      elsif ($c eq "\"") {
        $i++;
        while ($i < $n) {
          my $d = substr $s, $i, 1;
          $i += $d eq "\\" ? 2 : 1;
          last if $d eq "\"";
        }
        $skip = 1;
      }
      elsif (substr($s, $i) =~ /^\{([a-z_]*)\|/) {
        my $end = index $s, "|$1}", $i + length($1) + 2;
        $i = $end < 0 ? $n : $end + length($1) + 2;
        $skip = 1;
      }
      elsif (substr($s, $i) =~ /^\x27(?:\\(?:[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.)|[^\\\x27\n])\x27/) {
        $i += length $&;
        $skip = 1;
      }
      else { $r .= $c if $depth == 0; $i++ }
      $r .= " " if $skip && $depth == 0;
    }
    make_path(dirname("$out/$f"));
    open my $o, ">", "$out/$f" or die "$out/$f: $!";
    print $o $r;
    close $o;
  }' "$code"

mapfile -t sources < <(cd "$code" && find lib bench bin test examples -type f | sort)

found=0
while IFS= read -r mli; do
  base=${mli%.mli}
  module=$(basename "$base")
  module=${module^}
  others=()
  for f in "${sources[@]}"; do
    if [ "$f" != "$base.ml" ] && [ "$f" != "$mli" ]; then others+=("$code/$f"); fi
  done
  for v in $(grep -oE "^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_']*" "$code/$mli" |
    awk '{print $2}' | sort -u); do
    case "$allow" in *" $module.$v "*) continue ;; esac
    if ! grep -qw -- "$v" "${others[@]}"; then
      echo "unused_exports: $mli: $module.$v is named nowhere outside its module"
      found=1
    fi
  done
done < <(find lib -type f -name '*.mli' | sort)

# Dead top-level values of the modules without an interface: a name
# whose every occurrence in the stripped sources lies inside its own
# binding.
dead=$(cd "$code" && find lib -type f -name '*.ml' | sort | while IFS= read -r ml; do
  [ -e "$ml"i ] || echo "$ml"
done | perl -e '
  use strict;
  use warnings;
  my @sources = @ARGV;
  my %count;
  for my $f (@sources) {
    open my $in, "<", $f or die "$f: $!";
    while (my $l = <$in>) {
      $count{$1}++ while $l =~ /(?<![A-Za-z0-9_\x27])([A-Za-z_][A-Za-z0-9_\x27]*)/g;
    }
    close $in;
  }
  my %skip = map { $_ => 1 } qw(open module exception rec);
  while (my $f = <STDIN>) {
    chomp $f;
    open my $in, "<", $f or die "$f: $!";
    my @lines = <$in>;
    close $in;
    (my $module = $f) =~ s{.*/}{};
    $module =~ s/\.ml$//;
    $module = ucfirst $module;
    my $functor = 0;
    for my $i (0 .. $#lines) {
      my $l = $lines[$i];
      $functor = 1 if $l =~ /^module\s+[A-Z]\w*\s*\(/;
      $functor = 0 if $l =~ /^end\b/;
      my ($indent, $name) =
        $l =~ /^let\s+(?:rec\s+)?([a-z][A-Za-z0-9_\x27]*)\b/ ? (0, $1)
        : $functor && $l =~ /^  let\s+(?:rec\s+)?([a-z][A-Za-z0-9_\x27]*)\b/ ? (2, $1)
        : next;
      next if $skip{$name};
      my $own = 0;
      for (my $j = $i; $j <= $#lines; $j++) {
        my $m = $lines[$j];
        last if $j > $i && $m =~ /\S/ && $m =~ /^( *)/ && length($1) <= $indent;
        $own++ while $m =~ /(?<![A-Za-z0-9_\x27])\Q$name\E(?![A-Za-z0-9_\x27])/g;
      }
      print "unused_exports: $f: $module.$name is named nowhere outside its own binding\n"
        if ($count{$name} // 0) == $own;
    }
  }' $(cd "$code" && find lib bench bin test examples -type f | sort))
if [ -n "$dead" ]; then
  echo "$dead"
  found=1
fi

if [ "$found" = 1 ]; then
  echo "unused_exports: FAIL — drop each value above from its .mli (and its code, if its module does not use it), and delete each dead value"
  exit 1
fi
echo "unused_exports: every exported value is named outside its module, and every top-level value outside its binding"
