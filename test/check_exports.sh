#!/bin/sh
# Every top-level [val] in lib/**/*.mli must have a caller in a program:
# another lib/ module, bin/, bench/, examples/ or perfbench/. Exports that
# only tests call must be on test/exports_keep.txt, each with its reason,
# and every entry there must still be an export without a program caller.
# A reason that starts with "self-tested" is not accepted.
#
# A reference counts when it appears as [Module.name] in a program file,
# or as a bare [name] in a program file that opens [Module] (with [open],
# [let open] or [Module.( ... )]). Submodule vals are indented and so not
# scanned. Run from the repository root: sh test/check_exports.sh

set -u

keep_file=test/exports_keep.txt
keep=$(sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$keep_file" | awk '{ print $1 }')
programs=$(find lib bin bench examples perfbench -name '*.ml' | sort)
status=0
checked=0
exported=""

for mli in $(find lib -name '*.mli' | sort); do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | cut -c1 | tr 'a-z' 'A-Z')$(printf '%s' "$base" | cut -c2-)
  others=$(printf '%s\n' $programs | grep -vx "${mli%.mli}.ml")
  openers=$(grep -lE "(open!? +([A-Z][A-Za-z0-9_]*\.)?$mod\b|\b$mod\.\()" $others)
  names=$(sed -nE "s/^val +([a-z_][A-Za-z0-9_']*)( *:.*)?$/\1/p" "$mli")
  for name in $names; do
    checked=$((checked + 1))
    exported="$exported $mod.$name"
    if grep -qE "\b$mod\.$name\b" $others \
      || { [ -n "$openers" ] && grep -qw "$name" $openers; }; then
      if printf '%s\n' $keep | grep -qx "$mod\.$name"; then
        echo "$keep_file: $mod.$name has a program caller now; drop it from the list"
        status=1
      fi
    elif ! printf '%s\n' $keep | grep -qx "$mod\.$name"; then
      echo "$mli: $mod.$name has no program caller (delete it, or list it in $keep_file)"
      status=1
    fi
  done
done

# Exports that only their own module's tests call are not kept: delete
# them, or test them through the export that calls them.
self_tested=$(sed -e 's/#.*//' "$keep_file" | awk '$2 ~ /^self-tested/ { print $1 }')
for entry in $self_tested; do
  echo "$keep_file: $entry is only self-tested; delete it or test it through its caller"
  status=1
done

for entry in $keep; do
  if ! printf '%s\n' $exported | grep -qx "$entry"; then
    echo "$keep_file: $entry is not a top-level export"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_exports: $checked exports, each with a program caller or a listed reason"
fi
exit $status
