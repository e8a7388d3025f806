#!/usr/bin/env bash
# Prints the 64-byte phase (address mod 64) of the hot generic shape
# instantiations in a Go binary: the 8×8 micro-kernel, the macro-kernel,
# the A packers, the B packers (packB runs PackAT's and PackB's loop,
# packPanelsB8 its 8-wide row walk) and the C accumulate. The linker
# places generic code after all non-generic code, so a size change
# anywhere else can move these loops to another phase and change their
# speed. Compare the phases of two builds before reading a benchmark gap
# between them as a gain of the code.
#
#   bash scripts/hotphase.sh <binary>
#
# For example, for the benchmark binary that perfbench/run.sh builds:
#
#   bash scripts/hotphase.sh .bench_build/perfbench/perfbench
#
# Reads the symbol table with `go tool nm` only.
set -euo pipefail
if [[ $# -ne 1 ]]; then
  echo "usage: $0 <binary>" >&2
  exit 2
fi
hot='(kernel\.kernel8x8|packing\.(Macro|PackA|packPanelA8|packB|packPanelsB8|AddInto))\[go\.shape\.'
syms="$(go tool nm "$1")"
found=0
while read -r addr kind name; do
  [[ $kind == T && $name =~ $hot ]] || continue
  printf '%-56s 0x%s phase %2d\n' "$name" "$addr" $((16#$addr % 64))
  found=1
done < <(sort -k3 <<<"$syms")
if ((!found)); then
  echo "hotphase: no hot shape instantiations in $1" >&2
  exit 1
fi
