#!/usr/bin/env python3
"""Check the machine code of the NN kernels' AVX2 copies.

The hidden-layer sweep and the Adam update are compiled twice, once for
baseline x86-64 and once inside `target("avx2")` + `flatten` functions
(src/qens/ml/kernel_isa.h). Bit-identity between the copies, and the
point of having them, rest on facts this tool checks in the built library:

  - no fused multiply-add appears anywhere (vfmadd*, vfmsub*, vfnmadd*,
    vfnmsub*): a contraction rounds once where the baseline rounds twice;
  - each AVX2 entry point (SweepMseAvx2, SweepPredictAvx2, AdamUpdateAvx2)
    exists, holds at least one ymm instruction and calls or jumps into no
    qens code: everything it runs is inlined into it and compiled for
    AVX2. A copy that lost its `flatten` calls the baseline loops instead
    and would quietly run at SSE2 speed. Calls into the C library (exp,
    tanh) are fine: both copies make the same ones.

Usage:
    tools/check_kernel_isa.py build/src/libqens.a [--objdump objdump]

Exit code 0 when all hold, 1 otherwise. Needs a GCC x86-64 build; run by
CI after the build step.
"""

import argparse
import re
import subprocess
import sys

ENTRY_POINTS = ("SweepMseAvx2", "SweepPredictAvx2", "AdamUpdateAvx2")
FMA = re.compile(r"\bvf(?:n?madd|n?msub)\w*")
SYMBOL = re.compile(r"^[0-9a-f]+ <(.+)>:$")
BRANCH = re.compile(r"\s(?:call|jmp)\s+[0-9a-f]+ <(.+?)(?:\+0x[0-9a-f]+)?>$")
RELOCATION = re.compile(r"^\s+[0-9a-f]+: R_X86_64_\w+\s+(.+?)(?:[-+]0x[0-9a-f]+)?$")


def branch_targets(symbol: str, lines: list[str]):
    """Yield the functions `symbol` calls or jumps to, other than itself.

    A branch to another object shows its own placeholder address and a
    relocation naming the target on the next line; a branch within the
    object names its target directly.
    """
    for i, line in enumerate(lines):
        match = BRANCH.search(line)
        if not match:
            continue
        target = match.group(1)
        if target == symbol and i + 1 < len(lines):
            relocation = RELOCATION.match(lines[i + 1])
            if relocation:
                target = relocation.group(1)
        if target != symbol:
            yield target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("library")
    parser.add_argument("--objdump", default="objdump")
    args = parser.parse_args()

    listing = subprocess.run(
        [args.objdump, "-d", "-r", "-C", "--no-show-raw-insn", args.library],
        capture_output=True, text=True, check=True).stdout

    functions = {}  # Symbol -> its disassembly lines.
    symbol = None
    for line in listing.splitlines():
        match = SYMBOL.match(line)
        if match:
            symbol = match.group(1)
            functions.setdefault(symbol, [])
        elif symbol is not None:
            functions[symbol].append(line)

    failures = []
    for symbol, lines in functions.items():
        for line in lines:
            fma = FMA.search(line)
            if fma:
                failures.append(f"{fma.group(0)} in {symbol}: {line.strip()}")

    for name in ENTRY_POINTS:
        entries = [s for s in functions if name + "(" in s]
        if not entries:
            failures.append(f"no {name} in {args.library}")
        for symbol in entries:
            lines = functions[symbol]
            ymm = sum("%ymm" in line for line in lines)
            if ymm == 0:
                failures.append(f"no ymm instruction in {symbol}")
            for target in branch_targets(symbol, lines):
                if "qens::" in target:
                    failures.append(f"{symbol} branches to {target}")
            print(f"{name}: {ymm} ymm instructions")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
