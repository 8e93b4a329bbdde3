#!/usr/bin/env python3
"""Gate the micro-kernel policy registry's compile-time budget.

The registry generates every Eq. 3-feasible kernel from templates, so a
careless change (a new policy axis, an accidental O(grid^2) fold, an
instantiation that defeats the per-S translation-unit split) shows up
first as compile time. This script fails CI when either

  1. any policy TU — the fp32 microkernel_policies_s*.cpp (one kernel
     width's ~56 instantiations each) or the int8
     quantized_policies_{a,b}.cpp (two widths x both strides x every
     compiled backend; the dot rung doubles them on +dotprod and VNNI
     targets) — takes longer than --max-seconds to compile stand-alone
     (the budget is several times the measured ~15 s so only real
     blow-ups trip it), or
  2. the built registry shrinks below --min-entries kernel entries or
     --min-blocks runtime (vw, vk) blocks — i.e. a refactor silently
     dropped specializations and convs would fall back to the generic
     kernel.

The registry count is probed by compiling and running a 5-line program
against the built libndirect_core.a, so it measures the product, not
the source.

Usage:
  check_kernel_budget.py [--source .] [--build build]
                         [--max-seconds 90] [--min-entries 216]
                         [--min-blocks 14] [--cxx g++]
                         [--flags "-O3 -march=native -std=c++20"]
"""
import argparse
import glob
import os
import subprocess
import sys
import tempfile
import time

PROBE = """
#include <cstdio>
#include "core/microkernel.h"
int main() {
  std::printf("entries=%zu blocks=%zu\\n",
              ndirect::kernel_registry().size(),
              ndirect::microkernel_blocks().size());
  return 0;
}
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--source", default=".")
    ap.add_argument("--build", default="build")
    ap.add_argument("--max-seconds", type=float, default=90.0,
                    help="per-TU compile budget")
    ap.add_argument("--min-entries", type=int, default=216)
    ap.add_argument("--min-blocks", type=int, default=14)
    ap.add_argument("--cxx", default=os.environ.get("CXX", "g++"))
    ap.add_argument("--flags", default="-O3 -march=native -std=c++20")
    args = ap.parse_args()

    src = os.path.abspath(args.source)
    build = os.path.abspath(args.build)
    tus = sorted(
        glob.glob(os.path.join(src, "src/core/microkernel_policies_s*.cpp"))
        + glob.glob(os.path.join(src, "src/core/quantized_policies_*.cpp")))
    if not tus:
        print("check_kernel_budget: no policy TUs found under", src)
        return 1

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        # 1. Per-TU compile-time budget.
        for tu in tus:
            out = os.path.join(tmp, os.path.basename(tu) + ".o")
            cmd = [args.cxx, *args.flags.split(), "-DNDEBUG",
                   "-I", os.path.join(src, "src"), "-c", tu, "-o", out]
            t0 = time.monotonic()
            r = subprocess.run(cmd, capture_output=True, text=True)
            dt = time.monotonic() - t0
            if r.returncode != 0:
                failures.append(f"{os.path.basename(tu)}: compile failed\n"
                                + r.stderr[-2000:])
                continue
            status = "ok" if dt <= args.max_seconds else "OVER BUDGET"
            print(f"  {os.path.basename(tu):34s} {dt:6.1f}s "
                  f"(budget {args.max_seconds:.0f}s) {status}")
            if dt > args.max_seconds:
                failures.append(
                    f"{os.path.basename(tu)}: {dt:.1f}s exceeds the "
                    f"{args.max_seconds:.0f}s budget")

        # 2. Registry completeness, probed from the built core library.
        core = os.path.join(build, "src/core/libndirect_core.a")
        runtime = os.path.join(build, "src/runtime/libndirect_runtime.a")
        if not os.path.exists(core):
            failures.append(f"missing {core} (build ndirect_core first)")
        else:
            probe_src = os.path.join(tmp, "probe.cpp")
            probe_bin = os.path.join(tmp, "probe")
            with open(probe_src, "w") as f:
                f.write(PROBE)
            cmd = [args.cxx, *args.flags.split(),
                   "-I", os.path.join(src, "src"), probe_src, core]
            if os.path.exists(runtime):
                cmd.append(runtime)
            cmd += ["-o", probe_bin]
            r = subprocess.run(cmd, capture_output=True, text=True)
            if r.returncode != 0:
                failures.append("registry probe failed to link:\n"
                                + r.stderr[-2000:])
            else:
                out = subprocess.run([probe_bin], capture_output=True,
                                     text=True).stdout.strip()
                print(f"  registry probe: {out}")
                vals = dict(kv.split("=") for kv in out.split())
                entries = int(vals.get("entries", 0))
                blocks = int(vals.get("blocks", 0))
                if entries < args.min_entries:
                    failures.append(f"registry has {entries} entries, "
                                    f"expected >= {args.min_entries}")
                if blocks < args.min_blocks:
                    failures.append(f"runtime table has {blocks} blocks, "
                                    f"expected >= {args.min_blocks}")

    if failures:
        print("check_kernel_budget: FAIL")
        for f in failures:
            print("  -", f)
        return 1
    print("check_kernel_budget: OK "
          f"({len(tus)} TUs within {args.max_seconds:.0f}s each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
