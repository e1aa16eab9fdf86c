#!/usr/bin/env python3
"""Fails on a libqpp function that no shipped binary reaches.

    python3 tools/check_unreached.py [--build-dir DIR]

Run from the repository root. It builds libqpp and every non-test binary
(qpp_tool, the examples, the benches, and qpp_ledger configured from
ledger/CMakeLists.txt) at -O0 with -ffunction-sections, linked with
--gc-sections, so a binary keeps exactly the functions its entry points
reach. Every strong (nm T/t) qpp:: function in libqpp.a that appears in
none of the binaries is unreached. The check fails on an unreached
function that tools/unreached_kept.txt does not list, and on a listed name
that is now reached or no longer exists, so the list stays exact.

Inline functions (templates, header-defined members, the SIMD primitives)
are weak or not emitted at all, so this check cannot see them. Functions
are matched by demangled name, so two internal-linkage functions with the
same qualified name in different objects would count as one.

To census header code too, run a copy of this script once with
-fkeep-inline-functions appended to CMAKE_CXX_FLAGS in FLAGS, which makes
GCC emit every header-defined function, and with libqpp's functions read as
"TtWw" (weak too) instead of "Tt". Then drop the names the compiler writes:
implicit constructors, destructors and operator=, lambda thunks, and std::
instantiations. What is left is hand-written code; settle each name as the
kept list does (delete it, or keep it for a test that observes code that
stays). Templates that are never instantiated stay invisible even then.
CI does not run that census: the flag roughly doubles the gate's run (1 min
16 s to 2 min 24 s on 4 vCPUs), the compiler-written names (186 of the 216
unreached in that run) would need a filter that the gate would then have to
keep exact, and an inline function that nothing calls is never emitted into
a binary.
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEPT = os.path.join(HERE, "unreached_kept.txt")
FLAGS = ["-DCMAKE_BUILD_TYPE=None",
         "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
         "-G", "Unix Makefiles"]
# The directories whose executables ship; tests/ does not.
BINARY_DIRS = ("tools", "examples", "bench")
# libstdc++'s spelled-out defaults, folded so the kept list reads plainly.
STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
          "std::allocator<char> >")
VECTOR = re.compile(r"std::vector<([^<>]+), std::allocator<\1 ?> >")


def run(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("check_unreached: failed: %s" % " ".join(cmd))
    return done.stdout


def readable(name):
    """A demangled name with libstdc++'s spelled-out defaults folded away."""
    name = name.replace(STRING, "std::string").replace("[abi:cxx11]", "")
    return VECTOR.sub(r"std::vector<\1>", name)


def functions(path, kinds):
    """Demangled qpp:: names of the function symbols nm types as `kinds`."""
    names = set()
    for line in run(["nm", "-C", "--defined-only", path]).splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds and parts[2].startswith("qpp::"):
            names.add(readable(parts[2]))
    return names


def executables(directory):
    return [os.path.join(directory, f) for f in sorted(os.listdir(directory))
            if os.path.isfile(os.path.join(directory, f))
            and os.access(os.path.join(directory, f), os.X_OK)]


def read_kept():
    """The kept list: `name  # reason` per line; blank and # lines skipped."""
    kept = {}
    with open(KEPT) as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            name, sep, reason = line.partition("  # ")
            if not sep or not reason.strip():
                sys.exit("check_unreached: %s:%d has no reason" % (KEPT, number))
            kept[name.strip()] = reason.strip()
    return kept


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-unreached"))
    args = parser.parse_args()
    main_build = os.path.join(args.build_dir, "main")
    ledger_build = os.path.join(args.build_dir, "ledger")
    jobs = "-j%d" % (os.cpu_count() or 1)

    run(["cmake", "-S", ROOT, "-B", main_build] + FLAGS)
    for d in BINARY_DIRS:
        run(["make", "-C", os.path.join(main_build, d), jobs])
    run(["cmake", "-S", os.path.join(ROOT, "ledger"), "-B", ledger_build] + FLAGS)
    run(["cmake", "--build", ledger_build, "--target", "qpp_ledger", jobs])

    binaries = [os.path.join(ledger_build, "qpp_ledger")]
    for d in BINARY_DIRS:
        binaries += executables(os.path.join(main_build, d))
    reached = set()
    for b in binaries:
        reached |= functions(b, "TtWw")
    library = functions(os.path.join(main_build, "src", "libqpp.a"), "Tt")
    unreached = library - reached
    kept = read_kept()

    failures = []
    for name in sorted(unreached - kept.keys()):
        failures.append("unreached, not kept: " + name)
    for name in sorted(kept.keys() & reached):
        failures.append("kept, but now reached: " + name)
    for name in sorted(kept.keys() - library):
        failures.append("kept, but not in libqpp: " + name)
    print("check_unreached: %d binaries, %d libqpp functions, %d unreached, "
          "%d kept" % (len(binaries), len(library), len(unreached), len(kept)))
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
