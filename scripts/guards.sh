#!/usr/bin/env bash
# Source-tree grep guards, shared by scripts/verify.sh and the CI quick job:
# each one keeps a pattern a past PR removed from coming back.
#
# Usage:  bash scripts/guards.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no instance patching of FileSystem timing hooks =="
# Tracing subscribes to the request stream (FileSystem.subscribe); a
# rebinding of a _service_* hook on an instance must not come back.
if grep -rnE "\._service_[a-z]+ *=" src/repro; then
    echo "a _service_* hook is assigned to: subscribe to the request stream instead" >&2
    exit 1
fi

echo "== no collaborator probes, no private opens =="
# Strategy and session attributes are declared (IOStrategy, the session
# classes), not probed; ADIOFile.open is the one timed namespace request.
if grep -rnE "getattr\((self\.)?(ctx\.strategy|strategy|session)" \
        src/repro/iostack src/repro/enzo; then
    echo "a strategy/session attribute is probed with getattr: declare it" >&2
    exit 1
fi
if grep -rnE "fs\.(create|open)\(" src/repro --include=*.py \
        | grep -v "^src/repro/\(pfs\|mpiio/adio\.py\)"; then
    echo "a file is opened outside ADIOFile.open: call it instead" >&2
    exit 1
fi

echo "== workload builders build, they do not cache =="
# A cached master stays resident for the life of the process beside every
# copy a caller keeps; the builders return a fresh hierarchy instead.
if grep -nE "lru_cache|functools\.cache|\.copy\(\)" src/repro/bench/workloads.py; then
    echo "bench/workloads.py caches or copies: builders return fresh hierarchies" >&2
    exit 1
fi

echo "== collectives are schedules, not message loops =="
# Every algorithm in mpi/collectives.py yields post/recv steps to the one
# driver (_run), whose last arriver replays all members thread-free.  A
# collective written directly on messages bypasses the replay and costs
# O(P log P) rank hand-offs again, silently.
if grep -nE "comm\.(_post|send|recv)\(" src/repro/mpi/collectives.py; then
    echo "mpi/collectives.py posts or receives directly: yield steps to _run instead" >&2
    exit 1
fi

echo "== shape products are math.prod, not np.prod =="
# np.prod on a shape tuple builds an array per call (≈ 8 % of a profiled
# scda-p2 pass in ArrayExtent.nbytes alone) and returns a numpy scalar;
# math.prod returns the same value as a Python int.
if grep -nF "np.prod(" src/repro/enzo/layout.py src/repro/hdf5/dataspace.py \
        src/repro/mpi/datatypes.py; then
    echo "np.prod on a shape: use math.prod" >&2
    exit 1
fi

echo "== one hierarchy builder =="
# Every workload, the Enzo driver included, is built from its Scenario by
# scenarios.build_hierarchy; a second make_initial_conditions call site
# would let a scenario's refinement miss one of them again.
if grep -rnE "make_initial_conditions\(" src/repro --include=*.py \
        | grep -v "^src/repro/\(scenarios/build\|amr/initial_conditions\)\.py:"; then
    echo "make_initial_conditions is called outside scenarios/build.py: build through build_hierarchy" >&2
    exit 1
fi

echo "== manifest verify scans an entry in one call =="
# StoredFile.checksum takes an entry's whole run list; a Python loop calling
# it (or reading) once per segment costs a generator per 64-byte run on
# flashx's restart verify.
if grep -nE "for [^:]* in entry\.segments|\.checksum\((off|offset)\b" \
        src/repro/resilience/manifest.py; then
    echo "resilience/manifest.py scans segment by segment: pass entry.segments to checksum" >&2
    exit 1
fi

echo "== a failed rank is reported by cli.main alone =="
# main turns a RankFailedError from any command into one error line naming
# the command, the rank and the failed operation; a per-command handler
# would leave the next command without one, ending in a traceback again.
if [ "$(grep -c "except RankFailedError" src/repro/cli.py)" != 1 ] \
        || ! awk '/^def /{in_main = /^def main\(/}
                  in_main && /except RankFailedError/{found = 1}
                  END{exit !found}' src/repro/cli.py; then
    echo "src/repro/cli.py catches RankFailedError outside main: let main report it" >&2
    exit 1
fi

echo "== one compute-charge constant =="
# The solver's cost per cell update is amr/solver.py:FLOPS_PER_CELL; a
# compute_time() charge that multiplies by a number literal elsewhere states
# that cost a second time, where the two can drift apart.
if grep -rnE 'compute_time\((.*\*[[:space:]]*[0-9]|(.*[^A-Za-z0-9_.])?[0-9][0-9_.eE]*[[:space:]]*\*)' \
        src/repro --include=*.py | grep -v "^src/repro/amr/solver\.py:"; then
    echo "a compute_time() charge multiplies by a literal: use amr.solver.FLOPS_PER_CELL" >&2
    exit 1
fi

echo "== one copy per read byte =="
# A read that ends in an array fills it from the block store's pages
# (ADIOFile.read_contig / read_list, sieve_read and collective_read take
# out=); np.frombuffer(raw).copy() copies every byte a second time.  A
# statement may span lines, so the check walks the syntax tree.
if ! python3 - <<'PY'
import ast
import pathlib
import sys

def calls_frombuffer(node):
    return any(
        isinstance(n, ast.Call)
        and (getattr(n.func, "attr", None) or getattr(n.func, "id", None)) == "frombuffer"
        for n in ast.walk(node)
    )

bad = [
    f"{path}:{node.lineno}"
    for path in sorted(pathlib.Path("src/repro").rglob("*.py"))
    for node in ast.walk(ast.parse(path.read_text(), str(path)))
    if isinstance(node, ast.Call)
    and isinstance(node.func, ast.Attribute)
    and node.func.attr == "copy"
    and calls_frombuffer(node.func.value)
]
for where in bad:
    print(where)
sys.exit(1 if bad else 0)
PY
then
    echo "frombuffer(...).copy() under src/repro: read into the array (out=) instead" >&2
    exit 1
fi
