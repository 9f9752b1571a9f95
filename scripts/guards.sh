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
if grep -nE "comm\.(_post|send|recv|recv_with_status|sendrecv)\(" src/repro/mpi/collectives.py; then
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
