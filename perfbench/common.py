"""Shared pieces of the benchmark: paths, seeded inputs, statistics.

Everything the program under test receives is generated here from the
workload seed (users, schedules) or from the fixed fixture parameters
(the corpus the pool is fitted on), so the same seed always yields the
same inputs. Each schedule is hashed so a run can show what it drove.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import resource
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Build outputs of the benchmark (fixture cache, span dumps). Ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"

#: Serving limits of ``repro.obs.slo.default_serving_slos`` at the time the
#: benchmark was defined; fixed here so a later change to the defaults
#: cannot move the goalposts.
READ_LIMIT_S = 0.25
INGEST_LIMIT_S = 5.0

#: Users registered on the serving workloads: more than the query cache's
#: default 128 slots, so a round-robin pass never hits the cache.
N_USERS = 512
K = 10


def require_source() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; nothing to measure",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest(extra: "list[Path]" = ()) -> str:
    """sha256 over every source file of the program plus *extra* files."""
    digest = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    for path in [*files, *extra]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def schedule_sha(payload) -> str:
    """sha256 of a schedule's canonical JSON form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_users(seed: int, train_ids: "list[str]", n_users: int = N_USERS
               ) -> "list[list[str]]":
    """Seeded synthetic users: 3-8 distinct historical papers each."""
    rng = np.random.default_rng([seed, 1])
    users = []
    for _ in range(n_users):
        size = int(rng.integers(3, 9))
        picked = rng.choice(len(train_ids), size=size, replace=False)
        users.append([train_ids[int(i)] for i in picked])
    return users


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settled_rss_mb() -> float:
    """Resident set size now (MiB), after returning freed heap to the OS.

    Collecting garbage and trimming the C heap first makes the figure the
    memory still in use, not whatever the allocator happened to keep.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: report RSS as it is
        pass
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return peak_rss_mb()


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def log(message: str) -> None:
    """Human-readable progress and report lines go to stderr."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
