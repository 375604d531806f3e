"""ASan/UBSan run of the C kernel test suite — the analogue of the
reference's Miri job (/root/reference/.github/workflows/miri.yml runs
`cargo miri test` with strict provenance over the whole suite).

Builds fsst_native.c with -fsanitize=address,undefined, then re-execs
pytest with libasan LD_PRELOADed and FSST_NATIVE_SO pointing at the
instrumented build, so every parity / property / codec test drives the
sanitized kernel. Any ASan report or UBSan diagnostic fails the run
(halt_on_error=1).

Usage: python tools/sanitize_check.py [extra pytest args]
Exit code 0 = suite green under both sanitizers.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "fsst_ray" / "kernel" / "fsst_native.c"
SO = pathlib.Path("/tmp/fsst_ray_native_sanitized.so")

# the suites that exercise the C kernel (parity vs the Python oracle,
# C-trainer goldens and fuzz, Hypothesis round-trip fuzz, codec
# round-trips incl. decode-into)
DEFAULT_TESTS = [
    "tests/test_native_kernel.py",
    "tests/test_codecs.py",
    "tests/test_codecs_property.py",
    "tests/test_fsst_kernel.py",
    "tests/test_fsst_golden.py",
]


def main() -> int:
    subprocess.run(
        [
            "cc", "-O1", "-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all", "-shared", "-fPIC",
            "-o", str(SO), str(SRC),
        ],
        check=True,
    )
    libasan = subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, text=True, check=True
    ).stdout.strip()
    env = dict(
        os.environ,
        FSST_NATIVE_SO=str(SO),
        LD_PRELOAD=libasan,
        # leak checking off: python itself "leaks" interned objects at
        # exit and would drown real reports; the kernel's only heap use
        # is the working memory of fsst_train and fsst_compress_bulk,
        # freed before they return
        ASAN_OPTIONS="detect_leaks=0,abort_on_error=1",
        UBSAN_OPTIONS="halt_on_error=1,print_stacktrace=1",
    )
    args = sys.argv[1:] or DEFAULT_TESTS
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *args], cwd=REPO, env=env
    )
    if r.returncode == 0:
        print("SANITIZE OK: ASan+UBSan clean over", " ".join(args))
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
