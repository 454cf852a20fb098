"""Time one set-up in a fresh interpreter: ``import holeburn`` plus ``parse_config``.

Usage: python3 setup_probe.py <src-dir> < raw-config.json

Reads the raw config before the clock starts, imports holeburn from
<src-dir>, parses the config and prints one JSON line with ``import_s``,
``setup_s`` and the imported package file.  Exits with an error if holeburn
resolves outside <src-dir>.
"""

import json
import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
raw = json.load(sys.stdin)
sys.path.insert(0, str(src))

t0 = time.perf_counter()
import holeburn  # noqa: E402

t1 = time.perf_counter()
holeburn.parse_config(raw)
t2 = time.perf_counter()

package_file = Path(holeburn.__file__).resolve()
if not package_file.is_relative_to(src):
    sys.exit(f"holeburn imported from {package_file}, outside {src}")
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "file": str(package_file)}))
