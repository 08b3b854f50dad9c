"""The runtime needs numpy alone; scipy is for the tests and the benchmark."""
import json
import subprocess
import sys
from pathlib import Path

import specklenav
from specklenav.detect import detect_ring
from specklenav.harness import default_scenario

SRC = str(Path(specklenav.__file__).resolve().parent.parent)

LOADED_SCIPY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import specklenav, specklenav.cli
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

DETECT_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
sys.path.insert(0, sys.argv[1])
from specklenav.detect import detect_ring
from specklenav.harness import default_scenario
sc = default_scenario()
with sc.render_scene_frame(0) as cloud:
    print(json.dumps(detect_ring(cloud, sc.marker).to_json_dict()))
"""


def _last_line(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_importing_the_package_and_cli_loads_no_scipy():
    assert json.loads(_last_line(LOADED_SCIPY)) == []


def test_detection_runs_without_scipy_and_finds_the_same_pose():
    sc = default_scenario()
    with sc.render_scene_frame(0) as cloud:
        here = json.loads(json.dumps(detect_ring(cloud, sc.marker).to_json_dict()))
    assert json.loads(_last_line(DETECT_WITHOUT_SCIPY)) == here
