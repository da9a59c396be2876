"""The ANSI render against ``oracles.ansi_render`` on the faces and minutes of
``check_svg_sweep.py``: every layout of 720 as a 12-hour face and of 1440 as a 24-hour face,
7,424 faces, each at 00:00, 23:59 and every 60th minute from an offset that steps with the face.

Each state is drawn in every layout its face accepts, with color on and off. Tier-1 compares the
two on drawn faces; this script covers the whole domain, so it is not named as a test module and
pytest does not collect it. Run it from the repository root:

    PYTHONPATH=src:tests python tests/check_ansi_sweep.py

It prints the faces and renders checked and the time, and exits 1 on any mismatch.
"""

import sys
import time

from check_svg_sweep import sliced_states
from lampclock import RenderFormat, RenderSpec, render
from oracles import ansi_render


def main() -> int:
    start = time.perf_counter()
    faces, renders, wrong = set(), 0, []
    for i, lamps, cycle, minute, scheme, state, layouts in sliced_states():
        faces.add(i)
        meridiem = state.meridiem and state.meridiem.value
        for layout in layouts:
            for use_color in (False, True):
                expected = ansi_render(lamps, state.digits, meridiem, layout.value, use_color)
                renders += 1
                if render(state, scheme, RenderSpec(RenderFormat.ANSI, layout, use_color)) != expected:
                    wrong.append((lamps, cycle, minute, layout.value, use_color))
    print(f"{len(faces)} faces, {renders} ANSI renders checked against the oracle, {len(wrong)} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    if wrong:
        print("render disagrees with the oracle at", wrong[:20])
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
