"""The SVG render against ``oracles.svg_render`` on every layout of 720 as a 12-hour face and
of 1440 as a 24-hour face: 1,888 and 5,536 faces, 7,424 in all, the one-row faces of 719 and
1439 lamps among them. The layouts come from ``oracles.ordered_factorizations``, not from the
library.

Each face is drawn centred and flush left, and a 4-row face in blocks as well, at a fixed slice
of minutes: 00:00 (all lamps off), 23:59 (all on) and every 60th minute from an offset that
steps with the face, so that the offsets of neighbouring faces differ. The colour setting
alternates between faces; SVG has no uncoloured form. Tier-1 compares the two on drawn faces;
this script covers the whole domain, which takes 15-30 s on one CPU with Python 3.11, so
it is not named as a test module and pytest does not collect it. Run it from the repository
root:

    PYTHONPATH=src:tests python tests/check_svg_sweep.py

It prints the faces and renders checked and the time, and exits 1 on any mismatch.
"""

import sys
import time

from lampclock import Layout, RenderFormat, RenderSpec, TimeOfDay, encode, make_scheme, render
from oracles import ordered_factorizations, svg_render

STEP = 60  # minutes between the sliced times of one face


def main() -> int:
    start = time.perf_counter()
    faces = [(factors, cycle) for cycle in (720, 1440) for factors in ordered_factorizations(cycle)]
    renders, wrong = 0, []
    for i, (factors, cycle) in enumerate(faces):
        lamps = [f - 1 for f in factors]
        scheme = make_scheme("sweep", lamps, cycle)
        layouts = list(Layout) if len(lamps) == 4 else [Layout.TRIANGLE_CENTERED, Layout.LEFT_ALIGNED]
        minutes = sorted({0, 1439, *range(i * 7 % STEP, 1440, STEP)})
        for minute in minutes:
            state = encode(TimeOfDay(minute), scheme)
            digits, meridiem = state.digits, state.meridiem
            for layout in layouts:
                spec = RenderSpec(RenderFormat.SVG, layout, use_color=i % 2 == 0)
                expected = svg_render(lamps, digits, meridiem and meridiem.value, layout.value)
                renders += 1
                if render(state, scheme, spec) != expected:
                    wrong.append((lamps, cycle, minute, layout.value))
    print(f"{len(faces)} faces, {renders} SVG renders checked against the oracle, {len(wrong)} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    if wrong:
        print("render disagrees with the oracle at", wrong[:20])
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
