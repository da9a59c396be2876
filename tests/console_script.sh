#!/usr/bin/env bash
# Checks of the lampclock console script. CI runs them against the installed script, and
# test_cli.py against a shim that calls lampclock.cli.main. Run: bash tests/console_script.sh
# LAMPCLOCK is the command to test, split into words; it defaults to the installed `lampclock`.
set -eo pipefail  # as a GitHub Actions bash step runs
LAMPCLOCK=${LAMPCLOCK:-lampclock}
frame=$($LAMPCLOCK show --time 04:49 --format bits)
test "$frame" = "0/11/100/1110/10000" || { echo "lampclock show printed: $frame"; exit 1; }
# No --time: the one read of the wall clock, which no test or bench workload makes.
now=$($LAMPCLOCK show --format bits) || { echo "lampclock show without --time exited $?"; exit 1; }
[[ "$now" =~ ^[01]/[01]{2}/[01]{3}/[01]{4}/[01]{5}$ ]] || { echo "lampclock show printed: $now"; exit 1; }
$LAMPCLOCK validate --scheme berlin
# The PM color, a constant of the renderer: at 16:49 all 7 lit lamps are red, none green.
pm=$($LAMPCLOCK show --time 16:49 --color always --format ansi)
red=$(grep -oF $'\e[31m' <<< "$pm" | wc -l)
test "$red" -eq 7 || { echo "lampclock show at 16:49 printed $red red lamps, want 7"; exit 1; }
case "$pm" in *$'\e[32m'*) echo "lampclock show at 16:49 printed a green lamp"; exit 1 ;; esac
# The SVG and JSON renders: Berlin's 4 + 4 + 11 + 4 lamps as blocks, and the paper's 04:49 as JSON.
svg=$($LAMPCLOCK show --scheme berlin --time 10:31 --format svg)
python3 -c 'import sys, xml.etree.ElementTree as ET
sys.exit(len(ET.fromstring(sys.argv[1]).findall("{http://www.w3.org/2000/svg}rect")) != 23)' "$svg" \
  || { echo "lampclock show --format svg printed: $svg"; exit 1; }
doc=$($LAMPCLOCK show --time 04:49 --format json)
python3 -c 'import json, sys
want = {"scheme": "triangular", "digits": [0, 2, 1, 3, 1], "meridiem": "AM", "time": "04:49"}
sys.exit(json.loads(sys.argv[1]) != want)' "$doc" || { echo "lampclock show --format json printed: $doc"; exit 1; }
status=0; $LAMPCLOCK show --time 25:00 || status=$?
test "$status" = 2 || { echo "lampclock show --time 25:00 exited $status, want 2"; exit 1; }
wide=$(mktemp --suffix=.json)
echo '{"name": "wide", "cycle_minutes": 1440, "rows": [{"lamps": 1441}]}' > "$wide"
status=0; err=$($LAMPCLOCK validate "$wide" 2>&1 >/dev/null) || status=$?
test "$status" = 3 || { echo "lampclock validate of a 1441-lamp row exited $status, want 3"; exit 1; }
case "$err" in *"at most 1440"*) ;; *) echo "lampclock validate printed: $err"; exit 1 ;; esac
# validate's one rule: rows of 1 and 2 lamps cover 6 of a 12-hour face's 720 minutes.
short=$(mktemp --suffix=.json)
echo '{"name": "short", "cycle_minutes": 720, "rows": [{"lamps": 1}, {"lamps": 2}]}' > "$short"
status=0; err=$($LAMPCLOCK validate "$short" 2>&1 >/dev/null) || status=$?
test "$status" = 3 || { echo "lampclock validate of a short scheme exited $status, want 3"; exit 1; }
grep -qxF "capacity shortfall: scheme covers 6 minutes but the cycle is 720" <<< "$err" \
  || { echo "lampclock validate of a short scheme printed: $err"; exit 1; }
# A state outside its face's cycle is no time: four 5-lamp rows all on read 21:35, no AM time.
over=$(mktemp --suffix=.json)
echo '{"name": "x", "cycle_minutes": 720, "rows": [{"lamps": 5}, {"lamps": 5}, {"lamps": 5}, {"lamps": 5}]}' > "$over"
status=0; $LAMPCLOCK decode --scheme "$over" 11111/11111/11111/11111 --am 2>/dev/null || status=$?
test "$status" = 2 || { echo "lampclock decode of an AM state past the cycle exited $status, want 2"; exit 1; }
deep=$(mktemp --suffix=.json)
python3 -c 'print("[" * 30000 + "]" * 30000)' > "$deep"
status=0; $LAMPCLOCK validate "$deep" 2>/dev/null || status=$?
test "$status" = 3 || { echo "lampclock validate of 30000-deep JSON exited $status, want 3"; exit 1; }
# The paper's claim: of the 1888 layouts of 720 = 6! states, one is a triangle, and no other is special.
layouts=$($LAMPCLOCK schemes 720)
count=$(wc -l <<< "$layouts")
test "$count" -eq 1888 || { echo "lampclock schemes 720 printed $count layouts, want 1888"; exit 1; }
special=$(grep -v ' IRREGULAR ' <<< "$layouts")
test "$special" = "[1,2,3,4,5] TRIANGULAR 15" || { echo "lampclock schemes 720 special: $special"; exit 1; }
# 4096 = 2^12: five equal-row layouts (k = 2, 3, 4, 6, 12), and 2048 - 5 irregular ones.
rect=$($LAMPCLOCK schemes 4096 | grep -c RECTANGULAR)
test "$rect" -eq 5 || { echo "lampclock schemes 4096 printed $rect rectangles, want 5"; exit 1; }
irregular=$($LAMPCLOCK schemes 4096 --irregular | wc -l)
test "$irregular" -eq 2043 || { echo "lampclock schemes 4096 --irregular printed $irregular, want 2043"; exit 1; }
