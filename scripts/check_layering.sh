#!/usr/bin/env bash
# Layering lint, four rules:
#
#  1. Everything below the experiment layer must depend only on the narrow
#     sim::Clock interface (simcore/clock.hpp), never on the concrete
#     simulation engine. Only the experiment/session layer (metrics/, live/
#     session wiring, examples, tests, benches) may include simulation.hpp.
#  2. Only simcore owns an event queue: no src/ file outside src/simcore/
#     includes the queue contract, the binary heap, the timing wheel, or
#     the event arena.
#  3. Test-only code (fixtures, test peers) stays in tests/: nothing under
#     src/, bench/ or examples/ includes a tests/ header.
#  4. The watcher's deliver-to-all oracle is reachable from tests/ only:
#     its test peer (MarketWatcherTestPeer) is named nowhere under src/,
#     bench/ or examples/ except in MarketWatcher's friend declaration.
#
# Fails with the offending lines.
set -euo pipefail

cd "$(dirname "$0")/.."

include='^[[:space:]]*#[[:space:]]*include[[:space:]]*'
status=0

for layer in src/sched src/virt src/cloud; do
  if matches=$(grep -rn --include='*.hpp' --include='*.cpp' -E \
      "${include}.*simcore/simulation\.hpp" \
      "$layer" 2>/dev/null); then
    echo "LAYERING VIOLATION: $layer must depend on sim::Clock, not the" \
         "concrete engine:"
    echo "$matches"
    status=1
  fi
done

if matches=$(grep -rn --include='*.hpp' --include='*.cpp' -E \
    "${include}.*simcore/(event_queue|binary_heap_queue|timing_wheel|event_arena)\.hpp" \
    src | grep -v '^src/simcore/'); then
  echo "LAYERING VIOLATION: only src/simcore/ may include an event-queue" \
       "header; schedule through sim::Clock / sim::Engine instead:"
  echo "$matches"
  status=1
fi

# A tests/ path in the include, or the name of any header that lives there.
test_headers=$(find tests -name '*.hpp' -o -name '*.h' | xargs -r -n1 basename |
               sed 's/\./\\./g' | paste -sd '|' -)
pattern="${include}[\"<]([^\">]*/)?tests/"
if [ -n "$test_headers" ]; then
  pattern="${pattern}|${include}[\"<]([^\">]*/)?(${test_headers})[\">]"
fi
if matches=$(grep -rn --include='*.hpp' --include='*.cpp' -E "$pattern" \
    src bench examples); then
  echo "LAYERING VIOLATION: src/, bench/ and examples/ must not include" \
       "test-only headers:"
  echo "$matches"
  status=1
fi

peer='MarketWatcherTestPeer'
if matches=$(grep -rn --include='*.hpp' --include='*.cpp' -w "$peer" \
    src bench examples | grep -vE "^src/sched/market_watcher\.hpp:[0-9]+:[[:space:]]*friend class ${peer};$"); then
  echo "LAYERING VIOLATION: the deliver-to-all oracle is test-only; only" \
       "MarketWatcher's friend declaration may name ${peer}:"
  echo "$matches"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "layering OK: src/sched, src/virt, src/cloud depend only on" \
       "sim::Clock; only src/simcore owns a queue;" \
       "no test-only header outside tests/;" \
       "the watcher oracle is reachable from tests/ only"
fi
exit "$status"
