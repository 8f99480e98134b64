#!/usr/bin/env bash
# Byte-identity probe: run every deterministic verdict-producing command of
# the repo from one build and print one "<sha256> <name>" line per output.
#
#   bench/identity.sh BUILD_DIR OUT_DIR
#
# Two runs that print the same lines produced the same verdicts, SLA tables,
# chaos/fuzz scorecards, federation and sketch dumps, the quickstart flight
# dump and counters, and bench/example narration (path tracing included:
# the Traceroute-vs-INT ablation and the rail-optimized paths of Fig. 12).
# Run it against two builds (or twice against one) and diff the output.
# Every output is written into OUT_DIR (created if missing); JSON outputs are
# validated with `python3 -m json.tool`. Exits non-zero when any command
# fails or any JSON output does not parse.
#
# Wall-clock output is excluded: the fuzz/chaos/bench dumps and the flight
# dump carry none (the profiler keeps wall time on its own trace track), and
# the quickstart telemetry is reduced to its rpm_agent/fabric/link/analyzer/
# pod/global lines, none of which reads a wall clock.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"

ex="$build/examples"
bn="$build/bench"

"$ex/chaos_campaign" chaos.json 7 > chaos_campaign.txt
# The fuzz summary (failing seeds and oracles) goes to stderr, where a
# failing run shows it.
"$ex/chaos_fuzz" --seeds 25 --out fuzz.json >&2
"$bn/bench_federation" --hosts 64 --seconds 90 --dump > federation_pods4.json
"$bn/bench_federation" --hosts 64 --seconds 90 --pods 2 --dump \
  > federation_pods2.json
"$bn/bench_sketch_volume" --hosts 128 --seconds 45 --dump > sketch.json

"$ex/quickstart" > quickstart.txt
grep -E '^rpm_(agent|fabric|link|analyzer|pod|global)_' quickstart.txt \
  > quickstart_counters.txt

benches=(bench_fig1_flapping bench_fig5_sla_timeline bench_fig8_bottlenecks
         bench_fig9_network_innocent bench_fig10_service_tracing
         bench_fig11_cc_comparison bench_fig12_rail_optimized
         bench_fig13_congestion_causes bench_table2_problem_catalog
         bench_ablation_path_tracing)
examples=(troubleshoot_training service_tracing_loadbalance
          public_cloud_diagnosis)
for b in "${benches[@]}"; do "$bn/$b" > "$b.txt"; done
for e in "${examples[@]}"; do "$ex/$e" > "$e.txt"; done

jsons=(chaos.json fuzz.json federation_pods4.json federation_pods2.json
       sketch.json quickstart_diagnosis.json quickstart_flight.json)
for f in "${jsons[@]}"; do python3 -m json.tool "$f" > /dev/null; done

outputs=("${jsons[@]}" quickstart_counters.txt)
for b in "${benches[@]}" "${examples[@]}"; do outputs+=("$b.txt"); done
for f in "${outputs[@]}"; do
  sum=$(sha256sum "$f")
  echo "${sum%% *} $f"
done
