#!/usr/bin/env bash
# assert_benchtab.sh SUITE REPORT.json
#
# Shared jq assertions over a `benchtab -json` report, used by the CI
# smoke matrix (one suite per matrix cell) and runnable locally:
#
#   go run ./cmd/benchtab ... -json > report.json
#   ci/assert_benchtab.sh quantum report.json
#
# Suites:
#   base       — obs counters present on every run; scheme-specific
#                counters on the right schemes; no stall escapes
#                (needs -timing for sim.cycle_hook_ns)
#   percpu     — per-CPU driver counters present, non-zero, and
#                reconciling with the aggregates (needs -cpus 2); no
#                stall escapes; Driver-Kernel runs allocate less than
#                once per simulation cycle (needs a serial sweep)
#   transports — per-transport counters for every swept backend
#                (set TRANSPORTS, default "tcp ring")
#   dmi        — DMI/coalesce ablation: hits iff granted, message
#                reduction, per-CPU reconciliation, identical
#                functional outcome across cells, no stall escapes
#   quantum    — quantum ablation: syncs iff decoupled, identical
#                forwarded/message totals across cells, per-CPU
#                reconciliation, no stall escapes
set -euo pipefail

suite=${1:?usage: assert_benchtab.sh SUITE REPORT.json}
report=${2:?usage: assert_benchtab.sh SUITE REPORT.json}

fail() {
  echo "assert_benchtab[$suite]: $*" >&2
  exit 1
}

# jqe EXPR MESSAGE — assert that EXPR evaluates truthy over the report.
jqe() {
  jq -e "$1" "$report" > /dev/null || fail "$2"
}

# no_stall_escapes — no Driver-Kernel or GDB-Kernel skew wait gave up
# on its wall-clock timeout in any run (a counter absent from a run's
# snapshot belongs to another scheme and counts as 0).
no_stall_escapes() {
  jqe '[.runs[] | (.counters["driver.stall_escapes"] // 0) == 0
                 and (.counters["cosim.stall_escapes"] // 0) == 0] | all' \
    "a run recorded driver.stall_escapes or cosim.stall_escapes > 0"
}

case $suite in
base)
  jqe '.runs | length > 0' "report has no runs"
  for key in iss.instructions iss.cycles iss.decode_cache_hits \
    iss.decode_cache_misses iss.decode_cache_invalidations \
    sim.cycles sim.activations sim.cycle_hook_ns.count; do
    jqe "[.runs[].counters | has(\"$key\")] | all" \
      "counter $key missing from a run snapshot"
  done
  jqe '[.runs[].counters["iss.decode_cache_hits"]] | add > 0' \
    "iss.decode_cache_hits is zero across all runs"
  jqe '[.runs[] | select(.scheme == "Driver-Kernel")]
       | length > 0 and ([.[].counters | has("driver.messages")] | all)' \
    "driver.messages missing from Driver-Kernel snapshots"
  jqe '[.runs[] | select(.scheme != "Driver-Kernel")]
       | length > 0 and ([.[].counters | has("rsp.round_trips")] | all)' \
    "rsp.round_trips missing from GDB-scheme snapshots"
  no_stall_escapes
  ;;

percpu)
  jqe '.runs | length > 0 and ([.[].cpus == 2] | all)' \
    "report missing runs or not a 2-CPU sweep"
  for key in driver.cpu0.messages driver.cpu1.messages \
    driver.cpu0.interrupts driver.cpu1.interrupts; do
    jqe "[.runs[].counters | has(\"$key\")] | all" \
      "per-CPU counter $key missing from a run snapshot"
  done
  for key in driver.cpu0.messages driver.cpu1.messages; do
    jqe "[.runs[].counters[\"$key\"]] | add > 0" \
      "per-CPU counter $key is zero across all runs"
  done
  jqe '[.runs[].counters
        | .["driver.messages"] == .["driver.cpu0.messages"] + .["driver.cpu1.messages"]]
       | all' \
    "aggregate driver.messages does not equal the per-CPU sum"
  # The kernel's steady state allocates nothing, so a Driver-Kernel run
  # allocates less than once per simulation cycle. .allocs is
  # process-wide, which holds here because the sweep is serial.
  jqe '[.runs[] | select(.scheme == "Driver-Kernel")
        | .allocs < .counters["sim.cycles"]] | all' \
    "a Driver-Kernel run allocated once or more per sim.cycles"
  no_stall_escapes
  ;;

transports)
  want=${TRANSPORTS:-tcp ring}
  jqe '.runs | length > 0' "report has no runs"
  # shellcheck disable=SC2086  # word splitting over the transport list is the point
  for tr in $want; do
    jqe "[.runs[] | select(.transport == \"$tr\")] | length > 0" \
      "no runs recorded for transport $tr"
    for suffix in pairs tx_bytes rx_bytes; do
      jqe "[.runs[] | select(.transport == \"$tr\")
            | .counters[\"transport.$tr.$suffix\"] > 0] | all" \
        "counter transport.$tr.$suffix missing or zero for transport $tr"
    done
  done
  ;;

dmi)
  # Four cells: the off/on cross product of the two axes.
  jqe '.runs | length == 4' "ablation sweep did not produce four cells"
  # Windows actually serve traffic when granted...
  jqe '[.runs[] | select(.dmi)]
       | length > 0 and ([.[].counters["driver.dmi_hits"] > 0] | all)' \
    "dmi cells recorded no window hits"
  # ...never when not granted...
  jqe '[.runs[] | select(.dmi | not) | .counters["driver.dmi_hits"] == 0] | all' \
    "non-dmi cells recorded window hits"
  # ...and they take messages off the wire.
  jqe '([.runs[] | select(.dmi)       | .counters["driver.messages"]] | add) <
       ([.runs[] | select(.dmi | not) | .counters["driver.messages"]] | add)' \
    "dmi cells did not reduce driver.messages"
  # Per-CPU DMI counters reconcile with the aggregates.
  for metric in dmi_hits dmi_misses dmi_revocations; do
    jqe "[.runs[].counters
          | .[\"driver.$metric\"] == .[\"driver.cpu0.$metric\"] + .[\"driver.cpu1.$metric\"]]
         | all" \
      "aggregate driver.$metric does not equal the per-CPU sum"
  done
  # Every cell agrees on the functional outcome.
  jqe '[.runs[].forwarded] | unique | length == 1' \
    "ablation cells disagree on forwarded packets"
  no_stall_escapes
  ;;

quantum)
  # Three cells: lock-step plus the 1x/10x CPU-period quanta.
  jqe '.runs | length == 3' "quantum sweep did not produce three cells"
  jqe '[.runs[] | select(.quantum == null)] | length == 1' \
    "quantum sweep has no lock-step cell"
  # Boundary syncs fire iff the run is temporally decoupled.
  jqe '[.runs[] | select(.quantum != null)]
       | length == 2 and ([.[].quantum_syncs > 0] | all)' \
    "decoupled cells counted no quantum syncs"
  jqe '[.runs[] | select(.quantum == null) | (.quantum_syncs // 0) == 0] | all' \
    "lock-step cell counted quantum syncs"
  # The quantum changes only the synchronization cadence: forwarded
  # packets and driver message totals are identical across cells.
  jqe '[.runs[].forwarded] | unique | length == 1' \
    "quantum cells disagree on forwarded packets"
  jqe '[.runs[].counters["driver.messages"]] | unique | length == 1' \
    "quantum cells disagree on driver message totals"
  # Per-CPU quantum counters reconcile with the aggregates.
  for metric in quantum_syncs quantum_breaks; do
    jqe "[.runs[].counters
          | (.[\"driver.$metric\"] // 0) == (.[\"driver.cpu0.$metric\"] // 0) + (.[\"driver.cpu1.$metric\"] // 0)]
         | all" \
      "aggregate driver.$metric does not equal the per-CPU sum"
  done
  no_stall_escapes
  ;;

*)
  fail "unknown suite (want base, percpu, transports, dmi, quantum)"
  ;;
esac

echo "assert_benchtab[$suite]: ok ($report)"
