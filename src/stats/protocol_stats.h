// Counters every protocol implementation exports so the harness can report
// fast/slow path ratios (paper Fig 10) and CAESAR's phase breakdown and wait
// times (paper Fig 11). ProtocolStats is ProtocolCounters plus latency pools;
// the plain counters are the snapshot the metrics windows subtract to get
// per-window deltas.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "stats/latency_stats.h"

namespace caesar::stats {

/// The monotone counters of a ProtocolStats, snapshottable and subtractable:
/// window(t0, t1) = snapshot(t1) - snapshot(t0) gives the decisions taken
/// inside the window, so fast-path fractions can be read per phase without
/// hand-placed sample points.
struct ProtocolCounters {
  // Decision paths, counted once per command at its leader.
  std::uint64_t fast_decisions = 0;
  std::uint64_t slow_decisions = 0;
  std::uint64_t retries = 0;         // retry phases executed
  std::uint64_t slow_proposals = 0;  // CAESAR slow-proposal phases
  std::uint64_t recoveries = 0;      // recovery procedures started
  std::uint64_t waits = 0;           // CAESAR wait-condition parks (Fig 11b)
  // State transfer & dead-node revocation (rejoin/catch-up subsystem).
  std::uint64_t catchup_requests = 0;  // requests sent by lagging nodes
  std::uint64_t catchup_chunks = 0;    // reply chunks served by live peers
  std::uint64_t catchup_commands = 0;  // commands applied from replies
  std::uint64_t revocations = 0;       // dead-node revocation decisions
  // Durable storage subsystem (storage/durability.h).
  std::uint64_t wal_appends = 0;         // records appended to the WAL
  std::uint64_t fsyncs = 0;              // group-commit flushes made durable
  std::uint64_t snapshots = 0;           // store snapshots written
  std::uint64_t truncated_segments = 0;  // WAL segments deleted by compaction

  std::uint64_t decisions() const { return fast_decisions + slow_decisions; }

  double slow_path_fraction() const {
    const std::uint64_t total = decisions();
    return total == 0 ? 0.0
                      : static_cast<double>(slow_decisions) /
                            static_cast<double>(total);
  }
  double fast_path_fraction() const {
    return decisions() == 0 ? 0.0 : 1.0 - slow_path_fraction();
  }

  /// One counter: its JSON name and its member.
  struct Field {
    std::string_view name;
    std::uint64_t ProtocolCounters::*member;
  };
  /// Every counter in declaration order — also the JSON order. The one list
  /// +=, - and the report emitters iterate; a new counter is a member plus
  /// one entry here (the static_assert below catches a missing entry).
  static constexpr std::array<Field, 14> fields() {
    return {{{"fast_decisions", &ProtocolCounters::fast_decisions},
             {"slow_decisions", &ProtocolCounters::slow_decisions},
             {"retries", &ProtocolCounters::retries},
             {"slow_proposals", &ProtocolCounters::slow_proposals},
             {"recoveries", &ProtocolCounters::recoveries},
             {"waits", &ProtocolCounters::waits},
             {"catchup_requests", &ProtocolCounters::catchup_requests},
             {"catchup_chunks", &ProtocolCounters::catchup_chunks},
             {"catchup_commands", &ProtocolCounters::catchup_commands},
             {"revocations", &ProtocolCounters::revocations},
             {"wal_appends", &ProtocolCounters::wal_appends},
             {"fsyncs", &ProtocolCounters::fsyncs},
             {"snapshots", &ProtocolCounters::snapshots},
             {"truncated_segments", &ProtocolCounters::truncated_segments}}};
  }

  ProtocolCounters& operator+=(const ProtocolCounters& o) {
    for (const Field& f : fields()) this->*f.member += o.*f.member;
    return *this;
  }

  /// Counter delta; counters are monotone, so per-field subtraction of an
  /// earlier snapshot is well-defined.
  ProtocolCounters operator-(const ProtocolCounters& earlier) const {
    ProtocolCounters d = *this;
    for (const Field& f : fields()) d.*f.member -= earlier.*f.member;
    return d;
  }

  friend bool operator==(const ProtocolCounters&,
                         const ProtocolCounters&) = default;
};

static_assert(sizeof(ProtocolCounters) ==
                  ProtocolCounters::fields().size() * sizeof(std::uint64_t),
              "every ProtocolCounters member needs an entry in fields()");

/// One node's counters plus its latency pools.
struct ProtocolStats : ProtocolCounters {
  // CAESAR wait condition (Fig 11b): time proposals spend parked.
  LatencyStats wait_time;

  // Phase latency breakdown at the leader (Fig 11a).
  LatencyStats propose_phase;   // propose sent -> outcome known
  LatencyStats retry_phase;     // retry sent -> quorum of acks
  LatencyStats deliver_phase;   // stable known -> command delivered locally

  /// Sample counts of the latency pools, snapshottable at window boundaries:
  /// two snapshots delimit the samples recorded between them (pools are
  /// append-only during a run), which LatencyStats::merge_range turns into
  /// per-window phase breakdowns.
  struct PoolCounts {
    std::uint64_t wait = 0;
    std::uint64_t propose = 0;
    std::uint64_t retry = 0;
    std::uint64_t deliver = 0;
  };
  PoolCounts pool_counts() const {
    return PoolCounts{wait_time.count(), propose_phase.count(),
                      retry_phase.count(), deliver_phase.count()};
  }

  /// Snapshot of the plain counters (no latency pools) for window deltas.
  ProtocolCounters counters() const { return *this; }
};

}  // namespace caesar::stats
