// Shared-uplink network model (optional contention mode).
//
// Each machine's uplink is a processor-sharing server: concurrent gradient
// push/pull transfers split the link rate equally. The default simulator
// mode charges the profiled T^s directly (the paper treats sync time as a
// per-(task, GPU) constant); enabling contention makes simultaneous syncs
// on one machine stretch each other, which the bandwidth-sweep ablation
// exercises.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"

namespace hare::sim {

class NetworkModel {
 public:
  explicit NetworkModel(const cluster::Cluster& cluster);

  using TransferId = std::uint64_t;

  /// Begin transferring `bytes` over `machine`'s uplink at `now`.
  TransferId start_transfer(MachineId machine, double bytes, Time now);

  /// Earliest completion across all machines (kTimeInfinity when idle).
  [[nodiscard]] Time next_completion() const;

  /// Pop every transfer completing exactly at `t` (== next_completion()).
  std::vector<TransferId> complete_at(Time t);

  /// Transfers in flight across every uplink; O(1).
  [[nodiscard]] std::size_t active_count() const { return active_; }

 private:
  struct Transfer {
    TransferId id = 0;
    double remaining_bytes = 0.0;
  };
  struct Uplink {
    double bytes_per_second = 0.0;
    Time last_update = 0.0;
    std::vector<Transfer> active;
  };

  /// Drain progress on a machine's active transfers up to `now`.
  void advance(Uplink& link, Time now);
  [[nodiscard]] Time link_next_completion(const Uplink& link) const;

  std::vector<Uplink> uplinks_;
  std::size_t active_ = 0;  ///< Σ active.size() over the uplinks
  TransferId next_id_ = 1;
};

}  // namespace hare::sim
