#include "sim/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hare::sim {

NetworkModel::NetworkModel(const cluster::Cluster& cluster) {
  uplinks_.resize(cluster.machine_count());
  for (const auto& machine : cluster.machines()) {
    uplinks_[static_cast<std::size_t>(machine.id.value())].bytes_per_second =
        machine.network_gbps * 1e9 / 8.0;
  }
}

NetworkModel::TransferId NetworkModel::start_transfer(MachineId machine,
                                                      double bytes, Time now) {
  HARE_CHECK_MSG(
      machine.valid() &&
          static_cast<std::size_t>(machine.value()) < uplinks_.size(),
      "unknown machine " << machine);
  HARE_CHECK_MSG(bytes > 0.0, "transfer must carry bytes");
  Uplink& link = uplinks_[static_cast<std::size_t>(machine.value())];
  advance(link, now);
  const TransferId id = next_id_++;
  link.active.push_back(Transfer{id, bytes});
  ++active_;
  return id;
}

Time NetworkModel::next_completion() const {
  Time earliest = kTimeInfinity;
  if (active_ == 0) return earliest;  // default mode never starts one
  for (const auto& link : uplinks_) {
    earliest = std::min(earliest, link_next_completion(link));
  }
  return earliest;
}

std::vector<NetworkModel::TransferId> NetworkModel::complete_at(Time t) {
  std::vector<TransferId> completed;
  constexpr double kSlack = 1e-9;
  for (auto& link : uplinks_) {
    if (link.active.empty()) continue;
    if (link_next_completion(link) > t + kSlack) continue;
    advance(link, t);
    for (auto it = link.active.begin(); it != link.active.end();) {
      if (it->remaining_bytes <= kSlack * link.bytes_per_second) {
        completed.push_back(it->id);
        it = link.active.erase(it);
      } else {
        ++it;
      }
    }
  }
  active_ -= completed.size();
  return completed;
}

void NetworkModel::advance(Uplink& link, Time now) {
  if (now <= link.last_update) return;
  if (!link.active.empty()) {
    const double share =
        link.bytes_per_second / static_cast<double>(link.active.size());
    const double drained = share * (now - link.last_update);
    for (auto& transfer : link.active) {
      transfer.remaining_bytes = std::max(0.0, transfer.remaining_bytes - drained);
    }
  }
  link.last_update = now;
}

Time NetworkModel::link_next_completion(const Uplink& link) const {
  if (link.active.empty()) return kTimeInfinity;
  double min_remaining = link.active.front().remaining_bytes;
  for (const auto& transfer : link.active) {
    min_remaining = std::min(min_remaining, transfer.remaining_bytes);
  }
  const double share =
      link.bytes_per_second / static_cast<double>(link.active.size());
  return link.last_update + min_remaining / share;
}

}  // namespace hare::sim
