#include "fault/fault_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hare::fault {

namespace {

[[noreturn]] void bad_spec(std::string_view what, std::string_view fragment) {
  std::ostringstream os;
  os << "fault spec: " << what << " in '" << fragment << "'";
  throw common::Error(os.str());
}

double parse_number(std::string_view text, std::string_view fragment) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range) {
    bad_spec("number out of range", fragment);
  }
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_spec("malformed number", fragment);
  }
  if (!std::isfinite(value)) bad_spec("number out of range", fragment);
  return value;
}

[[noreturn]] void too_many_events(std::string_view key) {
  std::ostringstream os;
  os << "fault spec: " << key << " expands past the " << kMaxFaultEvents
     << "-event cap";
  throw common::Error(os.str());
}

int parse_id(std::string_view text, std::string_view fragment) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value < 0) {
    bad_spec("malformed id", fragment);
  }
  return value;
}

std::size_t parse_count(std::string_view text, std::string_view fragment) {
  const double value = parse_number(text, fragment);
  // Reject magnitudes the long cast below can't represent before casting
  // (the cast itself would be undefined behaviour on overflow).
  if (value >= 9.2e18) bad_spec("number out of range", fragment);
  if (value < 0.0 || value != static_cast<double>(static_cast<long>(value))) {
    bad_spec("expected a non-negative integer", fragment);
  }
  return static_cast<std::size_t>(value);
}

/// One `kind:id@t[...]` entry from the events=(...) list.
FaultEvent parse_event(std::string_view entry) {
  const auto colon = entry.find(':');
  const auto at = entry.find('@');
  if (colon == std::string_view::npos || at == std::string_view::npos ||
      at < colon) {
    bad_spec("expected kind:id@time", entry);
  }
  const std::string_view kind = entry.substr(0, colon);
  const int id = parse_id(entry.substr(colon + 1, at - colon - 1), entry);
  std::string_view rest = entry.substr(at + 1);

  FaultEvent event;
  if (kind == "fail_machine" || kind == "recover_machine") {
    event.kind = kind == "fail_machine" ? FaultKind::MachineFail
                                        : FaultKind::MachineRecover;
    event.machine = MachineId(id);
    event.time = parse_number(rest, entry);
  } else if (kind == "fail_gpu" || kind == "recover_gpu") {
    event.kind =
        kind == "fail_gpu" ? FaultKind::GpuFail : FaultKind::GpuRecover;
    event.gpu = GpuId(id);
    event.time = parse_number(rest, entry);
  } else if (kind == "cancel_job") {
    event.kind = FaultKind::JobCancel;
    event.job = JobId(id);
    event.time = parse_number(rest, entry);
  } else if (kind == "complete_job") {
    event.kind = FaultKind::JobComplete;
    event.job = JobId(id);
    event.time = parse_number(rest, entry);
  } else {
    bad_spec("unknown event kind", entry);
  }
  return event;
}

/// Stragglers expand into a Start/End pair; everything else is one event.
void parse_entry_into(std::string_view entry, std::vector<FaultEvent>& out) {
  if (entry.substr(0, 13) == "straggle_gpu:") {
    const auto at = entry.find('@');
    if (at == std::string_view::npos) bad_spec("expected @time", entry);
    const int id = parse_id(entry.substr(13, at - 13), entry);
    const std::string_view rest = entry.substr(at + 1);
    const auto dash = rest.find('-');
    const auto factor_colon = rest.find(':');
    if (dash == std::string_view::npos ||
        factor_colon == std::string_view::npos || factor_colon < dash) {
      bad_spec("expected straggle_gpu:id@t0-t1:factor", entry);
    }
    const Time start = parse_number(rest.substr(0, dash), entry);
    const Time end =
        parse_number(rest.substr(dash + 1, factor_colon - dash - 1), entry);
    const double factor = parse_number(rest.substr(factor_colon + 1), entry);
    if (end <= start) bad_spec("straggler window is empty", entry);
    if (factor <= 1.0) bad_spec("straggler factor must be > 1", entry);
    FaultEvent begin;
    begin.kind = FaultKind::StragglerStart;
    begin.gpu = GpuId(id);
    begin.time = start;
    begin.factor = factor;
    out.push_back(begin);
    FaultEvent finish;
    finish.kind = FaultKind::StragglerEnd;
    finish.gpu = GpuId(id);
    finish.time = end;
    out.push_back(finish);
    return;
  }
  out.push_back(parse_event(entry));
}

}  // namespace

FaultSpec parse_fault_spec(std::string_view text) {
  if (text.empty()) bad_spec("empty spec", text);
  FaultSpec spec;
  std::vector<std::string_view> seen_keys;
  std::size_t pos = 0;
  bool trailing = false;
  while (pos < text.size() || trailing) {
    // `events=(...)` may contain commas-free ';' lists but we still scan
    // to the matching ')' so a future nested grammar stays parseable.
    std::size_t end = pos;
    int depth = 0;
    while (end < text.size() && (text[end] != ',' || depth > 0)) {
      if (text[end] == '(') ++depth;
      if (text[end] == ')') --depth;
      ++end;
    }
    const std::string_view item = text.substr(pos, end - pos);
    trailing = end < text.size();  // a ',' consumed with nothing after it
    pos = end + (trailing ? 1 : 0);
    if (item.empty()) bad_spec("dangling separator", text);

    const auto eq = item.find('=');
    if (eq == std::string_view::npos) bad_spec("expected key=value", item);
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
        seen_keys.end()) {
      bad_spec("duplicate key", item);
    }
    seen_keys.push_back(key);

    if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_count(value, item));
    } else if (key == "machine_failures") {
      spec.machine_failures = parse_count(value, item);
    } else if (key == "gpu_failures") {
      spec.gpu_failures = parse_count(value, item);
    } else if (key == "mttf") {
      spec.mttf = parse_number(value, item);
    } else if (key == "mttr") {
      spec.mttr = parse_number(value, item);
    } else if (key == "cancellations") {
      spec.cancellations = parse_count(value, item);
    } else if (key == "stragglers") {
      spec.stragglers = parse_count(value, item);
    } else if (key == "straggler_factor") {
      spec.straggler_factor = parse_number(value, item);
      if (spec.straggler_factor <= 1.0) {
        bad_spec("straggler_factor must be > 1", item);
      }
    } else if (key == "straggler_duration") {
      spec.straggler_duration = parse_number(value, item);
    } else if (key == "max_retries") {
      spec.retry.max_retries = parse_count(value, item);
    } else if (key == "backoff_base") {
      spec.retry.backoff_base_s = parse_number(value, item);
    } else if (key == "backoff_factor") {
      spec.retry.backoff_factor = parse_number(value, item);
    } else if (key == "backoff_cap") {
      spec.retry.backoff_cap_s = parse_number(value, item);
    } else if (key == "restart_overhead") {
      spec.retry.restart_overhead_s = parse_number(value, item);
    } else if (key == "replan_budget") {
      spec.replan_budget = parse_count(value, item);
    } else if (key == "horizon") {
      spec.horizon = parse_number(value, item);
    } else if (key == "events") {
      if (value.size() < 2 || value.front() != '(' || value.back() != ')') {
        bad_spec("events value must be (entry;entry;...)", item);
      }
      std::string_view list = value.substr(1, value.size() - 2);
      std::size_t p = 0;
      while (p <= list.size()) {
        const auto semi = list.find(';', p);
        const std::string_view entry =
            list.substr(p, semi == std::string_view::npos ? semi : semi - p);
        if (!entry.empty()) {
          parse_entry_into(entry, spec.scripted);
        } else if (!list.empty()) {
          bad_spec("dangling separator", item);
        }
        if (semi == std::string_view::npos) break;
        p = semi + 1;
      }
    } else {
      bad_spec("unknown key", item);
    }
  }
  return spec;
}

FaultPlan generate_fault_plan(const FaultSpec& spec,
                              const cluster::Cluster& cluster,
                              const workload::JobSet& jobs, Time horizon) {
  if (spec.horizon > 0.0) horizon = spec.horizon;
  HARE_CHECK_MSG(horizon > 0.0, "fault plan needs a positive horizon");

  FaultPlan plan;
  common::Rng rng(spec.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);

  const std::size_t machine_count = cluster.machine_count();
  const std::size_t gpu_count = cluster.gpu_count();
  // Poisson arrival mode: no explicit counts, mttf shapes a failure stream
  // across the whole fleet (rate = gpu_count / mttf).
  const bool poisson = spec.machine_failures == 0 && spec.gpu_failures == 0 &&
                       spec.mttf > 0.0 && gpu_count > 0;
  const double rate =
      poisson ? static_cast<double>(gpu_count) / spec.mttf : 0.0;

  // Bound the expansion before allocating: every key's events (a failure
  // with its recovery counts two), the Poisson stream by its expectation.
  const double per_failure = spec.mttr > 0.0 ? 2.0 : 1.0;
  double expanded = 0.0;
  const auto charge = [&](std::string_view key, bool applies, double events) {
    if (applies) expanded += events;
    if (expanded > static_cast<double>(kMaxFaultEvents)) too_many_events(key);
  };
  charge("events", true, static_cast<double>(spec.scripted.size()));
  charge("machine_failures", machine_count > 0,
         per_failure * static_cast<double>(spec.machine_failures));
  charge("gpu_failures", gpu_count > 0,
         per_failure * static_cast<double>(spec.gpu_failures));
  charge("mttf", poisson, per_failure * rate * horizon);
  charge("cancellations", jobs.job_count() > 0,
         static_cast<double>(spec.cancellations));
  charge("stragglers", gpu_count > 0,
         2.0 * static_cast<double>(spec.stragglers));

  const auto push_failure = [&](FaultKind fail, FaultKind recover, int id) {
    FaultEvent event;
    event.kind = fail;
    // Fail inside the first 60% of the horizon so recovery/replanned work
    // has runway to finish inside the simulated scenario.
    event.time = rng.uniform(0.05, 0.6) * horizon;
    if (fail == FaultKind::MachineFail) {
      event.machine = MachineId(id);
    } else {
      event.gpu = GpuId(id);
    }
    plan.events.push_back(event);
    if (spec.mttr > 0.0) {
      FaultEvent back = event;
      back.kind = recover;
      back.time = event.time + std::max(0.05 * spec.mttr,
                                        rng.exponential(1.0 / spec.mttr));
      plan.events.push_back(back);
    }
  };

  // Distinct victims per category: cycle a shuffled id list so requesting
  // N failures never hits the same machine/GPU twice before its recovery.
  const auto shuffled_ids = [&](std::size_t n) {
    std::vector<int> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<int>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.uniform_int(i)]);
    }
    return ids;
  };

  if (spec.machine_failures > 0 && machine_count > 0) {
    const auto ids = shuffled_ids(machine_count);
    for (std::size_t i = 0; i < spec.machine_failures; ++i) {
      push_failure(FaultKind::MachineFail, FaultKind::MachineRecover,
                   ids[i % ids.size()]);
    }
  }
  if (spec.gpu_failures > 0 && gpu_count > 0) {
    const auto ids = shuffled_ids(gpu_count);
    for (std::size_t i = 0; i < spec.gpu_failures; ++i) {
      push_failure(FaultKind::GpuFail, FaultKind::GpuRecover,
                   ids[i % ids.size()]);
    }
  }
  if (poisson) {
    Time t = rng.exponential(rate);
    while (t < horizon) {
      // The draw can outrun its expectation: a hard stop at the cap.
      if (plan.events.size() >= kMaxFaultEvents) too_many_events("mttf");
      push_failure(FaultKind::GpuFail, FaultKind::GpuRecover,
                   static_cast<int>(rng.uniform_int(gpu_count)));
      // push_failure drew its own fail time; overwrite with the arrival.
      const std::size_t idx =
          plan.events.size() - (spec.mttr > 0.0 ? 2 : 1);
      const Time delta = t - plan.events[idx].time;
      plan.events[idx].time = t;
      if (spec.mttr > 0.0) plan.events[idx + 1].time += delta;
      t += rng.exponential(rate);
    }
  }

  if (spec.cancellations > 0 && jobs.job_count() > 0) {
    const auto ids = shuffled_ids(jobs.job_count());
    for (std::size_t i = 0; i < spec.cancellations; ++i) {
      const workload::Job& job = jobs.job(JobId(ids[i % ids.size()]));
      FaultEvent event;
      event.kind = FaultKind::JobCancel;
      event.job = job.id;
      event.time = std::max(job.spec.arrival + 1e-6,
                            rng.uniform(0.1, 0.5) * horizon);
      plan.events.push_back(event);
    }
  }

  for (std::size_t i = 0; i < spec.stragglers && gpu_count > 0; ++i) {
    FaultEvent begin;
    begin.kind = FaultKind::StragglerStart;
    begin.gpu = GpuId(static_cast<int>(rng.uniform_int(gpu_count)));
    begin.time = rng.uniform(0.0, 0.7) * horizon;
    begin.factor = spec.straggler_factor;
    const Time duration = spec.straggler_duration > 0.0
                              ? spec.straggler_duration
                              : rng.exponential(1.0 / (0.2 * horizon));
    FaultEvent finish;
    finish.kind = FaultKind::StragglerEnd;
    finish.gpu = begin.gpu;
    finish.time = begin.time + std::max(duration, 1e-6);
    plan.events.push_back(begin);
    plan.events.push_back(finish);
  }

  plan.events.insert(plan.events.end(), spec.scripted.begin(),
                     spec.scripted.end());
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  return plan;
}

std::string describe(const FaultEvent& event) {
  std::ostringstream os;
  switch (event.kind) {
    case FaultKind::MachineFail:
      os << "fail_machine:" << event.machine.value();
      break;
    case FaultKind::MachineRecover:
      os << "recover_machine:" << event.machine.value();
      break;
    case FaultKind::GpuFail:
      os << "fail_gpu:" << event.gpu.value();
      break;
    case FaultKind::GpuRecover:
      os << "recover_gpu:" << event.gpu.value();
      break;
    case FaultKind::JobCancel:
      os << "cancel_job:" << event.job.value();
      break;
    case FaultKind::JobComplete:
      os << "complete_job:" << event.job.value();
      break;
    case FaultKind::StragglerStart:
      os << "straggle_gpu:" << event.gpu.value() << " x" << event.factor;
      break;
    case FaultKind::StragglerEnd:
      os << "straggle_end_gpu:" << event.gpu.value();
      break;
  }
  os << "@" << event.time;
  return os.str();
}

}  // namespace hare::fault
