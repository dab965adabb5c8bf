#include "core/hare_system.hpp"

#include "sched/gavel_fifo.hpp"
#include "sched/sched_allox.hpp"
#include "sched/sched_homo.hpp"
#include "sched/srtf.hpp"

namespace hare::core {

HareSystem::HareSystem(cluster::Cluster cluster)
    : HareSystem(std::move(cluster), Options()) {}

HareSystem::HareSystem(cluster::Cluster cluster, Options options)
    : cluster_(std::move(cluster)),
      options_(options),
      profiler_(workload::PerfModel(options_.perf), options_.profiler,
                options_.seed) {}

JobId HareSystem::submit(workload::JobSpec spec) {
  profiled_fresh_ = false;
  return jobs_.add_job(std::move(spec));
}

void HareSystem::submit_all(const workload::JobSet& jobs) {
  for (const auto& job : jobs.jobs()) submit(job.spec);
}

void HareSystem::ensure_profiled() {
  if (profiled_fresh_) return;
  profiler_.profile_appended(jobs_, cluster_, profiled_, profiled_rows_,
                             options_.use_profile_db ? &db_ : nullptr);
  profiler_.exact_appended(jobs_, cluster_, actual_, actual_rows_);
  profiled_fresh_ = true;
}

const profiler::TimeTable& HareSystem::profiled_times() {
  ensure_profiled();
  return profiled_;
}

const profiler::TimeTable& HareSystem::actual_times() {
  ensure_profiled();
  return actual_;
}

RunReport HareSystem::run(sched::Scheduler& scheduler) {
  sim::SimScratch scratch;
  return run(scheduler, scratch);
}

RunReport HareSystem::run(sched::Scheduler& scheduler,
                          sim::SimScratch& scratch) {
  ensure_profiled();
  RunReport report;
  report.scheduler = std::string(scheduler.name());
  const auto start = std::chrono::steady_clock::now();
  report.plan = scheduler.schedule({cluster_, jobs_, profiled_});
  const auto end = std::chrono::steady_clock::now();

  const sim::Simulator simulator(cluster_, jobs_, actual_, options_.sim);
  report.result = simulator.run(report.plan, scratch);
  report.scheduling_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  report.approximation =
      check_approximation(cluster_, jobs_, actual_, report.result);
  return report;
}

std::vector<RunReport> HareSystem::run_comparison(HareConfig hare_config) {
  std::vector<RunReport> reports;
  for (const auto& scheduler : make_standard_schedulers(hare_config)) {
    reports.push_back(run(*scheduler));
  }
  return reports;
}

std::vector<std::unique_ptr<sched::Scheduler>> make_standard_schedulers(
    HareConfig hare_config) {
  std::vector<std::unique_ptr<sched::Scheduler>> schedulers;
  schedulers.push_back(std::make_unique<HareScheduler>(hare_config));
  schedulers.push_back(std::make_unique<sched::GavelFifoScheduler>());
  schedulers.push_back(std::make_unique<sched::SrtfScheduler>());
  schedulers.push_back(std::make_unique<sched::SchedHomoScheduler>());
  schedulers.push_back(std::make_unique<sched::SchedAlloxScheduler>());
  return schedulers;
}

}  // namespace hare::core
