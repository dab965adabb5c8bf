// Jobs, rounds, tasks (§5.1 problem structure).
//
// A job n has arrival time a_n, weight w_n, and R_n training rounds. Every
// round launches the same fixed number of tasks |D_r| (the job's
// synchronization scale, fixed per the scale-fixed scheme of §2.2.3); each
// task trains `batches_per_task` mini-batches and then synchronizes
// gradients through the job's parameter server. Round r+1 may only start
// after every task of round r has finished and synchronized (constraint 7).
//
// `JobSet` owns the jobs and a flattened task table with global `TaskId`s;
// schedulers and the simulator index tasks through it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "workload/model_zoo.hpp"

namespace hare::workload {

/// Contiguous range of global TaskIds. `JobSet::add_job` assigns a job's
/// task ids consecutively in round-major order, so a job's tasks (and any
/// round slice of them) are described by a base id plus a count — no
/// per-job id array needed. Iterates by value; supports the span-like
/// subset the schedulers use.
class TaskIdRange {
 public:
  class iterator {
   public:
    using value_type = TaskId;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    explicit iterator(TaskId::underlying_type value) : value_(value) {}
    TaskId operator*() const { return TaskId(value_); }
    iterator& operator++() {
      ++value_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++value_;
      return copy;
    }
    friend bool operator==(iterator, iterator) = default;

   private:
    TaskId::underlying_type value_ = 0;
  };

  TaskIdRange() = default;
  TaskIdRange(TaskId first, std::size_t count)
      : first_(first.value()), count_(count) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] TaskId operator[](std::size_t i) const {
    return TaskId(first_ + static_cast<TaskId::underlying_type>(i));
  }
  [[nodiscard]] TaskId front() const { return TaskId(first_); }
  [[nodiscard]] TaskId back() const { return (*this)[count_ - 1]; }
  [[nodiscard]] iterator begin() const { return iterator(first_); }
  [[nodiscard]] iterator end() const {
    return iterator(first_ + static_cast<TaskId::underlying_type>(count_));
  }

 private:
  TaskId::underlying_type first_ = 0;
  std::size_t count_ = 0;
};

struct JobSpec {
  ModelType model = ModelType::ResNet50;
  Time arrival = 0.0;
  double weight = 1.0;
  std::uint32_t rounds = 1;           ///< |R_n|
  std::uint32_t tasks_per_round = 1;  ///< |D_r|, the synchronization scale
  std::uint32_t batch_size = 0;       ///< 0 = model default (Table 2)
  std::uint32_t batches_per_task = 20;
  std::string name;  ///< optional human label
};

struct Job {
  JobId id;
  JobSpec spec;
  /// Global id of this job's first task. Task ids are consecutive and
  /// round-major, so slot k of round r is `first_task + r*tasks_per_round
  /// + k` — a base id replaces the old per-job id vector (struct-of-arrays
  /// layout: no per-job heap allocation, 100k-job sets build without 100k
  /// mallocs).
  TaskId first_task{};

  [[nodiscard]] std::uint32_t rounds() const { return spec.rounds; }
  [[nodiscard]] std::uint32_t tasks_per_round() const {
    return spec.tasks_per_round;
  }
  [[nodiscard]] std::size_t task_count() const {
    return static_cast<std::size_t>(spec.rounds) * spec.tasks_per_round;
  }
  /// Global id of task (round, slot).
  [[nodiscard]] TaskId task_at(std::uint32_t round, std::uint32_t slot) const {
    return TaskId(first_task.value() +
                  static_cast<TaskId::underlying_type>(
                      round * spec.tasks_per_round + slot));
  }
  /// All of this job's task ids, round-major.
  [[nodiscard]] TaskIdRange task_ids() const {
    return TaskIdRange(first_task, task_count());
  }
  [[nodiscard]] std::uint32_t effective_batch_size() const {
    return spec.batch_size != 0 ? spec.batch_size
                                : model_spec(spec.model).default_batch_size;
  }
};

struct Task {
  TaskId id;
  JobId job;
  RoundIndex round = 0;
  std::uint32_t slot = 0;  ///< position within the round, [0, |D_r|)
};

class JobSet {
 public:
  JobSet() = default;

  /// Append a job; validates the spec. Returns the new job's id.
  JobId add_job(JobSpec spec);

  /// Drop every job and task, keeping the vectors' capacity — arena-style
  /// reuse for the per-shard planners that rebuild a local sub-jobset per
  /// plan.
  void clear() {
    jobs_.clear();
    tasks_.clear();
  }

  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }

  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// Tasks of one round of one job.
  [[nodiscard]] TaskIdRange round_tasks(JobId job, RoundIndex round) const;

  /// Earliest arrival across jobs (0 when empty).
  [[nodiscard]] Time earliest_arrival() const;

 private:
  std::vector<Job> jobs_;
  std::vector<Task> tasks_;
};

}  // namespace hare::workload
