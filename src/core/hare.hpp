// Umbrella header: the full Hare public API.
//
//   #include "core/hare.hpp"
//
// pulls in the cluster/workload substrates, the profiler, the switching
// cost models, the simulator, Hare's scheduler and the baselines, and the
// HareSystem facade. See README.md for a quickstart and DESIGN.md for the
// module map.
#pragma once

#include "cluster/cluster.hpp"
#include "cluster/gpu.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "core/advisor.hpp"
#include "core/bounds.hpp"
#include "core/hare_scheduler.hpp"
#include "core/hare_system.hpp"
#include "core/online_hare.hpp"
#include "core/relaxation.hpp"
#include "opt/hungarian.hpp"
#include "opt/queyranne.hpp"
#include "opt/simplex.hpp"
#include "profiler/profile_db.hpp"
#include "profiler/profiler.hpp"
#include "profiler/time_table.hpp"
#include "sched/gavel_fifo.hpp"
#include "sched/sched_allox.hpp"
#include "sched/sched_homo.hpp"
#include "sched/scheduler.hpp"
#include "sched/srtf.hpp"
#include "sim/metrics.hpp"
#include "sim/export.hpp"
#include "sim/gantt.hpp"
#include "sim/schedule.hpp"
#include "sim/simulator.hpp"
#include "switching/memory_manager.hpp"
#include "switching/switch_model.hpp"
#include "workload/job.hpp"
#include "workload/model_zoo.hpp"
#include "workload/perf_model.hpp"
#include "workload/trace.hpp"
