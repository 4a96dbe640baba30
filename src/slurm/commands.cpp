#include "slurm/commands.hpp"

#include <map>
#include <sstream>

#include "common/perf.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/timeseries.hpp"
#include "hpcg/dispatch.hpp"
#include "slurm/energy_ledger.hpp"

namespace eco::slurm {
namespace {

// squeue's compact state codes.
const char* StateCode(JobState s) {
  switch (s) {
    case JobState::kPending:
      return "PD";
    case JobState::kHeld:
      return "PD";  // squeue shows held jobs as pending with a reason
    case JobState::kRunning:
      return "R";
    case JobState::kCompleted:
      return "CD";
    case JobState::kCancelled:
      return "CA";
    case JobState::kFailed:
      return "F";
  }
  return "?";
}

std::string Reason(const JobRecord& job) {
  switch (job.state) {
    case JobState::kHeld:
      return "(GreenWindowHold)";
    case JobState::kPending:
      return "(Resources)";
    case JobState::kRunning:
      return job.node;
    default:
      return "";
  }
}

}  // namespace

std::string Squeue(const ClusterSim& cluster,
                   const std::string& partition_filter) {
  TextTable table({"JOBID", "PARTITION", "NAME", "USER", "ST", "TIME",
                   "NODES", "NODELIST(REASON)"});
  for (const auto& job : cluster.Queue()) {
    if (!partition_filter.empty() &&
        job.request.partition != partition_filter) {
      continue;
    }
    const double elapsed =
        job.state == JobState::kRunning ? cluster.Now() - job.start_time : 0.0;
    table.AddRow({std::to_string(job.id), job.request.partition,
                  job.request.name, std::to_string(job.request.user_id),
                  StateCode(job.state), FormatHms(elapsed),
                  std::to_string(std::max(1, job.request.min_nodes)),
                  Reason(job)});
  }
  return table.Render();
}

std::string Sinfo(const ClusterSim& cluster,
                  const std::string& partition_filter) {
  TextTable table({"PARTITION", "AVAIL", "TIMELIMIT", "NODES", "STATE",
                   "NODELIST"});
  const auto& partitions = cluster.partitions();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const PartitionConfig& partition = partitions[p];
    if (!partition_filter.empty() && partition.name != partition_filter) {
      continue;
    }
    // Group THIS partition's nodes by state, like sinfo's summary view —
    // node counts reflect the partition's real node set, not the cluster.
    std::map<std::string, std::vector<std::string>> by_state;
    for (const std::size_t i : cluster.partition_nodes(p)) {
      const NodeSim& node = cluster.node(i);
      by_state[node.idle() ? "idle" : "alloc"].push_back(node.name());
    }
    const std::string label =
        partition.name + (partition.is_default ? "*" : "");
    for (const auto& [state, names] : by_state) {
      table.AddRow({label, "up", FormatHms(partition.max_time_s),
                    std::to_string(names.size()), state, Join(names, ",")});
    }
  }
  return table.Render();
}

std::string ScontrolShowJob(const ClusterSim& cluster, JobId id) {
  const auto job = cluster.GetJob(id);
  if (!job.has_value()) {
    return "slurm_load_jobs error: Invalid job id specified\n";
  }
  std::ostringstream out;
  out << "JobId=" << job->id << " JobName=" << job->request.name << "\n";
  out << "   UserId=" << job->request.user_id
      << " JobState=" << JobStateName(job->state)
      << " Partition=" << job->request.partition << "\n";
  out << "   NumNodes=" << std::max(1, job->request.min_nodes)
      << " NumTasks=" << job->request.num_tasks
      << " ThreadsPerCore=" << job->request.threads_per_core << "\n";
  out << "   CpuFreqMin=" << job->request.cpu_freq_min
      << " CpuFreqMax=" << job->request.cpu_freq_max << "\n";
  out << "   SubmitTime=" << FormatDouble(job->submit_time, 1)
      << " StartTime=" << FormatDouble(job->start_time, 1)
      << " EndTime=" << FormatDouble(job->end_time, 1) << "\n";
  out << "   Comment=" << job->request.comment << "\n";
  if (job->state == JobState::kCompleted) {
    out << "   ConsumedEnergy=" << FormatDouble(job->system_joules, 0) << "J"
        << " Gflops=" << FormatDouble(job->gflops, 3) << "\n";
  }
  return out.str();
}

namespace {

std::string MeanNanos(std::uint64_t total_ns, std::uint64_t calls) {
  if (calls == 0) return "n/a";
  return FormatNanos(total_ns / calls);
}

}  // namespace

std::string Sdiag(const ClusterSim& cluster) {
  const auto stats = [&cluster](const char* metric) {
    return ReadSchedMetric(cluster, metric);
  };
  std::ostringstream out;
  out << "*******************************************************\n";
  out << "sdiag output at t=" << FormatDouble(cluster.Now(), 1) << "s\n";
  out << "*******************************************************\n";
  out << "Main schedule statistics (microseconds):\n";
  out << "  Submit calls:            " << stats("submit_calls_total") << "\n";
  out << "  Mean submit latency:     "
      << MeanNanos(stats("submit_ns_total"), stats("submit_calls_total"))
      << "\n";
  out << "  Schedule cycles:         " << stats("dispatch_calls_total")
      << "\n";
  out << "  Mean cycle time:         "
      << MeanNanos(stats("dispatch_ns_total"), stats("dispatch_calls_total"))
      << "\n";
  out << "  Total cycle time:        "
      << FormatNanos(stats("dispatch_ns_total")) << "\n";
  out << "  Cycles coalesced:        " << stats("dispatch_coalesced_total")
      << "\n";
  out << "  Queue candidates seen:   " << stats("plan_candidates_total")
      << "\n";
  out << "  Jobs started:            " << stats("jobs_started_total") << "\n";
  out << "  Backfilled jobs:         " << stats("backfill_planned_total")
      << "\n";
  out << "  Pending queue peak:      " << stats("pending_peak") << "\n";
  out << "  Concurrent running peak: " << stats("timeline_peak") << "\n";

  // Eco plugin decision cache (published into the process-wide registry by
  // job_submit_eco; absent when the plugin never ran).
  const auto& global = telemetry::MetricsRegistry::Global();
  const telemetry::Counter* hits =
      global.FindCounter("eco_plugin_cache_hits_total");
  const telemetry::Counter* misses =
      global.FindCounter("eco_plugin_cache_misses_total");
  out << "Eco plugin decision cache:\n";
  if (hits == nullptr && misses == nullptr) {
    out << "  (plugin not loaded)\n";
  } else {
    const std::uint64_t h = hits != nullptr ? hits->Value() : 0;
    const std::uint64_t m = misses != nullptr ? misses->Value() : 0;
    out << "  Hits:   " << h << "\n";
    out << "  Misses: " << m << "\n";
    out << "  Ratio:  "
        << (h + m > 0
                ? FormatDouble(static_cast<double>(h) /
                                   static_cast<double>(h + m),
                               3)
                : "n/a")
        << "\n";
  }

  // HPCG kernel dispatch: the tier the compute kernels run at in this
  // process (workload simulation and benches share the dispatch table).
  out << "HPCG kernel dispatch:\n";
  out << "  ISA tier: " << hpcg::IsaTierName(hpcg::ActiveIsaTier())
      << " (best supported: "
      << hpcg::IsaTierName(hpcg::BestSupportedIsaTier()) << ")\n";

  // ML inference engine (published into the process-wide registry by the
  // compiled forest engine, ml/forest_inference; same ISA tier as above).
  const telemetry::Counter* ml_compiles =
      global.FindCounter("eco_ml_inference_compiles_total");
  const telemetry::Counter* ml_batches =
      global.FindCounter("eco_ml_inference_batches_total");
  out << "ML inference engine:\n";
  if (ml_compiles == nullptr && ml_batches == nullptr) {
    out << "  (never used)\n";
  } else {
    const telemetry::Counter* ml_rows =
        global.FindCounter("eco_ml_inference_rows_total");
    out << "  Compiled forests: "
        << (ml_compiles != nullptr ? ml_compiles->Value() : 0)
        << "  Batches: " << (ml_batches != nullptr ? ml_batches->Value() : 0)
        << "  Rows: " << (ml_rows != nullptr ? ml_rows->Value() : 0) << "\n";
    const telemetry::Histogram* ml_hist =
        global.FindHistogram("eco_ml_inference_rows");
    if (ml_hist != nullptr && ml_hist->Count() > 0) {
      out << "  Batch sizes: " << ml_hist->FormatBuckets() << "\n";
    }
  }

  // Ingress front door (published into the cluster's registry when a
  // SubmitIngress was constructed with ClusterSim::metrics(); absent when
  // submissions go straight to Submit/SubmitBatch).
  const telemetry::Counter* ing_submitted =
      cluster.metrics().FindCounter("eco_ingress_submitted_total");
  if (ing_submitted != nullptr) {
    const auto counter = [&](const char* name) -> std::uint64_t {
      const telemetry::Counter* c = cluster.metrics().FindCounter(name);
      return c != nullptr ? c->Value() : 0;
    };
    const telemetry::Gauge* peak =
        cluster.metrics().FindGauge("eco_ingress_backlog_peak");
    out << "Ingress front door:\n";
    out << "  Submitted: " << ing_submitted->Value()
        << "  Admitted: " << counter("eco_ingress_admitted_total")
        << "  Drained: " << counter("eco_ingress_drained_total")
        << "  Batches: " << counter("eco_ingress_drain_batches_total")
        << "\n";
    // The reason-labeled reject family, one compact line (zero reasons
    // are elided so a clean run prints "none").
    out << "  Rejected by reason:";
    bool any_reject = false;
    for (const char* reason :
         {"rate", "account", "qos", "shed", "queue_full", "closed"}) {
      const std::uint64_t n = counter(telemetry::LabeledName(
          "eco_ingress_rejected_total", "reason", reason).c_str());
      if (n == 0) continue;
      out << " " << reason << "=" << n;
      any_reject = true;
    }
    out << (any_reject ? "\n" : " none\n");
    out << "  Backlog peak: "
        << (peak != nullptr
                ? std::to_string(static_cast<std::uint64_t>(peak->Value()))
                : "0")
        << "  Backpressure engagements: "
        << counter("eco_ingress_backpressure_engaged_total") << "\n";
  }

  // RPC front door (the subd server publishes eco_rpc_* into the cluster's
  // registry when constructed with ClusterSim::metrics(); absent when no
  // network surface is attached).
  const telemetry::Counter* rpc_conns =
      cluster.metrics().FindCounter("eco_rpc_connections_total");
  if (rpc_conns != nullptr) {
    const auto counter = [&](const char* name) -> std::uint64_t {
      const telemetry::Counter* c = cluster.metrics().FindCounter(name);
      return c != nullptr ? c->Value() : 0;
    };
    const telemetry::Gauge* active =
        cluster.metrics().FindGauge("eco_rpc_connections_active");
    out << "RPC front door:\n";
    out << "  Connections: " << rpc_conns->Value() << " total, "
        << (active != nullptr
                ? std::to_string(static_cast<std::uint64_t>(active->Value()))
                : "0")
        << " active\n";
    out << "  Frames: " << counter("eco_rpc_frames_total")
        << "  Submits: " << counter("eco_rpc_submits_total")
        << "  Admitted: " << counter("eco_rpc_admitted_total")
        << "  Decode errors: " << counter("eco_rpc_decode_errors_total")
        << "\n";
    out << "  Bytes: " << counter("eco_rpc_bytes_read_total") << " in / "
        << counter("eco_rpc_bytes_written_total") << " out\n";
    const telemetry::Histogram* enqueue =
        cluster.metrics().FindHistogram("eco_rpc_enqueue_seconds");
    if (enqueue != nullptr && enqueue->Count() > 0) {
      out << "  Enqueue p50/p99: " << FormatDouble(enqueue->Quantile(0.5) * 1e6, 1)
          << " us / " << FormatDouble(enqueue->Quantile(0.99) * 1e6, 1)
          << " us\n";
    }
  }

  // Energy attribution ledger (attached via ClusterConfig::energy_ledger;
  // absent when the cluster runs without one).
  if (const EnergyLedger* ledger = cluster.energy_ledger()) {
    out << "Energy ledger:\n";
    out << "  Attributed: " << FormatDouble(ledger->AttributedJoules() / 1000.0, 1)
        << " kJ  Idle: " << FormatDouble(ledger->IdleJoules() / 1000.0, 1)
        << " kJ  Total: " << FormatDouble(ledger->TotalJoules() / 1000.0, 1)
        << " kJ\n";
    out << "  Jobs finalized: " << ledger->finalized_jobs()
        << "  Samples: " << ledger->samples() << "\n";
    for (const auto& [name, aggregate] : ledger->by_partition()) {
      out << "  Partition " << name << ": "
          << FormatDouble(aggregate.joules / 1000.0, 1) << " kJ over "
          << aggregate.jobs << " jobs, EDP "
          << FormatDouble(aggregate.edp_joule_seconds, 0) << " J*s\n";
    }
  }

  // Time-series store resource usage (the observability layer is itself
  // observable; absent when no store is attached).
  if (const telemetry::TimeSeriesStore* store = cluster.timeseries()) {
    out << "Time-series store:\n";
    out << "  Series: " << store->series_count()
        << "  Samples: " << store->samples_total()
        << "  Compactions: " << store->compactions_total()
        << "  Dropped: " << store->dropped_total() << "\n";
  }

  out << "Per-partition statistics:\n";
  for (const PartitionConfig& partition : cluster.partitions()) {
    const auto ps = [&](const char* metric) {
      return ReadSchedMetric(cluster, metric, partition.name);
    };
    out << "  Partition " << partition.name << ":\n";
    out << "    Submitted: " << ps("submit_calls_total")
        << "  Started: " << ps("jobs_started_total")
        << "  Backfilled: " << ps("backfill_planned_total") << "\n";
    out << "    Planning passes: " << ps("dispatch_calls_total")
        << "  Mean pass time: "
        << MeanNanos(ps("dispatch_ns_total"), ps("dispatch_calls_total"))
        << "  Candidates: " << ps("plan_candidates_total") << "\n";
    out << "    Pending peak: " << ps("pending_peak")
        << "  Timeline peak: " << ps("timeline_peak") << "\n";
    const telemetry::Histogram* wait = cluster.metrics().FindHistogram(
        telemetry::LabeledName("eco_sched_wait_seconds", "partition",
                               partition.name));
    if (wait != nullptr && wait->Count() > 0) {
      out << "    Queue wait (s): " << wait->FormatBuckets() << "\n";
    }
  }
  return out.str();
}

std::string SreportUserEnergy(const AccountingDb& accounting) {
  struct UserTotals {
    std::size_t jobs = 0;
    double cpu_hours = 0.0;
    double kilojoules = 0.0;
  };
  std::map<std::uint32_t, UserTotals> users;
  for (const auto& record : accounting.records()) {
    auto& totals = users[record.request.user_id];
    ++totals.jobs;
    totals.cpu_hours += record.RunSeconds() * record.request.num_tasks / 3600.0;
    totals.kilojoules += record.system_joules / 1000.0;
  }
  TextTable table({"User", "Jobs", "CPU-hours", "Energy (kJ)"});
  for (const auto& [user, totals] : users) {
    table.AddRow({std::to_string(user), std::to_string(totals.jobs),
                  FormatDouble(totals.cpu_hours, 2),
                  FormatDouble(totals.kilojoules, 1)});
  }
  return table.Render();
}

}  // namespace eco::slurm
