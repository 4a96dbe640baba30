#include "slurm/energy_ledger.hpp"

#include <algorithm>

namespace eco::slurm {

void EnergyLedger::Bind(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry_ = registry;
  metric_attributed_ = registry->GetGauge("eco_ledger_attributed_joules");
  metric_idle_ = registry->GetGauge("eco_ledger_idle_joules");
  metric_jobs_ = registry->GetCounter("eco_ledger_jobs_finalized_total");
  metric_samples_ = registry->GetCounter("eco_ledger_samples_total");
}

void EnergyLedger::SetNodeCount(std::size_t nodes) {
  occupancy_.resize(nodes);
}

LedgerJobEntry* EnergyLedger::EntryFor(const JobRecord& job) {
  auto [it, inserted] = jobs_.try_emplace(job.id);
  LedgerJobEntry& entry = it->second;
  if (inserted) {
    entry.job = job.id;
    entry.user = job.request.user_id;
    entry.account = job.request.account;
    entry.partition = job.request.partition;
  }
  return &entry;
}

void EnergyLedger::BeginSpan(std::size_t node, const JobRecord& job,
                             double share) {
  if (node >= occupancy_.size()) return;
  Occupant occupant;
  occupant.job = job.id;
  occupant.share = std::clamp(share, 0.0, 1.0);
  occupant.entry = EntryFor(job);
  occupancy_[node].push_back(occupant);
  job_nodes_[job.id].push_back(node);
}

void EnergyLedger::EndSpans(JobId job) {
  const auto it = job_nodes_.find(job);
  if (it == job_nodes_.end()) return;
  for (const std::size_t node : it->second) {
    auto& occupants = occupancy_[node];
    occupants.erase(std::remove_if(occupants.begin(), occupants.end(),
                                   [job](const Occupant& o) {
                                     return o.job == job;
                                   }),
                    occupants.end());
  }
  job_nodes_.erase(it);
}

void EnergyLedger::OnEnergySample(std::size_t node, double joules) {
  if (node >= occupancy_.size()) return;
  ++samples_;
  const auto& occupants = occupancy_[node];
  if (occupants.empty()) {
    idle_joules_ += joules;
  } else {
    double total_share = 0.0;
    for (const Occupant& o : occupants) total_share += o.share;
    if (total_share < 1.0) {
      // The un-sold fraction of a partially-shared node stays idle energy.
      idle_joules_ += joules * (1.0 - total_share);
    }
    // Oversubscribed shares (sum > 1) normalise so a node never bills more
    // joules than it drew.
    const double norm = std::max(total_share, 1.0);
    for (const Occupant& o : occupants) {
      const double charged = joules * (o.share / norm);
      o.entry->joules += charged;
      attributed_joules_ += charged;
    }
  }
}

void EnergyLedger::Publish() {
  if (registry_ == nullptr) return;
  metric_samples_->Add(samples_ - published_samples_);
  published_samples_ = samples_;
  metric_attributed_->Set(attributed_joules_);
  metric_idle_->Set(idle_joules_);
}

void EnergyLedger::FinalizeJob(const JobRecord& job) {
  LedgerJobEntry* entry = EntryFor(job);
  if (entry->finalized) return;
  entry->finalized = true;
  entry->run_seconds = std::max(0.0, job.RunSeconds());
  ++finalized_;
  if (metric_jobs_ != nullptr) metric_jobs_->Add(1);
  Publish();

  auto& user = by_user_[entry->user];
  user.joules += entry->joules;
  ++user.jobs;
  auto& account = by_account_[entry->account];
  account.joules += entry->joules;
  ++account.jobs;
  auto& partition = by_partition_[entry->partition];
  partition.joules += entry->joules;
  ++partition.jobs;
  partition.edp_joule_seconds += entry->joules * entry->run_seconds;

  if (registry_ != nullptr) {
    auto [it, inserted] = metric_edp_.try_emplace(entry->partition, nullptr);
    if (inserted) {
      it->second = registry_->GetGauge(telemetry::LabeledName(
          "eco_ledger_edp_joule_seconds", "partition", entry->partition));
    }
    it->second->Set(partition.edp_joule_seconds);
  }
}

double EnergyLedger::JobJoules(JobId id) const {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second.joules : 0.0;
}

Json EnergyLedger::ToJson() const {
  JsonArray jobs;
  for (const auto& [id, entry] : jobs_) {
    jobs.push_back(
        Json(JsonObject{{"job", Json(static_cast<std::uint64_t>(entry.job))},
                        {"user", Json(static_cast<std::uint64_t>(entry.user))},
                        {"account", Json(entry.account)},
                        {"partition", Json(entry.partition)},
                        {"joules", Json(entry.joules)},
                        {"run_seconds", Json(entry.run_seconds)},
                        {"finalized", Json(entry.finalized)}}));
  }
  const auto aggregate = [](const LedgerAggregate& a, bool edp) {
    JsonObject out{{"joules", Json(a.joules)}, {"jobs", Json(a.jobs)}};
    if (edp) out["edp_joule_seconds"] = Json(a.edp_joule_seconds);
    return Json(std::move(out));
  };
  JsonObject by_user;
  for (const auto& [user, a] : by_user_) {
    by_user[std::to_string(user)] = aggregate(a, false);
  }
  JsonObject by_account;
  for (const auto& [name, a] : by_account_) {
    by_account[name.empty() ? "(none)" : name] = aggregate(a, false);
  }
  JsonObject by_partition;
  for (const auto& [name, a] : by_partition_) {
    by_partition[name] = aggregate(a, true);
  }
  return Json(JsonObject{{"attributed_joules", Json(attributed_joules_)},
                         {"idle_joules", Json(idle_joules_)},
                         {"samples", Json(samples_)},
                         {"finalized_jobs", Json(finalized_)},
                         {"jobs", Json(std::move(jobs))},
                         {"by_user", Json(std::move(by_user))},
                         {"by_account", Json(std::move(by_account))},
                         {"by_partition", Json(std::move(by_partition))}});
}

}  // namespace eco::slurm
