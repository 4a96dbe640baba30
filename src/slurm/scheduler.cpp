#include "slurm/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace eco::slurm {

namespace {

// Fibonacci mix so near-sequential uids (1000, 1001, ...) spread uniformly
// across buckets instead of striding through a handful of them.
std::size_t MixUser(std::uint32_t user) {
  std::uint64_t x = user;
  x ^= x >> 16;
  x *= 0x9e3779b97f4a7c15ull;
  x ^= x >> 32;
  return static_cast<std::size_t>(x);
}

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FairShareTracker::FairShareTracker(double half_life_seconds,
                                   std::size_t buckets)
    : half_life_(half_life_seconds),
      buckets_(RoundUpPow2(std::max<std::size_t>(1, buckets))) {}

std::size_t FairShareTracker::BucketOf(std::uint32_t user) const {
  return MixUser(user) & (buckets_.size() - 1);
}

void FairShareTracker::AddUsage(std::uint32_t user, double cpu_seconds,
                                SimTime now) {
  auto [it, inserted] = buckets_[BucketOf(user)].usage.try_emplace(user);
  if (inserted) ++user_count_;
  Usage& u = it->second;
  const double age = std::max(0.0, now - u.as_of);
  u.amount = u.amount * std::pow(0.5, age / half_life_) + cpu_seconds;
  u.as_of = now;
  // The total decays at the same rate as every entry, so bringing it forward
  // to `now` and adding the fresh usage keeps it equal (up to rounding) to
  // Σ_u DecayedUsage(u, now).
  const double total_age = std::max(0.0, now - total_.as_of);
  total_.amount = total_.amount * std::pow(0.5, total_age / half_life_) +
                  cpu_seconds;
  total_.as_of = now;
}

double FairShareTracker::DecayedUsage(std::uint32_t user, SimTime now) const {
  const auto& usage = buckets_[BucketOf(user)].usage;
  const auto it = usage.find(user);
  if (it == usage.end()) return 0.0;
  const double age = std::max(0.0, now - it->second.as_of);
  return it->second.amount * std::pow(0.5, age / half_life_);
}

double FairShareTracker::Factor(std::uint32_t user, SimTime now) const {
  if (user_count_ == 0) return 1.0;
  const double total_age = std::max(0.0, now - total_.as_of);
  const double total =
      total_.amount * std::pow(0.5, total_age / half_life_);
  if (total <= 0.0) return 1.0;
  const double average = total / static_cast<double>(user_count_);
  const double mine = DecayedUsage(user, now);
  if (average <= 0.0) return 1.0;
  // Slurm's classic fair-share curve: 2^(-usage/share).
  return std::pow(2.0, -mine / average);
}

double MultifactorPriority::SizeFactor(int num_tasks, int min_nodes) const {
  return cluster_cores_ > 0
             ? std::min(1.0, static_cast<double>(num_tasks * min_nodes) /
                                 cluster_cores_)
             : 0.0;
}

double MultifactorPriority::ComputeFromFactors(double wait_seconds,
                                               double size_factor,
                                               double fs_factor) const {
  const double age_factor =
      std::min(1.0, wait_seconds / weights_.max_age_seconds);
  return weights_.age * age_factor + weights_.size * size_factor +
         weights_.fairshare * fs_factor + weights_.qos;
}

double MultifactorPriority::Compute(const JobRecord& job, SimTime now,
                                    const FairShareTracker& fairshare) const {
  const double wait = std::max(0.0, now - job.eligible_time);
  return ComputeFromFactors(
      wait, SizeFactor(job.request.num_tasks, job.request.min_nodes),
      fairshare.Factor(job.request.user_id, now));
}

}  // namespace eco::slurm
