#include "slurm/ingress.hpp"

#include <algorithm>
#include <limits>

#include "slurm/cluster.hpp"

namespace eco::slurm {

namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// 64-bit mix (splitmix64 finalizer) so sequential uids and short account
// strings spread across stripes.
std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

const QosRule kUnlimitedRule{};

}  // namespace

const char* AdmitCodeName(AdmitCode code) {
  switch (code) {
    case AdmitCode::kOk: return "ok";
    case AdmitCode::kRateLimited: return "rate-limited";
    case AdmitCode::kAccountLimited: return "account-limited";
    case AdmitCode::kQosRejected: return "qos-rejected";
    case AdmitCode::kShed: return "shed";
    case AdmitCode::kQueueFull: return "queue-full";
    case AdmitCode::kClosed: return "closed";
  }
  return "unknown";
}

SubmitIngress::SubmitIngress(IngressConfig config)
    : config_(std::move(config)) {
  const std::size_t stripes =
      RoundUpPow2(std::max<std::size_t>(1, config_.stripes));
  stripe_mask_ = stripes - 1;
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  low_watermark_ = config_.low_watermark > 0 ? config_.low_watermark
                                             : config_.high_watermark / 2;

  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  submitted_ = metrics_->GetCounter("eco_ingress_submitted_total");
  admitted_ = metrics_->GetCounter("eco_ingress_admitted_total");
  const struct {
    AdmitCode code;
    const char* reason;
  } kRejectReasons[] = {
      {AdmitCode::kRateLimited, "rate"},
      {AdmitCode::kAccountLimited, "account"},
      {AdmitCode::kQosRejected, "qos"},
      {AdmitCode::kShed, "shed"},
      {AdmitCode::kQueueFull, "queue_full"},
      {AdmitCode::kClosed, "closed"},
  };
  for (const auto& entry : kRejectReasons) {
    rejected_by_reason_[static_cast<int>(entry.code)] =
        metrics_->GetCounter(telemetry::LabeledName(
            "eco_ingress_rejected_total", "reason", entry.reason));
  }
  drained_ = metrics_->GetCounter("eco_ingress_drained_total");
  drain_batches_ = metrics_->GetCounter("eco_ingress_drain_batches_total");
  backpressure_engaged_ =
      metrics_->GetCounter("eco_ingress_backpressure_engaged_total");
  backlog_peak_ = metrics_->GetGauge("eco_ingress_backlog_peak");
}

const QosRule& SubmitIngress::RuleFor(const std::string& qos) const {
  auto it = config_.qos.find(qos);
  if (it == config_.qos.end() && !qos.empty()) it = config_.qos.find("");
  return it == config_.qos.end() ? kUnlimitedRule : it->second;
}

std::size_t SubmitIngress::HomeStripe() const {
  // Each thread claims a stable slot once; distinct threads land on
  // distinct stripes until there are more threads than stripes, so
  // producers do not contend on the queue lock in the common case.
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot & stripe_mask_;
}

std::size_t SubmitIngress::UserStripe(std::uint32_t user) const {
  return static_cast<std::size_t>(Mix64(user)) & stripe_mask_;
}

std::size_t SubmitIngress::AccountStripe(const std::string& account) const {
  return static_cast<std::size_t>(
             Mix64(std::hash<std::string>{}(account))) &
         stripe_mask_;
}

// Token buckets are created with `burst` tokens; elapsed time is clamped at
// zero so producers with skewed arrival clocks cannot rewind a bucket.
bool SubmitIngress::TakeUserToken(std::uint32_t user, const QosRule& rule,
                                  double now_s, double* retry_after_s) {
  Stripe& stripe = *stripes_[UserStripe(user)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [it, inserted] = stripe.user_buckets.try_emplace(
      user, TokenBucket{rule.user_burst, now_s});
  TokenBucket& bucket = it->second;
  if (!inserted && now_s > bucket.last_s) {
    bucket.tokens = std::min(
        rule.user_burst,
        bucket.tokens + (now_s - bucket.last_s) * rule.user_rate_per_s);
    bucket.last_s = now_s;
  }
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  *retry_after_s = (1.0 - bucket.tokens) / rule.user_rate_per_s;
  return false;
}

bool SubmitIngress::TakeAccountToken(const std::string& account,
                                     const QosRule& rule, double now_s,
                                     double* retry_after_s) {
  Stripe& stripe = *stripes_[AccountStripe(account)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [it, inserted] = stripe.account_buckets.try_emplace(
      account, TokenBucket{rule.account_burst, now_s});
  TokenBucket& bucket = it->second;
  if (!inserted && now_s > bucket.last_s) {
    bucket.tokens = std::min(
        rule.account_burst,
        bucket.tokens + (now_s - bucket.last_s) * rule.account_rate_per_s);
    bucket.last_s = now_s;
  }
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  *retry_after_s = (1.0 - bucket.tokens) / rule.account_rate_per_s;
  return false;
}

void SubmitIngress::RefundUserToken(std::uint32_t user, const QosRule& rule) {
  Stripe& stripe = *stripes_[UserStripe(user)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.user_buckets.find(user);
  if (it == stripe.user_buckets.end()) return;
  it->second.tokens = std::min(rule.user_burst, it->second.tokens + 1.0);
}

AdmitResult SubmitIngress::Submit(JobRequest request, double now_s,
                                  std::uint64_t seq) {
  submitted_->Add(1);
  AdmitResult result;
  result.backpressure = backpressure();

  if (closed()) {
    result.code = AdmitCode::kClosed;
    CountReject(AdmitCode::kClosed);
    return result;
  }

  const QosRule& rule = RuleFor(request.qos);
  if (!rule.enabled) {
    result.code = AdmitCode::kQosRejected;
    CountReject(AdmitCode::kQosRejected);
    return result;
  }
  if (result.backpressure && rule.shed_over_watermark) {
    result.code = AdmitCode::kShed;
    CountReject(AdmitCode::kShed);
    return result;
  }
  if (rule.user_rate_per_s > 0.0 &&
      !TakeUserToken(request.user_id, rule, now_s, &result.retry_after_s)) {
    result.code = AdmitCode::kRateLimited;
    CountReject(AdmitCode::kRateLimited);
    return result;
  }
  if (rule.account_rate_per_s > 0.0 && !request.account.empty() &&
      !TakeAccountToken(request.account, rule, now_s,
                        &result.retry_after_s)) {
    // The account says no after the user bucket already paid — give the
    // user their token back so an account-limited burst does not also eat
    // the user's own budget.
    if (rule.user_rate_per_s > 0.0) RefundUserToken(request.user_id, rule);
    result.code = AdmitCode::kAccountLimited;
    CountReject(AdmitCode::kAccountLimited);
    return result;
  }

  // Reserve a queue slot atomically; fetch_add-then-check keeps the cap
  // strict under racing producers.
  const std::size_t before = queued_.fetch_add(1, std::memory_order_relaxed);
  if (before >= config_.max_queued) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    if (rule.user_rate_per_s > 0.0) RefundUserToken(request.user_id, rule);
    result.code = AdmitCode::kQueueFull;
    CountReject(AdmitCode::kQueueFull);
    return result;
  }
  const std::size_t depth = before + 1;
  backlog_peak_->SetMax(static_cast<double>(depth));
  if (config_.high_watermark > 0 && depth >= config_.high_watermark &&
      !backpressure_.exchange(true, std::memory_order_relaxed)) {
    backpressure_engaged_->Add(1);
  }

  // Seqs are stamped after admission, so the auto-assigned stream stays
  // dense (rejections burn no sequence numbers) and Drain() keeps its O(n)
  // placement fast path.
  result.seq = seq == kAutoSeq
                   ? next_seq_.fetch_add(1, std::memory_order_relaxed)
                   : seq;
  {
    Stripe& stripe = *stripes_[HomeStripe()];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.entries.push_back(Pending{result.seq, std::move(request)});
  }
  admitted_->Add(1);
  // Refresh the flag so an admitted request that itself crossed the high
  // watermark reports the engaged state back to its producer.
  result.backpressure = backpressure();
  return result;
}

std::vector<SubmitIngress::Pending> SubmitIngress::Drain() {
  std::vector<std::vector<Pending>> grabbed(stripes_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    std::lock_guard<std::mutex> lock(stripes_[i]->mutex);
    grabbed[i].swap(stripes_[i]->entries);
    total += grabbed[i].size();
  }
  if (total == 0) return {};

  queued_.fetch_sub(total, std::memory_order_relaxed);
  if (backpressure_.load(std::memory_order_relaxed) &&
      queued_.load(std::memory_order_relaxed) <= low_watermark_) {
    backpressure_.store(false, std::memory_order_relaxed);
  }

  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const auto& chunk : grabbed) {
    for (const Pending& p : chunk) {
      lo = std::min(lo, p.seq);
      hi = std::max(hi, p.seq);
    }
  }

  std::vector<Pending> out;
  // Dense, duplicate-free seq range (auto-seq, or a chunk-partitioned
  // replay): place each entry at seq - lo, one move per entry, no sort.
  if (hi - lo + 1 == total) {
    std::vector<char> used(total, 0);
    bool dense = true;
    for (const auto& chunk : grabbed) {
      for (const Pending& p : chunk) {
        char& slot = used[p.seq - lo];
        if (slot != 0) {
          dense = false;
          break;
        }
        slot = 1;
      }
      if (!dense) break;
    }
    if (dense) {
      out.resize(total);
      for (auto& chunk : grabbed) {
        for (Pending& p : chunk) out[p.seq - lo] = std::move(p);
      }
    }
  }
  if (out.empty()) {
    // Sparse seqs (a racy subset of a partitioned stream): sort pointers,
    // not Pendings — one JobRequest move per entry instead of O(n log n)
    // moves of fat objects. Stable so duplicate seqs (caller error) keep
    // stripe order rather than flapping run-to-run.
    std::vector<Pending*> order;
    order.reserve(total);
    for (auto& chunk : grabbed) {
      for (Pending& p : chunk) order.push_back(&p);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Pending* a, const Pending* b) {
                       return a->seq < b->seq;
                     });
    out.reserve(total);
    for (Pending* p : order) out.push_back(std::move(*p));
  }

  drained_->Add(total);
  drain_batches_->Add(1);
  return out;
}

std::vector<Result<JobId>> SubmitIngress::DrainInto(ClusterSim& cluster) {
  std::vector<Pending> batch = Drain();
  if (batch.empty()) return {};
  std::vector<JobRequest> requests;
  requests.reserve(batch.size());
  for (Pending& p : batch) requests.push_back(std::move(p.request));
  return cluster.SubmitBatch(std::move(requests));
}

}  // namespace eco::slurm
