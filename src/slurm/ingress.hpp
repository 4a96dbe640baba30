// SubmitIngress — the million-user front door in front of ClusterSim.
//
// The paper's plugin sits on SLURM's job-submit path; slurmctld's real
// submit path is an RPC front-end that many clients hit concurrently while
// one scheduling thread drains the queue. This is that shape in-process: a
// concurrent MPSC submit queue that accepts JobRequests from any number of
// producer threads, applies admission control (per-user and per-account
// token buckets, QOS-tier rules, watermark backpressure) at the door, and
// drains everything admitted into coalesced ClusterSim::SubmitBatch passes
// on the sim thread.
//
// Ordering guarantee: every admitted request carries a sequence number —
// caller-supplied (a replayed trace's global stream index) or stamped from
// an atomic counter at admission (arrival order). Drain() returns requests
// sorted by that sequence, so the enqueue order the cluster sees is the
// stream order no matter how many producer threads raced, and — with
// ClusterConfig::defer_dispatch coalescing same-timestamp passes — the
// resulting schedule is byte-identical to a serial per-call Submit loop.
// Sequence numbers must be distinct for that guarantee; ties fall back to
// stripe order (stable sort).
//
// Threading: Submit() is safe from any thread. Drain()/DrainInto() are
// meant for the single sim thread (they are mutually thread-safe with
// producers, but two concurrent drains would interleave batches). Token
// buckets refill from the caller-supplied `now_s` clock, which keeps
// admission decisions deterministic and testable — the ingress never reads
// a wall clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry/metrics.hpp"
#include "slurm/job.hpp"

namespace eco::slurm {

class ClusterSim;

// Why a submit was (or was not) admitted. kOk is the only admitted case.
enum class AdmitCode {
  kOk,
  kRateLimited,     // the user's token bucket is empty
  kAccountLimited,  // the account's token bucket is empty
  kQosRejected,     // the QOS tier is disabled (reject outright)
  kShed,            // backpressure is on and the tier sheds over watermark
  kQueueFull,       // hard max_queued cap
  kClosed,          // Close() was called
};

const char* AdmitCodeName(AdmitCode code);

struct AdmitResult {
  AdmitCode code = AdmitCode::kOk;
  // The admitted request's drain-order key (meaningful only when ok()).
  std::uint64_t seq = 0;
  // Rate-limited rejections: seconds until the bucket refills one token.
  double retry_after_s = 0.0;
  // Backpressure flag at the time of the decision — admitted requests also
  // carry it, so well-behaved producers can slow down before being shed.
  bool backpressure = false;

  [[nodiscard]] bool ok() const { return code == AdmitCode::kOk; }
};

// Admission policy for one QOS tier. Rates are jobs/second into a classic
// token bucket (burst = bucket capacity); rate 0 = unlimited (the bucket is
// skipped entirely, so unlimited tiers never touch limiter state).
struct QosRule {
  double user_rate_per_s = 0.0;
  double user_burst = 1.0;
  double account_rate_per_s = 0.0;
  double account_burst = 1.0;
  // Defer semantics: when the backlog is over the high watermark, tiers
  // with shed=true are dropped (kShed) until it drains below the low
  // watermark; tiers with shed=false ride through backpressure.
  bool shed_over_watermark = false;
  // false = tier rejected outright (kQosRejected).
  bool enabled = true;
};

struct IngressConfig {
  // Producer-side lock striping for the queue and the limiter tables
  // (rounded up to a power of two). More stripes = less contention.
  std::size_t stripes = 16;
  // Hard cap on queued-but-undrained requests (kQueueFull past it).
  std::size_t max_queued = 1u << 20;
  // Backpressure watermarks on the queued count, with hysteresis: the flag
  // engages at >= high and releases at <= low. high 0 = no backpressure
  // signal; low 0 = high / 2.
  std::size_t high_watermark = 0;
  std::size_t low_watermark = 0;
  // Admission rules per QOS tier; the "" entry is the default tier for
  // requests whose qos names no rule. No "" entry = unlimited default.
  std::map<std::string, QosRule> qos;
  // Registry for eco_ingress_* metrics. nullptr = a private owned registry
  // (pass ClusterSim::metrics() to get ingress counters into sdiag).
  telemetry::MetricsRegistry* metrics = nullptr;
};

class SubmitIngress {
 public:
  // Sentinel: stamp the sequence from the internal arrival counter.
  static constexpr std::uint64_t kAutoSeq = ~std::uint64_t{0};

  explicit SubmitIngress(IngressConfig config);
  SubmitIngress(const SubmitIngress&) = delete;
  SubmitIngress& operator=(const SubmitIngress&) = delete;

  // Thread-safe producer side: admission control, then enqueue. `now_s`
  // drives token-bucket refill (producers pass their arrival clock; it need
  // not be monotone across threads — elapsed time is clamped at zero).
  AdmitResult Submit(JobRequest request, double now_s = 0.0,
                     std::uint64_t seq = kAutoSeq);

  struct Pending {
    std::uint64_t seq = 0;
    JobRequest request;
  };

  // Takes everything queued, in ascending-seq order. Dense sequence ranges
  // (the common case: kAutoSeq, or a partitioned trace replay) place in
  // O(n); anything else falls back to a stable sort.
  std::vector<Pending> Drain();

  // Drain() + ClusterSim::SubmitBatch — one coalesced scheduling pass for
  // the whole drained batch. Per-request results are in drain (seq) order.
  std::vector<Result<JobId>> DrainInto(ClusterSim& cluster);

  // Queued-but-undrained request count / live backpressure flag.
  [[nodiscard]] std::size_t backlog() const {
    return queued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool backpressure() const {
    return backpressure_.load(std::memory_order_relaxed);
  }

  // Stops admitting (kClosed). Already-queued requests still drain.
  void Close() { closed_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const IngressConfig& config() const { return config_; }

 private:
  struct TokenBucket {
    double tokens = 0.0;
    double last_s = 0.0;
  };
  // One lock stripe: a slice of the queue plus the limiter state whose keys
  // hash here. Producers pick a stripe per-thread, so uncontended threads
  // never share a queue lock; limiter lookups go to the key's home stripe.
  struct Stripe {
    std::mutex mutex;
    std::vector<Pending> entries;
    std::unordered_map<std::uint32_t, TokenBucket> user_buckets;
    std::unordered_map<std::string, TokenBucket> account_buckets;
  };

  [[nodiscard]] const QosRule& RuleFor(const std::string& qos) const;
  [[nodiscard]] std::size_t HomeStripe() const;       // this thread's stripe
  [[nodiscard]] std::size_t UserStripe(std::uint32_t user) const;
  [[nodiscard]] std::size_t AccountStripe(const std::string& account) const;
  // Refill-then-take on one bucket; on failure sets retry_after_s.
  bool TakeUserToken(std::uint32_t user, const QosRule& rule, double now_s,
                     double* retry_after_s);
  bool TakeAccountToken(const std::string& account, const QosRule& rule,
                        double now_s, double* retry_after_s);
  void RefundUserToken(std::uint32_t user, const QosRule& rule);
  // Bumps the eco_ingress_rejected_total{reason=...} family slot.
  void CountReject(AdmitCode code) {
    rejected_by_reason_[static_cast<int>(code)]->Add(1);
  }

  IngressConfig config_;
  std::size_t stripe_mask_ = 0;
  std::size_t low_watermark_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> backpressure_{false};
  std::atomic<bool> closed_{false};

  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* submitted_ = nullptr;
  telemetry::Counter* admitted_ = nullptr;
  // The per-reason family eco_ingress_rejected_total{reason=...}, indexed
  // by AdmitCode (kOk's slot is null — admits are not rejects).
  telemetry::Counter* rejected_by_reason_[7] = {};
  telemetry::Counter* drained_ = nullptr;
  telemetry::Counter* drain_batches_ = nullptr;
  telemetry::Counter* backpressure_engaged_ = nullptr;
  telemetry::Gauge* backlog_peak_ = nullptr;
};

}  // namespace eco::slurm
