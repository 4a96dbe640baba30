#include "hpcg/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/log.hpp"

namespace eco::hpcg {

namespace {

// Flop shares of one CG iteration at the official accounting
// (kFlopsPerPointPerIteration = 308 per point): one fine-grid SpMV costs
// 2·27 = 54, the BLAS-1 tail (dots + waxpbys) ~10, and the MG/SymGS
// preconditioner is the remainder. These weight the measured kernel rates
// into a whole-iteration composite (time-weighted harmonic mean).
constexpr double kSpmvShare = 54.0 / 308.0;
constexpr double kBlas1Share = 10.0 / 308.0;
constexpr double kSymgsShare = 1.0 - kSpmvShare - kBlas1Share;

double Metric(const JsonObject& m, const std::string& key) {
  const auto it = m.find(key);
  return it != m.end() ? it->second.as_number(0.0) : 0.0;
}

// Composite GFLOPS for one measured pool size: seconds per flop of the
// iteration is the flop-share-weighted sum of each kernel's seconds per
// flop. Zero when a required kernel rate is missing.
double CompositeGflops(const JsonObject& m, int pool) {
  const std::string p = "_p" + std::to_string(pool);
  const double spmv = Metric(m, "spmv_gflops" + p);
  // The lexicographic SymGS is serial by contract; pooled sweeps use the
  // multicolor variant, so the composite does too.
  const double symgs = pool == 0 ? Metric(m, "symgs_gflops_p0")
                                 : Metric(m, "symgs_colored_gflops" + p);
  const double dot = Metric(m, "dot_gflops" + p);
  const double waxpby = Metric(m, "waxpby_gflops" + p);
  if (spmv <= 0.0 || symgs <= 0.0) return 0.0;
  // BLAS-1 rate: equal-weight harmonic mean of dot and waxpby (one CG
  // iteration runs a comparable flop volume of each); fall back to the
  // stencil rates when a bench didn't record them.
  double blas1 = 0.0;
  if (dot > 0.0 && waxpby > 0.0) {
    blas1 = 2.0 / (1.0 / dot + 1.0 / waxpby);
  } else {
    blas1 = dot > 0.0 ? dot : waxpby;
  }
  double inv = kSpmvShare / spmv + kSymgsShare / symgs;
  inv += blas1 > 0.0 ? kBlas1Share / blas1 : kBlas1Share / spmv;
  return 1.0 / inv;
}

std::string ReadWholeFile(const std::string& path, bool* ok) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *ok = false;
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  *ok = true;
  return out;
}

}  // namespace

Result<KernelCalibration> KernelCalibration::FromArtifact(const Json& artifact) {
  if (!artifact.is_object() || !artifact.at("metrics").is_object()) {
    return Result<KernelCalibration>::Error(
        "calibration artifact has no metrics object");
  }
  const JsonObject& m = artifact.at("metrics").as_object();

  KernelCalibration cal;
  cal.isa_tier = artifact.at("metrics").at("isa_tier").as_string();

  // One composite point per pool size the bench measured, worker count 0
  // meaning the serial path (one core).
  constexpr const char* kPrefix = "spmv_gflops_p";
  for (const auto& [key, value] : m) {
    if (key.rfind(kPrefix, 0) != 0) continue;
    const std::string tail = key.substr(std::string(kPrefix).size());
    if (tail.empty() ||
        tail.find_first_not_of("0123456789") != std::string::npos) {
      continue;  // a per-tier key like spmv_gflops_avx2_p0
    }
    const int pool = std::atoi(tail.c_str());
    const double composite = CompositeGflops(m, pool);
    if (composite <= 0.0) continue;
    cal.points.push_back({std::max(1, pool), composite});
    (void)value;
  }
  std::sort(cal.points.begin(), cal.points.end(),
            [](const Point& a, const Point& b) { return a.cores < b.cores; });
  if (cal.points.empty()) {
    return Result<KernelCalibration>::Error(
        "calibration artifact has no usable spmv/symgs GFLOPS points");
  }

  // Machine balance inputs. Streaming bandwidth from the serial BLAS-1
  // kernels (8 bytes per flop in the streaming model); peak FLOPS from the
  // best SpMV rate any measured ISA tier reached.
  cal.stream_bandwidth_gbs =
      std::max(Metric(m, "dot_gflops_p0"), Metric(m, "waxpby_gflops_p0")) * 8.0;
  // Serial rates only: the bandwidth above was measured serially, and the
  // balance point has to compare like with like.
  cal.peak_gflops = Metric(m, "spmv_gflops_p0");
  for (const auto& [key, value] : m) {
    if (key.rfind("spmv_gflops_", 0) == 0 && value.is_number() &&
        key.size() >= 3 && key.compare(key.size() - 3, 3, "_p0") == 0) {
      cal.peak_gflops = std::max(cal.peak_gflops, value.as_number());
    }
  }
  const double spmv_bpf = Metric(m, "spmv_bytes_per_flop");
  const double symgs_bpf = Metric(m, "symgs_bytes_per_flop");
  const double blas1_bpf = 8.0;
  if (spmv_bpf > 0.0 && symgs_bpf > 0.0) {
    cal.iteration_bytes_per_flop = kSpmvShare * spmv_bpf +
                                   kSymgsShare * symgs_bpf +
                                   kBlas1Share * blas1_bpf;
  }
  return cal;
}

Result<KernelCalibration> KernelCalibration::FromFile(const std::string& path) {
  bool ok = false;
  const std::string text = ReadWholeFile(path, &ok);
  if (!ok) {
    return Result<KernelCalibration>::Error("cannot read calibration file: " +
                                            path);
  }
  Result<Json> parsed = Json::Parse(text);
  if (!parsed.ok()) {
    return Result<KernelCalibration>::Error("cannot parse " + path + ": " +
                                            parsed.message());
  }
  Result<KernelCalibration> cal = FromArtifact(parsed.value());
  if (cal.ok()) cal.value().source = path;
  return cal;
}

HpcgPerfModel::HpcgPerfModel(PerfModelParams params) : params_(params) {
  // A non-positive reference point would push NaN/Inf through every job
  // duration and GFLOPS/W ranking downstream; fail loudly and fall back to
  // the paper-fitted defaults instead of silently dividing.
  if (params_.reference_cores <= 0 || params_.reference_gflops <= 0.0 ||
      params_.reference_ghz <= 0.0 || params_.flops_per_point <= 0.0) {
    ECO_ERROR << "HpcgPerfModel: invalid reference point (cores="
              << params_.reference_cores
              << ", gflops=" << params_.reference_gflops
              << ", ghz=" << params_.reference_ghz
              << ", flops/point=" << params_.flops_per_point
              << "); using Epyc7502P defaults";
    params_ = PerfModelParams::Epyc7502P();
  }
  const double n = params_.reference_cores;
  const double eps = FrequencyElasticity(params_.reference_cores);
  scale_ = params_.reference_gflops /
           (std::pow(n, params_.core_exponent) *
            std::pow(params_.reference_ghz, eps));
}

double HpcgPerfModel::FrequencyElasticity(int cores) const {
  const double n = std::max(1, cores);
  return params_.eps_floor +
         (1.0 - params_.eps_floor) * std::exp(-(n - 1.0) / params_.eps_decay);
}

double HpcgPerfModel::Gflops(int cores, KiloHertz f, bool ht) const {
  if (cores <= 0) return 0.0;
  const double f_ghz = KiloHertzToGHz(f);
  if (f_ghz <= 0.0) return 0.0;
  const double eps = FrequencyElasticity(cores);
  double g = scale_ * std::pow(static_cast<double>(cores), params_.core_exponent) *
             std::pow(f_ghz, eps);
  if (ht) {
    const double h = 1.0 + params_.ht_gain * std::exp(-cores / params_.ht_gain_decay) -
                     params_.ht_penalty * cores / 32.0;
    g *= h;
  }
  return g;
}

double HpcgPerfModel::MeanUtilization(int cores, KiloHertz f, bool ht) const {
  // Issue density: achieved FLOPS over compute capability. Memory-bound runs
  // stall often, but stalled cores still clock — the power model's stall
  // fraction covers that; here we only report the issue-rate component.
  const double f_ghz = KiloHertzToGHz(f);
  const double capacity =
      std::max(1e-9, cores * params_.compute_gflops_per_ghz * f_ghz);
  const double density = Gflops(cores, f, ht) / capacity;
  // HPCG never idles a core outright; clamp into a plausible band.
  return std::clamp(0.55 + 0.45 * std::min(1.0, density), 0.0, 1.0);
}

double HpcgPerfModel::PhaseAmplitude(KiloHertz f) const {
  const double f_ghz = KiloHertzToGHz(f);
  return params_.phase_amp_base +
         params_.phase_amp_per_ghz_above_knee *
             std::max(0.0, f_ghz - params_.knee_ghz);
}

double HpcgPerfModel::ModulatedUtilization(double t_seconds, double mean,
                                           double amplitude) const {
  const double phase =
      std::sin(2.0 * M_PI * t_seconds / params_.phase_period_s) * 0.5 +
      std::sin(2.0 * M_PI * t_seconds / (params_.phase_period_s * 0.37)) * 0.5;
  return std::clamp(mean * (1.0 - amplitude * (0.5 + 0.5 * phase)), 0.0, 1.0);
}

double HpcgPerfModel::UtilizationAt(double t_seconds, int cores, KiloHertz f,
                                    bool ht) const {
  return ModulatedUtilization(t_seconds, MeanUtilization(cores, f, ht),
                              PhaseAmplitude(f));
}

double HpcgPerfModel::TotalFlops(const HpcgProblem& problem, int cores,
                                 int iterations) {
  return static_cast<double>(problem.LocalPoints()) * cores * iterations *
         HpcgProblem::kFlopsPerPointPerIteration;
}

double HpcgPerfModel::TotalFlopsFor(const HpcgProblem& problem, int cores,
                                    int iterations) const {
  return static_cast<double>(problem.LocalPoints()) * cores * iterations *
         params_.flops_per_point;
}

int HpcgPerfModel::IterationsForDuration(const HpcgProblem& problem,
                                         double target_seconds) const {
  const double ref_gflops = params_.reference_gflops;
  const double flops_per_iter = static_cast<double>(problem.LocalPoints()) *
                                params_.reference_cores *
                                params_.flops_per_point;
  const double iters = target_seconds * ref_gflops * 1e9 / flops_per_iter;
  return std::max(1, static_cast<int>(std::llround(iters)));
}

bool HpcgPerfModel::CalibrateFrom(const KernelCalibration& cal) {
  double best_gflops = 0.0;
  int best_cores = 0;
  for (const KernelCalibration::Point& p : cal.points) {
    if (p.cores <= 0 || p.gflops <= 0.0) continue;
    if (p.cores > best_cores) {
      best_cores = p.cores;
      best_gflops = p.gflops;
    }
  }
  if (best_cores <= 0) return false;

  PerfModelParams next = params_;
  // Reference point = the widest measured configuration; Gflops() there
  // then equals the measurement exactly, whatever the other parameters say.
  next.reference_cores = best_cores;
  next.reference_gflops = best_gflops;

  // Core-scaling exponent: least-squares slope of log(gflops) over
  // log(cores), needing at least two distinct core counts. Clamped to
  // [0.3, 1.0]: a shared box can measure a pool that scales not at all
  // (slope ~0) or superlinearly through cache effects, and the scheduler
  // model should stay in the physically plausible band either way.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  int distinct = 0, count = 0, last_cores = 0;
  for (const KernelCalibration::Point& p : cal.points) {
    if (p.cores <= 0 || p.gflops <= 0.0) continue;
    if (p.cores != last_cores) ++distinct;
    last_cores = p.cores;
    const double x = std::log(static_cast<double>(p.cores));
    const double y = std::log(p.gflops);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++count;
  }
  if (distinct >= 2) {
    const double denom = count * sxx - sx * sx;
    if (denom > 1e-12) {
      next.core_exponent =
          std::clamp((count * sxy - sx * sy) / denom, 0.3, 1.0);
    }
  }

  // Elasticity floor from the machine-balance point: the iteration's
  // bytes/flop over what the machine can feed at peak FLOPS is its
  // memory-boundness; the compute remainder is the fraction of time a
  // faster clock still buys at full saturation.
  if (cal.stream_bandwidth_gbs > 0.0 && cal.peak_gflops > 0.0 &&
      cal.iteration_bytes_per_flop > 0.0) {
    const double balance_bpf = cal.stream_bandwidth_gbs / cal.peak_gflops;
    const double boundness =
        std::min(1.0, cal.iteration_bytes_per_flop / balance_bpf);
    next.eps_floor = std::clamp(1.0 - boundness, 0.05, 0.95);
  }

  *this = HpcgPerfModel(next);
  return true;
}

void ApplyEnvCalibration(HpcgPerfModel* model) {
  static const std::optional<KernelCalibration> cal =
      []() -> std::optional<KernelCalibration> {
    const char* path = std::getenv("ECO_PERF_CALIBRATION");
    if (path == nullptr || *path == '\0') return std::nullopt;
    Result<KernelCalibration> r = KernelCalibration::FromFile(path);
    if (!r.ok()) {
      ECO_WARN << "ECO_PERF_CALIBRATION ignored: " << r.message();
      return std::nullopt;
    }
    ECO_INFO << "perf model calibrated from " << path << " (isa tier "
             << (r.value().isa_tier.empty() ? "?" : r.value().isa_tier)
             << ", " << r.value().points.size() << " points)";
    return std::move(r).value();
  }();
  if (cal.has_value()) model->CalibrateFrom(*cal);
}

}  // namespace eco::hpcg
