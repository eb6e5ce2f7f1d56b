#include "common.h"

#include <cpuid.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "obs/enabled.h"

namespace perfbench {

void Outcome::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 32) failures.push_back(what);
  }
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++attempted;
  ++failed;
  if (failures.size() < 32) failures.push_back(what);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, 0.5);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool PinThisThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

ScopedPin::ScopedPin(int cpu) {
  saved_ok_ =
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
  if (cpu >= 0) PinThisThread(cpu);
}

ScopedPin::~ScopedPin() {
  if (saved_ok_) {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
}

double TimerPairNs() {
  std::vector<double> samples;
  samples.reserve(64);
  for (int rep = 0; rep < 64; ++rep) {
    constexpr int kPairs = 2000;
    const auto start = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      Sink(static_cast<double>((b - a).count()));
    }
    samples.push_back(Seconds(start, Clock::now()) * 1e9 / kPairs);
  }
  return Median(samples);
}

double HostSlowness() {
  static const std::vector<double> xs = [] {
    std::vector<double> v(1024);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1e-3 * static_cast<double>(i % 97);
    }
    return v;
  }();
  const auto t0 = Clock::now();
  double acc = 0;
  for (int rep = 0; rep < 400; ++rep) {
    const double theta = 1.0 + 1e-3 * rep;
    for (double v : xs) acc += std::exp(theta * v) + std::log1p(v);
  }
  Sink(acc);
  return SecondsSince(t0) / kReferenceProbeSeconds;
}

double Timed::CorrectedMedian() const {
  std::vector<double> corrected;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    corrected.push_back(seconds[i] / slowness[i]);
  }
  return Median(corrected);
}

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

}  // namespace

std::map<std::string, std::string> Fingerprint() {
  std::map<std::string, std::string> fp;
  fp["nproc"] = std::to_string(AllowedCpus().size());
  fp["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  fp["cpu_model"] = CpuModel();
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  fp["l3_bytes"] = l3 > 0 ? std::to_string(l3) : "unknown";
  fp["cmake_build_type"] = PERFBENCH_BUILD_TYPE;
  fp["rcbr_obs"] = rcbr::obs::kEnabled ? "ON" : "OFF";
  fp["compiler"] = __VERSION__;
  return fp;
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::string JoinSamples(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

void Sink(double value) {
  static volatile double sink = 0;
  sink = sink + value;
}

}  // namespace perfbench
