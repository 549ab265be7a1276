#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

namespace kbt::bench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Every digit of the measured value.
std::string JsonNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Result::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = Value{value, unit};
}

void Result::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = Value{value, unit};
}

void Result::Diagnostic(const std::string& name, double value,
                        const std::string& unit) {
  diagnostics_[name] = Value{value, unit};
}

void Result::Meta(const std::string& name, const std::string& value) {
  meta_[name] = JsonString(value);
}

void Result::Meta(const std::string& name, double value) {
  meta_[name] = JsonNumber(value);
}

void Result::Violation(const std::string& what) {
  std::fprintf(stderr, "kbt_bench: GATE FAILED: %s\n", what.c_str());
  violations_.push_back(what);
}

void Result::CountOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Result::Emit(const Args& args, const std::vector<std::string>& end_to_end,
                  const std::vector<std::string>& per_layer) {
  const std::map<std::string, Value>& contract =
      args.trace ? layer_ : end_to_end_;
  const std::vector<std::string>& expected = args.trace ? per_layer
                                                        : end_to_end;
  for (const std::string& name : expected) {
    const auto it = contract.find(name);
    if (it == contract.end()) {
      Violation("metric " + name + " was not measured");
    } else if (!std::isfinite(it->second.value)) {
      Violation("metric " + name + " is not finite");
    }
  }
  if (attempted_ == 0) Violation("the measured phase attempted nothing");

  // Human-readable: every metric with its unit.
  const auto print = [](const char* kind,
                        const std::map<std::string, Value>& values) {
    for (const auto& [name, v] : values) {
      std::printf("  %-10s %-44s %16.6f %s\n", kind, name.c_str(), v.value,
                  v.unit.c_str());
    }
  };
  std::printf("%s%s seed %llu: %s (%llu attempted, %llu failed)\n",
              args.workload.c_str(), args.trace ? " (traced)" : "",
              static_cast<unsigned long long>(args.seed),
              correct() ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  print("end-to-end", end_to_end_);
  print("per-layer", layer_);
  print("diag", diagnostics_);

  const auto section = [](const std::map<std::string, Value>& values) {
    std::string out = "{";
    for (const auto& [name, v] : values) {
      if (out.size() > 1) out += ", ";
      out += JsonString(name) + ": {\"value\": " +
             JsonNumber(std::isfinite(v.value) ? v.value : 0.0) +
             ", \"unit\": " + JsonString(v.unit) + "}";
    }
    return out + "}";
  };
  std::map<std::string, Value> reported;
  for (const std::string& name : expected) {
    const auto it = contract.find(name);
    if (it != contract.end()) reported.insert(*it);
  }
  const std::string line =
      std::string("{\"correct\": ") + (correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) +
      ", \"metrics\": " + section(reported) + "}";

  // The results file: the contract line's content plus every other metric,
  // the metadata and the violations, for run.sh and compare.py.
  std::string meta = "{";
  for (const auto& [name, value] : meta_) {
    if (meta.size() > 1) meta += ", ";
    meta += JsonString(name) + ": " + value;
  }
  meta += "}";
  std::string violations = "[";
  for (const std::string& what : violations_) {
    if (violations.size() > 1) violations += ", ";
    violations += JsonString(what);
  }
  violations += "]";
  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  const std::string path = args.out_dir + "/" + args.workload +
                           (args.trace ? "-traced" : "") + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream file(path);
  file << "{\n  \"workload\": " << JsonString(args.workload)
       << ",\n  \"seed\": " << args.seed
       << ",\n  \"trace\": " << (args.trace ? "true" : "false")
       << ",\n  \"smoke\": " << (args.smoke ? "true" : "false")
       << ",\n  \"correct\": " << (correct() ? "true" : "false")
       << ",\n  \"attempted\": " << attempted_
       << ",\n  \"failed\": " << failed_
       << ",\n  \"violations\": " << violations
       << ",\n  \"end_to_end\": " << section(end_to_end_)
       << ",\n  \"per_layer\": " << section(layer_)
       << ",\n  \"diagnostics\": " << section(diagnostics_)
       << ",\n  \"meta\": " << meta << "\n}\n";
  if (file) {
    std::printf("results: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "kbt_bench: could not write %s\n", path.c_str());
  }

  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct();
}

// ---------------------------------------------------------------------------
// Peak RSS
// ---------------------------------------------------------------------------

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------------

Input::~Input() {
  if (!cube_path.empty()) {
    std::error_code ignored;
    std::filesystem::remove(cube_path, ignored);
  }
}

namespace {

/// Indices of `k` of `n` positions drawn uniformly without replacement, in
/// ascending order (a partial Fisher-Yates shuffle).
std::vector<uint32_t> DrawSorted(size_t n, size_t k, Rng& rng) {
  std::vector<uint32_t> index(n);
  std::iota(index.begin(), index.end(), 0u);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + rng.NextU64() % (n - i);
    std::swap(index[i], index[j]);
  }
  index.resize(k);
  std::sort(index.begin(), index.end());
  return index;
}

}  // namespace

StatusOr<std::unique_ptr<Input>> MakeInput(const exp::KvSimConfig& preset,
                                           uint64_t seed, size_t observations,
                                           double held_out_fraction,
                                           const std::string& dir) {
  const double start = Now();
  auto input = std::make_unique<Input>();
  StatusOr<exp::KvSimData> world = exp::BuildKvSim(preset);
  if (!world.ok()) return world.status();
  input->world = std::make_unique<exp::KvSimData>(std::move(*world));
  extract::RawDataset& data = input->world->data;
  observations = std::min(observations, data.size());
  Rng rng(seed);
  std::vector<extract::RawObservation> kept;
  kept.reserve(observations);
  for (const uint32_t i : DrawSorted(data.size(), observations, rng)) {
    kept.push_back(data.observations[i]);
  }
  const size_t num_held_out =
      static_cast<size_t>(held_out_fraction * static_cast<double>(kept.size()));
  std::vector<bool> withheld(kept.size(), false);
  for (const uint32_t i : DrawSorted(kept.size(), num_held_out, rng)) {
    withheld[i] = true;
  }
  data.observations.clear();
  for (size_t i = 0; i < kept.size(); ++i) {
    (withheld[i] ? input->held_out : data.observations).push_back(kept[i]);
  }
  kept = {};

  std::error_code error;
  std::filesystem::create_directories(dir, error);
  input->cube_path = dir + "/cube-" + std::to_string(seed) + ".tsv";
  KBT_RETURN_IF_ERROR(io::WriteRawDataset(input->cube_path, data));
  input->cube_bytes = std::filesystem::file_size(input->cube_path, error);
  input->cube_observations = data.size();
  // The program loads the cube from disk; the generator's copy is only
  // dead weight in the memory peak.
  data.observations = {};
  input->gold = std::make_unique<eval::GoldStandard>(
      input->world->partial_kb, input->world->corpus.world());
  input->gen_s = Now() - start;
  return input;
}

// ---------------------------------------------------------------------------
// Read load
// ---------------------------------------------------------------------------

struct ReadLoad::Thread {
  int index = 0;
  std::vector<Sample> samples;
  std::vector<bool> failed;
  std::thread thread;
};

ReadLoad::ReadLoad(int threads, double period, uint64_t seed)
    : period_(period), seed_(seed) {
  for (int t = 0; t < threads; ++t) {
    threads_.push_back(std::make_unique<Thread>());
    threads_.back()->index = t;
  }
}

ReadLoad::~ReadLoad() { Stop(); }

void ReadLoad::Serve(ReaderFactory factory) {
  {
    MutexLock lock(mutex_);
    factory_ = std::move(factory);
  }
  generation_.fetch_add(1, std::memory_order_release);
}

void ReadLoad::Start() {
  for (const std::unique_ptr<Thread>& t : threads_) {
    Thread* self = t.get();
    self->thread = std::thread([this, self] { Loop(self); });
  }
}

void ReadLoad::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (const std::unique_ptr<Thread>& t : threads_) {
    if (t->thread.joinable()) t->thread.join();
  }
}

void ReadLoad::Loop(Thread* self) {
  Rng rng(seed_ + 7919u * static_cast<uint64_t>(self->index + 1));
  query::SnapshotReader reader;
  uint64_t seen_generation = 0;
  // Readers are staggered by a fraction of a period so they do not wake in
  // lockstep.
  const double start = Now() + period_ * (self->index + 1) /
                                   static_cast<double>(threads_.size() + 1);
  self->samples.reserve(static_cast<size_t>(60.0 / period_));
  for (uint64_t k = 0; !stop_.load(std::memory_order_relaxed); ++k) {
    const double due = start + static_cast<double>(k) * period_;
    const double wait = due - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double begin = Now();
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (generation != seen_generation) {
      MutexLock lock(mutex_);
      reader = factory_ ? factory_() : query::SnapshotReader();
      seen_generation = generation;
    }
    const query::Snapshot* view = reader.view();
    if (view == nullptr) continue;  // Nothing served yet: not a read.
    const uint32_t num_sources = static_cast<uint32_t>(view->num_sources());
    bool ok = num_sources > 0;
    const double lookups_begin = Now();
    for (int i = 0; i < kLookupsPerBatch && ok; ++i) {
      const auto trust =
          view->SourceTrust(static_cast<uint32_t>(rng.NextU64() % num_sources));
      ok = trust.has_value() && std::isfinite(trust->kbt);
    }
    const double topk_begin = Now();
    const std::vector<query::SourceTrust> top = view->TopKSources(kTopK);
    const double end = Now();
    ok = ok && top.size() <= kTopK;
    for (size_t i = 1; ok && i < top.size(); ++i) {
      ok = top[i - 1].kbt >= top[i].kbt;
    }
    self->samples.push_back(Sample{due, end - begin, topk_begin - lookups_begin,
                                   end - topk_begin, begin - due});
    self->failed.push_back(!ok);
  }
}

ReadLoad::Stats ReadLoad::Collect(double from, double to) const {
  Stats stats;
  for (const std::unique_ptr<Thread>& t : threads_) {
    for (size_t i = 0; i < t->samples.size(); ++i) {
      const Sample& sample = t->samples[i];
      if (sample.due < from || sample.due >= to) continue;
      stats.samples.push_back(sample);
      if (t->failed[i]) ++stats.failed;
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Bitwise comparisons
// ---------------------------------------------------------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<core::KbtScore>& a,
              const std::vector<core::KbtScore>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].kbt, &b[i].kbt, sizeof(double)) != 0 ||
        std::memcmp(&a[i].evidence, &b[i].evidence, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

bool SameTrust(const std::optional<query::SourceTrust>& a,
               const std::optional<query::SourceTrust>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() ||
         (std::memcmp(&a->kbt, &b->kbt, sizeof(double)) == 0 &&
          std::memcmp(&a->evidence, &b->evidence, sizeof(double)) == 0 &&
          a->scored == b->scored);
}

}  // namespace

bool SameServedScores(const query::Snapshot& a, const query::Snapshot& b) {
  if (a.num_sources() != b.num_sources() ||
      a.num_websites() != b.num_websites() ||
      a.num_triples() != b.num_triples() || a.num_items() != b.num_items()) {
    return false;
  }
  for (uint32_t id = 0; id < a.num_sources(); ++id) {
    if (!SameTrust(a.SourceTrust(id), b.SourceTrust(id))) return false;
  }
  for (uint32_t id = 0; id < a.num_websites(); ++id) {
    if (!SameTrust(a.WebsiteTrust(id), b.WebsiteTrust(id))) return false;
  }
  query::TripleFilter all;
  const std::vector<query::TripleTruth> ta = a.TopKTriples(a.num_triples(), all);
  const std::vector<query::TripleTruth> tb = b.TopKTriples(b.num_triples(), all);
  if (ta.size() != tb.size()) return false;
  for (size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].item != tb[i].item || ta[i].value != tb[i].value ||
        ta[i].covered != tb[i].covered ||
        std::memcmp(&ta[i].probability, &tb[i].probability, sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

}  // namespace kbt::bench
