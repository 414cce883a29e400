#include "perfbench/common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench_common.h"
#include "src/serve/dot_block.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// ---- JSON -----------------------------------------------------------------

namespace {
std::string Quoted(const std::string& text) {
  return "\"" + pane::bench::JsonEscape(text) + "\"";
}
}  // namespace

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, pane::bench::JsonNumber(value));
  return *this;
}

Json& Json::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quoted(value));
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Json::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quoted(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// ---- Spans ----------------------------------------------------------------

int64_t Tracer::Begin(const char* name, int64_t run) {
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  span.start = NowSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::AddChild(const char* name, int64_t parent, double start,
                      double end) {
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.run = spans_[static_cast<size_t>(parent)].run;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

double Tracer::Total(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.end - s.start;
  }
  return total;
}

double Tracer::Self(const char* name) const {
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        std::strcmp(spans_[static_cast<size_t>(s.parent)].name, name) == 0) {
      kids[s.parent].emplace_back(s.start, s.end);
    }
  }
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    double covered = 0.0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      std::vector<std::pair<double, double>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_start = 0.0, cur_end = -1.0;
      bool open = false;
      for (const auto& [a0, b0] : iv) {
        const double a = std::max(a0, s.start);
        const double b = std::min(b0, s.end);
        if (b <= a) continue;
        if (!open || a > cur_end) {
          if (open) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
          open = true;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (open) covered += cur_end - cur_start;
    }
    total += (s.end - s.start) - covered;
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << Json()
               .Str("name", s.name)
               .Int("id", s.id)
               .Int("parent", s.parent)
               .Int("run", s.run)
               .Num("start", s.start)
               .Num("end", s.end)
               .str()
        << '\n';
  }
  return static_cast<bool>(out);
}

// ---- Inputs ---------------------------------------------------------------

RequestMix MixByName(const std::string& name) {
  RequestMix mix;
  if (name == "sharded") {
    mix.attr = 2;
    mix.link = 1;
    mix.pattr = 1;
    mix.pair = 1;
    mix.zipf_s = 1.0;
  }
  return mix;
}

RequestStream::RequestStream(const RequestMix& mix, int64_t num_nodes,
                             int64_t num_attributes, uint64_t seed)
    : mix_(mix), n_(num_nodes), d_(num_attributes), rng_(seed) {
  if (mix_.zipf_s > 0.0) {
    zipf_cdf_.resize(static_cast<size_t>(n_));
    double sum = 0.0;
    for (int64_t i = 0; i < n_; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), mix_.zipf_s);
      zipf_cdf_[static_cast<size_t>(i)] = sum;
    }
    for (double& c : zipf_cdf_) c /= sum;
    permutation_.resize(static_cast<size_t>(n_));
    for (int64_t i = 0; i < n_; ++i) permutation_[static_cast<size_t>(i)] = i;
    for (int64_t i = n_ - 1; i > 0; --i) {
      const auto j = static_cast<int64_t>(
          rng_.UniformInt(static_cast<uint64_t>(i + 1)));
      std::swap(permutation_[static_cast<size_t>(i)],
                permutation_[static_cast<size_t>(j)]);
    }
  }
}

int64_t RequestStream::Node() {
  if (zipf_cdf_.empty()) {
    return static_cast<int64_t>(rng_.UniformInt(static_cast<uint64_t>(n_)));
  }
  const double u = rng_.UniformDouble();
  const auto rank = std::min<int64_t>(
      n_ - 1, std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
                  zipf_cdf_.begin());
  return permutation_[static_cast<size_t>(rank)];
}

std::string RequestStream::Next() {
  if (block_.empty()) {
    block_.insert(block_.end(), mix_.attr, 'a');
    block_.insert(block_.end(), mix_.link, 'l');
    block_.insert(block_.end(), mix_.pattr, 'p');
    block_.insert(block_.end(), mix_.pair, 'q');
    for (size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng_.UniformInt(i + 1)]);
    }
  }
  const char kind = block_.back();
  block_.pop_back();
  const std::string a = std::to_string(Node());
  switch (kind) {
    case 'a':
      return "attr " + a + " " + std::to_string(mix_.k);
    case 'l':
      return "link " + a + " " + std::to_string(mix_.k);
    case 'p':
      return "pattr " + a + " " +
             std::to_string(rng_.UniformInt(static_cast<uint64_t>(d_)));
    default:
      return "pair " + a + " " +
             std::to_string(rng_.UniformInt(static_cast<uint64_t>(n_)));
  }
}

pane::SbmParams TrainingGraph(int64_t n, int64_t d, uint64_t seed) {
  pane::SbmParams params;
  params.num_nodes = n;
  params.num_attributes = d;
  params.num_edges = 10 * n;
  params.num_attr_entries = 10 * n;
  params.num_communities = 10;
  params.seed = seed;
  return params;
}

pane::PaneEmbedding MakeClusteredEmbedding(int64_t n, int64_t d, int64_t h,
                                           int64_t clusters, uint64_t seed) {
  pane::Rng rng(seed);
  pane::DenseMatrix node_centroids(clusters, h);
  pane::DenseMatrix attr_centroids(clusters, h);
  node_centroids.FillGaussian(&rng);
  attr_centroids.FillGaussian(&rng);
  pane::PaneEmbedding e;
  e.xf.Resize(n, h);
  e.xb.Resize(n, h);
  e.y.Resize(d, h);
  for (int64_t v = 0; v < n; ++v) {
    const auto c = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(clusters)));
    for (int64_t t = 0; t < h; ++t) {
      e.xf(v, t) = node_centroids(c, t) + 0.3 * rng.Gaussian();
      e.xb(v, t) = node_centroids(c, t) + 0.3 * rng.Gaussian();
    }
  }
  const int64_t block = std::max<int64_t>(1, d / clusters);
  for (int64_t r = 0; r < d; ++r) {
    const int64_t c = std::min<int64_t>(r / block, clusters - 1);
    for (int64_t t = 0; t < h; ++t) {
      e.y(r, t) = attr_centroids(c, t) + 0.3 * rng.Gaussian();
    }
  }
  return e;
}

namespace {
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}
}  // namespace

uint64_t HashEmbedding(const pane::PaneEmbedding& embedding) {
  uint64_t hash = 1469598103934665603ULL;
  for (const pane::DenseMatrix* m :
       {&embedding.xf, &embedding.xb, &embedding.y}) {
    const int64_t shape[2] = {m->rows(), m->cols()};
    hash = Fnv1a(shape, sizeof(shape), hash);
    hash = Fnv1a(m->data(),
                 static_cast<size_t>(m->rows() * m->cols()) * sizeof(double),
                 hash);
  }
  return hash;
}

std::string HexHash(uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// ---- Machine --------------------------------------------------------------

int64_t LastLevelCacheBytes() {
  for (const char* index : {"index3", "index2"}) {
    std::ifstream in(std::string("/sys/devices/system/cpu/cpu0/cache/") +
                     index + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    int64_t value = std::atoll(text.c_str());
    const char unit = text.back();
    if (unit == 'K') value <<= 10;
    if (unit == 'M') value <<= 20;
    if (value > 0) return value;
  }
  const long sys = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return sys > 0 ? sys : (int64_t{32} << 20);
}

std::string MachineJson() {
  bool avx2 = false, fma = false, avx512 = false;
#if defined(__x86_64__)
  __builtin_cpu_init();
  avx2 = __builtin_cpu_supports("avx2");
  fma = __builtin_cpu_supports("fma");
  avx512 = __builtin_cpu_supports("avx512f");
#endif
  bool dot_avx2 = false;
#if defined(__x86_64__)
  dot_avx2 = pane::serve::GetDotBlock() == &pane::serve::detail::DotBlockAvx2;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  return Json()
      .Int("cores", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Int("avx2", avx2)
      .Int("fma", fma)
      .Int("avx512f", avx512)
      .Str("dot_block", dot_avx2 ? "avx2" : "generic")
      .Int("llc_bytes", LastLevelCacheBytes())
      .Str("compiler", __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .str();
}

}  // namespace perfbench
